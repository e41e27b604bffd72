"""The multivariate hypergeometric distribution (Algorithm 2 of the paper).

Given an urn with ``p`` colour classes of sizes ``m' = (m'_0, ..., m'_{p-1})``
(total ``n``), drawing ``m`` balls without replacement and counting how many
of each colour were drawn yields the *multivariate hypergeometric*
distribution ``MVH(m, m')``.  The paper samples it by conditional peeling
(Algorithm 2): the count of colour ``i`` given the previous colours is a
univariate hypergeometric, so one pass over the colours with one ``h(,)``
sample each produces an exact sample.

Two samplers are provided:

``sample_sequential``
    Algorithm 2 verbatim -- iterate over colours left to right.

``sample_recursive``
    The balanced-splitting variant suggested at the end of Section 4
    ("the recursive formulation also has the advantage that we may split the
    input for the samples of the hypergeometric distribution more or less
    evenly"): split the colour classes into halves, draw the number of balls
    falling into the left half with one ``h(,)`` sample, recurse.  Same law,
    different call tree -- this is the building block of the parallel
    algorithms.

Both consume exactly ``p - 1`` non-trivial ``h(,)`` samples in the worst
case (the last colour is forced).
"""

from __future__ import annotations

from math import lgamma

import numpy as np

from repro.core import hypergeometric
from repro.core.engine import get_engine
from repro.rng.streams import default_rng
from repro.util.errors import ValidationError
from repro.util.validation import (
    check_nonnegative_int,
    check_vector_of_nonnegative_ints,
)

__all__ = [
    "sample",
    "sample_sequential",
    "sample_recursive",
    "log_pmf",
    "pmf",
    "mean",
    "covariance",
]


def _validate(n_draws: int, class_sizes) -> tuple[int, np.ndarray]:
    n_draws = check_nonnegative_int(n_draws, "n_draws")
    class_sizes = check_vector_of_nonnegative_ints(class_sizes, "class_sizes")
    if class_sizes.size == 0:
        raise ValidationError("class_sizes must contain at least one class")
    total = int(class_sizes.sum())
    if n_draws > total:
        raise ValidationError(
            f"cannot draw {n_draws} balls from an urn with only {total} balls"
        )
    return n_draws, class_sizes


# ----------------------------------------------------------------------------
# Exact quantities
# ----------------------------------------------------------------------------
def log_pmf(counts, n_draws: int, class_sizes) -> float:
    """Natural log of ``P[X = counts]`` for ``X ~ MVH(n_draws, class_sizes)``.

    ``counts`` must have the same length as ``class_sizes``; the result is
    ``-inf`` when the counts are outside the support (wrong total or a count
    exceeding its class size).
    """
    n_draws, class_sizes = _validate(n_draws, class_sizes)
    counts = check_vector_of_nonnegative_ints(counts, "counts")
    if counts.size != class_sizes.size:
        raise ValidationError(
            f"counts has {counts.size} entries but class_sizes has {class_sizes.size}"
        )
    if int(counts.sum()) != n_draws or np.any(counts > class_sizes):
        return float("-inf")
    total = int(class_sizes.sum())

    def log_binom(n, k):
        return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)

    value = -log_binom(total, n_draws)
    for k, m in zip(counts.tolist(), class_sizes.tolist()):
        value += log_binom(m, k)
    return value


def pmf(counts, n_draws: int, class_sizes) -> float:
    """``P[X = counts]`` for ``X ~ MVH(n_draws, class_sizes)``."""
    lp = log_pmf(counts, n_draws, class_sizes)
    return 0.0 if lp == float("-inf") else float(np.exp(lp))


def mean(n_draws: int, class_sizes) -> np.ndarray:
    """Expectation vector ``n_draws * class_sizes / n``."""
    n_draws, class_sizes = _validate(n_draws, class_sizes)
    total = class_sizes.sum()
    if total == 0:
        return np.zeros(class_sizes.size)
    return n_draws * class_sizes / total


def covariance(n_draws: int, class_sizes) -> np.ndarray:
    """Covariance matrix of ``MVH(n_draws, class_sizes)``.

    ``Cov[X_i, X_j] = -t * (n-t)/(n-1) * p_i * p_j`` for ``i != j`` and
    ``Var[X_i] = t * (n-t)/(n-1) * p_i * (1 - p_i)`` with ``p_i = m'_i / n``.
    """
    n_draws, class_sizes = _validate(n_draws, class_sizes)
    total = int(class_sizes.sum())
    p = class_sizes / total if total else np.zeros(class_sizes.size)
    if total <= 1:
        return np.zeros((class_sizes.size, class_sizes.size))
    factor = n_draws * (total - n_draws) / (total - 1)
    cov = -factor * np.outer(p, p)
    np.fill_diagonal(cov, factor * p * (1 - p))
    return cov


# ----------------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------------
def sample_sequential(n_draws: int, class_sizes, rng=None, *, method: str = "auto") -> np.ndarray:
    """Algorithm 2: sample ``MVH(n_draws, class_sizes)`` by left-to-right peeling.

    For each colour class ``i`` the number of drawn balls *not* of colour
    ``i`` among the remaining draws follows ``h(m, n - m'_i, m'_i)``; the
    complement is the count of colour ``i`` (this is the paper's
    ``toRight``/``alpha`` bookkeeping, kept verbatim).
    """
    n_draws, class_sizes = _validate(n_draws, class_sizes)
    rng = default_rng(rng) if not hasattr(rng, "random") else rng
    return _sequential(n_draws, class_sizes, rng, get_engine(method))


def _sequential(n_draws: int, class_sizes: np.ndarray, rng, engine) -> np.ndarray:
    """:func:`sample_sequential` on valid input: the matrix samplers' inner call."""
    remaining_total = int(class_sizes.sum())
    remaining_draws = n_draws
    counts = np.zeros(class_sizes.size, dtype=np.int64)
    for i, class_size in enumerate(class_sizes.tolist()):
        # toRight = number of the remaining draws that fall outside class i.
        to_right = hypergeometric._draw(
            remaining_draws, remaining_total - class_size, class_size, rng, engine
        )
        counts[i] = remaining_draws - to_right
        remaining_total -= class_size
        remaining_draws = to_right
    return counts


def sample_recursive(
    n_draws: int,
    class_sizes,
    rng=None,
    *,
    method: str = "auto",
    leaf_size: int = 1,
) -> np.ndarray:
    """Balanced-splitting sampler: same law as :func:`sample_sequential`.

    Splits the colour classes at the midpoint, draws how many of the
    ``n_draws`` balls land in the left half (a single ``h(,)`` sample with
    roughly balanced white/black sizes) and recurses into both halves.  With
    ``leaf_size > 1`` the recursion bottoms out into the sequential sampler,
    which is slightly faster for short vectors.
    """
    n_draws, class_sizes = _validate(n_draws, class_sizes)
    rng = default_rng(rng) if not hasattr(rng, "random") else rng
    engine = get_engine(method)
    leaf_size = max(1, int(leaf_size))

    counts = np.zeros(class_sizes.size, dtype=np.int64)

    def recurse(lo: int, hi: int, draws: int) -> None:
        width = hi - lo
        if draws == 0:
            return
        if width == 1:
            counts[lo] = draws
            return
        if width <= leaf_size:
            counts[lo:hi] = _sequential(draws, class_sizes[lo:hi], rng, engine)
            return
        mid = (lo + hi) // 2
        left_total = int(class_sizes[lo:mid].sum())
        right_total = int(class_sizes[mid:hi].sum())
        into_left = hypergeometric._draw(draws, left_total, right_total, rng, engine)
        recurse(lo, mid, into_left)
        recurse(mid, hi, draws - into_left)

    recurse(0, class_sizes.size, n_draws)
    return counts


def sample(n_draws: int, class_sizes, rng=None, *, method: str = "auto", strategy: str = "sequential") -> np.ndarray:
    """Sample ``MVH(n_draws, class_sizes)``.

    ``strategy`` selects the call tree: ``"sequential"`` (Algorithm 2,
    default), ``"recursive"`` (balanced splitting), ``"batched"`` (the
    balanced splitting evaluated with vectorized NumPy kernels by the
    :class:`~repro.core.engine.SamplerEngine` -- same law, ``O(log p)``
    kernel calls) or ``"numpy"`` (delegate to
    ``Generator.multivariate_hypergeometric``, useful as an independent
    oracle in tests).
    """
    if strategy == "sequential":
        return sample_sequential(n_draws, class_sizes, rng, method=method)
    if strategy == "recursive":
        return sample_recursive(n_draws, class_sizes, rng, method=method)
    if strategy == "batched":
        n_draws, class_sizes = _validate(n_draws, class_sizes)
        return get_engine(method).multivariate_batch(n_draws, class_sizes[None], rng)[0]
    if strategy == "numpy":
        n_draws, class_sizes = _validate(n_draws, class_sizes)
        generator = default_rng(rng) if not hasattr(rng, "random") else rng
        if hasattr(generator, "generator"):
            generator = generator.generator  # unwrap CountingRNG
        return np.asarray(
            generator.multivariate_hypergeometric(class_sizes, n_draws), dtype=np.int64
        )
    raise ValidationError(
        f"unknown strategy {strategy!r}; use 'sequential', 'recursive', 'batched' or 'numpy'"
    )
