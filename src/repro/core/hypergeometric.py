"""The (univariate) hypergeometric distribution ``h(t, w, b)``.

Section 3 of the paper reduces the whole matrix-sampling problem to repeated
sampling from the hypergeometric distribution

.. math::

   P[X_{t,w,b} = k] \\;=\\; \\frac{\\binom{w}{k}\\binom{b}{t-k}}{\\binom{w+b}{t}},

the law of the number of white balls when ``t`` balls are drawn without
replacement from an urn containing ``w`` white and ``b`` black balls.  The
paper's convention ``h(t, w, b)`` (draws, whites, blacks) is kept throughout
this module.

Three samplers are provided:

``sample_hin``
    The classic sequential/inverse method ("HIN"): draws one uniform per
    ball until the sample is exhausted.  Cheap for tiny ``t`` (or tiny
    ``min(w, b)``), linear otherwise.

``sample_hrua``
    The HRUA* ratio-of-uniforms rejection sampler of Stadlober/Zechner --
    the method the paper cites (Zechner 1994) for its "< 1.5 uniforms per
    sample on average, 10 worst case" measurement.  Constant expected cost
    independent of the parameters.

``sample``
    Automatic dispatch (HIN when the transformed sample size is below 10,
    HRUA* otherwise), mirroring the strategy of production libraries.

All samplers accept either a plain NumPy ``Generator`` or a
:class:`~repro.rng.counting.CountingRNG`; with the latter the exact number
of uniform variates consumed can be read back, which is how experiment E2
reproduces the paper's measurement.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import floor, lgamma, log, sqrt

import numpy as np

from repro.rng.streams import default_rng
from repro.util.errors import ValidationError
from repro.util.validation import check_nonnegative_int

__all__ = [
    "support",
    "log_pmf",
    "pmf",
    "mean",
    "variance",
    "mode",
    "sample",
    "sample_hin",
    "sample_hrua",
    "sample_many",
    "sample_with_stats",
    "HypergeometricSampleStats",
    "SampleRecorder",
]

# Constants of the HRUA* method (Stadlober 1989/1990, Zechner 1994):
# 2*sqrt(2/e) and 3 - 2*sqrt(3/e), accurate to 16 decimal digits.
_D1 = 1.7155277699214135
_D2 = 0.8989161620588988

# The HIN-vs-HRUA* selection threshold lives in repro.core.engine
# (SamplerEngine.hin_threshold), the single owner of method dispatch.

# Thread-local stack of active SampleRecorder instances (see SampleRecorder).
_RECORDERS = threading.local()


class SampleRecorder:
    """Record, per call to :func:`sample`, how many uniforms were consumed.

    The paper's Section 6 reports random-number consumption *per call to
    h(,)* over whole matrix-sampling runs.  Because those calls happen deep
    inside Algorithm 2/3/5/6, the recorder is exposed as a context manager
    that hooks every :func:`sample` call made on the current thread::

        rng = CountingRNG(12345)
        with SampleRecorder() as rec:
            sample_communication_matrix(m, m_prime, rng=rng)
        print(rec.mean_uniforms, rec.max_uniforms)

    Uniform counts are only available when the caller supplies a
    :class:`~repro.rng.counting.CountingRNG`; with a plain generator the
    recorder still counts calls but reports zero uniforms.
    """

    def __init__(self, keep_per_call: bool = False):
        self.n_calls = 0
        self.total_uniforms = 0
        self.max_uniforms = 0
        self.per_call: list[int] | None = [] if keep_per_call else None

    # -- bookkeeping ---------------------------------------------------------
    def record(self, uniforms_used: int) -> None:
        """Register one completed sample() call that used ``uniforms_used`` uniforms."""
        self.n_calls += 1
        self.total_uniforms += int(uniforms_used)
        self.max_uniforms = max(self.max_uniforms, int(uniforms_used))
        if self.per_call is not None:
            self.per_call.append(int(uniforms_used))

    @property
    def mean_uniforms(self) -> float:
        """Average uniforms per h(,) call (0.0 before any call)."""
        return self.total_uniforms / self.n_calls if self.n_calls else 0.0

    # -- context manager --------------------------------------------------------
    def __enter__(self) -> "SampleRecorder":
        stack = getattr(_RECORDERS, "stack", None)
        if stack is None:
            stack = []
            _RECORDERS.stack = stack
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _RECORDERS.stack.pop()


def _active_recorder() -> "SampleRecorder | None":
    stack = getattr(_RECORDERS, "stack", None)
    return stack[-1] if stack else None


# ----------------------------------------------------------------------------
# Exact quantities
# ----------------------------------------------------------------------------
def _validate_parameters(t: int, w: int, b: int) -> tuple[int, int, int]:
    t = check_nonnegative_int(t, "t (number of draws)")
    w = check_nonnegative_int(w, "w (white balls)")
    b = check_nonnegative_int(b, "b (black balls)")
    if t > w + b:
        raise ValidationError(
            f"cannot draw t={t} balls from an urn with only w+b={w + b} balls"
        )
    return t, w, b


def support(t: int, w: int, b: int) -> tuple[int, int]:
    """Inclusive support ``[max(0, t-b), min(t, w)]`` of ``h(t, w, b)``."""
    t, w, b = _validate_parameters(t, w, b)
    return max(0, t - b), min(t, w)


@lru_cache(maxsize=65536)
def _log_binomial(n: int, k: int) -> float:
    # Memoized: pmf sweeps and log_pmf-based tests hit the same (n, k)
    # pairs repeatedly, and each miss costs three lgamma evaluations.
    if k < 0 or k > n:
        return float("-inf")
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def log_pmf(k: int, t: int, w: int, b: int) -> float:
    """Natural log of ``P[X = k]`` for ``X ~ h(t, w, b)``; ``-inf`` outside the support."""
    t, w, b = _validate_parameters(t, w, b)
    if not (isinstance(k, (int, np.integer)) and k < 0):  # negative k: outside the support
        k = check_nonnegative_int(k, "k")
    lo, hi = max(0, t - b), min(t, w)
    if k < lo or k > hi:
        return float("-inf")
    return _log_binomial(w, k) + _log_binomial(b, t - k) - _log_binomial(w + b, t)


def pmf(k: int, t: int, w: int, b: int) -> float:
    """``P[X = k]`` for ``X ~ h(t, w, b)`` (equation (4) of the paper)."""
    lp = log_pmf(k, t, w, b)
    return 0.0 if lp == float("-inf") else float(np.exp(lp))


def mean(t: int, w: int, b: int) -> float:
    """Expectation ``t * w / (w + b)`` of ``h(t, w, b)``."""
    t, w, b = _validate_parameters(t, w, b)
    n = w + b
    return 0.0 if n == 0 else t * w / n


def variance(t: int, w: int, b: int) -> float:
    """Variance ``t * (w/n) * (b/n) * (n-t)/(n-1)`` of ``h(t, w, b)``."""
    t, w, b = _validate_parameters(t, w, b)
    n = w + b
    if n <= 1:
        return 0.0
    return t * (w / n) * (b / n) * (n - t) / (n - 1)


def mode(t: int, w: int, b: int) -> int:
    """A mode of ``h(t, w, b)``: ``floor((t+1)(w+1)/(n+2))`` clipped to the support."""
    t, w, b = _validate_parameters(t, w, b)
    n = w + b
    raw = int(floor((t + 1) * (w + 1) / (n + 2)))
    lo, hi = max(0, t - b), min(t, w)
    return min(max(raw, lo), hi)


# ----------------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------------
def _trivial_sample(t: int, w: int, b: int):
    """Return the deterministic outcome for degenerate parameters, else None."""
    if t == 0 or w == 0:
        return 0
    if b == 0:
        return t
    if t == w + b:
        return w
    return None


def sample_hin(t: int, w: int, b: int, rng=None) -> int:
    """Inverse/sequential sampler ("HIN").

    Simulates the draw sequence directly, consuming at most ``t`` uniforms
    (one per draw, stopping early once the smaller colour class is
    exhausted).  Intended for small ``t``; :func:`sample` switches to it
    automatically below the threshold.
    """
    t, w, b = _validate_parameters(t, w, b)
    trivial = _trivial_sample(t, w, b)
    if trivial is not None:
        return trivial
    return _hin(t, w, b, default_rng(rng) if not hasattr(rng, "random") else rng)


def _hin(t: int, w: int, b: int, rng) -> int:
    """:func:`sample_hin` on valid, non-degenerate parameters and a generator."""
    good, bad, draws = w, b, t
    d1 = bad + good - draws
    d2 = float(min(bad, good))

    y = d2
    k = draws
    while y > 0.0:
        u = rng.random()
        y -= float(floor(u + y / (d1 + k)))
        k -= 1
        if k == 0:
            break
    z = int(d2 - y)
    if good > bad:
        z = draws - z
    return z


def sample_hrua(t: int, w: int, b: int, rng=None) -> int:
    """HRUA* ratio-of-uniforms rejection sampler (Stadlober/Zechner).

    Expected number of uniform pairs per sample is bounded by a small
    constant for all parameter values (empirically < 1.5 uniform *pairs*
    would be impossible -- the paper's "< 1.5 random numbers" average counts
    the amortised cost over the whole matrix computation where most calls
    are degenerate or small; see ``benchmarks/bench_randoms_per_sample.py``
    for the reproduction).

    Requires a non-degenerate urn; :func:`sample` handles the trivial cases
    before dispatching here.
    """
    t, w, b = _validate_parameters(t, w, b)
    trivial = _trivial_sample(t, w, b)
    if trivial is not None:
        return trivial
    return _hrua(t, w, b, default_rng(rng) if not hasattr(rng, "random") else rng)


def _hrua(t: int, w: int, b: int, rng) -> int:
    """:func:`sample_hrua` on valid, non-degenerate parameters and a generator."""
    good, bad, draws = w, b, t
    popsize = good + bad
    mingoodbad = min(good, bad)
    maxgoodbad = max(good, bad)
    m = min(draws, popsize - draws)

    d4 = mingoodbad / popsize
    d5 = 1.0 - d4
    d6 = m * d4 + 0.5
    d7 = sqrt((popsize - m) * draws * d4 * d5 / (popsize - 1) + 0.5)
    d8 = _D1 * d7 + _D2
    d9 = int(floor((m + 1) * (mingoodbad + 1) / (popsize + 2)))
    d10 = (
        lgamma(d9 + 1)
        + lgamma(mingoodbad - d9 + 1)
        + lgamma(m - d9 + 1)
        + lgamma(maxgoodbad - m + d9 + 1)
    )
    d11 = min(min(m, mingoodbad) + 1.0, floor(d6 + 16 * d7))

    while True:
        x = rng.random()
        y = rng.random()
        wv = d6 + d8 * (y - 0.5) / x

        if wv < 0.0 or wv >= d11:
            continue

        z = int(floor(wv))
        tv = d10 - (
            lgamma(z + 1)
            + lgamma(mingoodbad - z + 1)
            + lgamma(m - z + 1)
            + lgamma(maxgoodbad - m + z + 1)
        )

        if x * (4.0 - x) - 3.0 <= tv:
            break
        if x * (x - tv) >= 1:
            continue
        if 2.0 * log(x) <= tv:
            break

    # Untransform (corrections due to Frohne, as adopted by reference
    # implementations): we sampled the smaller colour class of the smaller
    # sample, map back to "whites among the t draws".
    if good > bad:
        z = m - z
    if m < draws:
        z = good - z
    return int(z)


def sample(t: int, w: int, b: int, rng=None, *, method: str = "auto") -> int:
    """Draw one variate of ``h(t, w, b)``.

    Parameters
    ----------
    t, w, b:
        Number of draws, white balls and black balls.
    rng:
        Seed, NumPy ``Generator`` or :class:`~repro.rng.counting.CountingRNG`.
    method:
        ``"auto"`` (default), ``"hin"``, ``"hrua"`` or ``"numpy"`` (delegate
        to ``Generator.hypergeometric``; handy as an independent oracle).
    """
    from repro.core.engine import get_engine  # deferred: engine imports this module

    engine = get_engine(method)  # raises ValidationError for unknown names
    t, w, b = _validate_parameters(t, w, b)
    return _draw(t, w, b, default_rng(rng) if not hasattr(rng, "random") else rng, engine)


def _draw(t: int, w: int, b: int, rng, engine) -> int:
    """:func:`sample` on valid parameters and a generator: the samplers' inner call."""
    recorder = _active_recorder()
    uniforms_before = getattr(rng, "uniforms_drawn", None) if recorder is not None else None

    trivial = _trivial_sample(t, w, b)
    if trivial is not None:
        result = trivial
    else:
        # Method selection is owned by the engine (one policy for the whole
        # library); HIN wins for small t because it consumes at most t
        # uniforms, the rejection method has bounded expected cost otherwise.
        result = engine.draw_nontrivial(t, w, b, rng)

    if recorder is not None:
        used = 0
        if uniforms_before is not None:
            used = getattr(rng, "uniforms_drawn", uniforms_before) - uniforms_before
        recorder.record(used)
    return result


def sample_many(t: int, w: int, b: int, size: int, rng=None, *, method: str = "auto") -> np.ndarray:
    """Draw ``size`` i.i.d. variates of ``h(t, w, b)`` as an ``int64`` array.

    The same as ``size`` calls of :func:`sample`, variate for variate: the
    same values, the same stream position, the same per-call uniform counts
    on a :class:`~repro.rng.counting.CountingRNG` and the same entries in an
    active :class:`SampleRecorder`.  The parameters are validated and the
    engine looked up once, and trivial parameters skip the loop.
    """
    from repro.core.engine import get_engine  # deferred: engine imports this module

    engine = get_engine(method)
    size = check_nonnegative_int(size, "size")
    rng = default_rng(rng) if not hasattr(rng, "random") else rng
    t, w, b = _validate_parameters(t, w, b)

    trivial = _trivial_sample(t, w, b)
    if trivial is not None:
        recorder = _active_recorder()
        if recorder is not None:
            for _ in range(size):
                recorder.record(0)
        return np.full(size, trivial, dtype=np.int64)
    return np.array([_draw(t, w, b, rng, engine) for _ in range(size)], dtype=np.int64)


# ----------------------------------------------------------------------------
# Instrumented sampling (experiment E2)
# ----------------------------------------------------------------------------
@dataclass
class HypergeometricSampleStats:
    """Random-variate consumption statistics of a batch of hypergeometric samples.

    ``mean_uniforms`` and ``max_uniforms`` are the quantities Section 6 of
    the paper reports ("always less than 1.5 on average and 10 for the worst
    case").
    """

    n_samples: int
    total_uniforms: int
    max_uniforms: int

    @property
    def mean_uniforms(self) -> float:
        """Average uniforms consumed per sample."""
        return self.total_uniforms / self.n_samples if self.n_samples else 0.0


def sample_with_stats(
    parameter_list,
    rng=None,
    *,
    method: str = "auto",
) -> tuple[np.ndarray, HypergeometricSampleStats]:
    """Sample ``h(t, w, b)`` for every ``(t, w, b)`` in ``parameter_list`` and count uniforms.

    Returns the array of samples and a :class:`HypergeometricSampleStats`
    summarising how many uniform variates each sample consumed.  The counting
    works regardless of whether the caller passes a counting generator.
    """
    from repro.rng.counting import CountingRNG  # local import to avoid a cycle at import time

    base = default_rng(rng) if not hasattr(rng, "random") else rng
    counter = base if isinstance(base, CountingRNG) else CountingRNG(
        base if isinstance(base, np.random.Generator) else np.random.default_rng()
    )

    samples = np.empty(len(parameter_list), dtype=np.int64)
    total = 0
    worst = 0
    for idx, (t, w, b) in enumerate(parameter_list):
        before = counter.uniforms_drawn
        samples[idx] = sample(t, w, b, counter, method=method)
        used = counter.uniforms_drawn - before
        total += used
        worst = max(worst, used)
    stats = HypergeometricSampleStats(
        n_samples=len(parameter_list), total_uniforms=total, max_uniforms=worst
    )
    return samples, stats
