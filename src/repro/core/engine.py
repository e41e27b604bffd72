"""The sampler engine: unified method dispatch and batched sampling kernels.

Before this module existed, ``hypergeometric.py``, ``multivariate.py`` and
``commmatrix.py`` each re-implemented the same method-selection logic
("auto" / "hin" / "hrua" / "numpy") and every hypergeometric variate of a
matrix went through a scalar Python call.  The :class:`SamplerEngine`
consolidates both concerns:

* **Method dispatch.**  One engine instance owns the selection policy for
  the univariate sampler (the HIN-below-threshold / HRUA*-above strategy of
  production libraries) and is shared by every entry point via
  :func:`get_engine`.

* **Batched kernels.**  :meth:`SamplerEngine.multivariate_batch` draws many
  independent multivariate hypergeometric vectors at once and
  :meth:`SamplerEngine.sample_matrix_batched` samples a whole communication
  matrix, both driving NumPy's *vectorized* ``Generator.hypergeometric``
  level by level down the balanced binary splitting tree (the recursive
  formulation at the end of Section 4 of the paper, which factorises the
  distribution into independent draws per tree level -- Proposition 6).
  A ``P x P'`` matrix thus costs ``O(log P * log P')`` NumPy kernel calls
  instead of ``P * P'`` interpreted Python calls, which is the hot path of
  Algorithm 6's step 3 and of the sequential baseline.

* **Array-form levels.**  No Python loop runs over the segments of a
  level.  The segments still to split (row blocks, for the matrix) are
  ``lo``/``hi`` arrays in ascending order, and segment ``[lo, hi)`` keeps
  its draw count in column ``lo`` of the result (a block its column
  capacities in row ``lo`` of the matrix).  A level is then a few
  fancy-indexed gathers, one ``hypergeometric`` call and two scatters --
  the left half's share back to ``lo``, the right half's to ``mid`` -- and
  the leaves end where they belong.  Each level's draws run over (batch
  row, segment) in C order, the same parameter arrays in the same order as
  a left-to-right walk of the tree, so the output and the stream position
  do not depend on this bookkeeping (``tests/property/
  test_property_engine_tree.py`` holds the per-segment loop as an oracle).

The batched path samples from exactly the same distribution as the scalar
samplers (every split is an exact hypergeometric draw; the factorisation is
the same one Algorithm 4 uses), but consumes the random stream differently,
so for a fixed seed the batched and scalar paths produce different --
equally valid -- matrices.
"""

from __future__ import annotations

import numpy as np

from repro.rng.streams import default_rng
from repro.util.errors import DistributionError, ValidationError
from repro.util.validation import as_int_array, check_marginals, check_nonnegative_int

__all__ = ["SamplerEngine", "get_engine", "VALID_METHODS"]

#: Recognised univariate method names.
VALID_METHODS = ("auto", "hin", "hrua", "numpy")

# Below this (transformed) sample size the inverse method needs fewer
# uniforms than the rejection method on average (mirrors production
# libraries).  This is the single authoritative copy of the threshold.
_HIN_THRESHOLD = 10


def _root(n: int):
    """The root segment ``[0, n)`` of a splitting tree, if it splits at all."""
    k = int(n > 1)
    return np.zeros(k, dtype=np.int64), np.full(k, n, dtype=np.int64)


def _split_level(lo: np.ndarray, mid: np.ndarray, hi: np.ndarray):
    """The children of one tree level's segments that still need splitting.

    Segment ``[lo, hi)`` splits into ``[lo, mid)`` and ``[mid, hi)``; the
    children are interleaved, so ascending parents give ascending children.
    """
    n = lo.size
    child_lo = np.empty(2 * n, dtype=np.int64)
    child_hi = np.empty(2 * n, dtype=np.int64)
    child_lo[0::2] = lo
    child_lo[1::2] = mid
    child_hi[0::2] = mid
    child_hi[1::2] = hi
    keep = child_hi - child_lo > 1
    return child_lo[keep], child_hi[keep]


def _kernel_rng(rng) -> "np.random.Generator":
    """Coerce ``rng`` into something exposing vectorized ``hypergeometric``."""
    rng = default_rng(rng) if not hasattr(rng, "random") else rng
    if not hasattr(rng, "hypergeometric"):
        raise DistributionError(
            "the provided rng does not expose hypergeometric(); the batched "
            "kernels need a numpy Generator or a CountingRNG wrapper"
        )
    return rng


class SamplerEngine:
    """Hypergeometric sampling engine with one method policy and batched kernels.

    Parameters
    ----------
    method:
        ``"auto"`` (default: HIN below the threshold, HRUA* above),
        ``"hin"``, ``"hrua"`` or ``"numpy"`` (delegate to
        ``Generator.hypergeometric``; handy as an independent oracle).
    hin_threshold:
        Transformed sample size below which ``"auto"`` picks the inverse
        method.
    kernels:
        Kernel-tier request (``"auto"``/``"numba"``/``"numpy"``, a tier
        object, or ``None`` to defer to ``REPRO_KERNELS``); see
        :mod:`repro.core.kernels`.  The batched kernels and
        :meth:`draw_many` consult the resolved tier first and fall back to
        the NumPy paths whenever it declines -- results are bit-identical
        either way.
    """

    def __init__(
        self,
        method: str = "auto",
        *,
        hin_threshold: int = _HIN_THRESHOLD,
        kernels=None,
    ):
        if method not in VALID_METHODS:
            raise ValidationError(
                f"unknown method {method!r}; use auto, hin, hrua or numpy"
            )
        self.method = method
        self.hin_threshold = check_nonnegative_int(hin_threshold, "hin_threshold")
        if kernels is not None:
            from repro.core.kernels import normalize_kernels

            normalize_kernels(kernels)  # eager name validation; resolution stays lazy
        self.kernels = kernels

    def _resolve_tier(self):
        # Resolved lazily per call (not cached on the engine) so shared
        # engines honour REPRO_KERNELS changes and reset_kernels() in tests.
        from repro.core.kernels import resolve_kernels

        return resolve_kernels(self.kernels)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SamplerEngine(method={self.method!r})"

    # -- univariate dispatch -------------------------------------------------
    def resolve_method(self, t: int) -> str:
        """The concrete sampler ``"auto"`` selects for ``t`` draws."""
        if self.method != "auto":
            return self.method
        return "hin" if t <= self.hin_threshold else "hrua"

    def draw_nontrivial(self, t: int, w: int, b: int, rng) -> int:
        """One variate of ``h(t, w, b)`` for non-degenerate parameters.

        This is the dispatch core behind :func:`repro.core.hypergeometric.
        sample` (which handles validation, trivial cases and recording);
        ``rng`` must already be a generator-like object.
        """
        from repro.core import hypergeometric  # deferred: hypergeometric imports us lazily

        concrete = self.resolve_method(t)
        if concrete == "numpy":
            if not hasattr(rng, "hypergeometric"):
                raise DistributionError("the provided rng does not expose hypergeometric()")
            return int(rng.hypergeometric(w, b, t))
        if concrete == "hin":
            return hypergeometric._hin(t, w, b, rng)
        return hypergeometric._hrua(t, w, b, rng)

    def draw(self, t: int, w: int, b: int, rng=None) -> int:
        """One variate of ``h(t, w, b)`` with full validation and recording."""
        from repro.core import hypergeometric

        return hypergeometric.sample(t, w, b, rng, method=self.method)

    def draw_many(self, t: int, w: int, b: int, size: int, rng=None) -> np.ndarray:
        """``size`` i.i.d. variates of ``h(t, w, b)`` as an ``int64`` array.

        For the vector-capable methods (``"auto"``, ``"numpy"``) the draws
        are vectorized unconditionally -- one ``Generator.hypergeometric``
        kernel call regardless of how small ``size`` is (there is no
        scalar-loop fallback), with the same trivial-case handling as
        :meth:`_hypergeometric_block` and a
        :class:`~repro.rng.counting.CountingRNG` charged by the broadcast
        size of the call.  The scalar methods (``"hin"``/``"hrua"``) keep
        the loop over :func:`repro.core.hypergeometric.sample`, which is
        the point of requesting them.
        """
        from repro.core import hypergeometric

        if self.method in ("hin", "hrua"):
            return hypergeometric.sample_many(t, w, b, size, rng, method=self.method)
        size = check_nonnegative_int(size, "size")
        t, w, b = hypergeometric._validate_parameters(t, w, b)
        if size == 0:
            return np.empty(0, dtype=np.int64)
        # Scalar parameters need no parameter arrays or masks: resolve the
        # degenerate cases once and draw the rest with a single size=
        # kernel call (the same trivial-case handling, without O(size)
        # temporaries).
        trivial = hypergeometric._trivial_sample(t, w, b)
        if trivial is not None:
            return np.full(size, trivial, dtype=np.int64)
        rng = _kernel_rng(rng)
        result = self._resolve_tier().repeat_hypergeometric(rng, w, b, t, size)
        if result is not None:
            return result
        return np.asarray(rng.hypergeometric(w, b, t, size), dtype=np.int64)

    # -- batched kernels -------------------------------------------------------
    def _check_batched_method(self) -> None:
        # The batched kernels always draw through NumPy's vectorized
        # hypergeometric sampler; silently honouring a request for a
        # specific scalar sampler would defeat the point of asking for one.
        if self.method in ("hin", "hrua"):
            raise ValidationError(
                f"the batched kernels use NumPy's vectorized hypergeometric sampler; "
                f"method={self.method!r} only applies to the scalar strategies "
                "(use method='auto' or 'numpy' with strategy='batched')"
            )

    @staticmethod
    def _hypergeometric_block(rng, ngood: np.ndarray, nbad: np.ndarray, nsample: np.ndarray) -> np.ndarray:
        """Elementwise ``h(nsample, ngood, nbad)`` draws, trivial cases masked.

        Degenerate entries (no draws, an empty colour class, or a draw of the
        whole urn) are resolved deterministically without touching the random
        stream, mirroring the scalar samplers' trivial-case handling; their
        value is ``min(nsample, ngood)``.  When no entry is degenerate the
        whole arrays go to one ``hypergeometric`` call, which draws in the
        same C order as the masked call would.
        """
        trivial = (nsample >= ngood + nbad) | (ngood == 0) | (nbad == 0) | (nsample == 0)
        if trivial.size and not trivial.any():
            return np.asarray(rng.hypergeometric(ngood, nbad, nsample), dtype=np.int64)
        out = np.minimum(nsample, ngood)
        random_mask = ~trivial
        if random_mask.any():
            out[random_mask] = rng.hypergeometric(
                ngood[random_mask], nbad[random_mask], nsample[random_mask]
            )
        return out

    def multivariate_batch(self, n_draws, class_sizes, rng=None, *, _tier=None) -> np.ndarray:
        """Draw a batch of independent multivariate hypergeometric vectors.

        ``class_sizes`` is a ``(B, L)`` array and ``n_draws`` a scalar or a
        length-``B`` vector; row ``i`` of the result is one sample of
        ``MVH(n_draws[i], class_sizes[i])``.  All ``B`` samples share the
        balanced binary splitting tree over the ``L`` classes, so every tree
        level costs one vectorized ``Generator.hypergeometric`` call covering
        all batch rows and all same-level segments at once: ``O(log L)``
        kernel calls in total.  Booleans, non-integral numbers, negative
        entries, mismatched shapes and overdrawn urns raise
        :class:`~repro.util.errors.ValidationError`.
        """
        if _tier is not None:
            # A level of sample_matrix_batched: its arrays are valid by
            # construction and it resolved the tier once for the matrix.
            return self._split_batch(n_draws, class_sizes, rng, _tier)
        self._check_batched_method()
        sizes = as_int_array(class_sizes, "class_sizes", ndim=2)
        n_batch, n_classes = sizes.shape
        draws = as_int_array(n_draws, "n_draws", ndim=None)
        if draws.ndim == 0:
            draws = np.full(n_batch, draws, dtype=np.int64)
        elif draws.shape != (n_batch,):
            raise ValidationError(
                f"n_draws must be a scalar or one count per batch row ({n_batch}), "
                f"got shape {draws.shape}"
            )
        if (draws > sizes.sum(axis=1)).any():
            raise ValidationError("cannot draw more balls than an urn contains")
        if n_classes == 0:
            return np.zeros((n_batch, 0), dtype=np.int64)
        return self._split_batch(draws, sizes, _kernel_rng(rng), self._resolve_tier())

    def _split_batch(self, draws, sizes, rng, tier) -> np.ndarray:
        """The splitting trees of :meth:`multivariate_batch` on valid input."""
        compiled = tier.multivariate_batch(rng, draws, sizes)
        if compiled is not None:
            return compiled

        # Segment [lo, hi) of the splitting tree keeps its draw count in
        # column lo; splitting it at mid moves the right half's share to
        # column mid, so the leaves end in place.  Only segments of two or
        # more classes are tracked, in ascending order: one level's draws run
        # over (batch row, segment) in C order, left to right.
        n_batch, n_classes = sizes.shape
        prefix = np.zeros((n_batch, n_classes + 1), dtype=np.int64)
        np.cumsum(sizes, axis=1, out=prefix[:, 1:])
        counts = np.zeros((n_batch, n_classes), dtype=np.int64)
        counts[:, 0] = draws
        lo, hi = _root(n_classes)
        while lo.size:
            mid = (lo + hi) // 2
            seg_draws = counts[:, lo]
            into_left = self._hypergeometric_block(
                rng, prefix[:, mid] - prefix[:, lo], prefix[:, hi] - prefix[:, mid], seg_draws
            )
            counts[:, lo] = into_left
            counts[:, mid] = seg_draws - into_left
            lo, hi = _split_level(lo, mid, hi)
        return counts

    def multivariate(self, n_draws: int, class_sizes, rng=None) -> np.ndarray:
        """One multivariate hypergeometric sample via the batched kernel."""
        n_draws = check_nonnegative_int(n_draws, "n_draws")
        sizes = as_int_array(class_sizes, "class_sizes")
        return self.multivariate_batch(n_draws, sizes[None], rng)[0]

    def sample_matrix_batched(self, row_sums, col_sums, rng=None) -> np.ndarray:
        """Sample a whole communication matrix with vectorized kernels.

        Same law as Algorithms 3 and 4 (the recursive row splitting *is*
        Algorithm 4; each split's multivariate draw uses the balanced
        column-splitting factorisation), evaluated level by level so that
        every level of the row tree costs ``O(log P')`` vectorized NumPy
        calls over all same-level blocks at once.
        """
        self._check_batched_method()
        rows, cols, _ = check_marginals(row_sums, col_sums)
        matrix = np.zeros((rows.size, cols.size), dtype=np.int64)
        if rows.size == 0 or cols.size == 0:
            return matrix
        rng = _kernel_rng(rng)
        tier = self._resolve_tier()
        compiled = tier.sample_matrix(rng, rows, cols)
        if compiled is not None:
            return compiled

        row_prefix = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(rows, out=row_prefix[1:])
        # Row lo of ``matrix`` holds the column capacities reserved for the
        # row block [lo, hi); splitting it at mid moves the upper half's
        # share to row mid.  All blocks of one level split in one
        # multivariate_batch call, in ascending order.
        matrix[0] = cols
        lo, hi = _root(rows.size)
        while lo.size:
            mid = (lo + hi) // 2
            caps = matrix[lo]
            to_up = self.multivariate_batch(row_prefix[hi] - row_prefix[mid], caps, rng,
                                            _tier=tier)
            matrix[lo] = caps - to_up
            matrix[mid] = to_up
            lo, hi = _split_level(lo, mid, hi)
        return matrix


# ----------------------------------------------------------------------------
# Shared engine instances
# ----------------------------------------------------------------------------
_ENGINES: dict[tuple, SamplerEngine] = {}


def get_engine(method: str | SamplerEngine = "auto", *, kernels=None) -> SamplerEngine:
    """Shared :class:`SamplerEngine` for ``(method, kernels)`` (instances pass through).

    This is the single point every sampling entry point resolves its
    ``method=`` argument through, so the selection policy lives in exactly
    one place.  ``kernels`` selects the kernel tier the engine consults
    (see :mod:`repro.core.kernels`); passing it alongside a pre-built
    engine is rejected because the engine already owns a tier choice.
    """
    if isinstance(method, SamplerEngine):
        if kernels is not None:
            raise ValidationError(
                "kernels= cannot be combined with a pre-built SamplerEngine; "
                "construct the engine with kernels= instead"
            )
        return method
    if kernels is not None and not isinstance(kernels, str):
        # Tier objects are not hashable cache keys; build a private engine.
        return SamplerEngine(method, kernels=kernels)
    key = (method, kernels)
    engine = _ENGINES.get(key)
    if engine is None:
        # raises ValidationError for unknown method/kernels names
        engine = SamplerEngine(method, kernels=kernels)
        _ENGINES[key] = engine
    return engine
