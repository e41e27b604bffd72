"""Kernel registry: select the compiled or NumPy tier for the sampling hot path.

The registry resolves a *kernels* request -- ``"auto"``, ``"numba"``,
``"numpy"``, ``None`` (defer to the ``REPRO_KERNELS`` environment variable,
then ``"auto"``) or an already-built tier object -- into a **tier**: an
object with ``name``, ``warmup_seconds``, ``warm_up()`` and the four
capability methods

    multivariate_batch(rng, draws, sizes)
    sample_matrix(rng, rows, cols)
    repeat_hypergeometric(rng, w, b, t, size)
    permutation(rng, n)

each of which returns the result array **or ``None``** when the tier cannot
serve the request, in which case the caller takes its original NumPy path.
That ``None``-means-decline contract is what makes the tiers safe to thread
everywhere: the NumPy tier declines everything, so ``kernels="numpy"`` is
exactly the pre-registry behaviour, and the numba tier declines per call
whenever the rng is not one its word stream can drive.

Resolution is deliberately forgiving: ``"auto"`` and ``"numba"`` try to
build the compiled tier (import numba, JIT-compile, self-verify bit-exact
against NumPy) and **fall back silently to the NumPy tier** on any failure
-- numba absent, compile error, or a self-check mismatch.  A fixed seed
therefore produces the same results on every install; the only observable
difference is throughput, which the bench suite tracks, and the tier name
repatriated through the cost records.
"""

from __future__ import annotations

import os

# Imported here, not when a tier is first resolved, so that worker processes
# forked from a parent that imported the registry start with these modules
# loaded (``portable`` builds its log-factorial table at import time).
from repro.core.kernels import numba_tier
from repro.core.kernels.numpy_tier import NumpyKernels
from repro.util.errors import ValidationError

__all__ = [
    "VALID_KERNELS",
    "normalize_kernels",
    "resolve_kernels",
    "reset_kernels",
]

#: Recognised kernel-tier request names.
VALID_KERNELS = ("auto", "numba", "numpy")

# Resolved tiers, keyed by request name ("auto" may map to either tier).
_TIERS: dict = {}


def _is_tier(obj) -> bool:
    return not isinstance(obj, str) and hasattr(obj, "warm_up") and hasattr(obj, "name")


def normalize_kernels(kernels):
    """Validate a ``kernels=`` argument; ``None`` defers to ``REPRO_KERNELS``.

    Returns one of :data:`VALID_KERNELS` (or the tier object itself when one
    is passed through) and raises :class:`ValidationError` on anything else.
    """
    if _is_tier(kernels):
        return kernels
    if kernels is None:
        kernels = os.environ.get("REPRO_KERNELS") or "auto"
    if not isinstance(kernels, str) or kernels not in VALID_KERNELS:
        raise ValidationError(
            f"unknown kernels {kernels!r}; use one of {', '.join(VALID_KERNELS)} "
            "(or pass a tier object)"
        )
    return kernels


def resolve_kernels(kernels=None):
    """Resolve a kernels request into a ready (warmed-up) tier object."""
    name = normalize_kernels(kernels)
    if _is_tier(name):
        return name
    tier = _TIERS.get(name)
    if tier is None:
        tier = _build_tier(name)
        _TIERS[name] = tier
    return tier


def _build_tier(name: str):
    if name in ("auto", "numba"):
        try:
            return numba_tier.build()
        except Exception:
            # Silent degrade: numba missing, JIT failure or a self-check
            # mismatch all land on the (bit-identical) NumPy paths.
            pass
    return NumpyKernels()


def reset_kernels() -> None:
    """Drop all cached tiers (test hook; next resolve re-reads the env)."""
    _TIERS.clear()
