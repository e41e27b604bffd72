"""Sequential sampling of the communication matrix (Algorithms 3 and 4).

Problem 2 of the paper: given source block sizes ``m = (m_0, ..., m_{p-1})``
and target block sizes ``m' = (m'_0, ..., m'_{p'-1})`` with equal totals,
sample a matrix ``A = (a_ij)`` with row sums ``m_i`` and column sums ``m'_j``
such that each admissible matrix appears with the probability induced by a
uniform random permutation of the ``n`` underlying items (see
:mod:`repro.core.matrix_distribution` for that law).

Two equivalent samplers:

``sample_matrix_sequential``
    Algorithm 3: peel one row at a time; conditionally on the rows already
    fixed, the next row follows a multivariate hypergeometric distribution
    over the remaining column capacities (Proposition 6 with the split index
    ``i_1 = p - 1``).

``sample_matrix_recursive``
    Algorithm 4 (``RecMat``): split the rows into two groups, sample how the
    column capacities divide between the groups (one multivariate
    hypergeometric draw), recurse into each group.  This is the formulation
    the parallel algorithms distribute.

Both cost ``O(p * p')`` basic operations and ``O(p * p')`` calls to the
univariate sampler ``h(,)`` (Proposition 7).
"""

from __future__ import annotations

import numpy as np

from repro.core import multivariate
from repro.core.engine import get_engine
from repro.rng.streams import default_rng
from repro.util.errors import ValidationError
from repro.util.validation import as_int_array, check_marginals, check_positive_int

__all__ = [
    "sample_matrix",
    "sample_matrix_sequential",
    "sample_matrix_recursive",
    "is_valid_communication_matrix",
    "check_matrix",
]


def is_valid_communication_matrix(matrix, row_sums, col_sums) -> bool:
    """True when ``matrix`` is non-negative with the prescribed marginals.

    This is exactly the pair of conditions (2) and (3) of the paper: a
    matrix :func:`check_matrix` accepts, of an integer dtype.
    """
    rows, cols, _ = check_marginals(row_sums, col_sums)
    try:
        check_matrix(matrix, rows, cols)
    except ValidationError:
        return False
    return np.asarray(matrix).dtype.kind in "iu"


def check_matrix(matrix, row_sums, col_sums) -> np.ndarray:
    """Validate a communication matrix, returning it as an ``int64`` array.

    Raises :class:`~repro.util.errors.ValidationError` when the entries are
    not non-negative integers or the shape or marginals are wrong.
    """
    rows, cols, _ = check_marginals(row_sums, col_sums)
    arr = as_int_array(matrix, "matrix", ndim=2)
    if arr.shape != (rows.size, cols.size):
        raise ValidationError(
            f"matrix shape {arr.shape} does not match ({rows.size}, {cols.size})"
        )
    if not np.array_equal(arr.sum(axis=1), rows):
        raise ValidationError("row sums do not match the source block sizes (equation (2))")
    if not np.array_equal(arr.sum(axis=0), cols):
        raise ValidationError("column sums do not match the target block sizes (equation (3))")
    return arr


def sample_matrix_sequential(row_sums, col_sums, rng=None, *, method: str = "auto") -> np.ndarray:
    """Algorithm 3: sample the communication matrix row by row.

    Row ``i``, conditioned on the rows already drawn, is distributed as
    ``MVH(m_i, remaining column capacities)``; after drawing it the
    capacities shrink accordingly.  (The paper phrases the same step through
    the complementary vector ``toUp`` -- the amount of each capacity reserved
    for the rows still to come -- which has the identical law; we draw the
    row directly.)

    Cost: ``O(p * p')`` operations and hypergeometric samples.
    """
    rows, cols, _ = check_marginals(row_sums, col_sums)
    rng = default_rng(rng) if not hasattr(rng, "random") else rng
    return _sequential(rows, cols, rng, get_engine(method))


def _sequential(rows: np.ndarray, cols: np.ndarray, rng, engine) -> np.ndarray:
    """:func:`sample_matrix_sequential` on valid marginals and a generator."""
    matrix = np.zeros((rows.size, cols.size), dtype=np.int64)
    if rows.size == 0 or cols.size == 0:
        # Degenerate tiles arise in Algorithm 6 when a dimension range empties
        # out; the only admissible matrix is the empty/all-zero one.
        return matrix
    remaining = cols.copy()
    # The paper iterates i = p-1, ..., 0; the order is immaterial for the law
    # (Proposition 6 applies to any split), we keep the paper's order.
    for i in range(rows.size - 1, -1, -1):
        row = multivariate._sequential(int(rows[i]), remaining, rng, engine)
        matrix[i, :] = row
        remaining -= row
    return matrix


def sample_matrix_recursive(
    row_sums,
    col_sums,
    rng=None,
    *,
    method: str = "auto",
    leaf_rows: int = 1,
) -> np.ndarray:
    """Algorithm 4 (``RecMat``): sample the matrix by recursive row splitting.

    The rows ``[lo, hi)`` with current column capacities ``caps`` are split at
    ``q = (lo + hi) // 2``: one multivariate hypergeometric draw decides how
    much of each capacity goes to the upper half (``toUp``), the rest goes to
    the lower half (``toLo``), and both halves recurse independently
    (Proposition 6 guarantees this factorisation).

    ``leaf_rows`` controls when the recursion falls back to the sequential
    sampler; the default of 1 follows the paper's pseudo-code (a single row
    is itself a multivariate hypergeometric sample).
    """
    rows, cols, _ = check_marginals(row_sums, col_sums)
    rng = default_rng(rng) if not hasattr(rng, "random") else rng
    engine = get_engine(method)
    leaf_rows = check_positive_int(leaf_rows, "leaf_rows")

    matrix = np.zeros((rows.size, cols.size), dtype=np.int64)
    if rows.size == 0 or cols.size == 0:
        return matrix

    def recurse(lo: int, hi: int, caps: np.ndarray) -> None:
        width = hi - lo
        if width == 1:
            matrix[lo, :] = caps
            return
        if width <= leaf_rows:
            matrix[lo:hi, :] = _sequential(rows[lo:hi], caps, rng, engine)
            return
        q = (lo + hi) // 2
        upper_total = int(rows[q:hi].sum())
        to_up = multivariate._sequential(upper_total, caps, rng, engine)
        to_lo = caps - to_up
        recurse(lo, q, to_lo)
        recurse(q, hi, to_up)

    recurse(0, rows.size, cols.copy())
    return matrix


def sample_matrix(
    row_sums,
    col_sums,
    rng=None,
    *,
    method: str = "auto",
    strategy: str = "sequential",
) -> np.ndarray:
    """Sample a communication matrix (Problem 2).

    ``strategy`` is ``"sequential"`` (Algorithm 3, default), ``"recursive"``
    (Algorithm 4) or ``"batched"`` (Algorithm 4 evaluated level by level
    with the vectorized kernels of the
    :class:`~repro.core.engine.SamplerEngine`: ``O(log p * log p')`` NumPy
    calls instead of ``p * p'`` scalar Python calls); all three produce the
    same distribution.
    """
    if strategy == "sequential":
        return sample_matrix_sequential(row_sums, col_sums, rng, method=method)
    if strategy == "recursive":
        return sample_matrix_recursive(row_sums, col_sums, rng, method=method)
    if strategy == "batched":
        return get_engine(method).sample_matrix_batched(row_sums, col_sums, rng)
    raise ValidationError(
        f"unknown strategy {strategy!r}; use 'sequential', 'recursive' or 'batched'"
    )
