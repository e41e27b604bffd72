"""The probability law of the communication matrix (Section 3 of the paper).

A uniform random permutation of ``n`` items laid out in source blocks of
sizes ``m`` and target blocks of sizes ``m'`` induces a distribution on the
communication matrix ``A`` (how many items travel from block ``i`` to block
``j``).  The number of permutations realising a fixed admissible ``A`` is

.. math::

   N(A) \\;=\\; \\frac{\\prod_i m_i! \\; \\prod_j m'_j!}{\\prod_{ij} a_{ij}!},

(choose, per source block, which items go to which target -- a multinomial
-- and then arrange the items arriving in each target block in any order),
so ``P[A] = N(A) / n!``.  This module provides that law exactly (in log
space), together with the structural results the paper proves about it:

* Proposition 3 -- each entry ``a_ij`` is marginally hypergeometric
  ``h(m'_j, m_i, n - m_i)``;
* Proposition 4/5 -- merging groups of rows and columns yields the law of the
  merged problem (self-similarity);
* Proposition 6 -- conditioning on a row-group split factorises the law into
  two independent sub-problems.

For small instances the module can also enumerate *every* admissible matrix
(the transportation polytope's lattice points), which is what the exactness
tests and the uniformity benchmark build on.
"""

from __future__ import annotations

from math import lgamma
from typing import Iterator, Sequence

import numpy as np

from repro.core import hypergeometric
from repro.core.commmatrix import check_matrix
from repro.util.errors import ValidationError
from repro.util.validation import check_marginals

__all__ = [
    "log_number_of_realizing_permutations",
    "log_pmf",
    "pmf",
    "entry_distribution",
    "enumerate_matrices",
    "exact_distribution",
    "merge_blocks",
    "expected_matrix",
]


def _log_factorial(k: int) -> float:
    return lgamma(k + 1)


# ----------------------------------------------------------------------------
# The exact law
# ----------------------------------------------------------------------------
def log_number_of_realizing_permutations(matrix, row_sums, col_sums) -> float:
    """Natural log of the number of permutations whose communication matrix is ``matrix``."""
    return _log_count(check_matrix(matrix, row_sums, col_sums))


def _log_count(arr: np.ndarray) -> float:
    # check_matrix has pinned the row and column sums to the marginals.
    value = sum(_log_factorial(int(m)) for m in arr.sum(axis=1))
    value += sum(_log_factorial(int(m)) for m in arr.sum(axis=0))
    value -= float(sum(_log_factorial(int(a)) for a in arr.ravel()))
    return value


def log_pmf(matrix, row_sums, col_sums) -> float:
    """Natural log of ``P[A = matrix]`` under a uniform random permutation."""
    arr = check_matrix(matrix, row_sums, col_sums)
    return _log_count(arr) - _log_factorial(int(arr.sum()))


def pmf(matrix, row_sums, col_sums) -> float:
    """``P[A = matrix]`` under a uniform random permutation."""
    return float(np.exp(log_pmf(matrix, row_sums, col_sums)))


def expected_matrix(row_sums, col_sums) -> np.ndarray:
    """Expectation ``E[a_ij] = m_i * m'_j / n`` of the communication matrix."""
    rows, cols, total = check_marginals(row_sums, col_sums)
    if total == 0:
        return np.zeros((rows.size, cols.size))
    return np.outer(rows, cols) / total


def entry_distribution(i: int, j: int, row_sums, col_sums) -> tuple[int, int, int]:
    """Hypergeometric parameters ``(t, w, b)`` of the marginal law of ``a_ij``.

    Proposition 3: ``a_ij ~ h(m'_j, m_i, n - m_i)``.  The returned triple can
    be fed directly to :mod:`repro.core.hypergeometric`.
    """
    rows, cols, total = check_marginals(row_sums, col_sums)
    if not (0 <= i < rows.size):
        raise ValidationError(f"row index {i} out of range [0, {rows.size})")
    if not (0 <= j < cols.size):
        raise ValidationError(f"column index {j} out of range [0, {cols.size})")
    return int(cols[j]), int(rows[i]), int(total - rows[i])


# ----------------------------------------------------------------------------
# Exhaustive enumeration (small cases)
# ----------------------------------------------------------------------------
def enumerate_matrices(row_sums, col_sums, *, max_matrices: int = 2_000_000) -> Iterator[np.ndarray]:
    """Yield every non-negative integer matrix with the prescribed marginals.

    The enumeration walks the rows recursively, enumerating for each row all
    the compositions compatible with the remaining column capacities.  The
    number of such matrices explodes quickly; ``max_matrices`` guards against
    accidental huge enumerations (a :class:`ValidationError` is raised when
    the limit is hit).
    """
    rows, cols, _ = check_marginals(row_sums, col_sums)
    p, q = rows.size, cols.size
    matrix = np.zeros((p, q), dtype=np.int64)
    count = 0

    def row_compositions(total: int, caps: np.ndarray, idx: int) -> Iterator[list[int]]:
        """All ways to write ``total`` as a sum over columns ``idx..q-1`` within caps."""
        if idx == q - 1:
            if total <= caps[idx]:
                yield [total]
            return
        upper = min(total, int(caps[idx]))
        # Lower bound: the remaining columns can absorb at most sum(caps[idx+1:]).
        rest_cap = int(caps[idx + 1:].sum())
        lower = max(0, total - rest_cap)
        for value in range(lower, upper + 1):
            for tail in row_compositions(total - value, caps, idx + 1):
                yield [value] + tail

    def recurse(i: int, caps: np.ndarray) -> Iterator[np.ndarray]:
        nonlocal count
        if i == p:
            count += 1
            if count > max_matrices:
                raise ValidationError(
                    f"more than {max_matrices} matrices with these marginals; "
                    "raise max_matrices if this is intended"
                )
            yield matrix.copy()
            return
        for row in row_compositions(int(rows[i]), caps, 0):
            row_arr = np.asarray(row, dtype=np.int64)
            matrix[i, :] = row_arr
            yield from recurse(i + 1, caps - row_arr)
        matrix[i, :] = 0

    yield from recurse(0, cols.copy())


def exact_distribution(row_sums, col_sums, *, max_matrices: int = 2_000_000) -> dict[bytes, float]:
    """Exact pmf over all admissible matrices, keyed by ``matrix.tobytes()``.

    Useful for goodness-of-fit tests: the values sum to 1 (up to floating
    point error) and each key can be rebuilt with
    ``np.frombuffer(key, dtype=np.int64).reshape(p, p')``.
    """
    rows, cols, total = check_marginals(row_sums, col_sums)
    log_n_factorial = _log_factorial(total)
    return {
        matrix.tobytes(): float(np.exp(_log_count(matrix) - log_n_factorial))
        for matrix in enumerate_matrices(rows, cols, max_matrices=max_matrices)
    }


# ----------------------------------------------------------------------------
# Self-similarity (Propositions 4 and 5)
# ----------------------------------------------------------------------------
def merge_blocks(matrix, row_groups: Sequence[Sequence[int]], col_groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Merge rows and columns of a matrix according to index groups.

    ``row_groups`` (resp. ``col_groups``) is a partition of the row (resp.
    column) indices into consecutive groups; the result has one row per row
    group and one column per column group, each entry being the sum of the
    covered sub-matrix.  By Proposition 4 the merged matrix of a sample is
    itself a sample of the merged problem -- the property the tests verify.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {arr.shape}")

    def check_partition(groups, size, name):
        flat = [idx for group in groups for idx in group]
        if sorted(flat) != list(range(size)):
            raise ValidationError(
                f"{name} must partition range({size}), got {groups!r}"
            )

    check_partition(row_groups, arr.shape[0], "row_groups")
    check_partition(col_groups, arr.shape[1], "col_groups")

    merged = np.zeros((len(row_groups), len(col_groups)), dtype=arr.dtype)
    for gi, rgroup in enumerate(row_groups):
        for gj, cgroup in enumerate(col_groups):
            merged[gi, gj] = arr[np.ix_(list(rgroup), list(cgroup))].sum()
    return merged


def entry_marginal_pmf(i: int, j: int, row_sums, col_sums, k: int) -> float:
    """``P[a_ij = k]`` directly from Proposition 3 (used in tests against the full law)."""
    t, w, b = entry_distribution(i, j, row_sums, col_sums)
    return hypergeometric.pmf(k, t, w, b)
