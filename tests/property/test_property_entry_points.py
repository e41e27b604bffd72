"""Property tests: every public entry point rejects input that is not a count.

Problem 2 is defined on exact non-negative integer marginals; a count that
is silently truncated (``2.7 -> 2``, ``True -> 1``) makes the samplers draw
from the law of a different problem.  :mod:`repro.util.validation` holds
the one integer rule and each entry point applies it once, so every call
below -- one bad value in one integer argument -- must raise
:class:`~repro.util.errors.ValidationError`: not ``OverflowError``,
``TypeError`` or ``ValueError``, not a ``RuntimeWarning`` from a cast, and
not a result.  ``derandomize=True`` keeps the examples fixed from run to
run.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import commmatrix as cm
from repro.core import hypergeometric as hg
from repro.core import multivariate as mv
from repro.core.api import sample_communication_matrix
from repro.core.blocks import BlockDistribution
from repro.core.engine import SamplerEngine
from repro.core.parallel_matrix import sample_matrix_parallel
from repro.core.permutation import (
    permute_distributed,
    random_permutation,
    random_permutation_indices,
)
from repro.util.errors import ValidationError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)

#: Scalars that are not a count: booleans, fractions, NaN, infinities, a
#: float beyond int64, negatives, a string and None.
BAD_SCALARS = st.sampled_from([
    True, False, np.bool_(True), np.array(True),
    2.5, np.float32(0.5), Fraction(7, 2), Decimal("3.5"), np.array(3.5),
    float("nan"), float("inf"), float("-inf"), 1e30,
    -1, np.int64(-2), -3.0, "3", None,
])


@st.composite
def bad_vectors(draw, length=2, good=3):
    """A length-``length`` vector of ``good`` with one entry spoiled, or a bad shape."""
    spoiled = [good] * length
    spoiled[draw(st.integers(0, length - 1))] = draw(BAD_SCALARS)
    return draw(st.sampled_from([
        spoiled,
        tuple(spoiled),
        [[good], [good, good]],              # ragged
        [[good] * length] * 2,               # wrong rank: 2-D
        good,                                # wrong rank: a scalar
        np.full(length, good + 0.5),         # fractional array
        np.array([True] * length),           # boolean array
        np.array([str(good)] * length),      # string array
        np.array([good] * length, dtype=object),
        np.array([2**64 - 1] * length, dtype=np.uint64),
    ]))


@st.composite
def bad_matrices(draw, good=((1, 2), (1, 1))):
    """The 2x2 matrix ``good`` with one entry spoiled, or a bad shape."""
    spoiled = [list(row) for row in good]
    spoiled[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(BAD_SCALARS)
    return draw(st.sampled_from([
        spoiled,
        [[1, 2], [1]],                        # ragged
        [1, 2],                               # wrong rank: 1-D
        [[[1, 2], [1, 1]]],                   # wrong rank: 3-D
        np.array(good, dtype=float) + 0.5,
        np.array(good, dtype=bool),
    ]))


def _rng():
    return np.random.default_rng(0)


#: Entry points with one integer scalar argument replaced by ``x``.
SCALAR_CALLS = {
    "random_permutation-n_procs": lambda x: random_permutation(np.arange(6), n_procs=x),
    "random_permutation_indices-n": lambda x: random_permutation_indices(x, n_procs=2),
    "random_permutation_indices-n_procs": lambda x: random_permutation_indices(6, n_procs=x),
    "engine.multivariate-n_draws": lambda x: SamplerEngine().multivariate(x, [3, 4], _rng()),
    "engine.multivariate_batch-n_draws": lambda x: SamplerEngine().multivariate_batch(
        x, [[3, 4]], _rng()),
    "engine.draw_many-t": lambda x: SamplerEngine().draw_many(x, 3, 4, 5, _rng()),
    "engine.draw_many-size": lambda x: SamplerEngine().draw_many(2, 3, 4, x, _rng()),
    "hypergeometric.sample-t": lambda x: hg.sample(x, 3, 4, _rng()),
    "hypergeometric.sample-w": lambda x: hg.sample(2, x, 4, _rng()),
    "hypergeometric.sample-b": lambda x: hg.sample(2, 3, x, _rng()),
    "hypergeometric.pmf-t": lambda x: hg.pmf(1, x, 3, 4),
    "hypergeometric.pmf-w": lambda x: hg.pmf(1, 2, x, 4),
    "multivariate.sample-sequential": lambda x: mv.sample(x, [3, 4], _rng()),
    "multivariate.sample-recursive": lambda x: mv.sample(x, [3, 4], _rng(),
                                                         strategy="recursive"),
    "multivariate.sample-batched": lambda x: mv.sample(x, [3, 4], _rng(), strategy="batched"),
    "multivariate.pmf-n_draws": lambda x: mv.pmf([1, 1], x, [3, 4]),
    "BlockDistribution.balanced-n_items": lambda x: BlockDistribution.balanced(x, 2),
    "BlockDistribution.balanced-n_blocks": lambda x: BlockDistribution.balanced(6, x),
    "BlockDistribution.uniform-block_size": lambda x: BlockDistribution.uniform(x, 2),
    "BlockDistribution.uniform-n_blocks": lambda x: BlockDistribution.uniform(3, x),
}

#: Entry points with one integer vector argument replaced by ``x``.
VECTOR_CALLS = {
    "sample_communication_matrix-rows": lambda x: sample_communication_matrix(
        x, [3, 3], seed=1),
    "sample_communication_matrix-cols": lambda x: sample_communication_matrix(
        [3, 3], x, algorithm="batched", seed=1),
    "sample_communication_matrix-parallel": lambda x: sample_communication_matrix(
        x, [3, 3], parallel=True, backend="thread", seed=1),
    "sample_communication_matrix-parallel-cols": lambda x: sample_communication_matrix(
        [3, 3], x, parallel=True, backend="thread", algorithm="root", seed=1),
    **{f"sample_matrix-{strategy}-{side}": (
        lambda x, strategy=strategy, side=side: cm.sample_matrix(
            *((x, [3, 3]) if side == "rows" else ([3, 3], x)), _rng(), strategy=strategy))
       for strategy in ("sequential", "recursive", "batched") for side in ("rows", "cols")},
    "check_matrix-rows": lambda x: cm.check_matrix([[1, 2], [1, 1]], x, [2, 3]),
    "sample_matrix_parallel-rows": lambda x: sample_matrix_parallel(
        x, [3, 3], backend="thread", seed=1),
    "sample_matrix_parallel-cols": lambda x: sample_matrix_parallel(
        [3, 3], x, algorithm="alg5", backend="thread", seed=1),
    "permute_distributed-target_sizes": lambda x: permute_distributed(
        [np.arange(3), np.arange(3, 6)], target_sizes=x, backend="thread", seed=1),
    "engine.multivariate-class_sizes": lambda x: SamplerEngine().multivariate(2, x, _rng()),
    "engine.sample_matrix_batched-rows": lambda x: SamplerEngine().sample_matrix_batched(
        x, [3, 3], _rng()),
    "engine.sample_matrix_batched-cols": lambda x: SamplerEngine().sample_matrix_batched(
        [3, 3], x, _rng()),
    "multivariate.sample-class_sizes": lambda x: mv.sample(2, x, _rng()),
    "multivariate.pmf-counts": lambda x: mv.pmf(x, 6, [3, 3]),
    "multivariate.pmf-class_sizes": lambda x: mv.pmf([1, 1], 2, x),
    "BlockDistribution-sizes": lambda x: BlockDistribution(x),
}

#: Entry points with one integer matrix argument replaced by ``x``.
MATRIX_CALLS = {
    "check_matrix-matrix": lambda x: cm.check_matrix(x, [3, 2], [2, 3]),
    "engine.multivariate_batch-class_sizes": lambda x: SamplerEngine().multivariate_batch(
        [1, 1], x, _rng()),
}


@pytest.mark.parametrize("call", SCALAR_CALLS.values(), ids=SCALAR_CALLS.keys())
@_SETTINGS
@given(value=BAD_SCALARS)
def test_scalar_arguments_reject_non_counts(call, value):
    with pytest.raises(ValidationError):
        call(value)


@_SETTINGS
@given(value=BAD_SCALARS)
def test_pmf_point_rejects_non_integers(value):
    # A negative integer k is outside the support (pmf 0), not an error.
    assume(not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)))
    with pytest.raises(ValidationError):
        hg.pmf(value, 2, 3, 4)


@pytest.mark.parametrize("call", VECTOR_CALLS.values(), ids=VECTOR_CALLS.keys())
@_SETTINGS
@given(values=bad_vectors())
def test_vector_arguments_reject_non_counts(call, values):
    with pytest.raises(ValidationError):
        call(values)


@pytest.mark.parametrize("call", MATRIX_CALLS.values(), ids=MATRIX_CALLS.keys())
@_SETTINGS
@given(values=bad_matrices())
def test_matrix_arguments_reject_non_counts(call, values):
    with pytest.raises(ValidationError):
        call(values)
