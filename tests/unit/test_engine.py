"""Unit tests for the SamplerEngine (method dispatch + batched kernels)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core import api
from repro.core import commmatrix as cm
from repro.core import hypergeometric as hg
from repro.core import multivariate as mv
from repro.core.blocks import BlockDistribution
from repro.core.engine import VALID_METHODS, SamplerEngine, get_engine
from repro.core.permutation import random_permutation, random_permutation_indices
from repro.rng.counting import CountingRNG
from repro.util import validation
from repro.util.errors import ValidationError


class TestEngineConstruction:
    def test_valid_methods(self):
        for method in VALID_METHODS:
            assert SamplerEngine(method).method == method

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown method"):
            SamplerEngine("bogus")

    def test_get_engine_caches_per_method(self):
        assert get_engine("auto") is get_engine("auto")
        assert get_engine("hin") is not get_engine("hrua")

    def test_get_engine_passes_instances_through(self):
        engine = SamplerEngine("hrua")
        assert get_engine(engine) is engine

    def test_get_engine_rejects_unknown(self):
        with pytest.raises(ValidationError):
            get_engine("bogus")

    @pytest.mark.parametrize("build", [SamplerEngine, get_engine],
                             ids=["SamplerEngine", "get_engine"])
    def test_kernels_is_no_engine_option(self, build):
        # The engine has one path, NumPy's: there is no kernel tier to select.
        with pytest.raises(TypeError, match="kernels"):
            build("auto", kernels="numpy")

    @pytest.mark.parametrize("threshold", [7.9, -1, True, "7"])
    def test_hin_threshold_must_be_a_count(self, threshold):
        # int() once turned 7.9 into 7.
        with pytest.raises(ValidationError, match="hin_threshold"):
            SamplerEngine(hin_threshold=threshold)

    def test_hin_threshold_accepts_counts(self):
        assert SamplerEngine(hin_threshold=0).hin_threshold == 0
        assert SamplerEngine(hin_threshold=7.0).hin_threshold == 7


class TestMethodDispatch:
    def test_auto_resolution_threshold(self):
        engine = SamplerEngine("auto")
        assert engine.resolve_method(5) == "hin"
        assert engine.resolve_method(50) == "hrua"

    def test_fixed_methods_resolve_to_themselves(self):
        assert SamplerEngine("hin").resolve_method(10**6) == "hin"
        assert SamplerEngine("numpy").resolve_method(3) == "numpy"

    def test_sample_delegates_to_engine(self):
        # hypergeometric.sample and engine.draw use the same stream the same way.
        a = hg.sample(30, 40, 50, np.random.default_rng(7), method="hrua")
        b = get_engine("hrua").draw(30, 40, 50, np.random.default_rng(7))
        assert a == b

    def test_unknown_method_through_sample(self):
        with pytest.raises(ValidationError, match="unknown method"):
            hg.sample(5, 5, 5, np.random.default_rng(0), method="bogus")

    def test_draw_many_shape(self):
        out = get_engine().draw_many(5, 10, 10, 7, np.random.default_rng(0))
        assert out.shape == (7,)
        assert out.dtype == np.int64


class TestMultivariateBatch:
    def test_single_batch_matches_constraints(self):
        engine = get_engine()
        sizes = np.array([[3, 0, 7, 2, 5]])
        counts = engine.multivariate_batch([9], sizes, np.random.default_rng(0))
        assert counts.shape == (1, 5)
        assert counts.sum() == 9
        assert np.all(counts >= 0)
        assert np.all(counts <= sizes)

    def test_batch_rows_independent_constraints(self):
        engine = get_engine()
        rng = np.random.default_rng(42)
        sizes = rng.integers(0, 20, size=(50, 7))
        draws = np.array([int(rng.integers(0, s.sum() + 1)) for s in sizes])
        counts = engine.multivariate_batch(draws, sizes, rng)
        assert np.array_equal(counts.sum(axis=1), draws)
        assert np.all(counts >= 0)
        assert np.all(counts <= sizes)

    def test_single_class_gets_all_draws(self):
        counts = get_engine().multivariate_batch([4], [[9]], np.random.default_rng(0))
        assert counts.tolist() == [[4]]

    def test_overdraw_rejected(self):
        with pytest.raises(ValidationError):
            get_engine().multivariate_batch([100], [[3, 4]], np.random.default_rng(0))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            get_engine().multivariate_batch([-1], [[3, 4]], np.random.default_rng(0))
        with pytest.raises(ValidationError):
            get_engine().multivariate_batch([1], [[-3, 4]], np.random.default_rng(0))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValidationError):
            get_engine().multivariate_batch([1], [3, 4], np.random.default_rng(0))

    @pytest.mark.parametrize("draws, sizes", [
        ([2.7], [[3, 4]]),
        ([2], [[1.5, 4]]),
        ([float("nan")], [[3, 4]]),
        ([2], [[float("inf"), 4]]),
    ], ids=["fractional-draws", "fractional-size", "nan-draws", "inf-size"])
    def test_non_integral_inputs_rejected(self, draws, sizes):
        # Casting would truncate (2.7 draws -> 2) instead of rejecting.
        with pytest.raises(ValidationError, match="must contain integers"):
            get_engine().multivariate_batch(draws, sizes, np.random.default_rng(0))

    @pytest.mark.parametrize("draws, sizes", [
        (True, [[3, 4]]),
        ([True], [[3, 4]]),
        ([1], [[True, True]]),
        ([1], [[True, 2]]),
        ([True, 2], [[3, 4], [5, 6]]),
        ([1], [np.array([True, False]), [2, 3]]),
    ], ids=["scalar-draws", "vector-draws", "sizes", "mixed-sizes", "mixed-draws",
            "bool-array-row"])
    def test_booleans_rejected(self, draws, sizes):
        with pytest.raises(ValidationError, match="must contain integers"):
            get_engine().multivariate_batch(draws, sizes, np.random.default_rng(0))

    @pytest.mark.parametrize("draws", [[1, 2, 3], [1], [], [[1], [2]]],
                             ids=["too-many", "one-for-two", "none", "2-d"])
    def test_draw_count_shape_mismatch_rejected(self, draws):
        with pytest.raises(ValidationError, match="n_draws must be a scalar"):
            get_engine().multivariate_batch(draws, [[3, 4], [5, 6]],
                                            np.random.default_rng(0))

    def test_ragged_sizes_rejected(self):
        with pytest.raises(ValidationError, match="rectangular"):
            get_engine().multivariate_batch([1, 1], [[3, 4], [5]], np.random.default_rng(0))

    def test_integral_floats_and_scalar_draws_accepted(self):
        # 3.0 is an integer; a scalar draw count applies to every batch row.
        sizes = [[3, 4], [5, 6]]
        ints = get_engine().multivariate_batch([3, 3], sizes, np.random.default_rng(4))
        floats = get_engine().multivariate_batch(
            3.0, np.asarray(sizes, dtype=float), np.random.default_rng(4))
        assert floats.dtype == np.int64
        assert np.array_equal(ints, floats)

    def test_counting_rng_accepted(self):
        rng = CountingRNG(np.random.default_rng(0))
        counts = get_engine().multivariate_batch([5, 3], [[4, 4], [2, 6]], rng)
        assert counts.sum(axis=1).tolist() == [5, 3]

    def test_marginal_law_matches_univariate_hypergeometric(self):
        # The count of class 0 in MVH(m, (m0, rest)) is h(m, m0, rest).
        engine = get_engine()
        rng = np.random.default_rng(2024)
        sizes = np.tile([4, 16], (4000, 1))
        counts = engine.multivariate_batch(np.full(4000, 5), sizes, rng)[:, 0]
        dist = scipy_stats.hypergeom(20, 4, 5)
        ks = np.arange(0, 5)
        observed = np.array([(counts == k).sum() for k in ks])
        expected = dist.pmf(ks) * 4000
        mask = expected > 5
        chi2 = float(((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum())
        assert scipy_stats.chi2.sf(chi2, int(mask.sum()) - 1) > 1e-4


class TestBatchedMatrix:
    def test_marginals_hold_power_of_two(self):
        rows = cols = np.full(8, 10, dtype=np.int64)
        matrix = get_engine().sample_matrix_batched(rows, cols, np.random.default_rng(0))
        assert cm.is_valid_communication_matrix(matrix, rows, cols)

    @pytest.mark.parametrize("p,pp", [(1, 1), (3, 5), (7, 2), (13, 13)])
    def test_marginals_hold_awkward_sizes(self, p, pp):
        rng = np.random.default_rng(p * 31 + pp)
        rows = rng.integers(0, 30, p)
        total = int(rows.sum())
        cols = np.full(pp, total // pp, dtype=np.int64)
        cols[: total % pp] += 1
        matrix = get_engine().sample_matrix_batched(rows, cols, rng)
        assert cm.is_valid_communication_matrix(matrix, rows, cols)

    def test_mean_matrix_matches_theory(self):
        # E[a_ij] = m_i * m'_j / n under the law of Problem 2.
        rows = np.array([4, 2, 6])
        cols = np.array([5, 3, 4])
        rng = np.random.default_rng(99)
        reps = 3000
        acc = np.zeros((3, 3))
        for _ in range(reps):
            acc += get_engine().sample_matrix_batched(rows, cols, rng)
        expected = np.outer(rows, cols) / rows.sum()
        assert np.abs(acc / reps - expected).max() < 0.12

    def test_strategy_reachable_through_sample_matrix(self):
        matrix = cm.sample_matrix([5, 5], [4, 6], np.random.default_rng(0), strategy="batched")
        assert cm.is_valid_communication_matrix(matrix, [5, 5], [4, 6])

    def test_strategy_reachable_through_multivariate_sample(self):
        counts = mv.sample(6, [3, 4, 5], np.random.default_rng(0), strategy="batched")
        assert counts.sum() == 6

    def test_mismatched_totals_rejected(self):
        with pytest.raises(ValidationError):
            get_engine().sample_matrix_batched([4, 4], [3, 3], np.random.default_rng(0))

    def test_seed_reproducible(self):
        rows = cols = np.full(16, 25, dtype=np.int64)
        a = get_engine().sample_matrix_batched(rows, cols, np.random.default_rng(5))
        b = get_engine().sample_matrix_batched(rows, cols, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", ["hin", "hrua"])
    def test_scalar_methods_rejected_by_batched_kernels(self, method):
        # The batched kernels always use numpy's vectorized sampler; a
        # request for a specific scalar sampler must not be silently ignored.
        with pytest.raises(ValidationError, match="batched"):
            cm.sample_matrix([5, 5], [4, 6], np.random.default_rng(0),
                             method=method, strategy="batched")
        with pytest.raises(ValidationError, match="batched"):
            get_engine(method).multivariate_batch([3], [[2, 4]], np.random.default_rng(0))

    def test_counting_rng_charges_vectorized_draws(self):
        rng = CountingRNG(np.random.default_rng(0))
        rows = cols = np.full(8, 20, dtype=np.int64)
        get_engine().sample_matrix_batched(rows, cols, rng)
        # Every nontrivial split consumes one variate; an 8x8 matrix needs
        # far more than the handful of vectorized calls that produce them.
        assert rng.uniforms_drawn > 8

    def test_one_validation_per_call(self, monkeypatch):
        # The row tree's levels still go through multivariate_batch by name
        # (perfbench times it there), but do not re-validate the marginals.
        engine = SamplerEngine()
        calls = {"levels": 0, "vector": 0}
        level = SamplerEngine.multivariate_batch
        convert = validation.as_int_array

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(SamplerEngine, "multivariate_batch", counting("levels", level))
        monkeypatch.setattr(validation, "as_int_array", counting("vector", convert))
        rows = cols = np.full(8, 20, dtype=np.int64)
        expected = SamplerEngine().sample_matrix_batched(rows, cols, np.random.default_rng(3))
        calls.update(levels=0, vector=0)
        matrix = engine.sample_matrix_batched(rows, cols, np.random.default_rng(3))
        assert np.array_equal(matrix, expected)
        assert calls == {"levels": 3, "vector": 2}


@pytest.mark.parametrize("call", [
    lambda: api.sample_communication_matrix([True, 2], [1, 2], algorithm="batched", seed=1),
    lambda: SamplerEngine().multivariate(True, [3, 4], np.random.default_rng(0)),
    lambda: BlockDistribution([True, 3]),
    lambda: random_permutation(np.arange(6), n_procs=True),
    lambda: hg.sample(True, 3, 4, np.random.default_rng(0)),
], ids=["matrix-marginal", "multivariate-draws", "block-sizes", "n_procs",
        "hypergeometric-draws"])
def test_entry_points_reject_booleans(call):
    # Each of these once read True as 1 and returned a result.
    with pytest.raises(ValidationError, match="integer"):
        call()


@pytest.mark.parametrize("knob", [2.7, 0, -1, True])
@pytest.mark.parametrize("call", [
    lambda knob: cm.sample_matrix_recursive([3, 3, 3], [4, 5], np.random.default_rng(0),
                                            leaf_rows=knob),
    lambda knob: mv.sample_recursive(5, [3, 4, 5], np.random.default_rng(0), leaf_size=knob),
], ids=["leaf_rows", "leaf_size"])
def test_recursion_leaf_knobs_must_be_positive_counts(call, knob):
    # int() once ran 2.7 as 2, and 0 was silently clamped to 1.
    with pytest.raises(ValidationError, match="leaf_"):
        call(knob)


@pytest.mark.parametrize("n", [2.7, True, "5", float("inf")],
                         ids=["fraction", "boolean", "string", "inf"])
def test_permutation_indices_reject_non_counts(n):
    # int(n) once turned 2.7 into 2 items, True into 1 and "5" into 5.
    with pytest.raises(ValidationError, match="integer"):
        random_permutation_indices(n, n_procs=2, seed=0)
