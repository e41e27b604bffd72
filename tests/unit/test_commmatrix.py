"""Unit tests for sequential communication-matrix sampling (Algorithms 3-4)."""

import numpy as np
import pytest

from repro.core import commmatrix as cm
from repro.rng.counting import CountingRNG
from repro.core.hypergeometric import SampleRecorder
from repro.util.errors import ValidationError


class TestValidityHelpers:
    def test_is_valid_accepts_good_matrix(self):
        matrix = np.array([[1, 2], [1, 1]])
        assert cm.is_valid_communication_matrix(matrix, [3, 2], [2, 3])

    def test_is_valid_rejects_wrong_marginals(self):
        matrix = np.array([[2, 1], [1, 1]])
        assert not cm.is_valid_communication_matrix(matrix, [3, 2], [2, 3])

    def test_is_valid_rejects_wrong_shape(self):
        assert not cm.is_valid_communication_matrix(np.zeros((2, 2), dtype=int), [3, 2, 1], [2, 3, 1])

    def test_is_valid_rejects_negative(self):
        matrix = np.array([[4, -1], [-1, 4]])
        assert not cm.is_valid_communication_matrix(matrix, [3, 3], [3, 3])

    def test_is_valid_rejects_floats(self):
        matrix = np.array([[1.0, 2.0], [1.0, 1.0]])
        assert not cm.is_valid_communication_matrix(matrix, [3, 2], [2, 3])

    def test_check_matrix_returns_int64(self):
        out = cm.check_matrix([[1, 2], [1, 1]], [3, 2], [2, 3])
        assert out.dtype == np.int64

    def test_check_matrix_accepts_integral_floats(self):
        out = cm.check_matrix(np.array([[1.0, 2.0], [1.0, 1.0]]), [3, 2], [2, 3])
        assert out.dtype == np.int64

    def test_check_matrix_rejects_fractional(self):
        with pytest.raises(ValidationError):
            cm.check_matrix(np.array([[1.5, 1.5], [1.0, 1.0]]), [3, 2], [2, 3])

    def test_check_matrix_rejects_bad_row_sums(self):
        with pytest.raises(ValidationError, match="equation"):
            cm.check_matrix([[2, 0], [0, 3]], [3, 2], [2, 3])

    def test_check_matrix_rejects_negative(self):
        with pytest.raises(ValidationError):
            cm.check_matrix([[4, -1], [-2, 4]], [3, 2], [2, 3])

    def test_marginal_total_mismatch(self):
        with pytest.raises(ValidationError):
            cm.sample_matrix([1, 2], [4])


class TestSequentialSampler:
    @pytest.mark.parametrize("strategy", ["sequential", "recursive"])
    def test_marginals_always_respected(self, strategy, rng):
        rows, cols = [5, 0, 7, 3], [4, 4, 4, 3]
        for _ in range(25):
            matrix = cm.sample_matrix(rows, cols, rng, strategy=strategy)
            assert cm.is_valid_communication_matrix(matrix, rows, cols)

    def test_rectangular_matrices(self, rng):
        rows, cols = [4, 4, 4], [6, 6]
        matrix = cm.sample_matrix(rows, cols, rng)
        assert matrix.shape == (3, 2)
        assert cm.is_valid_communication_matrix(matrix, rows, cols)

    def test_single_row(self, rng):
        matrix = cm.sample_matrix([10], [3, 3, 4], rng)
        assert matrix.tolist() == [[3, 3, 4]]

    def test_single_column(self, rng):
        matrix = cm.sample_matrix([3, 3, 4], [10], rng)
        assert matrix.ravel().tolist() == [3, 3, 4]

    def test_zero_total(self, rng):
        matrix = cm.sample_matrix([0, 0], [0, 0], rng)
        assert matrix.tolist() == [[0, 0], [0, 0]]

    def test_empty_dimensions(self, rng):
        assert cm.sample_matrix_sequential([], [], rng).shape == (0, 0)

    def test_deterministic_when_forced(self, rng):
        # Column capacities force everything into column 1.
        matrix = cm.sample_matrix([2, 3], [0, 5], rng)
        assert matrix.tolist() == [[0, 2], [0, 3]]

    def test_reproducibility(self):
        a = cm.sample_matrix([5, 5, 5], [5, 5, 5], np.random.default_rng(4))
        b = cm.sample_matrix([5, 5, 5], [5, 5, 5], np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            cm.sample_matrix([2, 2], [2, 2], strategy="parallel")

    def test_recursive_leaf_rows_parameter(self, rng):
        matrix = cm.sample_matrix_recursive([3, 3, 3, 3], [4, 4, 4], rng, leaf_rows=2)
        assert cm.is_valid_communication_matrix(matrix, [3, 3, 3, 3], [4, 4, 4])

    def test_number_of_h_calls_is_quadratic(self):
        """Proposition 7: O(p * p') calls to h(,)."""
        rng = CountingRNG(0)
        p = 8
        rows = cols = [100] * p
        with SampleRecorder() as rec:
            cm.sample_matrix_sequential(rows, cols, rng)
        assert rec.n_calls == p * p

    def test_expectation_matches_outer_product(self):
        rng = np.random.default_rng(6)
        rows, cols = [20, 10], [15, 15]
        samples = np.array([cm.sample_matrix(rows, cols, rng) for _ in range(2000)], dtype=float)
        expected = np.outer(rows, cols) / 30
        assert np.allclose(samples.mean(axis=0), expected, atol=0.35)


class TestValidationBoundary:
    def test_sequential_matrix_validates_its_marginals_once(self, monkeypatch):
        # The marginals are checked at the entry point; the row loop, the
        # multivariate peeling and every h(,) draw run on trusted ints.
        import sys

        from repro.util import validation

        calls = {"vector": 0, "scalar": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        rows = cols = [40] * 16
        expected = cm.sample_matrix(rows, cols, np.random.default_rng(9))
        kinds = {"as_int_array": "vector", "check_nonnegative_int": "scalar",
                 "check_positive_int": "scalar"}
        originals = {attr: getattr(validation, attr) for attr in kinds}
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, key in kinds.items():
                    if getattr(module, attr, None) is originals[attr]:
                        monkeypatch.setattr(module, attr, counting(key, originals[attr]))
        with SampleRecorder() as rec:
            matrix = cm.sample_matrix(rows, cols, np.random.default_rng(9))
        assert np.array_equal(matrix, expected)
        assert rec.n_calls == 16 * 16
        assert calls["vector"] <= 2 and calls["scalar"] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("matrix, fault", [
        (np.eye(2, dtype=bool), "dtype bool"),
        ([[float("inf"), 0], [0, 1]], "int64 range"),
    ], ids=["boolean", "inf"])
    def test_matrix_checks_agree_and_name_the_fault(self, matrix, fault):
        # check_matrix once returned a boolean matrix as [[1, 0], [0, 1]]
        # and cast inf to int64 min ("must be non-negative").
        with pytest.raises(ValidationError, match=fault):
            cm.check_matrix(matrix, [1, 1], [1, 1])
        assert not cm.is_valid_communication_matrix(matrix, [1, 1], [1, 1])
