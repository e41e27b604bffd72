"""Unit tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.errors import ValidationError
from repro.util.validation import (
    as_int_array,
    check_in_range,
    check_marginals,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
    check_same_total,
    check_vector_of_nonnegative_ints,
)


class TestCheckNonnegativeInt:
    def test_accepts_plain_int(self):
        assert check_nonnegative_int(5, "x") == 5

    def test_accepts_zero(self):
        assert check_nonnegative_int(0, "x") == 0

    def test_accepts_numpy_integer(self):
        assert check_nonnegative_int(np.int64(7), "x") == 7

    def test_accepts_integral_float(self):
        assert check_nonnegative_int(3.0, "x") == 3

    def test_rejects_fractional_float(self):
        with pytest.raises(ValidationError):
            check_nonnegative_int(3.5, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="must be >= 0"):
            check_nonnegative_int(-1, "x")

    def test_rejects_string(self):
        with pytest.raises(ValidationError):
            check_nonnegative_int("five", "x")

    def test_error_message_contains_name(self):
        with pytest.raises(ValidationError, match="n_procs"):
            check_nonnegative_int(-3, "n_procs")

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), np.array(True)],
                             ids=["True", "False", "np.bool_", "0-d-bool-array"])
    def test_rejects_booleans(self, value):
        # int(True) is 1: a boolean must not pass as a count.
        with pytest.raises(ValidationError, match="must be an integer"):
            check_nonnegative_int(value, "x")


class TestCheckPositiveInt:
    def test_accepts_one(self):
        assert check_positive_int(1, "x") == 1

    def test_rejects_zero(self):
        with pytest.raises(ValidationError, match="must be >= 1"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive_int(-2, "x")

    def test_rejects_true(self):
        with pytest.raises(ValidationError, match="must be an integer"):
            check_positive_int(True, "x")


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_accepts_interior(self):
        assert check_probability(0.25, "p") == 0.25

    def test_rejects_above_one(self):
        with pytest.raises(ValidationError):
            check_probability(1.5, "p")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_probability(-0.1, "p")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_probability(float("nan"), "p")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_probability("a lot", "p")


class TestAsIntArray:
    def test_list_of_ints(self):
        arr = as_int_array([1, 2, 3], "v")
        assert arr.dtype == np.int64
        assert arr.tolist() == [1, 2, 3]

    def test_integral_floats_converted(self):
        arr = as_int_array([1.0, 2.0], "v")
        assert arr.tolist() == [1, 2]

    def test_fractional_floats_rejected(self):
        with pytest.raises(ValidationError):
            as_int_array([1.5, 2.0], "v")

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="1-D"):
            as_int_array(np.zeros((2, 2)), "v")

    def test_empty_allowed(self):
        assert as_int_array([], "v").size == 0

    def test_rejects_strings(self):
        with pytest.raises(ValidationError):
            as_int_array(["a", "b"], "v")

    @pytest.mark.parametrize("values", [[True, 2], [2, np.bool_(False)], (True, 3.0),
                                        [True, False], np.array([True, False])],
                             ids=["mixed-list", "np.bool_", "tuple-with-float",
                                  "all-bool-list", "bool-array"])
    def test_rejects_booleans(self, values):
        # np.asarray([True, 2]) is an int64 array; the boolean must not vanish.
        with pytest.raises(ValidationError, match="must contain integers"):
            as_int_array(values, "v")

    def test_integer_array_needs_no_element_check(self):
        assert as_int_array(np.array([1, 0, 2]), "v").tolist() == [1, 0, 2]


class TestCheckVectorOfNonnegativeInts:
    def test_accepts_nonnegative(self):
        arr = check_vector_of_nonnegative_ints([0, 4, 2], "v")
        assert arr.tolist() == [0, 4, 2]

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError, match="elementwise"):
            check_vector_of_nonnegative_ints([1, -1], "v")


class TestCheckSameTotal:
    def test_equal_totals(self):
        assert check_same_total([1, 2, 3], [6], "a", "b") == 6

    def test_unequal_totals_raise(self):
        with pytest.raises(ValidationError, match="same number of items"):
            check_same_total([1, 2], [4], "a", "b")

    def test_empty_vectors(self):
        assert check_same_total([], [], "a", "b") == 0

    @pytest.mark.parametrize("copies", [2, 4], ids=["wraps-negative", "wraps-to-zero"])
    def test_total_beyond_int64_rejected(self, copies):
        # The int64 sum wrapped: two copies of 2**62 read -2**63, four read 0.
        with pytest.raises(ValidationError, match="int64 range"):
            check_marginals([2**62] * copies, [2**62] * copies)

    def test_total_at_the_int64_limit_is_exact(self):
        top = 2**63 - 1
        assert check_marginals([top - 5, 5], [top])[2] == top


class TestCheckInRange:
    def test_inside(self):
        assert check_in_range(5, 0, 10, "x") == 5

    def test_bounds_inclusive(self):
        assert check_in_range(0, 0, 10, "x") == 0
        assert check_in_range(10, 0, 10, "x") == 10

    def test_outside_raises(self):
        with pytest.raises(ValidationError):
            check_in_range(11, 0, 10, "x")
