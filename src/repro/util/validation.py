"""Argument-validation helpers.

Every public entry point of the library validates its inputs through these
helpers so that error messages are uniform and informative.  The helpers
return the validated (and possibly converted) value so they can be used in a
fluent style::

    m = check_vector_of_nonnegative_ints(m, "m")
    p = check_positive_int(p, "p")
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.util.errors import ValidationError

__all__ = [
    "check_nonnegative_int",
    "check_positive_int",
    "check_probability",
    "check_vector_of_nonnegative_ints",
    "check_same_total",
    "check_totals_agree",
    "check_in_range",
    "as_int_array",
    "holds_bool",
]


def holds_bool(values) -> bool:
    """Whether ``values`` is a boolean, or a list, tuple or array holding one.

    ``int(True)`` is 1 and ``np.asarray([True, 2])`` is ``[1, 2]``, so the
    validators ask this before converting; an array answers by its dtype.
    """
    if isinstance(values, np.ndarray):
        return values.dtype.kind == "b"
    if isinstance(values, (list, tuple)):
        return any(holds_bool(value) for value in values)
    return isinstance(values, (bool, np.bool_))


def check_nonnegative_int(value, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 0`` and return it as ``int``.

    NumPy integer scalars are accepted; floats are accepted only when they
    are exactly integral (``3.0`` is fine, ``3.5`` is not).  Booleans are
    rejected.
    """
    if holds_bool(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        as_int = int(value)
    except (TypeError, ValueError) as exc:  # non numeric
        raise ValidationError(f"{name} must be an integer, got {value!r}") from exc
    if isinstance(value, float) and value != as_int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, (np.floating,)) and float(value) != as_int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if as_int < 0:
        raise ValidationError(f"{name} must be >= 0, got {as_int}")
    return as_int


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 1`` and return it as ``int``."""
    as_int = check_nonnegative_int(value, name)
    if as_int == 0:
        raise ValidationError(f"{name} must be >= 1, got 0")
    return as_int


def check_probability(value, name: str) -> float:
    """Validate that ``value`` is a float in ``[0, 1]`` and return it."""
    try:
        as_float = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a probability in [0, 1], got {value!r}") from exc
    if not (0.0 <= as_float <= 1.0) or np.isnan(as_float):
        raise ValidationError(f"{name} must be a probability in [0, 1], got {as_float!r}")
    return as_float


def as_int_array(values: Iterable, name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D ``int64`` array, rejecting non-integral input.

    Booleans are rejected: an array by its dtype, any other input element
    by element.
    """
    if isinstance(values, np.ndarray):
        arr = values
    else:
        values = list(values)
        if holds_bool(values):
            raise ValidationError(f"{name} must contain integers, got a boolean")
        arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        return arr.astype(np.int64)
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise ValidationError(f"{name} must contain integers, got {arr!r}")
        arr = arr.astype(np.int64)
    elif arr.dtype.kind not in "iu":
        raise ValidationError(f"{name} must contain integers, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def check_vector_of_nonnegative_ints(values: Iterable, name: str) -> np.ndarray:
    """Validate a vector of non-negative integers, returning an ``int64`` array."""
    arr = as_int_array(values, name)
    if arr.size and arr.min() < 0:
        raise ValidationError(f"{name} must be >= 0 elementwise, got min {arr.min()}")
    return arr


def check_same_total(left: Sequence, right: Sequence, left_name: str, right_name: str) -> int:
    """Validate ``sum(left) == sum(right)`` and return the common total.

    Used for the communication-matrix marginals, where the source block sizes
    and target block sizes must describe the same number of items
    (equation (1) of the paper).
    """
    left_arr = check_vector_of_nonnegative_ints(left, left_name)
    right_arr = check_vector_of_nonnegative_ints(right, right_name)
    return check_totals_agree(left_arr, right_arr, left_name, right_name)


def check_totals_agree(left: np.ndarray, right: np.ndarray, left_name: str,
                       right_name: str) -> int:
    """:func:`check_same_total` for vectors that are already validated."""
    left_total = int(left.sum())
    right_total = int(right.sum())
    if left_total != right_total:
        raise ValidationError(
            f"sum({left_name}) == {left_total} but sum({right_name}) == {right_total}; "
            "the source and target layouts must hold the same number of items"
        )
    return left_total


def check_in_range(value, low, high, name: str):
    """Validate ``low <= value <= high`` (inclusive bounds)."""
    if not (low <= value <= high):
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value
