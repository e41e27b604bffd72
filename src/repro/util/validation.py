"""Argument validation: the one boundary between outside input and trusted ints.

The rule is: each public entry point validates its integer arguments once,
through these helpers, and the layers below take the plain ``int`` values
and ``int64`` arrays they return without checking them again.  The
samplers' loops and recursions, the engine's tree levels and the matrix
programs' splits all run on trusted values.

:func:`as_int_array` is the one integer rule for arrays (the vector and
marginal helpers wrap it); :func:`check_nonnegative_int` is its scalar
form, with an ``operator.index`` fast path.  Both raise
:class:`~repro.util.errors.ValidationError` for booleans, strings and other
objects, NaN, infinities, fractions and negative counts, rather than cast
them (``int(2.7)`` is 2, ``int(True)`` is 1).  They return the validated
value, so they read fluently::

    m = check_vector_of_nonnegative_ints(m, "m")
    p = check_positive_int(p, "p")
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from repro.util.errors import ValidationError

__all__ = [
    "check_nonnegative_int",
    "check_positive_int",
    "check_probability",
    "check_vector_of_nonnegative_ints",
    "check_marginals",
    "check_same_total",
    "check_in_range",
    "as_int_array",
]


def _holds_bool(values) -> bool:
    # np.asarray([True, 2]) is an int64 array: look for the boolean first.
    if isinstance(values, np.ndarray):
        return values.dtype.kind == "b"
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_))


def as_int_array(values: Iterable, name: str, ndim: int | None = 1) -> np.ndarray:
    """``values`` as a non-negative ``int64`` array of rank ``ndim`` (``None``: any).

    An ndarray is judged by its dtype, and an ``int64`` one is returned as
    is, without a copy; other input goes through ``np.asarray`` after its
    lists and tuples are searched for booleans.  Raises
    :class:`ValidationError` for booleans, strings and objects, ragged
    nesting, NaN, infinities, fractions, values outside the ``int64``
    range, the wrong rank and negative entries.
    """
    if isinstance(values, np.ndarray):
        arr = values
    elif _holds_bool(values):
        raise ValidationError(f"{name} must contain integers, got a boolean")
    else:
        try:
            arr = np.asarray(values)
        except (TypeError, ValueError, OverflowError):  # ragged nesting
            raise ValidationError(f"{name} must be a rectangular array of integers") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    kind, must = arr.dtype.kind, "be an integer" if arr.ndim == 0 else "contain integers"
    if kind == "f":
        bad = ~((arr >= -2.0**63) & (arr < 2.0**63)) | (arr != np.floor(arr))
        if bad.any():
            raise ValidationError(
                f"{name} must {must} in the int64 range, got {float(arr[bad].flat[0])!r}")
    elif kind == "u":
        if arr.size and arr.max() > np.iinfo(np.int64).max:
            raise ValidationError(f"{name} must {must} in the int64 range")
    elif kind != "i":
        raise ValidationError(f"{name} must {must}, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and arr.min() < 0:
        raise ValidationError(f"{name} must be >= 0 elementwise, got min {arr.min()}")
    return arr


def check_nonnegative_int(value, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 0`` and return it as ``int``.

    ``int`` and NumPy integers of any size pass unchanged.  Otherwise only
    a finite, integral real float is accepted (a Python or NumPy float, or
    a 0-d float array): ``3.0`` is fine, ``3.5``, ``inf``, ``True``,
    ``"3"``, ``Fraction(7, 2)`` and ``Decimal("3.5")`` are not.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        as_int = operator.index(value)
    except TypeError:
        if not (isinstance(value, (float, np.floating))
                or isinstance(value, np.ndarray) and value.dtype.kind == "f"):
            raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        return int(as_int_array(value, name, ndim=0))
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


def check_vector_of_nonnegative_ints(values: Iterable, name: str) -> np.ndarray:
    """Validate a vector of non-negative integers, returning an ``int64`` array."""
    return as_int_array(values, name)


def check_marginals(row_sums, col_sums, row_name: str = "row_sums",
                    col_name: str = "col_sums") -> tuple[np.ndarray, np.ndarray, int]:
    """Problem 2's marginals as trusted ``int64`` vectors, plus their common total.

    The source block sizes ``m`` and the target block sizes ``m'`` must
    describe the same number of items ``n`` (equation (1) of the paper).
    """
    rows = as_int_array(row_sums, row_name)
    cols = as_int_array(col_sums, col_name)
    total, col_total = int(rows.sum()), int(cols.sum())
    if total != col_total:
        raise ValidationError(
            f"sum({row_name}) == {total} but sum({col_name}) == {col_total}; "
            "the source and target layouts must hold the same number of items"
        )
    return rows, cols, total


def check_same_total(left: Sequence, right: Sequence, left_name: str, right_name: str) -> int:
    """Validate ``sum(left) == sum(right)`` and return the common total."""
    return check_marginals(left, right, left_name, right_name)[2]


def check_in_range(value, low, high, name: str):
    """Validate ``low <= value <= high`` (inclusive bounds)."""
    if not (low <= value <= high):
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value
