"""Exception types shared across the toolkit, and the checks on numbers
that raise them.

ValidationError covers bad inputs (malformed graphs, shape mismatches,
preconditions on sizes and windows).  NumericError covers failures that only
show up at run time: positivity violations in the discrete Toda step,
non-closed one-forms handed to the potential constructor, singular matrices.
"""

import functools
import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericError(RuntimeError):
    """A numeric condition required by an operation failed."""


def integer(value, what: str) -> int:
    """`value` as an int; ValidationError unless it is an integer, not a bool."""
    if type(value) is int:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer")
    return int(value)


def real_number(value, what: str) -> float:
    """`value` as a float; ValidationError unless it is a real number, not a bool."""
    if type(value) is float:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number")
    try:
        return float(value)
    except OverflowError:  # an int or Fraction past float range
        raise ValidationError(f"{what} must be a real number within float range") from None


def positive_real(value, what: str) -> float:
    """`value` as a float; ValidationError unless it is a real number, not a
    bool, with 0 < value < inf.  Lengths, spacings and step sizes take it."""
    v = real_number(value, what)
    if not 0 < v < math.inf:  # nan fails too
        raise ValidationError(f"{what} must be positive and finite")
    return v


def finite_number(value, what: str):
    """`value` as it is; ValidationError naming it unless it is a finite real
    or complex number, not a bool.  Ints and Fractions pass unchanged, so
    exact arithmetic on them stays exact."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex) or not (
        isinstance(value, numbers.Rational)  # finite; float() overflows on huge ints
        or math.isfinite(value.real) and math.isfinite(value.imag)
    ):
        raise ValidationError(f"{what} {value!r} must be a finite real or complex number")
    return value


def finite_array(values, what: str, kinds: str = "iuf") -> np.ndarray:
    """`values` as an array; ValidationError unless its dtype kind is one of
    `kinds` (ints and floats by default, "iufc" admits complex) and every
    entry is finite."""
    try:
        a = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise ValidationError(f"{what} must be an array of numbers: {exc}") from None
    if a.dtype.kind not in kinds or not np.isfinite(a).all():
        kind = "" if "c" in kinds else "real "
        raise ValidationError(f"{what} must be finite {kind}numbers")
    return a


def overflow_is_numeric(fn):
    """Make overflow, division by zero and invalid operations in `fn` raise
    NumericError instead of warning and returning inf or nan."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError) as exc:
            raise NumericError(
                f"non-finite arithmetic in {fn.__name__}: {exc}"
            ) from None

    return checked
