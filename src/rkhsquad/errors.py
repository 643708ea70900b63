"""Exception types shared across the package.

Every numerical refusal carries enough context to act on (offending size,
condition estimate, budget overrun); callers should not need to parse
messages to branch on failure modes.
"""

import json
from contextlib import contextmanager
from math import isfinite

import numpy as np


class UnsupportedDegreeError(ValueError):
    """Polynomial degree above the supported guard."""


class UnsupportedSizeError(ValueError):
    """Quadrature size outside the supported range."""


class ShapeMismatchError(ValueError):
    """Dimension or index-set mismatch between operands."""


class DomainError(ValueError):
    """Parameter outside its mathematical domain (sigma <= 0, beta not in (0,1), ...)."""


class BudgetError(ValueError):
    """Requested construction exceeds an explicit size or cost budget."""


class ConditioningError(ArithmeticError):
    """Gram system too ill-conditioned to solve reliably."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NumericalConsistencyError(ArithmeticError):
    """A quantity violated a consistency bound beyond round-off tolerance."""


class InsufficientDataError(ValueError):
    """Not enough data points for the requested estimate."""


@contextmanager
def _json_input(obj, what: str):
    """Yield the JSON value ``obj``, parsed first if it is text.  Malformed input
    (``5``, ``[]``, ``null``, a missing key) raising a KeyError, TypeError,
    AttributeError or ValueError in the block raises DomainError instead."""
    try:
        yield json.loads(obj) if isinstance(obj, str) else obj
    except (UnsupportedDegreeError, UnsupportedSizeError, ShapeMismatchError, DomainError, BudgetError):
        raise  # a constructor's own error keeps its type
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DomainError(f"invalid {what} JSON: {exc!r}") from exc


def _is_int(value, floats: bool = False) -> bool:
    """Whether ``value`` is an int or a numpy integer, not a bool, checked in O(1) where a
    count enters.  With ``floats``, for arguments that have always been read through
    ``int()``, a float with no fractional part passes too."""
    if isinstance(value, (int, np.integer)):
        return not isinstance(value, bool)
    return floats and isinstance(value, (float, np.floating)) and float(value).is_integer()


def _adopt(value) -> np.ndarray:
    """``value`` itself if it is a read-only float64 array that owns its data, as the
    library's builders leave what they allocate (:func:`_frozen`); anything else as a
    private float64 copy, so that a caller's buffer is never shared."""
    if type(value) is np.ndarray and value.dtype == np.float64 and value.flags.owndata and not value.flags.writeable:
        return value
    return np.array(value, dtype=float)


def _frozen(*arrays) -> tuple:
    """The arrays, each made read-only in place, for a value type to adopt without a copy;
    only for arrays that the caller has just allocated and shares with no one."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _finite(array: np.ndarray) -> bool:
    """Whether every entry of a float array is finite, an empty one included, read from
    its min and max, which a NaN reaches too, so no temporary of the array's size is made."""
    return array.size == 0 or (isfinite(array.min()) and isfinite(array.max()))


def _freeze(record, **arrays) -> None:
    """Set each array, made read-only, on the frozen dataclass ``record``.  The arrays come
    from :func:`_adopt`: an adopted array was read-only already, and a copy is private."""
    for name, array in arrays.items():
        array.flags.writeable = False
        object.__setattr__(record, name, array)
