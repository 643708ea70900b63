"""Exception types shared across the package.

Every numerical refusal carries enough context to act on (offending size,
condition estimate, budget overrun); callers should not need to parse
messages to branch on failure modes.
"""

import json
from contextlib import contextmanager

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


def _freeze(record, **arrays) -> None:
    """Set each array, made read-only, on the frozen dataclass ``record``; pass copies of a caller's buffers."""
    for name, array in arrays.items():
        array.flags.writeable = False
        object.__setattr__(record, name, array)
