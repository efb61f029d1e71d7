"""Uniform argument validation helpers.

All raise :class:`ValueError`/:class:`TypeError` with messages that name the
offending parameter, so failures deep inside an ensemble run are attributable
without a debugger.
"""

from __future__ import annotations

import math
import numbers
from typing import Any

import numpy as np

__all__ = [
    "check_positive_int",
    "check_nonnegative_int",
    "check_probability",
    "check_fraction",
    "check_in_range",
    "check_odd",
    "check_start_vertices",
]


def check_positive_int(value: Any, name: str) -> int:
    """Validate that *value* is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_nonnegative_int(value: Any, name: str) -> int:
    """Validate that *value* is an integer >= 0 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: Any, name: str) -> float:
    """Validate that *value* is a real number in ``[0, 1]`` and return it."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value) or not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return value


def check_fraction(value: Any, name: str) -> float:
    """Validate that *value* lies strictly inside ``(0, 1)`` and return it.

    Used for the paper's initial-imbalance parameter ``delta`` which must
    satisfy ``0 < 1/2 - delta`` and ``delta > 0`` to be meaningful.
    """
    value = check_probability(value, name)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")
    return value


def check_in_range(
    value: Any,
    name: str,
    low: float,
    high: float,
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> float:
    """Validate that *value* lies in the interval [low, high] (ends optionally open)."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    lo_ok = value > low if low_open else value >= low
    hi_ok = value < high if high_open else value <= high
    if not (lo_ok and hi_ok):
        lb = "(" if low_open else "["
        rb = ")" if high_open else "]"
        raise ValueError(f"{name} must lie in {lb}{low}, {high}{rb}, got {value}")
    return value


def check_odd(value: Any, name: str) -> int:
    """Validate that *value* is a positive odd integer and return it."""
    value = check_positive_int(value, name)
    if value % 2 == 0:
        raise ValueError(f"{name} must be odd, got {value}")
    return value


def check_start_vertices(start: Any, n: int) -> np.ndarray:
    """Validate a non-empty start set of vertex ids of an ``n``-vertex graph.

    Returns the ids sorted and de-duplicated as ``int64``.  A float array
    would be truncated and a bool mask read as 0/1 ids, so any dtype that
    is not an integer one is rejected, as the graph samplers do.
    """
    ids = np.atleast_1d(np.asarray(start))
    if ids.size == 0:
        raise ValueError("start set must be non-empty")
    if ids.dtype.kind not in "iu":
        raise ValueError(
            f"start vertex ids must be integers, got dtype {ids.dtype}"
        )
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError(f"start vertices out of range [0, {n})")
    return np.unique(ids.astype(np.int64))
