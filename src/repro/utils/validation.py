"""Argument validation helpers used across the package.

These helpers raise informative :class:`ValueError`/:class:`TypeError`
exceptions so public-API misuse fails fast with a clear message rather than
deep inside a numerical kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_weights",
]


def check_positive_int(value: int, name: str, *, allow_zero: bool = False) -> int:
    """Validate that ``value`` is a (strictly) positive integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    lower = 0 if allow_zero else 1
    if value < lower:
        comparison = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be {comparison}, got {value}")
    return value


def check_positive(value: float, name: str, *, allow_zero: bool = False) -> float:
    """Validate that ``value`` is a (strictly) positive finite float."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if allow_zero:
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    elif value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_probability(value: float, name: str, *, allow_zero: bool = False, allow_one: bool = True) -> float:
    """Validate that ``value`` is a probability in ``(0, 1]`` (by default)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    low_ok = value >= 0.0 if allow_zero else value > 0.0
    high_ok = value <= 1.0 if allow_one else value < 1.0
    if not (low_ok and high_ok):
        raise ValueError(f"{name} must be a probability in the valid range, got {value}")
    return value


def check_weights(weights: np.ndarray, name: str = "weights") -> np.ndarray:
    """Validate an array of item weights: finite and strictly positive.

    The common (valid) case costs one ``min`` and one ``max`` reduction:
    NaN propagates through both, so ``min > 0 and max < inf`` holds
    exactly for finite positive weights.  Only a failing array is
    re-scanned to pick the message (non-finite takes precedence).
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        raise ValueError(f"{name} must be strictly positive")
    return arr
