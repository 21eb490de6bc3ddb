"""Lightweight argument validation helpers.

Raise early with precise messages instead of letting NumPy broadcast
errors surface deep inside kernels.
"""

from __future__ import annotations

import numpy as np


def check_2d(arr: np.ndarray, name: str) -> np.ndarray:
    """Require a 2-D array; returns the array for chaining."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def check_dtype(arr: np.ndarray, dtypes, name: str) -> np.ndarray:
    """Require one of the given dtypes (names or dtype objects)."""
    arr = np.asarray(arr)
    allowed = tuple(np.dtype(d) for d in np.atleast_1d(dtypes))
    if arr.dtype not in allowed:
        names = ", ".join(str(d) for d in allowed)
        raise TypeError(f"{name} must have dtype in ({names}), got {arr.dtype}")
    return arr


def check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """Require every value to be finite (no NaN / ±inf)."""
    arr = np.asarray(arr)
    if np.issubdtype(arr.dtype, np.inexact) and not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got NaN or infinite values")
    return arr


def check_operands(arr: np.ndarray, dtype, name: str) -> np.ndarray:
    """Require finite, integral values inside ``dtype``'s integer range.

    The boundary check of the integer search pipeline: an index over
    uint8 data takes operands in ``[0, 255]``. Values are never rounded
    or clipped — anything that would change under a cast to ``dtype``
    raises a ``ValueError`` naming ``name``. An array that already has
    an integer dtype inside that range passes with no data scan.
    """
    arr = np.asarray(arr)
    info = np.iinfo(dtype)
    if np.issubdtype(arr.dtype, np.integer):
        own = np.iinfo(arr.dtype)
        if info.min <= own.min and own.max <= info.max:
            return arr
    elif np.issubdtype(arr.dtype, np.floating):
        check_finite(arr, name)
        if arr.size and not np.array_equal(arr, np.trunc(arr)):
            raise ValueError(f"{name} must hold integer values, got fractions")
    else:
        raise TypeError(f"{name} must be numeric, got {arr.dtype}")
    if arr.size:
        lo, hi = arr.min(), arr.max()
        if lo < info.min or hi > info.max:
            raise ValueError(
                f"{name} values must lie in [{info.min}, {info.max}] for a "
                f"{np.dtype(dtype)} index, got [{lo}, {hi}]"
            )
    return arr


def check_positive(value, name: str):
    """Require a strictly positive scalar."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_count(value, name: str, *, optional: bool = False):
    """Require an integer >= 1 (or ``None`` when ``optional``).

    A count is never coerced: ``bool``, ``float`` (NaN included) and
    ``str`` raise ``TypeError`` naming ``name``; integers below 1 raise
    ``ValueError``. NumPy integers are accepted.
    """
    if value is None and optional:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        kind = "an int or None" if optional else "an int"
        raise TypeError(f"{name} must be {kind}, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_same_dim(a: np.ndarray, b: np.ndarray, name_a: str, name_b: str) -> None:
    """Require two 2-D arrays to share their trailing (feature) dimension."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"{name_a} and {name_b} must share the feature dimension: "
            f"{a.shape[-1]} != {b.shape[-1]}"
        )
