"""Argument validation helpers with consistent error messages.

These are used at public API boundaries.  Internal hot paths skip them —
validation happens once when a model or strategy object is constructed,
not inside vectorised sweeps.
"""

from __future__ import annotations

import math

__all__ = [
    "check_finite",
    "check_in_range",
    "check_int_at_least",
    "check_positive",
    "check_nonnegative",
    "check_probability",
]


def check_finite(name: str, value: float) -> float:
    """Ensure ``value`` is a finite real number; return it as ``float``."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Ensure ``value`` is finite and strictly positive."""
    value = check_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Ensure ``value`` is finite and >= 0."""
    value = check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Ensure ``value`` is a probability in ``[0, 1]``."""
    value = check_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_int_at_least(name: str, value: int, minimum: int) -> int:
    """Ensure ``value`` is an integer >= ``minimum``; return it as ``int``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        as_int = int(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be an integer, got {value!r}") from exc
    if as_int != value:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if as_int < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return as_int


def check_in_range(
    name: str,
    value: float,
    lo: float,
    hi: float,
    *,
    inclusive: tuple[bool, bool] = (True, True),
) -> float:
    """Ensure ``lo (<|<=) value (<|<=) hi`` according to ``inclusive``."""
    value = check_finite(name, value)
    lo_ok = value >= lo if inclusive[0] else value > lo
    hi_ok = value <= hi if inclusive[1] else value < hi
    if not (lo_ok and hi_ok):
        lo_b = "[" if inclusive[0] else "("
        hi_b = "]" if inclusive[1] else ")"
        raise ValueError(f"{name} must be in {lo_b}{lo}, {hi}{hi_b}, got {value!r}")
    return value

