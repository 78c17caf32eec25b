"""Small argument-validation helpers.

The library validates inputs at public API boundaries and raises
``ValueError`` with messages that name the offending parameter, per the
"errors should never pass silently" principle.  Internal hot loops do not
re-validate.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "ConfigError",
    "require",
    "require_config",
    "is_finite_number",
    "require_positive",
    "require_non_negative",
    "require_probability",
]


class ConfigError(ValueError):
    """An experiment configuration names an impossible combination.

    Raised up front — at :class:`~repro.api.experiment.ExperimentConfig`
    construction or during the pipeline's learn-stage validation —
    when a selector's capability flags are incompatible with the
    requested workload (e.g. a budget workload given to a selector
    without ``supports_budget``, or a selector needing learned
    artifacts bound to a context that has no training log).  Subclasses
    ``ValueError`` so existing broad handlers keep working.
    """


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_config(condition: bool, message: str) -> None:
    """Raise :class:`ConfigError(message)` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(message)


def is_finite_number(value: Any) -> bool:
    """Whether ``value`` is a finite int or float (not a bool)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or 10**400
        return False


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Raise unless ``value >= 0`` (so NaN is rejected too)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Raise unless ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
