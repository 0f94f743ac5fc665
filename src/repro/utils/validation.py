"""Small argument-validation helpers used across the library.

Keeping these in one place makes error messages uniform and keeps the
domain modules focused on their logic.
"""

from __future__ import annotations

import difflib
import os
from numbers import Real
from typing import Any, Sequence, Tuple, Type, Union


def check_type(value: Any, expected: Union[Type, Tuple[Type, ...]], name: str) -> None:
    """Raise :class:`TypeError` unless ``value`` is an instance of ``expected``."""
    if not isinstance(value, expected):
        expected_names = (
            expected.__name__
            if isinstance(expected, type)
            else " or ".join(t.__name__ for t in expected)
        )
        raise TypeError(f"{name} must be {expected_names}, got {type(value).__name__}")


def check_positive(value: Real, name: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_non_negative(value: Real, name: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def check_probability(value: Real, name: str, *, allow_zero: bool = True, allow_one: bool = True) -> None:
    """Raise :class:`ValueError` unless ``value`` is a valid probability.

    ``allow_zero`` / ``allow_one`` tighten the admissible interval when an
    open interval is required (e.g. a per-attempt success probability of
    exactly zero would make a link permanently unusable).
    """
    low_ok = value > 0 or (allow_zero and value == 0)
    high_ok = value < 1 or (allow_one and value == 1)
    if not (low_ok and high_ok):
        raise ValueError(f"{name} must be a probability in the required range, got {value}")


def check_in_range(value: Real, low: Real, high: Real, name: str) -> None:
    """Raise :class:`ValueError` unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")


def check_integer(value: Any, name: str) -> None:
    """Raise :class:`TypeError` unless ``value`` is an integral number."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")


def did_you_mean(value: object, options: Sequence[str]) -> str:
    """A ``"; did you mean 'x'?"`` suffix, or empty when nothing is close."""
    matches = difflib.get_close_matches(str(value), list(options), n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def check_choice(value: object, options: Sequence[str], name: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is one of ``options``."""
    if value not in options:
        raise ValueError(
            f"unknown {name} {value!r}; choose from {', '.join(options)}"
            f"{did_you_mean(value, options)}"
        )


def effective_level(configured: str, env_var: str, levels: Sequence[str]) -> str:
    """The level in force: a non-empty ``env_var`` wins over ``configured``.

    The guard and telemetry levels both resolve here, when their guard or
    tracer is built, so scenario dictionaries and store/checkpoint keys
    never depend on the variable, and worker processes (which inherit the
    environment) apply the same level as their parent.
    """
    override = os.environ.get(env_var, "").strip().lower()
    if not override:
        return configured
    if override not in levels:
        raise ValueError(f"invalid {env_var}={override!r}; choose from {', '.join(levels)}")
    return override
