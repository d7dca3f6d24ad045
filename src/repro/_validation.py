"""Input-validation helpers shared across the library.

Every public entry point in :mod:`repro` validates its numeric inputs before
doing any work, so that user errors surface as clear :class:`ValueError` /
:class:`TypeError` messages at the API boundary rather than as ``nan`` results
or cryptic numpy warnings deep inside a computation.

:func:`check_finite`, :func:`check_non_negative` and :func:`check_positive`
return a plain ``float`` that is already in range at once: task, chain and
Proposition 1 code calls them once per value, and ``float(v)`` of such a
value is ``v``.  Every other value (ints, NumPy scalars, bools, strings, NaN,
out of range) takes the full path and its messages.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_positive_int",
    "check_non_negative_int",
    "check_finite",
    "check_sequence_of_non_negative",
    "check_sequence_of_positive",
]


def _as_float(name: str, value: object) -> float:
    """Coerce ``value`` to ``float`` or raise ``TypeError`` with a clear message."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got bool {value!r}")
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc


def check_finite(name: str, value: object) -> float:
    """Return ``value`` as a finite float, raising otherwise."""
    if type(value) is float and -math.inf < value < math.inf:
        return value
    out = _as_float(name, value)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out!r}")
    return out


def check_positive(name: str, value: object) -> float:
    """Return ``value`` as a strictly positive finite float."""
    if type(value) is float and 0.0 < value < math.inf:
        return value
    out = check_finite(name, value)
    if out <= 0.0:
        raise ValueError(f"{name} must be > 0, got {out!r}")
    return out


def check_non_negative(name: str, value: object) -> float:
    """Return ``value`` as a non-negative finite float."""
    if type(value) is float and 0.0 <= value < math.inf:
        return value
    out = check_finite(name, value)
    if out < 0.0:
        raise ValueError(f"{name} must be >= 0, got {out!r}")
    return out


def check_probability(name: str, value: object) -> float:
    """Return ``value`` as a float in ``[0, 1]``."""
    out = check_finite(name, value)
    if not 0.0 <= out <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {out!r}")
    return out


def check_in_range(
    name: str,
    value: object,
    lower: float,
    upper: float,
    *,
    inclusive: bool = True,
) -> float:
    """Return ``value`` as a float constrained to ``[lower, upper]`` (or the open interval)."""
    out = check_finite(name, value)
    if inclusive:
        if not lower <= out <= upper:
            raise ValueError(f"{name} must be in [{lower}, {upper}], got {out!r}")
    else:
        if not lower < out < upper:
            raise ValueError(f"{name} must be in ({lower}, {upper}), got {out!r}")
    return out


def check_positive_int(name: str, value: object) -> int:
    """Return ``value`` as a strictly positive int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative_int(name: str, value: object) -> int:
    """Return ``value`` as a non-negative int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_sequence_of_non_negative(name: str, values: Iterable[object]) -> list:
    """Return ``values`` as a list of non-negative finite floats (must be non-empty)."""
    out = [check_non_negative(f"{name}[{i}]", v) for i, v in enumerate(values)]
    if not out:
        raise ValueError(f"{name} must not be empty")
    return out


def check_sequence_of_positive(name: str, values: Iterable[object]) -> list:
    """Return ``values`` as a list of strictly positive finite floats (must be non-empty)."""
    out = [check_positive(f"{name}[{i}]", v) for i, v in enumerate(values)]
    if not out:
        raise ValueError(f"{name} must not be empty")
    return out

