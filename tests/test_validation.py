"""Tests for the shared input-validation helpers."""

import math

import numpy as np
import pytest

from repro._validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
    check_sequence_of_non_negative,
    check_sequence_of_positive,
)


class TestCheckFinite:
    def test_accepts_plain_float(self):
        assert check_finite("x", 3.5) == 3.5

    def test_accepts_int(self):
        assert check_finite("x", 7) == 7.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_finite("x", math.nan)

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            check_finite("x", math.inf)

    def test_rejects_string(self):
        with pytest.raises(TypeError, match="real number"):
            check_finite("x", "hello")

    def test_rejects_none(self):
        with pytest.raises(TypeError):
            check_finite("x", None)

    def test_rejects_bool(self):
        with pytest.raises(TypeError, match="bool"):
            check_finite("x", True)

    def test_error_message_contains_name(self):
        with pytest.raises(ValueError, match="my_param"):
            check_finite("my_param", math.inf)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 0.001) == 0.001

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="> 0"):
            check_positive("x", 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1.0)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_accepts_positive(self):
        assert check_non_negative("x", 2.0) == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_non_negative("x", -0.1)


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability("p", -0.5)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds_reject_endpoints(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range("x", 3.0, 1.0, 2.0)


class TestIntChecks:
    def test_positive_int_accepts(self):
        assert check_positive_int("n", 3) == 3

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int("n", 0)

    def test_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int("n", 3.0)

    def test_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int("n", True)

    def test_non_negative_int_accepts_zero(self):
        assert check_non_negative_int("n", 0) == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative_int("n", -1)


class TestSequenceChecks:
    def test_non_negative_sequence(self):
        assert check_sequence_of_non_negative("xs", [0.0, 1.0, 2.5]) == [0.0, 1.0, 2.5]

    def test_non_negative_sequence_rejects_negative_element(self):
        with pytest.raises(ValueError, match=r"xs\[1\]"):
            check_sequence_of_non_negative("xs", [0.0, -1.0])

    def test_non_negative_sequence_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            check_sequence_of_non_negative("xs", [])

    def test_positive_sequence_rejects_zero_element(self):
        with pytest.raises(ValueError):
            check_sequence_of_positive("xs", [1.0, 0.0])


# What each check returned or raised before plain floats got a fast path: a
# float result as its repr (the sign of -0.0 included), an error as its type
# and full message.
_NOT_FINITE = {
    math.nan: "v must be finite, got nan",
    math.inf: "v must be finite, got inf",
    -math.inf: "v must be finite, got -inf",
}
_NOT_REAL = {
    True: "v must be a real number, got bool True",
    "x": "v must be a real number, got 'x'",
}
_COMMON = [
    *[(value, ValueError, message) for value, message in _NOT_FINITE.items()],
    *[(value, TypeError, message) for value, message in _NOT_REAL.items()],
    (np.float64(2.5), float, "2.5"),
    (3, float, "3.0"),
    (2.5, float, "2.5"),
]
_CASES = [
    *[(check_finite, *case) for case in _COMMON],
    (check_finite, -1.0, float, "-1.0"),
    (check_finite, -0.0, float, "-0.0"),
    *[(check_non_negative, *case) for case in _COMMON],
    (check_non_negative, -1.0, ValueError, "v must be >= 0, got -1.0"),
    (check_non_negative, -0.0, float, "-0.0"),
    (check_non_negative, 0.0, float, "0.0"),
    *[(check_positive, *case) for case in _COMMON],
    (check_positive, -1.0, ValueError, "v must be > 0, got -1.0"),
    (check_positive, -0.0, ValueError, "v must be > 0, got -0.0"),
    (check_positive, 0.0, ValueError, "v must be > 0, got 0.0"),
]


@pytest.mark.parametrize(
    "check, value, outcome, expected",
    _CASES,
    ids=[f"{check.__name__}-{value!r}" for check, value, *_ in _CASES],
)
def test_float_fast_path_keeps_every_outcome(check, value, outcome, expected):
    if outcome is float:
        out = check("v", value)
        assert type(out) is float
        assert repr(out) == expected
    else:
        with pytest.raises(outcome) as excinfo:
            check("v", value)
        assert str(excinfo.value) == expected
