"""errors.check_range: the one range check of every scalar precondition, NaN included."""

import math

import pytest

from vitac.errors import InvalidInputError, check_range

NAN, INF = math.nan, math.inf

# (value, lo, hi, unit, ends, the message, or None when value lies in the span)
CASES = [
    (0.5, 0, 1, "", "[]", None),
    (0, 0, 1, "", "[]", None),
    (1, 0, 1, "", "[]", None),
    (1.0, 0, 1, "", "[)", "x must lie in [0, 1), got 1.0"),
    (0, 0, 1.0, "m", "(]", "x must lie in (0, 1] m, got 0"),
    (NAN, 0, 1, "", "[]", "x must lie in [0, 1], got nan"),
    (2**64, 0, 2**64 - 1, "", "[]", "x must lie in [0, 18446744073709551615], got 18446744073709551616"),
    (1e300, 0, math.pi, "rad", "[]", "x must lie in [0, 3.14159] rad, got 1e+300"),
    (1e300, 0, INF, "", "[]", None),
    (INF, 0, INF, "Hz", "[]", "x must be >= 0 Hz, got inf"),
    (0.0, 0, INF, "", "(]", "x must be > 0, got 0.0"),
    (NAN, 1, INF, "", "[]", "x must be >= 1, got nan"),
    (-1e300, -INF, INF, "", "[]", None),
    (NAN, -INF, INF, "", "[]", "x must be finite, got nan"),
    (-INF, -INF, INF, "", "[]", "x must be finite, got -inf"),
]


@pytest.mark.parametrize("value, lo, hi, unit, ends, message", CASES)
def test_check_range(value, lo, hi, unit, ends, message):
    if message is None:
        assert check_range("x", value, lo, hi, unit, ends) is value
    else:
        with pytest.raises(InvalidInputError) as exc:
            check_range("x", value, lo, hi, unit, ends)
        assert str(exc.value) == message
