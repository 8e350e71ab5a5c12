"""Exception types shared across the toolkit, and the one check of a number's range and of a time."""

import math
import numbers


class VitacError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInputError(VitacError, ValueError):
    """An argument violates a documented precondition."""


def _bound(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def check_range(name: str, value, lo=-math.inf, hi=math.inf, unit: str = "", ends: str = "[]"):
    """value, when it lies between lo and hi; else InvalidInputError("<name> must lie in
    [lo, hi] <unit>, got <value>").

    ends holds the brackets of the span, "[" or "(" for lo and "]" or ")" for hi. An
    infinite bound is always open, and the span then reads "must be >= lo" (or "> lo"),
    or "must be finite" with both bounds infinite. Every comparison fails for NaN.
    """
    left = "[" if ends[0] == "[" and lo > -math.inf else "("
    right = "]" if ends[1] == "]" and hi < math.inf else ")"
    if (lo <= value if left == "[" else lo < value) and (value <= hi if right == "]" else value < hi):
        return value
    if hi < math.inf:
        span = f"must lie in {left}{_bound(lo)}, {_bound(hi)}{right}"
    elif lo > -math.inf:
        span = f"must be {'>=' if left == '[' else '>'} {_bound(lo)}"
    else:
        span = "must be finite"
    raise InvalidInputError(f"{name} {span}{' ' + unit if unit else ''}, got {value}")


TIME_MIN, TIME_MAX = -(2**63), 2**63 - 1  # the times, in us: the int64 that a .vtep holds for every tick and timestamp


def check_time(name: str, value) -> int:
    """value as an int when it is a time, an integer in [TIME_MIN, TIME_MAX] us; else InvalidInputError
    ("<name> must be an integer in [-2**63, 2**63 - 1] us, got <value>"). int_column checks a column."""
    if isinstance(value, numbers.Integral) and TIME_MIN <= value <= TIME_MAX:
        return int(value)
    raise InvalidInputError(f"{name} must be an integer in [-2**63, 2**63 - 1] us, got {value!r}")


class SaturatedReadingError(VitacError):
    """Reading lies in the saturation plateau; the inverse is not unique."""


class InsufficientDataError(VitacError):
    """Too few usable samples to fit a response curve."""


class DegenerateFitError(VitacError):
    """Fit is ill-posed (e.g. all forces identical, non-positive slope)."""


class CalibrationMismatchError(VitacError):
    """Calibration pad id does not match the frame pad id."""


class StreamStarvedError(VitacError):
    """A configured stream contributed no samples over the whole window."""


class EpisodeLoadError(VitacError):
    """Base class for episode container read failures."""


class EpisodeVersionError(EpisodeLoadError):
    """Bad magic or unsupported container version."""


class TruncatedFileError(EpisodeLoadError):
    """File ends in the middle of a record."""


class ChecksumError(EpisodeLoadError):
    """Record payload does not match its CRC32."""


class DegenerateWeightsError(VitacError):
    """No finite distance values; particle weights cannot be normalized."""
