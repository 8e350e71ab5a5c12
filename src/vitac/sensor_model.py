"""Taxel response modeling, calibration fitting, and frame normalization.

The force-to-reading curve is piecewise: a linear ramp from zero up to the
start of the log-linear region, ``a*ln(F) + b`` between ``f_min`` and
``f_sat``, and a constant plateau past saturation. Readings are clamped to
the ADC range ``[0, r_max]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import (
    CalibrationMismatchError,
    DegenerateFitError,
    InsufficientDataError,
    InvalidInputError,
    SaturatedReadingError,
    check_range,
    check_time,
)
from .frozen import freeze

PAD_ROWS = 16
PAD_COLS = 16
PAD_SHAPE = (PAD_ROWS, PAD_COLS)
PAD_TAXELS = PAD_ROWS * PAD_COLS
READING_BITS = 10  # the pad's ADC resolution
MAX_READING = (1 << READING_BITS) - 1  # its full scale, TaxelResponseModel's default r_max
MAX_RAW_READING = 65535  # a raw frame holds uint16 readings
MAX_PAD_ID = 255  # a wire frame holds a pad id in one byte (a .vtep tactile head in a u16)
# A calibration's gains lie in (0, MAX_GAIN] and its offsets, being raw readings, within
# MAX_RAW_READING of 0: at a gain of 1e6 one count is far past any model's full scale, and
# gain * (raw - offset) stays below 1e12.
MAX_GAIN = 1e6
OUTLIER_SIGMA = 3.0  # consistency_stats flags a block sum this many standard deviations from the mean


@dataclass(frozen=True)
class TaxelResponseModel:
    """Parameters of one taxel's force-to-reading curve.

    a: reading gain per ln(Newton), must be positive.
    b: reading offset in counts at 1 N.
    f_min/f_sat: bounds of the log-linear region in Newtons.
    r_max: largest representable reading (ADC full scale), at most MAX_RAW_READING.
    """

    a: float = 100.0
    b: float = 50.0
    f_min: float = 1.0
    f_sat: float = 9.0
    r_max: int = MAX_READING

    def __post_init__(self):
        check_range("slope a", self.a, 0, ends="(]")
        check_range("offset b", self.b)
        if not (0 < self.f_min < self.f_sat):
            raise InvalidInputError(
                f"need 0 < f_min < f_sat, got f_min={self.f_min}, f_sat={self.f_sat}"
            )
        check_range("r_max", self.r_max, 1, MAX_RAW_READING, "counts")

    @property
    def ramp_top_reading(self) -> float:
        """a*ln(f_min) + b: where the linear ramp from zero meets the log-linear region."""
        return self.a * np.log(self.f_min) + self.b

    @property
    def saturation_reading(self) -> float:
        """Plateau value: the (clamped) reading at and beyond f_sat."""
        return min(self.a * np.log(self.f_sat) + self.b, float(self.r_max))

    def to_dict(self) -> dict:
        return jsonio.fields_to(self)

    @staticmethod
    def from_dict(d: dict) -> "TaxelResponseModel":
        """A file states its curve: a and b are required, the rest default."""
        return jsonio.fields_from(TaxelResponseModel, d, "a", "b")


def force_to_reading(model: TaxelResponseModel, force) -> np.ndarray | float:
    """Reading (counts) for normal force in Newtons. Accepts scalars or arrays."""
    f = np.asarray(force, dtype=np.float64)
    if not np.all(np.isfinite(f)):
        raise InvalidInputError("force must be finite")
    if np.any(f < 0):
        raise InvalidInputError("force must be nonnegative")
    with np.errstate(divide="ignore"):
        log_part = model.a * np.log(np.maximum(f, model.f_min)) + model.b
    ramp = np.where(f < model.f_min, f / model.f_min * model.ramp_top_reading, log_part)
    r = np.where(f >= model.f_sat, model.saturation_reading, ramp)
    r = np.clip(r, 0.0, float(model.r_max))
    return float(r) if np.isscalar(force) or np.ndim(force) == 0 else r


def reading_to_force(model: TaxelResponseModel, reading: float) -> float:
    """Inverse of force_to_reading below the saturation plateau.

    Raises SaturatedReadingError for readings at or above the plateau,
    where the inverse is not unique.
    """
    r = check_range("reading", float(reading), 0, model.r_max, "counts")
    if r >= model.saturation_reading:
        raise SaturatedReadingError(
            f"reading {r} is in the saturation plateau (>= {model.saturation_reading:.3f})"
        )
    r_low = model.ramp_top_reading
    if r >= r_low:
        return float(np.exp((r - model.b) / model.a))
    # ramp region; only reachable when r_low > 0
    return r * model.f_min / r_low


@dataclass(frozen=True)
class FitResult:
    model: TaxelResponseModel
    r_squared: float
    n_used: int


def fit_response(
    samples,
    f_min: float = TaxelResponseModel.f_min,
    f_sat: float = TaxelResponseModel.f_sat,
    r_max: int = TaxelResponseModel.r_max,
) -> FitResult:
    """Least-squares fit of reading against ln(force) over the log-linear window.

    samples: iterable of (force_newton, reading_counts) pairs. Only samples
    with f_min <= force <= f_sat enter the fit.
    """
    pairs = [(float(f), float(r)) for f, r in samples]
    usable = [(f, r) for f, r in pairs if np.isfinite(f) and np.isfinite(r) and f_min <= f <= f_sat]
    if len(usable) < 2:
        raise InsufficientDataError(
            f"need >= 2 samples inside [{f_min}, {f_sat}] N, got {len(usable)}"
        )
    forces = np.array([f for f, _ in usable])
    readings = np.array([r for _, r in usable])
    if np.all(forces == forces[0]):
        raise DegenerateFitError("all usable forces identical; slope is unconstrained")
    design = np.column_stack([np.log(forces), np.ones_like(forces)])
    (a, b), *_ = np.linalg.lstsq(design, readings, rcond=None)
    if a <= 0:
        raise DegenerateFitError(f"fitted slope a={a:.4g} is not positive")
    residuals = readings - design @ np.array([a, b])
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((readings - readings.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    model = TaxelResponseModel(a=float(a), b=float(b), f_min=f_min, f_sat=f_sat, r_max=r_max)
    return FitResult(model=model, r_squared=r_squared, n_used=len(usable))


def check_raw_readings(readings: np.ndarray, bound: int) -> None:
    """InvalidInputError unless every reading is an integer in [0, bound]."""
    kind = readings.dtype.kind
    if kind in "iu":  # an integer array can only leave the range, and one too narrow to pass bound cannot
        top = (1 << (8 * readings.itemsize - (kind == "i"))) - 1  # the dtype's largest value
        bad = (top > bound and readings.max() > bound) or (kind == "i" and readings.min() < 0)
    else:
        values = np.asarray(readings, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("raw readings must be finite")
        bad = np.any(values % 1 != 0) or values.min() < 0 or values.max() > bound
    if bad:
        raise InvalidInputError(f"raw readings must be integers in [0, {bound}]")


@dataclass(frozen=True, eq=False)
class TactileFrame:
    """One timestamped 16x16 reading grid from one sensor pad."""

    pad_id: int
    timestamp_us: int
    readings: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        r = np.asarray(self.readings)
        if r.shape != PAD_SHAPE:
            raise InvalidInputError(f"readings must be {PAD_SHAPE}, got {r.shape}")
        object.__setattr__(self, "pad_id", int(self.pad_id))
        if self.normalized:
            self.check(self.pad_id, freeze(self, "readings", PAD_SHAPE), True)
        else:
            self.check(self.pad_id, r, False)
            freeze(self, "readings", PAD_SHAPE, np.uint16)
        object.__setattr__(self, "timestamp_us", check_time("timestamp_us", self.timestamp_us))

    @staticmethod
    def check(pad_id: int, readings: np.ndarray, normalized: bool) -> None:
        """InvalidInputError unless the readings fit the frame's kind, raw counts or normalized in
        [0, 1], and pad_id lies in [0, MAX_PAD_ID]."""
        if not normalized:
            check_raw_readings(readings, MAX_RAW_READING)
        elif not np.all(np.isfinite(readings)) or np.any(readings < 0) or np.any(readings > 1):
            raise InvalidInputError("normalized readings must be within [0, 1]")
        check_range("pad_id", pad_id, 0, MAX_PAD_ID)

    def values(self) -> np.ndarray:
        """Readings as float64, row-major grid."""
        return self.readings.astype(np.float64)


@dataclass(frozen=True, eq=False)
class PadCalibration:
    """Per-taxel gain/offset for one pad, plus its shared response model."""

    pad_id: int
    gain: np.ndarray = field(default_factory=lambda: np.ones(PAD_SHAPE))
    offset: np.ndarray = field(default_factory=lambda: np.zeros(PAD_SHAPE))
    model: TaxelResponseModel = field(default_factory=TaxelResponseModel)

    def __post_init__(self):
        if np.shape(self.gain) != PAD_SHAPE or np.shape(self.offset) != PAD_SHAPE:
            raise InvalidInputError(f"gain/offset must be {PAD_SHAPE}")
        gain, offset = freeze(self, "gain", PAD_SHAPE), freeze(self, "offset", PAD_SHAPE)
        for x in (gain.min(), gain.max()):
            check_range("gain", float(x), 0, MAX_GAIN, ends="(]")
        for x in (offset.min(), offset.max()):
            check_range("offset", float(x), -MAX_RAW_READING, MAX_RAW_READING, "counts")
        object.__setattr__(self, "pad_id", check_range("pad_id", int(self.pad_id), 0, MAX_PAD_ID))

    def to_dict(self) -> dict:
        return jsonio.fields_to(self)

    @staticmethod
    def from_dict(d: dict) -> "PadCalibration":
        """A file states every field: gain, offset and model have defaults only in Python."""
        return jsonio.fields_from(PadCalibration, d, "gain", "offset", "model")

    def save(self, path) -> None:
        jsonio.write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "PadCalibration":
        return jsonio.read_json(path, PadCalibration.from_dict)


def normalize_frame(calib: PadCalibration, frame: TactileFrame) -> TactileFrame:
    """Map a raw frame to per-taxel normalized readings in [0, 1]."""
    if frame.normalized:
        raise InvalidInputError("frame is already normalized")
    if calib.pad_id != frame.pad_id:
        raise CalibrationMismatchError(
            f"calibration pad {calib.pad_id} does not match frame pad {frame.pad_id}"
        )
    raw = frame.values()
    n = np.clip(calib.gain * (raw - calib.offset) / float(calib.model.r_max), 0.0, 1.0)
    return TactileFrame(frame.pad_id, frame.timestamp_us, n, normalized=True)


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Pad consistency statistics over 8x8 blocks of 2x2 taxels each."""

    block_sums: np.ndarray
    mean: float
    std: float
    outlier_count: int

    def __post_init__(self):
        freeze(self, "block_sums", (8, 8))

    @property
    def coefficient_of_variation(self) -> float:
        return self.std / self.mean if self.mean != 0 else float("inf")


def consistency_stats(frame: TactileFrame) -> ConsistencyReport:
    """Block sums over 2x2 taxel groups with two-pass outlier rejection.

    Pass 1 computes mean/std over all 64 sums; values beyond
    OUTLIER_SIGMA standard deviations are flagged and excluded, then
    mean/std are recomputed over the rest.
    """
    grid = frame.values()
    sums = grid.reshape(8, 2, 8, 2).sum(axis=(1, 3))
    flat = sums.ravel()
    mean1 = float(flat.mean())
    std1 = float(flat.std())
    keep = np.abs(flat - mean1) <= OUTLIER_SIGMA * std1
    outlier_count = int(np.count_nonzero(~keep))
    kept = flat[keep] if outlier_count else flat
    return ConsistencyReport(
        block_sums=sums,
        mean=float(kept.mean()),
        std=float(kept.std()),
        outlier_count=outlier_count,
    )
