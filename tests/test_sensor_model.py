import re

import numpy as np
import pytest

from vitac.errors import (
    CalibrationMismatchError,
    DegenerateFitError,
    InsufficientDataError,
    InvalidInputError,
    SaturatedReadingError,
)
from vitac.sensor_model import (
    ConsistencyReport,
    PadCalibration,
    TactileFrame,
    TaxelResponseModel,
    consistency_stats,
    fit_response,
    force_to_reading,
    normalize_frame,
    reading_to_force,
)

MODEL = TaxelResponseModel(a=100.0, b=50.0)


def test_reading_at_e_newtons():
    assert force_to_reading(MODEL, np.e) == pytest.approx(150.0, abs=1e-9)


def test_reading_zero_force():
    assert force_to_reading(MODEL, 0.0) == 0.0


def test_saturation_plateau():
    r9 = force_to_reading(MODEL, 9.0)
    assert force_to_reading(MODEL, 12.0) == r9
    for f in (9.0, 9.5, 50.0, 1e6):
        assert force_to_reading(MODEL, f) == r9


def test_negative_or_nonfinite_force():
    with pytest.raises(InvalidInputError):
        force_to_reading(MODEL, -0.1)
    with pytest.raises(InvalidInputError):
        force_to_reading(MODEL, np.inf)
    with pytest.raises(InvalidInputError):
        force_to_reading(MODEL, np.nan)


def test_monotone_nondecreasing_random_models():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = TaxelResponseModel(a=rng.uniform(10, 500), b=rng.uniform(-100, 300))
        f = np.sort(rng.uniform(0, 15, size=200))
        r = force_to_reading(m, f)
        assert np.all(np.diff(r) >= 0)
        assert np.all(r >= 0) and np.all(r <= m.r_max)


def test_inverse_examples():
    assert reading_to_force(MODEL, 150.0) == pytest.approx(np.e, rel=1e-12)
    assert reading_to_force(MODEL, 0.0) == 0.0
    with pytest.raises(SaturatedReadingError):
        reading_to_force(MODEL, force_to_reading(MODEL, 9.0))
    with pytest.raises(InvalidInputError):
        reading_to_force(MODEL, -1.0)
    with pytest.raises(InvalidInputError):
        reading_to_force(MODEL, MODEL.r_max + 1)


def test_ramp_top_is_where_both_directions_leave_the_ramp():
    m = TaxelResponseModel(a=100.0, b=50.0, f_min=2.0)
    top = m.ramp_top_reading
    assert top == 100.0 * np.log(2.0) + 50.0
    assert force_to_reading(m, 2.0) == top and force_to_reading(m, 0.5) == 0.5 / 2.0 * top
    assert reading_to_force(m, top) == pytest.approx(2.0, rel=1e-12)
    assert reading_to_force(m, top / 4) == top / 4 * 2.0 / top


def test_round_trip_interior():
    rng = np.random.default_rng(1)
    eps = 1e-6
    for _ in range(20):
        m = TaxelResponseModel(a=rng.uniform(20, 300), b=rng.uniform(0, 200))
        # log-linear interior
        for f in np.geomspace(m.f_min * (1 + eps), m.f_sat * (1 - eps), 25):
            r = force_to_reading(m, f)
            if r >= m.saturation_reading or r >= m.r_max:
                continue
            assert reading_to_force(m, r) == pytest.approx(f, rel=1e-9)
        # ramp interior
        for f in np.linspace(m.f_min * 1e-3, m.f_min * (1 - eps), 10):
            r = force_to_reading(m, f)
            assert reading_to_force(m, r) == pytest.approx(f, rel=1e-9)


def test_fit_recovers_exact_parameters():
    forces = [1.0, 2.0, 4.0, 8.0]
    samples = [(f, 100.0 * np.log(f) + 50.0) for f in forces]
    result = fit_response(samples)
    assert result.model.a == pytest.approx(100.0, abs=1e-9)
    assert result.model.b == pytest.approx(50.0, abs=1e-9)
    assert result.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_random_parameters_recovered():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.uniform(10, 500)
        b = rng.uniform(0, 300)
        forces = rng.uniform(1.0, 9.0, size=24)
        samples = [(f, a * np.log(f) + b) for f in forces]
        result = fit_response(samples)
        assert result.model.a == pytest.approx(a, rel=1e-9, abs=1e-9)
        assert result.model.b == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_fit_noisy_r_squared():
    # generate-and-fit oracle: sigma=2 counts of reading noise on 24 points
    rng = np.random.default_rng(3)
    forces = np.linspace(1.0, 9.0, 24)
    samples = [(f, 100.0 * np.log(f) + 50.0 + rng.normal(0, 2.0)) for f in forces]
    result = fit_response(samples)
    assert result.r_squared > 0.99
    assert result.n_used == 24


def test_fit_insufficient_and_degenerate():
    with pytest.raises(InsufficientDataError):
        fit_response([(0.5, 10.0), (0.7, 12.0)])  # all below f_min
    with pytest.raises(InsufficientDataError):
        fit_response([(2.0, 120.0)])
    with pytest.raises(DegenerateFitError):
        fit_response([(2.0, 120.0), (2.0, 125.0), (2.0, 118.0)])


def test_frame_validation():
    with pytest.raises(InvalidInputError):
        TactileFrame(0, 0, np.zeros((8, 8)))
    with pytest.raises(InvalidInputError):
        TactileFrame(0, 0, np.full((16, 16), -1))
    with pytest.raises(InvalidInputError):
        TactileFrame(0, 0, np.full((16, 16), 1.5), normalized=True)
    f = TactileFrame(3, 12345, np.full((16, 16), 7))
    assert f.pad_id == 3 and f.timestamp_us == 12345
    assert f.readings.dtype == np.uint16


@pytest.mark.parametrize("pad_id", [-4, -1, 256, 300])
def test_a_pad_id_lies_in_the_wire_frame_s_byte(pad_id):
    # frames and calibrations hold one pad-id rule, so a calibration always has frames it can match
    message = re.escape(f"pad_id must lie in [0, 255], got {pad_id}")
    with pytest.raises(InvalidInputError, match=message):
        TactileFrame(pad_id, 0, np.zeros((16, 16)))
    with pytest.raises(InvalidInputError, match=message):
        PadCalibration(pad_id=pad_id)
    assert TactileFrame(255, 0, np.zeros((16, 16))).pad_id == PadCalibration(pad_id=255).pad_id == 255


def test_raw_reading_beyond_uint16_rejected():
    grid = np.zeros((16, 16), dtype=np.int64)
    grid[4, 7] = 65541  # would wrap to 5 as uint16
    with pytest.raises(InvalidInputError, match="65535"):
        TactileFrame(0, 0, grid)
    grid[4, 7] = 65535
    assert TactileFrame(0, 0, grid).readings[4, 7] == 65535


def test_normalize_full_scale():
    calib = PadCalibration(pad_id=0)
    frame = TactileFrame(0, 0, np.full((16, 16), 1023))
    out = normalize_frame(calib, frame)
    assert out.normalized
    assert np.all(out.readings == 1.0)


def test_normalize_zero_frame():
    calib = PadCalibration(pad_id=0)
    out = normalize_frame(calib, TactileFrame(0, 0, np.zeros((16, 16), dtype=int)))
    assert np.all(out.readings == 0.0)


def test_normalize_gain_offset_formula():
    gain = np.full((16, 16), 2.0)
    offset = np.full((16, 16), 100.0)
    calib = PadCalibration(pad_id=0, gain=gain, offset=offset)
    frame = TactileFrame(0, 0, np.full((16, 16), 355))
    out = normalize_frame(calib, frame)
    assert np.all(out.readings == pytest.approx(255.0 * 2.0 / 1023.0))
    # gain*(611 counts above offset) exceeds full scale -> clamps at 1
    frame_hi = TactileFrame(0, 0, np.full((16, 16), 711))
    assert np.all(normalize_frame(calib, frame_hi).readings == 1.0)


def test_normalize_pad_mismatch():
    calib = PadCalibration(pad_id=1)
    with pytest.raises(CalibrationMismatchError):
        normalize_frame(calib, TactileFrame(0, 0, np.zeros((16, 16), dtype=int)))
    with pytest.raises(InvalidInputError, match="frame is already normalized"):
        normalize_frame(calib, TactileFrame(1, 0, np.zeros((16, 16)), normalized=True))


@pytest.mark.parametrize("f_min, f_sat", [(0.0, 9.0), (9.0, 9.0), (10.0, 9.0), (np.nan, 9.0)])
def test_response_model_needs_0_below_f_min_below_f_sat(f_min, f_sat):
    with pytest.raises(InvalidInputError, match="need 0 < f_min < f_sat"):
        TaxelResponseModel(a=100.0, b=50.0, f_min=f_min, f_sat=f_sat)


# a gain lies in (0, 1e6] and an offset within a raw reading of 0, so gain * (raw - offset) stays finite
@pytest.mark.parametrize("field, value, message", [
    ("gain", 0.0, "gain must lie in (0, 1e+06], got 0.0"),
    ("gain", 3.6e306, "gain must lie in (0, 1e+06], got 3.6e+306"),
    ("gain", np.nan, "gain must lie in (0, 1e+06], got nan"),
    ("offset", -65536.0, "offset must lie in [-65535, 65535] counts, got -65536.0"),
    ("offset", np.inf, "offset must lie in [-65535, 65535] counts, got inf"),
])
def test_calibration_refuses_a_gain_or_offset_outside_its_range(field, value, message):
    values = np.ones((16, 16))
    values[3, 5] = value
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        PadCalibration(pad_id=0, **{field: values})
    values[3, 5] = 1e6 if field == "gain" else -65535.0
    assert getattr(PadCalibration(pad_id=0, **{field: values}), field)[3, 5] == values[3, 5]


def test_calibration_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    calib = PadCalibration(
        pad_id=2,
        gain=rng.uniform(0.5, 2.0, size=(16, 16)),
        offset=rng.uniform(0, 50, size=(16, 16)),
        model=TaxelResponseModel(a=123.4, b=56.7),
    )
    path = tmp_path / "calib.json"
    calib.save(path)
    loaded = PadCalibration.load(path)
    assert loaded.pad_id == 2
    assert np.array_equal(loaded.gain, calib.gain)
    assert np.array_equal(loaded.offset, calib.offset)
    assert loaded.model.a == calib.model.a


def test_consistency_uniform_frame():
    frame = TactileFrame(0, 0, np.full((16, 16), 5))
    report = consistency_stats(frame)
    assert report.block_sums.shape == (8, 8)
    assert np.all(report.block_sums == 20)
    assert report.std == 0.0
    assert report.outlier_count == 0


def test_consistency_single_taxel():
    grid = np.zeros((16, 16), dtype=int)
    grid[5, 9] = 77
    report = consistency_stats(TactileFrame(0, 0, grid))
    flat = report.block_sums.ravel()
    assert np.count_nonzero(flat) == 1
    assert flat.sum() == 77
    assert report.block_sums[2, 4] == 77  # rows {4,5} x cols {8,9}


def test_consistency_total_preserved():
    rng = np.random.default_rng(5)
    grid = rng.integers(0, 1024, size=(16, 16))
    report = consistency_stats(TactileFrame(0, 0, grid))
    assert report.block_sums.sum() == grid.sum()


def test_consistency_outlier_rejection():
    grid = np.full((16, 16), 10)
    grid[0, 0] = 1000  # one hot block
    report = consistency_stats(TactileFrame(0, 0, grid))
    assert report.outlier_count == 1
    assert report.mean == pytest.approx(40.0)
    assert report.std == 0.0
