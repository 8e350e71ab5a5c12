import ast
import json
import os
import re
import struct
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vitac
from vitac import stream_sync
from vitac.errors import (
    ChecksumError,
    EpisodeLoadError,
    EpisodeVersionError,
    InvalidInputError,
    StreamStarvedError,
    TruncatedFileError,
)
from vitac.kinematics import JointState
from vitac.pointcloud import CloudXYZF, FusedCloud
from vitac.sensor_model import TactileFrame
from vitac.stream_sync import (
    JOINTS_STREAM,
    TACTILE_PREFIX,
    Episode,
    SyncedTuple,
    TimedSample,
    align,
    camera_stream,
    episode_stats,
    read_episode,
    tactile_stream,
    tick_grid,
    write_episode,
)

TICK = 100_000  # 10 Hz in microseconds
TIME_RULE = "must be an integer in [-2**63, 2**63 - 1] us"  # errors.check_time


def _samples(sid, timestamps):
    return [TimedSample(sid, int(t), ("payload", sid, int(t))) for t in timestamps]


def _max_skew(tup):
    return max((abs(s.timestamp_us - tup.tick_time_us) for s in tup.members.values()), default=0)


def make_streams(n_ticks, jitter_us=0, rng=None, start=0):
    streams = {}
    for sid in (tactile_stream(0), camera_stream(0), JOINTS_STREAM):
        ts = start + np.arange(n_ticks) * TICK
        if jitter_us:
            ts = ts + rng.integers(-jitter_us, jitter_us + 1, size=n_ticks)
            ts = np.sort(ts)
        streams[sid] = _samples(sid, ts)
    return streams


def test_align_exact_ticks():
    streams = make_streams(20)
    tuples, report = align(streams, rate_hz=10.0, tolerance_us=50_000)
    assert len(tuples) == 20
    assert not report.dropped
    assert all(_max_skew(t) == 0 for t in tuples)
    spacing = np.diff([t.tick_time_us for t in tuples])
    assert np.all(spacing == TICK)


def test_align_jittered_within_tolerance():
    rng = np.random.default_rng(0)
    streams = make_streams(60, jitter_us=20_000, rng=rng)
    tuples, report = align(streams, rate_hz=10.0, tolerance_us=50_000)
    assert not report.dropped
    for t in tuples:
        assert _max_skew(t) <= 20_000


def test_align_silent_camera_drops_attributed():
    streams = make_streams(30)
    cam = camera_stream(0)
    # silence the camera for 1 s (ticks 10..19)
    streams[cam] = [s for s in streams[cam] if not (10 * TICK <= s.timestamp_us < 20 * TICK)]
    tuples, report = align(streams, rate_hz=10.0, tolerance_us=40_000)
    assert len(report.dropped) == 10
    for d in report.dropped:
        assert d.missing == (cam,)
    assert report.per_stream[cam] == 10
    assert len(tuples) == 20


def test_tick_grid_is_whole_microsecond_multiples():
    assert tick_grid(10.0, 150_000, 400_000) == range(200_000, 400_001, 100_000)
    assert tick_grid(30_000.0, 0, 99) == range(0, 100, 33)
    assert tick_grid(6_000.0, 1, 0) == range(167, 1, 167)  # empty
    for rate in (0.0, -1.0, float("nan"), float("inf"), 2e6, 3e6, 1e-320):
        with pytest.raises(InvalidInputError, match="rate"):
            tick_grid(rate, 0, 10)


def test_align_starved_stream():
    streams = make_streams(5)
    streams[camera_stream(0)] = []
    with pytest.raises(StreamStarvedError):
        align(streams)
    with pytest.raises(InvalidInputError, match="no streams configured"):
        align({})


def test_align_unsorted_rejected():
    streams = make_streams(5)
    sid = JOINTS_STREAM
    streams[sid] = list(reversed(streams[sid]))
    with pytest.raises(InvalidInputError):
        align(streams)


def test_align_deterministic():
    rng = np.random.default_rng(1)
    streams = make_streams(40, jitter_us=15_000, rng=rng)
    a1, r1 = align(streams)
    a2, r2 = align(streams)
    assert [t.tick_time_us for t in a1] == [t.tick_time_us for t in a2]
    assert r1.ticks_total == r2.ticks_total


def test_align_tick_count_bound():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        streams = make_streams(n, jitter_us=10_000, rng=rng, start=int(rng.integers(0, 10**9)))
        tuples, report = align(streams, rate_hz=10.0, tolerance_us=50_000)
        window_us = min(s[-1].timestamp_us for s in streams.values()) - max(
            s[0].timestamp_us for s in streams.values()
        )
        assert report.ticks_total <= window_us * 10.0 / 1e6 + 1


def test_align_walks_at_most_max_ticks():
    from vitac.stream_sync import MAX_TICKS, limit_ticks

    for step in (1, 20_000, 3):
        assert len(limit_ticks(range(7, 7 + MAX_TICKS * step, step))) == MAX_TICKS
        with pytest.raises(InvalidInputError, match=f"more than {MAX_TICKS} ticks of {step} us"):
            limit_ticks(range(7, 8 + MAX_TICKS * step, step))
    with pytest.raises(InvalidInputError, match="more than"):  # len() of this range overflows
        limit_ticks(range(0, 10**400, 1))
    for n_ticks, ok in ((MAX_TICKS, True), (MAX_TICKS + 1, False)):
        end = (n_ticks - 1) * TICK  # both samples sit on ticks, so the grid holds n_ticks
        streams = {sid: _samples(sid, [0, end]) for sid in (tactile_stream(0), JOINTS_STREAM)}
        if ok:
            tuples, report = align(streams, rate_hz=10.0, tolerance_us=0)
            assert report.ticks_total == MAX_TICKS and len(tuples) == 2
        else:
            with pytest.raises(InvalidInputError, match=f"more than {MAX_TICKS} ticks"):
                align(streams, rate_hz=10.0, tolerance_us=0)


def _sim_tuple(tick, rng):
    frame = TactileFrame(0, tick, rng.integers(0, 1024, size=(16, 16)))
    n = int(rng.integers(1, 40))
    cloud = CloudXYZF(np.column_stack([rng.normal(size=(n, 3)), rng.uniform(size=n)]), "base")
    joints = JointState(rng.normal(size=4), tick)
    members = {
        tactile_stream(0): TimedSample(tactile_stream(0), tick + 3, frame),
        camera_stream(0): TimedSample(camera_stream(0), tick - 2, cloud),
        JOINTS_STREAM: TimedSample(JOINTS_STREAM, tick, joints),
    }
    return SyncedTuple(tick, members)


def make_episode(n, seed=0):
    rng = np.random.default_rng(seed)
    tuples = [_sim_tuple(i * TICK, rng) for i in range(n)]
    return Episode(
        rate_hz=10.0,
        tolerance_us=50_000,
        streams=[camera_stream(0), JOINTS_STREAM, tactile_stream(0)],
        tuples=tuples,
        metadata={"note": "test"},
    )


def test_episode_roundtrip_bit_exact(tmp_path):
    ep = make_episode(25)
    path = tmp_path / "ep.vtep"
    write_episode(ep, path)
    back = read_episode(path)
    assert back.rate_hz == ep.rate_hz
    assert back.tolerance_us == ep.tolerance_us
    assert back.streams == ep.streams
    assert back.metadata == ep.metadata
    assert len(back.tuples) == 25
    for a, b in zip(ep.tuples, back.tuples):
        assert a.tick_time_us == b.tick_time_us
        assert set(a.members) == set(b.members)
        for sid in a.members:
            sa, sb = a.members[sid], b.members[sid]
            assert sa.timestamp_us == sb.timestamp_us
            pa, pb = sa.payload, sb.payload
            if isinstance(pa, TactileFrame):
                assert pa.pad_id == pb.pad_id
                assert pa.timestamp_us == pb.timestamp_us
                assert pa.normalized == pb.normalized
                assert np.array_equal(pa.readings, pb.readings)
            elif isinstance(pa, CloudXYZF):
                assert pa.frame == pb.frame
                assert np.array_equal(pa.points, pb.points)
            elif isinstance(pa, JointState):
                assert pa.timestamp_us == pb.timestamp_us
                assert np.array_equal(pa.positions, pb.positions)


def test_episode_roundtrip_double_write_identical(tmp_path):
    ep = make_episode(10, seed=3)
    p1, p2 = tmp_path / "a.vtep", tmp_path / "b.vtep"
    write_episode(ep, p1)
    write_episode(read_episode(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_episode_normalized_frames_and_fused(tmp_path):
    rng = np.random.default_rng(4)
    frame = TactileFrame(1, 5, rng.uniform(0, 1, size=(16, 16)), normalized=True)
    fused = FusedCloud(
        np.column_stack(
            [rng.normal(size=(9, 3)), np.zeros(9), np.ones(9), np.zeros(9)]
        ),
        "base",
    )
    members = {
        tactile_stream(1): TimedSample(tactile_stream(1), 5, frame),
        "fused": TimedSample("fused", 5, fused),
    }
    ep = Episode(10.0, 0, sorted(members), [SyncedTuple(0, members)])
    path = tmp_path / "n.vtep"
    write_episode(ep, path)
    back = read_episode(path)
    pa = back.tuples[0].members[tactile_stream(1)].payload
    assert pa.normalized and np.array_equal(pa.readings, frame.readings)
    fb = back.tuples[0].members["fused"].payload
    assert isinstance(fb, FusedCloud)
    assert np.array_equal(fb.points, fused.points)


def test_episode_empty(tmp_path):
    ep = Episode(10.0, 0, [], [])
    path = tmp_path / "empty.vtep"
    write_episode(ep, path)
    back = read_episode(path)
    assert len(back.tuples) == 0


def test_episode_truncation(tmp_path):
    ep = make_episode(5)
    path = tmp_path / "t.vtep"
    write_episode(ep, path)
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(TruncatedFileError):
        read_episode(path)


@pytest.mark.parametrize("extra", ["garbage", "record"])
def test_episode_bytes_after_the_last_record_are_a_load_error(tmp_path, extra):
    # appended garbage, or a whole record that a tuple_count one too low leaves out
    ep = make_episode(5)
    path = tmp_path / "x.vtep"
    write_episode(ep, path)
    if extra == "garbage":
        path.write_bytes(path.read_bytes() + b"\0")
    else:
        data = path.read_bytes()
        (n,) = struct.unpack("<I", data[6:10])
        header = json.dumps({**json.loads(data[10 : 10 + n]), "tuple_count": 4}).encode()
        path.write_bytes(data[:6] + struct.pack("<I", len(header)) + header + data[10 + n :])
    with pytest.raises(EpisodeLoadError, match=f"^{re.escape(str(path))}: bytes after the last of its"):
        read_episode(path)


def test_episode_corruption(tmp_path):
    ep = make_episode(5)
    path = tmp_path / "c.vtep"
    write_episode(ep, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises((ChecksumError, TruncatedFileError)):
        read_episode(path)


def test_episode_bad_magic_and_version(tmp_path):
    path = tmp_path / "x.vtep"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(EpisodeVersionError):
        read_episode(path)
    ep = make_episode(1)
    good = tmp_path / "good.vtep"
    write_episode(ep, good)
    data = bytearray(good.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(EpisodeVersionError):
        read_episode(path)


def _record(tick, sid, ts, payload_bytes):
    """One single-member .vtep record: length prefix, tuple bytes, CRC32; sid is str or bytes."""
    sid = sid.encode() if isinstance(sid, str) else sid
    body = struct.pack("<qHH", tick, 1, len(sid)) + sid + struct.pack("<q", ts) + payload_bytes
    return struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def _episode_bytes(header: dict, records: bytes) -> bytes:
    raw = json.dumps(header).encode()
    return b"VTEP" + struct.pack("<HI", 1, len(raw)) + raw + records


_RAW = np.arange(256, dtype=np.uint16).reshape(16, 16) * 4
_NORM = np.linspace(0.0, 1.0, 256).reshape(16, 16)
_XYZF = np.array([[0.1, -0.2, 0.3, 0.0], [1.5, 2.5, -3.5, 0.25]])
_FUSED = np.array([[0.1, -0.2, 0.3, 0.0, 1.0, 0.0], [1.5, 2.5, -3.5, 0.75, 0.0, 1.0]])
_Q = np.array([0.01, -0.02, 0.5])

# payload object -> its expected bytes, one case per payload tag
PAYLOAD_CASES = {
    "tactile-raw": (
        TactileFrame(3, 777, _RAW),
        struct.pack("<BHBq", 1, 3, 0, 777) + struct.pack("<256H", *_RAW.ravel().tolist()),
    ),
    "tactile-normalized": (
        TactileFrame(3, 777, _NORM, normalized=True),
        struct.pack("<BHBq", 1, 3, 1, 777) + struct.pack("<256d", *_NORM.ravel()),
    ),
    "cloud": (
        CloudXYZF(_XYZF, "base"),
        struct.pack("<BH", 2, 4) + b"base" + struct.pack("<I", 2) + struct.pack("<8d", *_XYZF.ravel()),
    ),
    "fused": (
        FusedCloud(_FUSED, "base"),
        struct.pack("<BH", 4, 4) + b"base" + struct.pack("<I", 2) + struct.pack("<12d", *_FUSED.ravel()),
    ),
    "joints": (
        JointState(_Q, 777),
        struct.pack("<BqH", 3, 777, 3) + struct.pack("<3d", *_Q),
    ),
}


@pytest.mark.parametrize("kind", sorted(PAYLOAD_CASES))
def test_episode_record_known_answer(tmp_path, kind):
    payload, payload_bytes = PAYLOAD_CASES[kind]
    member = TimedSample("s", 100_123, payload)
    ep = Episode(10.0, 50_000, ["s"], [SyncedTuple(100_000, {"s": member})])
    path = tmp_path / "k.vtep"
    write_episode(ep, path)
    header = {"rate_hz": 10.0, "tolerance_us": 50_000, "streams": ["s"], "metadata": {}, "tuple_count": 1}
    assert path.read_bytes() == _episode_bytes(header, _record(100_000, "s", 100_123, payload_bytes))


def test_episode_header_with_calibration_ref_reads(tmp_path):
    header = {"rate_hz": 10.0, "tolerance_us": 0, "streams": ["s"], "calibration_ref": "",
              "metadata": {}, "tuple_count": 1}
    path = tmp_path / "old.vtep"
    path.write_bytes(_episode_bytes(header, _record(0, "s", 0, PAYLOAD_CASES["joints"][1])))
    joints = read_episode(path).tuples[0].members["s"].payload
    assert np.array_equal(joints.positions, _Q)


def test_episode_unknown_payload_tag_is_load_error(tmp_path):
    header = {"rate_hz": 10.0, "tolerance_us": 0, "streams": ["s"], "metadata": {}, "tuple_count": 1}
    path = tmp_path / "u.vtep"
    path.write_bytes(_episode_bytes(header, _record(0, "s", 0, b"\x09")))
    with pytest.raises(EpisodeLoadError, match="unknown payload tag 9") as exc:
        read_episode(path)
    assert not isinstance(exc.value, ChecksumError)


_HEADER = {"rate_hz": 10.0, "tolerance_us": 0, "streams": ["s"], "metadata": {}, "tuple_count": 0}
BAD_HEADERS = {
    "unclosed-json": json.dumps(_HEADER)[:-1].encode(),
    "not-utf8": b"\xff" + json.dumps(_HEADER).encode(),
    "not-an-object": b"[10.0, 0]",
    "rate_hz-string": json.dumps({**_HEADER, "rate_hz": "fast"}).encode(),
    "rate_hz-zero": json.dumps({**_HEADER, "rate_hz": 0}).encode(),
    "rate_hz-infinity": json.dumps({**_HEADER, "rate_hz": float("inf")}).encode(),
    "rate_hz-1e400": json.dumps(_HEADER).replace("10.0", "1e400").encode(),
    "rate_hz-string-inf": json.dumps({**_HEADER, "rate_hz": "inf"}).encode(),
    "rate_hz-1e-320": json.dumps({**_HEADER, "rate_hz": 1e-320}).encode(),
    "rate_hz-3e6": json.dumps({**_HEADER, "rate_hz": 3e6}).encode(),
    "tuple_count-negative": json.dumps({**_HEADER, "tuple_count": -5}).encode(),
    "streams-not-strings": json.dumps({**_HEADER, "streams": [1]}).encode(),
    # each number takes a JSON number, and a count one without a fractional part
    "rate_hz-true": json.dumps({**_HEADER, "rate_hz": True}).encode(),
    "tolerance_us-fraction": json.dumps({**_HEADER, "tolerance_us": 1.5}).encode(),
    "tuple_count-fraction": json.dumps({**_HEADER, "tuple_count": 1.5}).encode(),
    "streams-string": json.dumps({**_HEADER, "streams": "ab"}).encode(),
    "metadata-pairs": json.dumps({**_HEADER, "metadata": [["a", 1]]}).encode(),
    **{
        f"no-{key}": json.dumps({k: v for k, v in _HEADER.items() if k != key}).encode()
        for key in ("rate_hz", "tolerance_us", "streams")
    },
}


@pytest.mark.parametrize("kind", sorted(BAD_HEADERS))
def test_episode_bad_header_is_load_error(tmp_path, kind):
    raw = BAD_HEADERS[kind]
    path = tmp_path / "h.vtep"
    path.write_bytes(b"VTEP" + struct.pack("<HI", 1, len(raw)) + raw)
    with pytest.raises(EpisodeLoadError, match="header"):
        read_episode(path)


# header fields, over _HEADER's, that read_episode refuses
UNWRITABLE_HEADERS = {
    "rate_hz-nan": {"rate_hz": float("nan")},
    "rate_hz-1e-320": {"rate_hz": 1e-320},
    "rate_hz-3e6": {"rate_hz": 3e6},
    "rate_hz-string": {"rate_hz": "fast"},
    "tolerance_us-nan": {"tolerance_us": float("nan")},
    "streams-not-strings": {"streams": [1]},
    "streams-string": {"streams": "ab"},
    "metadata-pairs": {"metadata": [["a", 1]]},
    "metadata-nan": {"metadata": {"x": float("nan")}},
    "metadata-infinity": {"metadata": {"x": [float("inf")]}},
}


@pytest.mark.parametrize("kind", sorted(UNWRITABLE_HEADERS))
def test_episode_writer_refuses_the_headers_the_reader_refuses(tmp_path, kind):
    header = {**_HEADER, **UNWRITABLE_HEADERS[kind]}
    path = tmp_path / "w.vtep"
    path.write_bytes(_episode_bytes(header, b""))
    with pytest.raises(EpisodeLoadError, match="header"):
        read_episode(path)
    path.unlink()
    fields = {k: header[k] for k in ("rate_hz", "tolerance_us", "streams", "metadata")}
    with pytest.raises(InvalidInputError, match="bad header"):
        write_episode(Episode(**fields, tuples=[]), path)
    assert not path.exists()


# records under a valid CRC whose strings are not UTF-8
BAD_STRING_RECORDS = {
    "stream-id": _record(0, b"\xff\xfe", 0, PAYLOAD_CASES["joints"][1]),
    "cloud-frame": _record(0, "camera/0", 0, struct.pack("<BH", 2, 2) + b"\xff\xfe" + struct.pack("<I", 0)),
}


@pytest.mark.parametrize("kind", sorted(BAD_STRING_RECORDS))
def test_episode_string_not_utf8_is_load_error(tmp_path, kind):
    path = tmp_path / "s.vtep"
    path.write_bytes(_episode_bytes({**_HEADER, "tuple_count": 1}, BAD_STRING_RECORDS[kind]))
    with pytest.raises(EpisodeLoadError, match="record 0: .*not UTF-8") as exc:
        read_episode(path)
    assert not isinstance(exc.value, ChecksumError)


# members whose stream id does not fit their accessor: (stream id, payload, accessor)
BAD_MEMBERS = {
    "tactile-id-not-a-number": ("tactile/x", PAYLOAD_CASES["tactile-raw"][0], "tactile_frames"),
    # a stream's number is canonical decimal text: ASCII digits, no sign, no leading zero
    **{f"tactile-id-{name}": (f"tactile/{n}", PAYLOAD_CASES["tactile-raw"][0], "tactile_frames")
       for name, n in (("leading-zero", "01"), ("underscore", "1_0"), ("plus", "+1"), ("minus", "-1"),
                       ("space", " 1"), ("arabic-indic", "\u0663"), ("empty", ""))},
    "tactile-frame-under-camera": ("camera/0", PAYLOAD_CASES["tactile-raw"][0], "clouds"),
    "tactile-frame-under-joints": (JOINTS_STREAM, PAYLOAD_CASES["tactile-raw"][0], "joint_state"),
}


@pytest.mark.parametrize("kind", sorted(BAD_MEMBERS))
def test_member_that_does_not_fit_its_stream_is_invalid(kind):
    sid, payload, accessor = BAD_MEMBERS[kind]
    members = {sid: TimedSample(sid, 0, payload), "s": TimedSample("s", 0, PAYLOAD_CASES["cloud"][0])}
    with pytest.raises(InvalidInputError, match=re.escape(repr(sid))):
        getattr(SyncedTuple(0, members), accessor)()


def test_write_episode_timestamp_out_of_range(tmp_path):
    # a payload's own stamp past int64 is refused where the payload is built
    with pytest.raises(InvalidInputError, match=re.escape(f"timestamp_us {TIME_RULE}, got {2**63}")):
        JointState([0.0], 2**63)
    member = TimedSample(JOINTS_STREAM, 0, JointState([0.0], 0))
    ep = Episode(10.0, 0, [JOINTS_STREAM], [SyncedTuple(2**63, {JOINTS_STREAM: member})])
    path = tmp_path / "big.vtep"
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}: tick {TIME_RULE}, got {2**63}")):
        write_episode(ep, path)
    assert not path.exists()


def test_write_episode_refuses_a_payload_without_a_format(tmp_path):
    member = TimedSample("misc", 0, {"positions": [0.0]})
    ep = Episode(10.0, 0, ["misc"], [SyncedTuple(0, {"misc": member})])
    with pytest.raises(InvalidInputError, match="unsupported payload type dict"):
        write_episode(ep, tmp_path / "dict.vtep")


@pytest.mark.parametrize("sids", [["tactile/7"], [JOINTS_STREAM, "tactile/7"], []])
def test_write_episode_refuses_a_tuple_whose_stream_ids_are_not_the_episodes(tmp_path, sids):
    joints = JointState([0.0], 0)
    good = SyncedTuple(0, {JOINTS_STREAM: TimedSample(JOINTS_STREAM, 0, joints)})
    bad = SyncedTuple(100_000, {sid: TimedSample(sid, 100_000, joints) for sid in sids})
    path = tmp_path / "ep.vtep"
    with pytest.raises(InvalidInputError, match=re.escape(
            f"tick 100000: stream ids {sorted(sids)} are not the episode's streams ['joints']")):
        write_episode(Episode(10.0, 0, [JOINTS_STREAM], [good, bad]), path)
    assert not path.exists()


# a record's stream ids -> the error that reading it gives
BAD_RECORD_IDS = {
    "repeated": (["joints", "joints"], "record 1: stream 'joints' appears twice"),
    "other": (["tactile/7"], "record 1: stream ids ['tactile/7'] are not the episode's streams ['joints']"),
    "extra": (["joints", "tactile/7"], "record 1: stream ids ['joints', 'tactile/7'] are not the episode's streams"),
}


@pytest.mark.parametrize("kind", sorted(BAD_RECORD_IDS))
@pytest.mark.parametrize("keep", [None, ()])
def test_episode_record_whose_stream_ids_are_not_the_headers_is_load_error(tmp_path, kind, keep):
    sids, error = BAD_RECORD_IDS[kind]
    joints = PAYLOAD_CASES["joints"][1]
    body = struct.pack("<qH", 100_000, len(sids)) + b"".join(
        struct.pack("<H", len(sid)) + sid.encode() + struct.pack("<q", 0) + joints for sid in sids)
    bad = struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))
    header = {"rate_hz": 10.0, "tolerance_us": 0, "streams": ["joints"], "tuple_count": 2}
    path = tmp_path / "ep.vtep"
    path.write_bytes(_episode_bytes(header, _record(0, "joints", 0, joints) + bad))
    with pytest.raises(EpisodeLoadError, match=re.escape(error)):
        read_episode(path, keep)


def test_episode_stats_aligned():
    ep = make_episode(30)
    stats = episode_stats(ep)
    assert stats.duration_s == pytest.approx(2.9)
    assert stats.tuple_count == 30
    assert stats.dropped_ticks == 0
    assert stats.max_skew_us == 3


def test_episode_stats_with_drops():
    ep = make_episode(30)
    kept = [t for i, t in enumerate(ep.tuples) if i % 5 != 3]
    ep2 = Episode(ep.rate_hz, ep.tolerance_us, ep.streams, kept)
    stats = episode_stats(ep2)
    assert stats.expected_ticks == 30
    assert stats.dropped_ticks == 6
    assert stats.drop_rate == pytest.approx(0.2)


def _stats_episode(rng) -> Episode:
    """An episode on the 10 Hz grid, anywhere in int64, with dropped ticks, runs of records whose
    joint count and tactile kind change, and now and then a member timestamp at an int64 end."""
    n = int(rng.integers(1, 200))
    start = TICK * int(rng.integers(-(2**63) // TICK, (2**63 - 1) // TICK - 400))
    ticks = start + TICK * np.sort(rng.choice(400, n, replace=False))
    tuples, k = [], 0
    while k < n:
        joints, normalized = int(rng.integers(0, 4)), bool(rng.integers(2))
        for tick in ticks[k : k + int(rng.integers(1, 90))].tolist():
            stamps = np.clip(tick + rng.integers(-60_000, 60_001, 3), -(2**63), 2**63 - 1).tolist()
            if rng.random() < 0.05:
                stamps[int(rng.integers(3))] = [-(2**63), 2**63 - 1][int(rng.integers(2))]
            readings = rng.uniform(0, 1, (16, 16)) if normalized else rng.integers(0, 1024, (16, 16))
            payloads = {camera_stream(0): CloudXYZF(rng.normal(size=(2, 4)), "base"),
                        JOINTS_STREAM: JointState(rng.normal(size=joints), stamps[1]),
                        tactile_stream(0): TactileFrame(0, stamps[2], readings, normalized)}
            tuples.append(SyncedTuple(tick, {sid: TimedSample(sid, stamp, payload)
                                             for stamp, (sid, payload) in zip(stamps, payloads.items())}))
            k += 1
    return Episode(10.0, 50_000, sorted(tuples[0].members), tuples)


@pytest.mark.parametrize("seed", range(8))
def test_episode_stats_of_a_read_are_those_of_the_tuples_written(tmp_path, seed):
    ep = _stats_episode(np.random.default_rng([seed, 31]))
    path = tmp_path / "s.vtep"
    write_episode(ep, path)
    stats = episode_stats(ep)
    for keep in (None, (), (TACTILE_PREFIX, JOINTS_STREAM)):
        assert episode_stats(read_episode(path, keep=keep)) == stats
    ticks = [t.tick_time_us for t in ep.tuples]
    assert stats.max_skew_us == max(_max_skew(t) for t in ep.tuples)
    assert (stats.tuple_count, stats.expected_ticks) == (len(ticks), (ticks[-1] - ticks[0]) // TICK + 1)


def test_episode_stats_of_timestamps_past_int64():
    # a list whose timestamps do not fit int64 is refused when it becomes columns, naming the first
    members = [{"a": TimedSample("a", stamp, None)} for stamp in (2**64, -(2**64))]
    ep = Episode(10.0, 0, ["a"], [SyncedTuple(tick, m) for tick, m in zip((0, 2 * TICK), members)])
    with pytest.raises(InvalidInputError, match=re.escape(f"stream 'a' timestamp_us {TIME_RULE}, got {2**64}")):
        episode_stats(ep)


def test_episode_stats_of_timestamps_at_the_int64_ends():
    # |timestamp - tick| reaches 2**64 - 1 and is exact
    members = [{"a": TimedSample("a", stamp, None)} for stamp in (2**63 - 1, -(2**63))]
    ep = Episode(1e-12, 0, ["a"], [SyncedTuple(tick, m) for tick, m in zip((-(10**18), 10**18), members)])
    stats = episode_stats(ep)
    assert (stats.max_skew_us, stats.expected_ticks, stats.dropped_ticks) == (2**63 + 10**18, 3, 1)


def test_episode_stats_jitter_skew():
    rng = np.random.default_rng(5)
    streams = make_streams(40, jitter_us=20_000, rng=rng)
    tuples, _ = align(streams, rate_hz=10.0, tolerance_us=50_000)
    ep = Episode(10.0, 50_000, sorted(streams), tuples)
    stats = episode_stats(ep)
    assert stats.max_skew_us <= 20_000


# records that a full read refuses, each with one member that a keep of "tactile/" drops
DROPPED_MEMBER_FAULTS = {
    "unknown-tag": (_record(0, "s", 0, b"\x09"), EpisodeLoadError, "record 0: unknown payload tag 9"),
    "frame-not-utf8": (BAD_STRING_RECORDS["cloud-frame"], EpisodeLoadError, "record 0: .*not UTF-8"),
    "cloud-nan": (_record(0, "camera/0", 0, struct.pack("<BH", 2, 4) + b"base" + struct.pack("<I", 1)
                          + struct.pack("<4d", np.nan, 0, 0, 0)), InvalidInputError, "non-finite"),
    "cloud-short": (_record(0, "camera/0", 0, struct.pack("<BH", 2, 4) + b"base" + struct.pack("<I", 2)
                            + struct.pack("<4d", 0, 0, 0, 0)), TruncatedFileError, "record 0: truncated"),
}


@pytest.mark.parametrize("kind", sorted(DROPPED_MEMBER_FAULTS))
@pytest.mark.parametrize("keep", [None, ("tactile/",)])
def test_episode_read_with_keep_checks_the_members_it_drops(tmp_path, kind, keep):
    record, error, match = DROPPED_MEMBER_FAULTS[kind]
    path = tmp_path / "d.vtep"
    path.write_bytes(_episode_bytes({**_HEADER, "tuple_count": 1}, record))
    with pytest.raises(error, match=match):
        read_episode(path, keep=keep)


def test_episode_read_with_keep_lists_the_streams_kept(tmp_path):
    members = {sid: TimedSample(sid, 0, PAYLOAD_CASES[kind][0])
               for sid, kind in [("camera/0", "cloud"), ("joints", "joints"), ("tactile/3", "tactile-raw")]}
    path = tmp_path / "k.vtep"
    write_episode(Episode(10.0, 0, sorted(members), [SyncedTuple(0, members)] * 2), path)
    back = read_episode(path, keep=("tactile/", JOINTS_STREAM))
    # every stream and member is listed; only the payloads kept are built
    assert back.streams == ["camera/0", "joints", "tactile/3"]
    assert [sorted(t.members) for t in back.tuples] == [back.streams] * 2
    assert np.array_equal(back.tuples[1].members["tactile/3"].payload.readings, _RAW)
    assert back.tuples[1].members["camera/0"].payload is None
    assert [m.payload for m in read_episode(path, keep=("nothing/",)).tuples[0].members.values()] == [None] * 3


def _payload_fault(sid, payload_bytes):
    return _record(0, sid, 0, payload_bytes)


_TACTILE_HEAD = struct.pack("<BHBq", 1, 0, 1, 0)  # a normalized frame of pad 0
_FUSED_HEAD = struct.pack("<BH", 4, 4) + b"base" + struct.pack("<I", 1)
# records that a full read refuses, one for each check a payload's skip must run too
SKIP_FAULTS = {
    **{kind: record for kind, (record, _, _) in DROPPED_MEMBER_FAULTS.items()},
    "stream-id-not-utf8": BAD_STRING_RECORDS["stream-id"],
    "no-tag": _payload_fault("s", b""),
    "tactile-short": _payload_fault("tactile/0", struct.pack("<BHBq", 1, 0, 0, 0) + bytes(511)),
    "tactile-above-1": _payload_fault("tactile/0", _TACTILE_HEAD + struct.pack("<256d", *[1.5] * 256)),
    "tactile-nan": _payload_fault("tactile/0", _TACTILE_HEAD + struct.pack("<256d", np.nan, *[0.0] * 255)),
    "fused-flag-2": _payload_fault("fused", _FUSED_HEAD + struct.pack("<6d", 0, 0, 0, 0, 2, 0)),
    "fused-two-flags": _payload_fault("fused", _FUSED_HEAD + struct.pack("<6d", 0, 0, 0, 0, 1, 1)),
    "fused-visual-value": _payload_fault("fused", _FUSED_HEAD + struct.pack("<6d", 0, 0, 0, 0.5, 1, 0)),
    "fused-inf": _payload_fault("fused", _FUSED_HEAD + struct.pack("<6d", np.inf, 0, 0, 0, 0, 1)),
    "joints-nan": _payload_fault("joints", struct.pack("<BqH", 3, 0, 2) + struct.pack("<2d", 0.0, np.nan)),
    "joints-short": _payload_fault("joints", struct.pack("<BqH", 3, 0, 2) + struct.pack("<d", 0.0)),
    "head-short": _payload_fault("joints", struct.pack("<Bq", 3, 0)),
}


@pytest.mark.parametrize("kind", sorted(SKIP_FAULTS))
def test_skipped_payload_is_refused_as_a_built_one(tmp_path, kind):
    path = tmp_path / "f.vtep"
    path.write_bytes(_episode_bytes({**_HEADER, "tuple_count": 1}, SKIP_FAULTS[kind]))
    with pytest.raises((EpisodeLoadError, InvalidInputError)) as built:
        read_episode(path)
    with pytest.raises(type(built.value)) as skipped:
        read_episode(path, keep=())
    assert str(skipped.value) == str(built.value)


def test_read_without_payloads_keeps_the_member_timestamps(tmp_path):
    ep = make_episode(6)
    path = tmp_path / "p.vtep"
    write_episode(ep, path)
    back = read_episode(path, keep=())
    assert back.streams == ep.streams and back.metadata == ep.metadata
    for got, sent in zip(back.tuples, ep.tuples, strict=True):
        assert got.tick_time_us == sent.tick_time_us
        assert {sid: (m.timestamp_us, m.payload) for sid, m in got.members.items()} == {
            sid: (m.timestamp_us, None) for sid, m in sent.members.items()}
    assert episode_stats(back) == episode_stats(ep)


def test_payload_formats_are_written_once():
    src = Path(vitac.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.glob("*.py")))
    formats = re.findall(r"struct\.Struct\((\"[^\"]*\")\)", text)
    assert len(formats) >= 8  # the wire frame head and every .vtep head and field
    for fmt in formats:
        assert text.count(fmt) == 1, fmt
    # every pack and unpack goes through those Struct objects
    assert not re.search(r"struct\.(pack|unpack|unpack_from|calcsize|iter_unpack)\(", text)


def _is_object_dtype(arg, keyword=None) -> bool:
    """Whether a call's argument is the object dtype: object, np.object_, "O", or "object" given as
    dtype=, either branch of a conditional included."""
    if isinstance(arg, ast.IfExp):
        return _is_object_dtype(arg.body, keyword) or _is_object_dtype(arg.orelse, keyword)
    return ((isinstance(arg, ast.Name) and arg.id == "object")
            or (isinstance(arg, ast.Attribute) and arg.attr == "object_")
            or (isinstance(arg, ast.Constant) and (arg.value == "O" or (keyword == "dtype" and arg.value == "object"))))


def _object_dtypes(tree) -> list:
    """The lines of the calls in tree that pass the object dtype."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (any(map(_is_object_dtype, node.args)) or any(_is_object_dtype(k.value, k.arg) for k in node.keywords))]


def test_no_module_makes_an_object_array():
    """Every time is an int64 from the reader on (errors.check_time), so no array needs the object
    dtype; a second, object-dtype path for times past int64 fails here."""
    caught = "np.array(v, object)\na.astype(dtype=np.object_)\nnp.empty(3, 'O')\nnp.array(v, object if w else int)\n"
    assert _object_dtypes(ast.parse(caught + "np.zeros(3, dtype='object')\nf('object')")) == [1, 2, 3, 4, 5]
    for path in sorted(Path(vitac.__file__).parent.glob("*.py")):
        assert _object_dtypes(ast.parse(path.read_text())) == [], path.name


def test_no_module_level_name_is_bound_twice():
    for path in sorted(Path(vitac.__file__).parent.glob("*.py")):
        names = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        assert not sorted({n for n in names if names.count(n) > 1}), path.name


@pytest.mark.parametrize("keep", [None, ("tactile/",)])
def test_episode_record_length_past_the_file_end_allocates_nothing(tmp_path, keep):
    path = tmp_path / "l.vtep"
    record = _record(0, "s", 0, PAYLOAD_CASES["joints"][1])
    path.write_bytes(_episode_bytes({**_HEADER, "tuple_count": 1}, struct.pack("<I", 0xFFFFFFF0) + record[4:]))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFileError, match="record 0: truncated"):
            read_episode(path, keep=keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------------ records in blocks

def _records_one_by_one(tuples) -> bytes:
    """The records of tuples, each its u32 length, _encode_tuple's bytes and their CRC32."""
    out = b""
    for tup in tuples:
        body = stream_sync._encode_tuple(tup)
        out += struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))
    return out


def _episode_file(ep: Episode) -> bytes:
    """The bytes that write_episode writes for ep, from _records_one_by_one."""
    header = {"rate_hz": ep.rate_hz, "tolerance_us": ep.tolerance_us, "streams": ep.streams,
              "metadata": ep.metadata, "tuple_count": len(ep.tuples)}
    return _episode_bytes(header, _records_one_by_one(ep.tuples))


def _values(tuples) -> list:
    """tuples as plain values, each array as its dtype, shape and bytes, to compare two reads."""
    def value(payload):
        if payload is None:
            return None
        fields = vars(payload).items()
        return type(payload), {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                               for k, v in fields}
    return [(t.tick_time_us, {sid: (m.timestamp_us, value(m.payload)) for sid, m in t.members.items()})
            for t in tuples]


def _fused(rng, n, frame):
    visual = rng.integers(0, 2, n).astype(float)
    return FusedCloud(np.column_stack([rng.normal(size=(n, 3)), rng.uniform(size=n) * (1 - visual),
                                       visual, 1 - visual]), frame)


_STAMPS = st.sampled_from([0, 1, -1, 2**63 - 1, -(2**63), 123_456_789])


@st.composite
def layout_changing_episodes(draw):
    """An episode of runs of records, each run with its own joint count, tactile kind and pad,
    cloud size and frame name, and payload type on stream "misc"; a run may be longer than a
    block, and its values vary from record to record."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tuples = []
    for _ in range(draw(st.integers(1, 4))):
        joints, points = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        normalized, pad = draw(st.booleans()), draw(st.sampled_from([0, 3, 255]))
        frame = draw(st.sampled_from(["base", "cam0", "cam1", ""]))  # cam0 and cam1 differ in one byte
        misc = draw(st.sampled_from(["joints", "cloud", "fused", "tactile"]))
        for _ in range(draw(st.sampled_from([1, 2, stream_sync.BLOCK_RECORDS, stream_sync.BLOCK_RECORDS + 5]))):
            tick, stamp = draw(_STAMPS), int(rng.integers(-(2**63), 2**63 - 1))
            readings = rng.uniform(0, 1, (16, 16)) if normalized else rng.integers(0, 1024, (16, 16))
            payloads = {
                "camera/0": CloudXYZF(rng.normal(size=(points, 4)), frame),
                JOINTS_STREAM: JointState(rng.normal(size=joints), stamp),
                "misc": {"joints": lambda: JointState(rng.normal(size=joints), tick),
                         "cloud": lambda: CloudXYZF(rng.normal(size=(points, 4)), frame),
                         "fused": lambda: _fused(rng, points, frame),
                         "tactile": lambda: TactileFrame(pad, stamp, readings, normalized)}[misc](),
                tactile_stream(0): TactileFrame(pad, tick, readings, normalized),
            }
            tuples.append(SyncedTuple(tick, {sid: TimedSample(sid, stamp + k, p)
                                             for k, (sid, p) in enumerate(payloads.items())}))
    return Episode(50.0, 0, sorted(tuples[0].members), tuples, {"runs": "mixed"})


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(layout_changing_episodes())
def test_blocks_write_and_read_what_records_one_by_one_do(tmp_path_factory, ep):
    path = tmp_path_factory.getbasetemp() / "runs.vtep"
    write_episode(ep, path)
    assert path.read_bytes() == _episode_file(ep)
    assert _values(read_episode(path).tuples) == _values(ep.tuples)
    skipped = read_episode(path, keep=())
    assert [(t.tick_time_us, {sid: m.timestamp_us for sid, m in t.members.items()}) for t in skipped.tuples] == [
        (t.tick_time_us, {sid: m.timestamp_us for sid, m in t.members.items()}) for t in ep.tuples]
    kept = read_episode(path, keep=(JOINTS_STREAM,)).tuples
    assert [t.members[JOINTS_STREAM].payload.positions.tobytes() for t in kept] == [
        t.members[JOINTS_STREAM].payload.positions.tobytes() for t in ep.tuples]


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(layout_changing_episodes())
def test_an_episode_read_as_columns_writes_the_same_bytes(tmp_path_factory, ep):
    # the payloads of a read lie in one piece per block, or per record when every record is read alone
    path, again = (tmp_path_factory.getbasetemp() / name for name in ("first.vtep", "again.vtep"))
    write_episode(ep, path)
    for blocks in (True, False):
        with mock.patch.object(stream_sync, "_read_block", stream_sync._read_block if blocks else lambda *a: None):
            back = read_episode(path)
        write_episode(back, again)
        assert again.read_bytes() == path.read_bytes()
        assert _values(back.tuples[1:][1::2]) == _values(ep.tuples[1:][1::2])  # the slices that map_ticks takes


def test_kept_payloads_share_one_read_only_copy_of_their_block_column(tmp_path):
    ep = make_episode(stream_sync.BLOCK_RECORDS + 7)
    ep.tuples[:] = [SyncedTuple(t.tick_time_us, {sid: m for sid, m in t.members.items() if sid != camera_stream(0)})
                    for t in ep.tuples]  # so that every record has one layout
    ep.streams.remove(camera_stream(0))
    path = tmp_path / "k.vtep"
    write_episode(ep, path)
    frames = [t.members[tactile_stream(0)].payload.readings for t in read_episode(path).tuples]
    assert not any(f.flags.writeable for f in frames)
    assert frames[1].base is frames[2].base and frames[1].base is not frames[0].base  # record 0 is the walker's
    assert frames[-1].base is not frames[1].base  # the last 7 records are a second block


@pytest.mark.parametrize("at", [0, 1, stream_sync.BLOCK_RECORDS + 3])
@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 1.5])
def test_a_member_timestamp_that_does_not_fit_is_the_records_error(tmp_path, at, value):
    # the list becomes columns before the file opens, and the first timestamp that is not a time is the error
    joints = JointState([0.0], 0)
    tuples = [SyncedTuple(k, {JOINTS_STREAM: TimedSample(JOINTS_STREAM, value if k == at else k, joints)})
              for k in range(2 * stream_sync.BLOCK_RECORDS)]
    path = tmp_path / "big.vtep"
    error = f"{path}: stream 'joints' timestamp_us {TIME_RULE}, got {value!r}"
    with pytest.raises(InvalidInputError, match=re.escape(error)):
        write_episode(Episode(10.0, 0, [JOINTS_STREAM], tuples), path)
    assert not path.exists() and list(tmp_path.iterdir()) == []


def test_a_failed_write_leaves_the_file_it_would_replace(tmp_path):
    path = tmp_path / "ep.vtep"
    path.write_bytes(b"old")
    ep = make_episode(3)  # the frame name of tick 2's cloud cannot be written, which fails inside the open file
    last, cloud = ep.tuples[2], ep.tuples[2].members[camera_stream(0)]
    bad = TimedSample(camera_stream(0), cloud.timestamp_us, CloudXYZF(cloud.payload.points, "a\ud800"))
    ep.tuples[2] = SyncedTuple(last.tick_time_us, {**last.members, camera_stream(0): bad})
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}: tick {2 * TICK}: a stream id or frame name")):
        write_episode(ep, path)
    assert path.read_bytes() == b"old" and list(tmp_path.iterdir()) == [path]
    write_episode(make_episode(3), path)
    assert path.read_bytes() == _episode_file(make_episode(3))
    assert path.stat().st_mode & 0o777 == 0o666 & ~_umask()


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_reading_an_episode_holds_about_one_block(tmp_path):
    rng = np.random.default_rng(1)
    tuples = [SyncedTuple(k, {"camera/0": TimedSample("camera/0", k, CloudXYZF(rng.normal(size=(600, 4)), "base"))})
              for k in range(200)]
    path = tmp_path / "long.vtep"
    write_episode(Episode(10.0, 0, ["camera/0"], tuples), path)
    assert path.stat().st_size > 3_800_000  # about 19 KB a record
    tracemalloc.start()
    try:
        back = read_episode(path, keep=())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back.tuples) == 200
    assert peak < 3 * stream_sync.BLOCK_BYTES
