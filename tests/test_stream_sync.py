import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

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


def _samples(sid, timestamps):
    return [TimedSample(sid, int(t), ("payload", sid, int(t))) for t in timestamps]


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
    assert all(t.max_skew_us() == 0 for t in tuples)
    spacing = np.diff([t.tick_time_us for t in tuples])
    assert np.all(spacing == TICK)


def test_align_jittered_within_tolerance():
    rng = np.random.default_rng(0)
    streams = make_streams(60, jitter_us=20_000, rng=rng)
    tuples, report = align(streams, rate_hz=10.0, tolerance_us=50_000)
    assert not report.dropped
    for t in tuples:
        assert t.max_skew_us() <= 20_000


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
    assert back.tuples == []


def test_episode_truncation(tmp_path):
    ep = make_episode(5)
    path = tmp_path / "t.vtep"
    write_episode(ep, path)
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(TruncatedFileError):
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
    "tactile-frame-under-camera": ("camera/0", PAYLOAD_CASES["tactile-raw"][0], "clouds"),
    "tactile-frame-under-joints": (JOINTS_STREAM, PAYLOAD_CASES["tactile-raw"][0], "joint_state"),
}


@pytest.mark.parametrize("kind", sorted(BAD_MEMBERS))
def test_member_that_does_not_fit_its_stream_is_invalid(kind):
    sid, payload, accessor = BAD_MEMBERS[kind]
    members = {sid: TimedSample(sid, 0, payload), "s": TimedSample("s", 0, PAYLOAD_CASES["cloud"][0])}
    with pytest.raises(InvalidInputError, match=sid):
        getattr(SyncedTuple(0, members), accessor)()


def test_write_episode_timestamp_out_of_range(tmp_path):
    member = TimedSample(JOINTS_STREAM, 0, JointState([0.0], 2**63))
    ep = Episode(10.0, 0, [JOINTS_STREAM], [SyncedTuple(0, {JOINTS_STREAM: member})])
    with pytest.raises(InvalidInputError, match="tick 0"):
        write_episode(ep, tmp_path / "big.vtep")


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
    assert back.streams == ["joints", "tactile/3"]
    assert [sorted(t.members) for t in back.tuples] == [["joints", "tactile/3"]] * 2
    assert np.array_equal(back.tuples[1].members["tactile/3"].payload.readings, _RAW)
    assert read_episode(path, keep=("nothing/",)).tuples[0].members == {}


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
