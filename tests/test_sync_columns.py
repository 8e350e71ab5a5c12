"""sync carries its streams as columns from the input lines to the .vtep bytes.

Its output must be what a per-object sync writes: every line read by jsonio.loads into a list of
TimedSamples, aligned by a bisect loop tick by tick, and written by write_episode from a plain
list of SyncedTuples. The object-count guard fails when a per-frame or per-tick object comes back.
"""

import bisect
import json
import re

import numpy as np
import pytest

from vitac import cli, jsonio
from vitac import stream_sync as ss
from vitac.errors import InvalidInputError, StreamStarvedError, VitacError, check_range
from vitac.frame_codec import FrameColumns, WireFrame, _frame_from_doc, frame_lines, read_frame_lines
from vitac.kinematics import JointColumns, JointState, _joint_from_doc, read_joint_lines
from vitac.pointcloud import CloudXYZF
from vitac.sensor_model import TactileFrame
from vitac.stream_sync import (
    JOINTS_STREAM,
    DropReport,
    DroppedTick,
    Episode,
    SyncedTuple,
    TimedSample,
    limit_ticks,
    tactile_stream,
    tick_grid,
    write_episode,
)


def bisect_align(streams, rate_hz, tolerance_us):
    """align as a loop over the ticks, the nearest sample of each stream found by bisect."""
    check_range("tolerance", tolerance_us, 0, unit="us")
    if not streams:
        raise InvalidInputError("no streams configured")
    times = {}
    for sid, samples in streams.items():
        ts = [s.timestamp_us for s in samples]
        if not ts:
            raise StreamStarvedError(f"stream {sid!r} has no samples")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise InvalidInputError(f"stream {sid!r} timestamps are not sorted")
        times[sid] = ts
    window_start = max(ts[0] for ts in times.values())
    window_end = min(ts[-1] for ts in times.values())
    tuples = []
    report = DropReport(per_stream={sid: 0 for sid in streams})
    for tick in limit_ticks(tick_grid(rate_hz, window_start, window_end)):
        members, missing = {}, []
        for sid, samples in streams.items():
            ts = times[sid]
            i = bisect.bisect_left(ts, tick)
            if i > 0 and tick - ts[i - 1] <= ts[i] - tick:
                i -= 1
            if abs(ts[i] - tick) <= tolerance_us:
                members[sid] = samples[i]
            else:
                missing.append(sid)
        report.ticks_total += 1
        if missing:
            report.dropped.append(DroppedTick(tick, tuple(missing)))
            for sid in missing:
                report.per_stream[sid] += 1
        else:
            tuples.append(SyncedTuple(tick, members))
    return tuples, report


def per_object_sync(tactile, joints, rate_hz, tol_ms, out) -> dict:
    """sync with a TimedSample per line, the bisect loop and write_episode of a list."""
    check_range("--tol-ms", tol_ms, 0, 2**63 / 1000, "ms")
    streams, sources = {}, {}
    for path in tactile:
        ours = {}
        for frame in jsonio.read_jsonl(path, _frame_from_doc):
            sid = tactile_stream(frame.pad_id)
            ours.setdefault(sid, []).append(TimedSample(sid, frame.timestamp_us, frame))
        for sid, samples in ours.items():
            if sid in streams:
                raise InvalidInputError(f"{path}: stream {sid} is also in {sources[sid]}")
            streams[sid], sources[sid] = samples, path
    if joints:
        streams[JOINTS_STREAM] = [TimedSample(JOINTS_STREAM, j.timestamp_us, j)
                                  for j in jsonio.read_jsonl(joints, _joint_from_doc)]
    for samples in streams.values():
        samples.sort(key=lambda s: s.timestamp_us)
    tolerance_us = int(tol_ms * 1000)
    tuples, report = bisect_align(streams, rate_hz, tolerance_us)
    write_episode(Episode(rate_hz, tolerance_us, sorted(streams), tuples,
                          {"drop_report": report.to_metadata()}), out)
    return {"out": out, "streams": sorted(streams), "ticks_total": report.ticks_total, "tuples": len(tuples),
            "dropped": len(report.dropped), "drops_by_stream": report.per_stream}


def outcome(sync, tmp_path, name, tactile, joints, rate_hz, tol_ms):
    """(report, episode bytes) of one sync, or the type and message of the error it raised."""
    out = tmp_path / name
    try:
        report = sync(tactile, joints, rate_hz, tol_ms, str(out))
    except VitacError as exc:
        assert not out.exists()
        return type(exc), str(exc).replace(str(out), "<out>")
    return {**report, "out": None}, out.read_bytes()


def columnar_sync(tactile, joints, rate_hz, tol_ms, out) -> dict:
    args = cli.build_parser().parse_args(
        ["sync", *(a for p in tactile for a in ("--tactile", p)), *(("--joints", joints) if joints else ()),
         "--rate", str(rate_hz), "--tol-ms", str(tol_ms), "--out", out])
    return cli.cmd_sync(args)


def frame_doc(pad_id, seq, stamp, readings) -> dict:
    return {"pad_id": pad_id, "seq": seq, "timestamp_us": stamp, "readings": readings.tolist()}


def write_frames(path, rows, rng, odd_share=0.0):
    """rows of (pad_id, timestamp_us) as frame lines, canonical where a wire frame can hold them
    and odd_share of the rest written as other JSON: compact, or with an extra key."""
    out = []
    for seq, (pad_id, stamp) in enumerate(rows):
        readings = rng.integers(0, 1024, (16, 16))
        if 0 <= stamp < 2**64 and rng.random() >= odd_share:
            out.append(frame_lines([WireFrame(pad_id, seq, stamp, readings)]))
        elif rng.random() < 0.5:
            out.append(json.dumps(frame_doc(pad_id, seq, stamp, readings), separators=(",", ":")).encode() + b"\n")
        else:
            out.append(json.dumps({**frame_doc(pad_id, seq, stamp, readings), "x": 1}).encode() + b"\n")
    path.write_bytes(b"".join(out))


def write_joints(path, rows, rng):
    """rows of (timestamp_us, joint count) as canonical joint lines."""
    lines = [json.dumps({"timestamp_us": stamp, "positions": rng.normal(0, 0.1, n).tolist()}) for stamp, n in rows]
    path.write_text("".join(line + "\n" for line in lines) or "\n")


PERIOD = 10_000  # 100 Hz
TIME_RULE = "must be an integer in [-2**63, 2**63 - 1] us"  # errors.check_time


def _grid(n, start=50_000):
    return start + PERIOD * np.arange(n)


def jittered(rng):
    pads = [(p, int(t)) for p in range(3) for t in _grid(60) + rng.integers(-3000, 3001, 60)]
    rng.shuffle(pads)  # out of time order, and pads interleaved
    drop = rng.random(len(pads)) < 0.1  # dropped frames
    joints = [(int(t), 4) for t in np.sort(45_000 + PERIOD // 2 * np.arange(240) + rng.integers(-1500, 1500, 240))]
    return [p for p, d in zip(pads, drop) if not d], joints, 100.0, 2.5


def duplicates(rng):
    stamps = np.repeat(_grid(30), 2)  # each time twice, then one time four times
    stamps[10:14] = stamps[10]
    pads = [(0, int(t)) for t in stamps] + [(1, int(t)) for t in _grid(30) + 4999]
    joints = [(int(t), 2) for t in np.repeat(_grid(30) + 5000, 3)]
    return pads, joints, 100.0, 5.0


def half_period(rng):
    # samples exactly half a period from a tick, the tolerance: the earlier one wins, and is within it
    pads = [(0, int(t)) for t in _grid(40) + PERIOD // 2] + [(1, int(t)) for t in _grid(40) - PERIOD // 2]
    joints = [(int(t), 3) for t in _grid(80, 45_000)]
    return pads, joints, 100.0, 5.0


def joint_count_changes(rng):
    pads = [(2, int(t)) for t in _grid(100)]
    counts = np.where(np.arange(100) < 37, 4, 3)
    counts[70:75] = 5
    return pads, [(int(t), int(n)) for t, n in zip(_grid(100), counts)], 100.0, 1.0


def non_canonical(rng):
    pads, joints, rate, tol = jittered(rng)
    pads += [(1, -1), (0, 2**63 - 1)]  # never canonical, and the largest time
    return pads, joints, rate, tol


def stamp_edges(rng):
    # -1, 2**63 - 1 and 2**63 in one stream: 2**63, on frame line 5, is not a time and is that line's error
    pads = [(0, -1), (0, 0), (0, 2**63 - 1), (1, 2**63 - 1), (1, 2**63)]
    return pads, [(-1, 2), (2**63 - 1, 2), (2**63, 2)], 1e6, 0.0


def past_int64(rng):
    # times that int64 cannot hold: frame line 1 is the error
    return [(0, 2**63 + k) for k in range(5)], [(2**63 + k, 2) for k in range(5)], 1e6, 0.0


def one_int64_tick(rng):
    # a window of one tick that fits int64 while the joints reach past it: joint line 3 is the error
    return [(0, 2**63 - 1)], [(-1, 2), (2**63 - 1, 2), (2**63 + 5, 2)], 1e6, 0.0


def int64_ends(rng):
    # streams from the least to the largest time, ticks 10**18 us apart: a tick's samples on either
    # side can be more than 2**63 us away
    pads = [(0, -(2**63)), (0, 0), (0, 2**63 - 1), (1, -(2**63)), (1, 5 * 10**18), (1, 2**63 - 1)]
    return pads, [(-(2**63), 2), (-(10**18), 2), (2**63 - 1, 2)], 1e-12, 2**63 / 1000


def starved(rng):
    return [(0, int(t)) for t in _grid(5)], [], 100.0, 5.0


CASES = {f.__name__: f for f in (jittered, duplicates, half_period, joint_count_changes, non_canonical,
                                 stamp_edges, past_int64, one_int64_tick, int64_ends, starved)}
# the cases whose inputs hold a stamp that is not a time: file:line -> the stamp
REFUSED = {"stamp_edges": ("frames.jsonl:5", 2**63), "past_int64": ("frames.jsonl:1", 2**63),
           "one_int64_tick": ("joints.jsonl:3", 2**63 + 5)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sync_writes_what_a_per_object_sync_writes(tmp_path, name):
    rng = np.random.default_rng(sorted(CASES).index(name))
    pads, joints, rate, tol = CASES[name](rng)
    write_frames(tmp_path / "frames.jsonl", pads, rng, odd_share=0.05 if name == "non_canonical" else 0.0)
    write_joints(tmp_path / "joints.jsonl", joints, rng)
    inputs = ([str(tmp_path / "frames.jsonl")], str(tmp_path / "joints.jsonl"), rate, tol)
    want = outcome(per_object_sync, tmp_path, "want.vtep", *inputs)
    assert outcome(columnar_sync, tmp_path, "got.vtep", *inputs) == want
    if name in REFUSED:
        line, stamp = REFUSED[name]
        assert want == (InvalidInputError, f"{tmp_path / line}: timestamp_us {TIME_RULE}, got {stamp}")
    else:
        assert isinstance(want[0], dict) or name == "starved"


def _seeded_stamps(rng, n, period) -> np.ndarray:
    """n ticks' samples of one stream, a tenth dropped and a tenth repeated: on a tick, half a
    period or 1 us off it, or jittered."""
    offsets = rng.choice([0, period // 2, -(period // 2), 1, -1, 0, 0, 0, 0], n) * (rng.random(n) < 0.8)
    offsets += rng.integers(-period // 10, period // 10, n) * (offsets == 0)
    stamps = 50_000 + period * np.arange(n) + offsets
    keep = rng.random(n) >= 0.1
    return np.repeat(stamps[keep], np.where(rng.random(keep.sum()) < 0.1, 2, 1))


@pytest.mark.parametrize("seed", range(12))
def test_seeded_syncs_write_what_a_per_object_sync_writes(tmp_path, seed):
    rng = np.random.default_rng([30, seed])
    rate = float(rng.choice([50.0, 100.0, 200.0]))
    period, n = round(1e6 / rate), int(rng.integers(5, 90))
    pads = [(p, int(t)) for p in range(int(rng.integers(1, 4))) for t in _seeded_stamps(rng, n, period)]
    rng.shuffle(pads)
    counts = rng.choice([2, 2, 2, 3], 2 * n)
    joints = [(int(t), int(c)) for t, c in zip(np.sort(_seeded_stamps(rng, 2 * n, period // 2)), counts)]
    write_frames(tmp_path / "a.jsonl", pads, rng, odd_share=0.1)
    clash = seed % 6 == 5  # a pad in both files
    write_frames(tmp_path / "b.jsonl", [(p + 4 * (not clash), t) for p, t in pads if p == 0], rng, odd_share=0.1)
    write_joints(tmp_path / "joints.jsonl", joints, rng)
    tol_ms = float(rng.choice([0.0, period / 4000, period / 2000, period / 2000, (period / 2 - 1) / 1000]))
    inputs = ([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")], str(tmp_path / "joints.jsonl"), rate, tol_ms)
    want = outcome(per_object_sync, tmp_path, "want.vtep", *inputs)
    assert outcome(columnar_sync, tmp_path, "got.vtep", *inputs) == want


def aligned(align, streams, rate_hz, tolerance_us):
    """The ticks, members and drop report of align, or the type and message of its error."""
    try:
        tuples, report = align(streams, rate_hz, tolerance_us)
    except VitacError as exc:
        return type(exc), str(exc)
    return [(t.tick_time_us, t.members) for t in tuples], report


def test_align_of_lists_matches_the_bisect_loop():
    # int64 timestamps out to both ends, and payloads of any type, given as lists of TimedSamples
    ends = [-(2**63), -1, 0, 2**63 - 1]
    for stamps in ([0, 5, 5, 10, 15, 20], ends, [-(2**63), 2**63 - 1], [-(2**62), 0, 2**62],
                   list(np.arange(0, 100, 7)), [3, 1], []):
        for others in ([0, 9, 20, 2**63 - 1], ends):
            streams = {"a": [TimedSample("a", t, object()) for t in stamps],
                       "b": [TimedSample("b", t, ("p", t)) for t in others]}
            for rate, tol in ((1e5, 3), (2e5, 0), (1e5, 2.5), (1e-9, 2**80), (1e-12, 2**63 - 1), (1e-12, 10**18)):
                assert aligned(ss.align, streams, rate, tol) == aligned(bisect_align, streams, rate, tol)


INT64_EDGES = np.array([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])


def test_align_matches_the_bisect_loop_at_the_int64_ends():
    rng = np.random.default_rng(32)
    for _ in range(300):
        streams = {}
        for sid in "ab":
            n = int(rng.integers(1, 6))
            stamps = np.where(rng.random(n) < 0.5, rng.choice(INT64_EDGES, n),
                              rng.integers(-(2**63), 2**63 - 1, n, endpoint=True))
            streams[sid] = [TimedSample(sid, t, None) for t in sorted(stamps.tolist())]
        rate = 1e6 / float(rng.choice([10**17, 10**18, 3 * 10**18, 2**62]))
        tol = int(rng.choice([0, 10**17, 2**62, 2**63 - 1, int(rng.integers(0, 2**63 - 1))]))
        assert aligned(ss.align, streams, rate, tol) == aligned(bisect_align, streams, rate, tol)


@pytest.mark.parametrize("stamp", [15.5, 2**63, -(2**63) - 1, 2**70])
def test_align_refuses_a_list_whose_timestamp_is_not_a_time(stamp):
    streams = {"a": [TimedSample("a", t, None) for t in (0, stamp)], "b": [TimedSample("b", 0, None)]}
    with pytest.raises(InvalidInputError, match=re.escape(f"stream 'a' timestamp_us {TIME_RULE}, got {stamp!r}")):
        ss.align(streams, 1e5, 3)


def test_a_stream_id_or_frame_name_that_is_not_utf8_is_the_records_error(tmp_path):
    out = tmp_path / "ep.vtep"
    for sid, frame in (("a", "a\ud800"), ("b\udcff", "base")):
        tup = SyncedTuple(7, {sid: TimedSample(sid, 7, CloudXYZF(np.zeros((1, 4)), frame))})
        with pytest.raises(InvalidInputError) as err:
            write_episode(Episode(10.0, 0, [sid], [tup]), out)
        assert str(err.value).startswith(f"{out}: tick 7: a stream id or frame name is not UTF-8"), err.value
        assert list(tmp_path.iterdir()) == []


def test_sync_builds_objects_only_for_the_first_record_of_each_run(tmp_path, monkeypatch, capsys):
    """The readers build no frame or joint state, align builds no tuple, and the writer builds the
    first record of each .vtep run as a SyncedTuple, from which it learns the run's layout."""
    rng = np.random.default_rng(32)
    frames, joints = tmp_path / "frames.jsonl", tmp_path / "joints.jsonl"
    write_frames(frames, [(p, int(t)) for t in _grid(200) for p in range(4)], rng)
    counts = np.where(np.arange(400) < 150, 4, 3)  # one joint count change: two runs
    write_joints(joints, [(int(t), int(c)) for t, c in zip(_grid(400, 40_000) // 2, counts)], rng)
    built = {cls: 0 for cls in (TactileFrame, JointState, TimedSample, SyncedTuple)}
    for cls in built:
        init = cls.__init__

        def counted(self, *args, _init=init, _cls=cls, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    out = tmp_path / "ep.vtep"
    assert cli.main(["--json", "sync", "--tactile", str(frames), "--joints", str(joints), "--rate", "100",
                     "--out", str(out)]) == 0
    n_tuples = json.loads(capsys.readouterr().out)["tuples"]
    runs, members = 2, 5
    # per run: the first tuple as columns build it, and as the writer walks its record back
    assert built == {TactileFrame: 4 * runs, JointState: runs, TimedSample: 2 * members * runs,
                     SyncedTuple: 2 * runs}
    monkeypatch.undo()
    counts = [len(t.members["joints"].payload.positions) for t in ss.read_episode(out).tuples]
    assert len(counts) == n_tuples > 100 and counts == sorted(counts, reverse=True) and set(counts) == {3, 4}


def test_stats_builds_objects_only_for_the_first_record_of_each_run(tmp_path, monkeypatch, capsys):
    """stats reads an episode as columns: the walker builds the first record of each .vtep run as
    a SyncedTuple, and no payload or other record is built."""
    rng = np.random.default_rng(33)
    frames, joints, out = tmp_path / "frames.jsonl", tmp_path / "joints.jsonl", tmp_path / "ep.vtep"
    write_frames(frames, [(p, int(t)) for t in _grid(200) for p in range(4)], rng)
    counts = np.where(np.arange(400) < 150, 4, 3)  # one joint count change: two runs
    write_joints(joints, [(int(t), int(c)) for t, c in zip(_grid(400, 40_000) // 2, counts)], rng)
    assert cli.main(["sync", "--tactile", str(frames), "--joints", str(joints), "--rate", "100",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    built = {cls: 0 for cls in (TactileFrame, JointState, TimedSample, SyncedTuple)}
    for cls in built:
        init = cls.__init__

        def counted(self, *args, _init=init, _cls=cls, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    assert cli.main(["--json", "stats", "--episode", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    runs, members = 2, 5
    assert built == {TactileFrame: 0, JointState: 0, TimedSample: members * runs, SyncedTuple: runs}
    monkeypatch.undo()
    episode = ss.read_episode(out)
    episode.tuples = list(episode.tuples)  # the stats of the tuples one by one, turned into columns
    assert report == jsonio.fields_to(ss.episode_stats(episode)) and report["tuples"] > 100


def test_every_time_column_of_a_sync_is_int64(tmp_path, monkeypatch, capsys):
    """The readers' columns, align's ticks and the columns read back from the episode, of canonical
    and other lines and of times from -1 to 2**63 - 1, hold every time as an int64."""
    rng = np.random.default_rng(34)
    pads, joints, rate, tol = non_canonical(rng)
    frames, joints_path, out = tmp_path / "frames.jsonl", tmp_path / "joints.jsonl", tmp_path / "ep.vtep"
    write_frames(frames, pads, rng, odd_share=0.05)
    write_joints(joints_path, joints, rng)
    read = {"frames": read_frame_lines(frames), "joints": read_joint_lines(joints_path)}
    aligned_ticks = []

    def spied(*args, **kwargs):
        tuples, report = ss.align(*args, **kwargs)
        aligned_ticks.append(tuples.ticks)
        return tuples, report

    monkeypatch.setattr(cli, "align", spied)
    assert cli.main(["sync", "--tactile", str(frames), "--joints", str(joints_path), "--rate", str(rate),
                     "--tol-ms", str(tol), "--out", str(out)]) == 0
    columns, kinds = [read["frames"].timestamps, read["joints"].timestamps, *aligned_ticks], set()
    for keep in (None, ()):
        tuples = ss.read_episode(out, keep=keep).tuples
        columns += [tuples.ticks, *(samples.timestamps for samples, _ in tuples.streams.values())]
        pieces = [piece for samples, _ in tuples.streams.values()
                  for piece in getattr(samples.payloads, "pieces", [samples.payloads])]
        kinds |= {type(piece) for piece in pieces}
        columns += [piece.timestamps for piece in pieces if isinstance(piece, (FrameColumns, JointColumns))]
    assert len(aligned_ticks) == 1 and {FrameColumns, JointColumns} <= kinds
    assert [c.dtype for c in columns] == [np.dtype(np.int64)] * len(columns)
    assert read["frames"].timestamps.max() == 2**63 - 1 and read["frames"].timestamps.min() == -1
