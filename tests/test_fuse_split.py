"""fuse on two processes: the serial bytes, the serial first error, and no process left behind.

With two CPUs and at least 3 ticks, fuse runs tick 0, forks one worker, and then runs ticks
1, 3, 5, ... itself while the worker runs ticks 2, 4, 6, ...
"""

import hashlib
import io
import json
import os
import signal
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import vitac.cli
from test_cli import write_scene
from vitac.cli import main
from vitac.kinematics import JointState, save_chain_file
from vitac.sensor_model import TactileFrame
from vitac.stream_sync import (
    Episode,
    SyncedTuple,
    TimedSample,
    _encode_tuple,
    _FileReader,
    _received,
    _write_record,
    read_episode,
    write_episode,
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory with a 10-tick simulated episode, its chain and a crop box around it."""
    d = tmp_path_factory.mktemp("split")
    scene = write_scene(d / "scene.json")
    assert main(["simulate", "--scene", str(d / "scene.json"), "--dur", "1", "--out", str(d / "ep.vtep")]) == 0
    save_chain_file(d / "chain.json", *scene.chain_and_mounts())
    (d / "box.json").write_text(json.dumps({"min": [-0.2] * 3, "max": [0.2] * 3}))
    return d


def _episode(inputs, tmp_path, n, bad=()):
    """The first n ticks of the episode, with tactile/0's frame from pad 100 + k in each tick k of bad."""
    ep = read_episode(inputs / "ep.vtep")
    assert len(ep.tuples) == 10
    tuples = []
    for k, tup in enumerate(ep.tuples[:n]):
        members = dict(tup.members)
        if k in bad:
            frame = members["tactile/0"].payload
            members["tactile/0"] = TimedSample("tactile/0", tup.tick_time_us,
                                               TactileFrame(100 + k, frame.timestamp_us, frame.readings))
        tuples.append(SyncedTuple(tup.tick_time_us, members))
    path = tmp_path / "ep.vtep"
    write_episode(Episode(ep.rate_hz, ep.tolerance_us, ep.streams, tuples), path)
    return path


def _fuse(monkeypatch, capfd, inputs, episode, out, cpus):
    """(exit code, stderr, forks) of fuse with cpus CPUs in the affinity mask."""
    forks, fork = [], os.fork
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        m.setattr(os, "fork", lambda: forks.append(1) or fork())
        code = main(["--seed", "3", "fuse", "--episode", str(episode), "--chain", str(inputs / "chain.json"),
                     "--box", str(inputs / "box.json"), "--nvis", "64", "--out", str(out)])
    return code, capfd.readouterr().err, len(forks)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_two_processes_write_the_serial_bytes(tmp_path, monkeypatch, capfd, inputs, n):
    episode = _episode(inputs, tmp_path, n)
    serial, split = tmp_path / "serial.vtep", tmp_path / "split.vtep"
    assert _fuse(monkeypatch, capfd, inputs, episode, serial, cpus=1) == (0, "", 0)
    assert _fuse(monkeypatch, capfd, inputs, episode, split, cpus=2) == (0, "", int(n >= 3))
    assert _sha256(split) == _sha256(serial)
    assert len(read_episode(split).tuples) == n


# the ticks whose tactile/0 frame does not fit pad 0's calibration: tick 0 fails before the
# fork, and of the others the even ones are the worker's
@pytest.mark.parametrize("bad", [(0,), (1,), (2,), (1, 2), (2, 3), (4, 7)])
def test_first_bad_tick_gives_the_serial_error(tmp_path, monkeypatch, capfd, inputs, bad):
    episode = _episode(inputs, tmp_path, 10, bad)
    code, err, _ = _fuse(monkeypatch, capfd, inputs, episode, tmp_path / "serial.vtep", cpus=1)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert f"frame pad {100 + bad[0]}\n" in err
    forks = int(bad[0] > 0)
    assert _fuse(monkeypatch, capfd, inputs, episode, tmp_path / "split.vtep", cpus=2) == (code, err, forks)


@pytest.mark.parametrize("how, at", [("exit", 1), ("exit", 2), ("kill", 3)])
def test_worker_that_dies_leaves_the_serial_bytes(tmp_path, monkeypatch, capfd, inputs, how, at):
    """The worker dies in its at-th tick; this process runs that tick and every later one itself."""
    episode = _episode(inputs, tmp_path, 10)
    serial, split = tmp_path / "serial.vtep", tmp_path / "split.vtep"
    assert _fuse(monkeypatch, capfd, inputs, episode, serial, cpus=1)[0] == 0
    parent, calls, fps = os.getpid(), [], vitac.cli.fps_downsample

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == at:
                os._exit(3) if how == "exit" else os.kill(os.getpid(), signal.SIGKILL)
        return fps(*args, **kwargs)

    monkeypatch.setattr(vitac.cli, "fps_downsample", dying)
    assert _fuse(monkeypatch, capfd, inputs, episode, split, cpus=2) == (0, "", 1)
    assert _sha256(split) == _sha256(serial)


def test_fuse_stays_serial_while_another_thread_runs(tmp_path, monkeypatch, capfd, inputs):
    episode = _episode(inputs, tmp_path, 10)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        result = _fuse(monkeypatch, capfd, inputs, episode, tmp_path / "fused.vtep", cpus=2)
    finally:
        done.set()
        thread.join(timeout=10)
    assert result == (0, "", 0) and not thread.is_alive()


def test_fuse_runs_serial_when_fork_fails(tmp_path, monkeypatch, capfd, inputs):
    episode = _episode(inputs, tmp_path, 10)
    serial, split = tmp_path / "serial.vtep", tmp_path / "split.vtep"
    assert _fuse(monkeypatch, capfd, inputs, episode, serial, cpus=1)[0] == 0

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert _fuse(monkeypatch, capfd, inputs, episode, split, cpus=2) == (0, "", 1)
    assert _sha256(split) == _sha256(serial)


def test_first_tick_ends_before_the_fork(tmp_path, monkeypatch, capfd, inputs):
    """A process that ends within its first tick has started no worker."""
    episode = _episode(inputs, tmp_path, 10)
    merges, at_fork, merge, fork = [], [], vitac.cli.merge, os.fork

    def counted_merge(clouds):
        merges.append(1)
        return merge(clouds)

    def counted_fork():
        at_fork.append(len(merges))
        return fork()

    monkeypatch.setattr(vitac.cli, "merge", counted_merge)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert _fuse(monkeypatch, capfd, inputs, episode, tmp_path / "fused.vtep", cpus=2) == (0, "", 1)
    assert at_fork == [1]



def _tick(k):
    frame = TactileFrame(0, k, np.arange(256, dtype=np.uint16).reshape(16, 16) + k)
    samples = [TimedSample("tactile/0", k, frame), TimedSample("joints", k, JointState([0.01 * k, -0.02], k))]
    return SyncedTuple(k, {s.stream_id: s for s in samples})


def _record(k) -> bytes:
    buf = io.BytesIO()
    _write_record(buf, _tick(k))
    return buf.getvalue()


def _through_pipe(records: bytes, count: int) -> list:
    """The encoded tuples that _received reads, count times over, from a pipe that holds records
    and then ends; None where it reads None."""
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as pipe:
        pipe.write(records)
    with open(read_end, "rb") as pipe:
        r = _FileReader(pipe, "pipe")
        back = [_received(r, f"record {i}") for i in range(count)]
    return [None if tup is None else _encode_tuple(tup) for tup in back]


def test_pipe_records_read_back_equal():
    tuples = [_encode_tuple(_tick(k)) for k in range(3)]
    assert _through_pipe(b"".join(_record(k) for k in range(3)), 4) == tuples + [None]


def test_a_pipe_record_length_allocates_only_what_arrives():
    """A length of 64 MiB followed by 100 bytes and the pipe's end: the buffer grows with the bytes."""
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as pipe:
        pipe.write(struct.pack("<I", 64 << 20) + bytes(100))
    tracemalloc.start()
    try:
        with open(read_end, "rb") as pipe:
            assert _received(_FileReader(pipe, "pipe"), "record 0") is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_pipe_record_with_a_flipped_byte_reads_as_none():
    """fuse runs that tick itself; the records after it still read back."""
    flipped = bytearray(_record(1))
    flipped[len(flipped) // 2] ^= 0x01  # a byte of the readings
    back = _through_pipe(_record(0) + flipped + _record(2), 3)
    assert back == [_encode_tuple(_tick(0)), None, _encode_tuple(_tick(2))]


@pytest.mark.parametrize("kept", [1, 4, 5, 100, -1])
def test_pipe_that_ends_within_a_record_reads_as_none(kept):
    """The pipe holds one whole record, then the first kept bytes of the next (-1: all but its last)."""
    assert _through_pipe(_record(0) + _record(1)[:kept], 2) == [_encode_tuple(_tick(0)), None]
