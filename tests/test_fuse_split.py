"""fuse on two processes: the serial bytes, the serial first error, and no process left behind.

With two CPUs and at least 3 ticks, fuse runs tick 0, forks one worker, and then runs ticks
1, 3, 5, ... itself while the worker runs ticks 2, 4, 6, ...
"""

import hashlib
import json
import os
import signal
import threading

import pytest

import vitac.cli
from test_cli import write_scene
from vitac.cli import main
from vitac.kinematics import save_chain_file
from vitac.stream_sync import Episode, SyncedTuple, TimedSample, read_episode, write_episode


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
    """The first n ticks of the episode, with tactile/0 renamed tactile/bad<k> in each tick k of bad."""
    ep = read_episode(inputs / "ep.vtep")
    assert len(ep.tuples) == 10
    tuples = []
    for k, tup in enumerate(ep.tuples[:n]):
        members = dict(tup.members)
        if k in bad:
            sid = f"tactile/bad{k}"
            members[sid] = TimedSample(sid, tup.tick_time_us, members.pop("tactile/0").payload)
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


# the ticks whose tactile/0 is renamed: tick 0 fails before the fork, and of the others the
# even ones are the worker's
@pytest.mark.parametrize("bad", [(0,), (1,), (2,), (1, 2), (2, 3), (4, 7)])
def test_first_bad_tick_gives_the_serial_error(tmp_path, monkeypatch, capfd, inputs, bad):
    episode = _episode(inputs, tmp_path, 10, bad)
    code, err, _ = _fuse(monkeypatch, capfd, inputs, episode, tmp_path / "serial.vtep", cpus=1)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert f"tactile/bad{bad[0]}" in err
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
