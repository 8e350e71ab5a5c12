"""The benchmark's own tests: quick end-to-end runs, and each check failing on a wrong output.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run as bench  # noqa: E402
import workloads as W  # noqa: E402
from vitac.cli import main as vitac  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_of(*args, cwd=ROOT) -> tuple:
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, last, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_end_to_end(workload, trace):
    code, last, log = result_of("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick")
    assert code == 0, log
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, log
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:  # the largest layer is the one the workload was chosen for
        busy = {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith("_s") and k not in ("cli.import_s", "pose_tracker.step_s")}
        largest = {"track_grasp": {"pose_tracker.likelihood_s"}, "fuse_dense": {"pointcloud.fps_s"},
                   "ingest_noisy": {"frame_codec.feed_s", "cli.self_s"}}[workload]
        assert max(busy, key=busy.get) in largest, busy


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, last, _ = result_of("--workload", "ingest_noisy", "--seed", "1", "--seconds", "1", "--trace", "0",
                              cwd=tmp_path)
    assert code != 0 and not last.startswith("{")


# ---------------------------------------------------------------- the checks


def run_ops(workload) -> dict:
    reports = {}
    for op in workload.ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert vitac(["--json", *op.argv]) == 0
        reports[op.name] = json.loads(out.getvalue())
        assert op.check(reports[op.name])[0] == [], op.name
    return reports


def rewrite_episode(path: Path, edit) -> None:
    """Apply edit to the list of record payloads and write the file back with fresh CRCs."""
    data = path.read_bytes()
    (n,) = struct.unpack_from("<I", data, 6)
    header = json.loads(data[10 : 10 + n])
    records, pos = [], 10 + n
    while pos < len(data):
        (size,) = struct.unpack_from("<I", data, pos)
        records.append(data[pos + 4 : pos + 4 + size])
        pos += size + 8
    records = edit(records)
    header["tuple_count"] = len(records)
    head = json.dumps(header).encode()
    body = b"".join(struct.pack("<I", len(r)) + r + struct.pack("<I", zlib.crc32(r)) for r in records)
    path.write_bytes(data[:6] + struct.pack("<I", len(head)) + head + body)


def edit_fused(record: bytes, edit) -> bytes:
    """Apply edit to the (N, 6) points of a fused record whose only member is 'fused'."""
    (frame_len,) = struct.unpack_from("<H", record, 26)
    start = 32 + frame_len
    points = np.frombuffer(record[start:], dtype="<f8").reshape(-1, 6).copy()
    edit(points)
    return record[:start] + points.tobytes()


@pytest.fixture
def ingest(tmp_path):
    workload = W.ingest_noisy(tmp_path, 4, quick=True)
    return workload, run_ops(workload)


def check(workload, name, report):
    op = next(op for op in workload.ops if op.name == name)
    return op.check(report)[0]


def test_decode_check_catches_a_flipped_reading(ingest):
    workload, reports = ingest
    path = Path(workload.ops[0].outputs[0])
    lines = path.read_text().splitlines()
    row = json.loads(lines[7])
    row["readings"][3][5] ^= 1
    lines[7] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    assert check(workload, "decode", reports["decode"]) == ["decoded frame 7 differs from the frame that was sent"]


def test_sync_check_catches_a_dropped_tick(ingest):
    workload, reports = ingest
    rewrite_episode(Path(workload.ops[1].outputs[0]), lambda records: records[:5] + records[6:])
    assert check(workload, "sync", dict(reports["sync"])) != []
    assert check(workload, "sync", dict(reports["sync"], tuples=reports["sync"]["tuples"] - 1)) != []


def test_stats_check_catches_a_wrong_count(ingest):
    workload, reports = ingest
    assert check(workload, "stats", dict(reports["stats"], dropped_ticks=reports["stats"]["dropped_ticks"] + 1))


@pytest.fixture
def fused(tmp_path):
    workload = W.fuse_dense(tmp_path, 6, quick=True)
    report = run_ops(workload)["fuse"]
    return workload.ops[0], Path(workload.ops[0].outputs[0]), report


def test_fuse_check_catches_a_flipped_reading(fused):
    op, path, report = fused

    def flip(points):
        points[-7, 3] = 1.0 - points[-7, 3]

    rewrite_episode(path, lambda records: [records[0], edit_fused(records[1], flip), *records[2:]])
    assert op.check(report)[0] == ["tick 1: tactile values differ from clip(raw / 1023, 0, 1)"]


def test_fuse_check_catches_a_dropped_tick(fused):
    op, path, report = fused
    rewrite_episode(path, lambda records: records[:3] + records[4:])
    assert op.check(report)[0] != []


def test_fuse_check_catches_a_moved_visual_point(fused):
    op, path, report = fused

    def move(points):
        points[10, 0] += 1e-3

    rewrite_episode(path, lambda records: [edit_fused(records[0], move), *records[1:]])
    assert op.check(report)[0] == ["tick 0: visual points are not distinct rows of the cropped input"]


def test_fuse_check_catches_a_wrong_farthest_point_pick(fused):
    op, path, report = fused

    def swap(points):
        points[[1, 2]] = points[[2, 1]]

    rewrite_episode(path, lambda records: [edit_fused(r, swap) for r in records])
    (problem,) = op.check(report)[0]
    assert "FPS pick 1 is not the farthest remaining point" in problem


def write_poses(path: Path, kind: str, offset_last_mm=0.0, drop=None) -> None:
    """Poses equal to the ground truth, with the last one moved or one tick left out."""
    n = inputs.RATE_HZ * inputs.DURATION_S
    with open(path, "w") as fh:
        for k in range(n):
            if k == drop:
                continue
            q, t = W.true_pose(kind, k * 100_000)
            if k == n - 1:
                t = [t[0] + offset_last_mm * 1e-3, t[1], t[2]]
            fh.write(json.dumps({"t_us": k * 100_000, "pose": {"q": q, "t": t}}) + "\n")


@pytest.mark.parametrize("kind", ["static", "rotating"])
def test_track_check_accepts_the_ground_truth(tmp_path, kind):
    write_poses(tmp_path / "poses.jsonl", kind)
    problems, (err_mm, err_deg) = W.check_track(tmp_path / "poses.jsonl", kind, 50)
    assert problems == [] and max(err_mm) == 0.0 and max(err_deg) < 1e-6


def test_track_check_catches_a_pose_offset_by_10_mm(tmp_path):
    write_poses(tmp_path / "poses.jsonl", "static", offset_last_mm=10.0)
    problems, _ = W.check_track(tmp_path / "poses.jsonl", "static", 50)
    assert problems == ["static: final error 10.00 mm, 0.00 deg"]


@pytest.mark.parametrize("kind", ["static", "rotating"])
def test_track_check_catches_a_dropped_tick(tmp_path, kind):
    write_poses(tmp_path / "poses.jsonl", kind, drop=20)
    problems, _ = W.check_track(tmp_path / "poses.jsonl", kind, 50)
    assert problems == [f"{kind}: poses at 49 ticks do not match the 50 episode ticks"]


def test_track_check_catches_rotation_lag(tmp_path):
    path = tmp_path / "poses.jsonl"
    write_poses(path, "rotating")
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows[-10:]:  # report the pose of 1.2 s earlier: 12 degrees behind
        row["pose"]["q"] = W.true_pose("rotating", row["t_us"] - 1_200_000)[0]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    (problem,) = W.check_track(path, "rotating", 50)[0]
    assert problem.startswith("rotating: lag 12.00 deg")
