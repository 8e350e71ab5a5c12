"""The benchmark's three workloads: inputs, `vitac` commands and output checks.

Each workload writes its inputs from the seed, then lists the commands of
one round. A check reads a command's output with the reference code and
returns the problems it found; an empty list means the output is right.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
import inputs

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    """One `vitac` command of a round, the ticks it carries, and its check."""

    name: str
    argv: list
    ticks: int
    outputs: list
    check: Callable[[dict], tuple]  # report -> (problems, facts)


@dataclass
class Workload:
    ops: list
    probe_marker: str  # the call that handles a command's first tick
    probe_argv: list
    accuracy: Callable[[list], dict] = field(default=lambda facts: {})
    # Whether ticks_per_s is scaled to the reference speed (see speed.py). The
    # KD-tree queries of track_grasp do not follow the reference task: scaled,
    # their run-to-run spread was three times the raw one.
    scaled_rate: bool = True


# ---------------------------------------------------------------- ingest_noisy

def expected_episode(cap: dict) -> dict:
    """Brute-force nearest-within-tolerance alignment over the known timestamps."""
    streams = {f"tactile/{p}": np.flatnonzero(cap["pad_ids"] == p) for p in range(inputs.PADS)}
    stamps = {sid: cap["stamps"][idx] for sid, idx in streams.items()}
    stamps["joints"] = cap["joint_ts"]
    period = round(1e6 / inputs.SYNC_RATE_HZ)
    start = max(int(ts[0]) for ts in stamps.values())
    end = min(int(ts[-1]) for ts in stamps.values())
    grid = np.arange(-(-start // period) * period, end + 1, period)
    present = np.ones(len(grid), dtype=bool)
    nearest = {}
    for sid, ts in stamps.items():
        pick = np.empty(len(grid), dtype=np.int64)
        for lo in range(0, len(grid), 32):  # small blocks keep the check from raising peak RSS
            d = np.abs(ts[None, :] - grid[lo : lo + 32, None])
            pick[lo : lo + 32] = np.argmin(d, axis=1)  # first minimum: earlier sample wins a tie
        present &= np.abs(ts[pick] - grid) <= inputs.SYNC_TOL_US
        nearest[sid] = pick
    ticks = []
    for i in np.flatnonzero(present):
        members = {}
        for sid, pick in nearest.items():
            j = int(pick[i])
            if sid == "joints":
                members[sid] = (int(stamps[sid][j]), cap["joint_positions"][j])
            else:
                members[sid] = (int(stamps[sid][j]), cap["readings"][streams[sid][j]])
        ticks.append((int(grid[i]), members))
    return {"period": period, "ticks": ticks}


def check_decode(path, cap: dict, report: dict) -> list:
    n = len(cap["seqs"])
    if report.get("frames") != n:
        return [f"decode reported {report.get('frames')} frames, expected {n}"]
    if report.get("bytes_skipped") != cap["raw_len"] - n * ref.FRAME_LEN:
        return [f"decode skipped {report.get('bytes_skipped')} bytes"]
    if report.get("crc_mismatches", 0) < cap["n_corrupt"]:
        return [f"decode saw {report.get('crc_mismatches')} CRC mismatches, expected >= {cap['n_corrupt']}"]
    with open(path) as fh:  # line by line: the check must not raise the process's peak RSS
        for i, (text, _) in enumerate(zip_longest(fh, range(n))):
            if text is None or i >= n:
                return [f"decode wrote {'fewer' if text is None else 'more'} than {n} frames"]
            row = json.loads(text)
            got = (row["pad_id"], row["seq"], row["timestamp_us"])
            want = (int(cap["pad_ids"][i]), int(cap["seqs"][i]), int(cap["stamps"][i]))
            if got != want or not np.array_equal(np.asarray(row["readings"]), cap["readings"][i]):
                return [f"decoded frame {i} differs from the frame that was sent"]
    return []


def check_sync(path, exp: dict, report: dict) -> list:
    if report.get("tuples") != len(exp["ticks"]):
        return [f"sync reported {report.get('tuples')} tuples, expected {len(exp['ticks'])}"]
    for i, (got, want) in enumerate(zip_longest(ref.iter_episode(path), exp["ticks"])):
        if got is None or want is None:
            return [f"episode has {'fewer' if got is None else 'more'} than {len(exp['ticks'])} ticks"]
        if got[0] != want[0] or set(got[1]) != set(want[1]):
            return [f"tick {i}: got t={got[0]} {sorted(got[1])}, expected t={want[0]} {sorted(want[1])}"]
        for sid, (ts, value) in want[1].items():
            got_ts, payload = got[1][sid]
            if got_ts != ts or not np.array_equal(payload[-1], value):
                return [f"tick {i}: member {sid} differs from the nearest sample"]
    return []


def check_stats(exp: dict, report: dict) -> list:
    ticks = [t for t, _ in exp["ticks"]]
    span = ticks[-1] - ticks[0]
    expected = span // exp["period"] + 1
    want = {
        "duration_s": span / 1e6,
        "tuples": len(ticks),
        "expected_ticks": expected,
        "dropped_ticks": expected - len(ticks),
        "drop_rate": (expected - len(ticks)) / expected,
        "max_skew_us": max(abs(ts - t) for t, members in exp["ticks"] for ts, _ in members.values()),
    }
    return [f"stats {k}={report.get(k)!r}, expected {v!r}" for k, v in want.items() if report.get(k) != v]


def ingest_noisy(workdir: Path, seed: int, quick: bool) -> Workload:
    write_inputs(workdir, "ingest_noisy", seed, quick)
    with np.load(workdir / "sent.npz") as sent:
        cap = dict(sent)
    cap["raw_len"] = (workdir / "raw.bin").stat().st_size
    exp = expected_episode(cap)
    raw, frames, joints, episode = (str(workdir / f) for f in ("raw.bin", "frames.jsonl", "joints.jsonl", "ingest.vtep"))
    sync_argv = ["sync", "--tactile", frames, "--joints", joints, "--rate", str(inputs.SYNC_RATE_HZ),
                 "--tol-ms", str(inputs.SYNC_TOL_US / 1000), "--out", episode]
    ops = [
        Op("decode", ["decode", "--in", raw, "--out", frames], 0, [frames],
           lambda report: (check_decode(frames, cap, report), None)),
        Op("sync", sync_argv, len(exp["ticks"]), [episode],
           lambda report: (check_sync(episode, exp, report), None)),
        Op("stats", ["stats", "--episode", episode], 0, [],
           lambda report: (check_stats(exp, report), None)),
    ]
    return Workload(ops, "feed", ["decode", "--in", raw, "--out", str(workdir / "probe.jsonl")])


# ------------------------------------------------------------------ fuse_dense

N_VIS = 512


def check_fuse(source, fused, chain_path, box: dict, greedy_tick: int) -> list:
    """Counts, one-hot flags, tactile values, visual rows and (on one tick) FPS picks."""
    pads = [m["pad_id"] for m in json.loads(Path(chain_path).read_text())["mounts"]]
    lo, hi = np.asarray(box["min"]), np.asarray(box["max"])
    for k, (src, out) in enumerate(zip_longest(ref.iter_episode(source), ref.iter_episode(fused))):
        if src is None or out is None:
            return [f"fused episode has {'more' if src is None else 'fewer'} ticks than its source"]
        tick, members = src
        if out[0] != tick or list(out[1]) != ["fused"]:
            return [f"tick {k}: fused record is t={out[0]} {list(out[1])}, expected t={tick} ['fused']"]
        rows = out[1]["fused"][1][1]
        clouds = sorted((int(sid.split("/")[1]), p[1]) for sid, (_, p) in members.items() if sid.startswith("camera/"))
        cloud = np.concatenate([c for _, c in clouds])
        cropped = cloud[np.all((cloud[:, :3] >= lo) & (cloud[:, :3] <= hi), axis=1), :3]
        nv = min(N_VIS, len(cropped))
        if len(rows) != nv + 256 * len(pads):
            return [f"tick {k}: {len(rows)} fused points, expected {nv} visual + {256 * len(pads)} tactile"]
        visual, tactile = rows[:nv], rows[nv:]
        if not (np.all(visual[:, 3:] == [0.0, 1.0, 0.0]) and np.all(tactile[:, 4:] == [0.0, 1.0])):
            return [f"tick {k}: wrong one-hot flags or a nonzero visual value"]
        raw = np.concatenate([members[f"tactile/{p}"][1][2].ravel() for p in pads])
        if not np.array_equal(tactile[:, 3], np.clip(raw / ref.R_MAX, 0.0, 1.0)):
            return [f"tick {k}: tactile values differ from clip(raw / 1023, 0, 1)"]
        index = {row.tobytes(): i for i, row in reversed(list(enumerate(cropped)))}
        picks = np.array([index.get(row.tobytes(), -1) for row in np.ascontiguousarray(visual[:, :3])])
        if np.any(picks < 0) or len(set(picks.tolist())) != nv:
            return [f"tick {k}: visual points are not distinct rows of the cropped input"]
        if k == greedy_tick and (bad := ref.fps_greedy_violation(cropped, picks)) is not None:
            return [f"tick {k}: FPS pick {bad} is not the farthest remaining point"]
    return []


def fuse_dense(workdir: Path, seed: int, quick: bool) -> Workload:
    write_inputs(workdir, "fuse_dense", seed, quick)
    rng = np.random.default_rng([seed, 4])
    fps_seed = int(rng.integers(2**31))
    n_ticks = inputs.RATE_HZ * inputs.sizes(quick)["fuse_duration_s"]
    greedy_tick = int(rng.integers(n_ticks))
    source, chain, box, fused = (str(workdir / f) for f in ("dense.vtep", "chain.json", "box.json", "fused.vtep"))
    argv = ["--seed", str(fps_seed), "fuse", "--episode", source, "--chain", chain, "--box", box,
            "--nvis", str(N_VIS), "--out"]
    op = Op("fuse", argv + [fused], n_ticks, [fused],
            lambda report: (check_fuse(source, fused, chain, inputs.CROP_BOX, greedy_tick), None))
    return Workload([op], "merge", argv + [str(workdir / "probe.vtep")])


# ----------------------------------------------------------------- track_grasp

STATIC_FINAL_MM = 5.0
STATIC_FINAL_DEG = 5.0
ROTATING_LAG_DEG = 10.0
LAG_TICKS = 10


def true_pose(kind: str, t_us: int):
    """Ground truth from the scene definition: at rest, or spinning about z."""
    angle = inputs.SPIN_DEG_PER_S * t_us / 1e6 if kind == "rotating" else 0.0
    return ref.quat_about_z(angle), [0.0, 0.0, 0.0]


def check_track(path, kind: str, n_ticks: int) -> tuple:
    """Criterion-6 bounds on one tracked episode; facts are per-tick errors (mm, deg)."""
    period = round(1e6 / inputs.RATE_HZ)
    poses = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    times = [p["t_us"] for p in poses]
    if times != [k * period for k in range(n_ticks)]:
        return [f"{kind}: poses at {len(times)} ticks do not match the {n_ticks} episode ticks"], None
    err_mm, err_deg = [], []
    for p in poses:
        q, t = true_pose(kind, p["t_us"])
        err_mm.append(1e3 * float(np.linalg.norm(np.subtract(p["pose"]["t"], t))))
        err_deg.append(ref.geodesic_deg(p["pose"]["q"], q))
    problems = []
    if kind == "static" and not (err_mm[-1] < STATIC_FINAL_MM and err_deg[-1] < STATIC_FINAL_DEG):
        problems.append(f"static: final error {err_mm[-1]:.2f} mm, {err_deg[-1]:.2f} deg")
    lag = float(np.mean(err_deg[-LAG_TICKS:]))
    if kind == "rotating" and not lag < ROTATING_LAG_DEG:
        problems.append(f"rotating: lag {lag:.2f} deg over the last {LAG_TICKS} ticks")
    return problems, (err_mm, err_deg)


def track_accuracy(facts: list) -> dict:
    """Translation RMSE (mm) and mean rotation error (deg) over every tracked tick."""
    mm = np.concatenate([f[0] for f in facts]) if facts else np.array([np.nan])
    deg = np.concatenate([f[1] for f in facts]) if facts else np.array([np.nan])
    return {"pose_tracker.err_mm": float(np.sqrt(np.mean(mm**2))), "pose_tracker.err_deg": float(np.mean(deg))}


def track_grasp(workdir: Path, seed: int, quick: bool) -> Workload:
    write_inputs(workdir, "track_grasp", seed, quick)
    seeds = np.random.default_rng([seed, 3]).integers(2**31, size=2)
    n_ticks = inputs.RATE_HZ * inputs.DURATION_S

    def argv(kind, tracker_seed, out):
        return ["--seed", str(tracker_seed), "track", "--episode", str(workdir / f"{kind}.vtep"),
                "--object", str(workdir / "object.ply"), "--chain", str(workdir / "chain.json"),
                "--config", str(workdir / f"{kind}.tracker.json"), "--out", str(out)]

    ops = []
    for kind, tracker_seed in zip(("static", "rotating"), seeds):
        out = workdir / f"{kind}.poses.jsonl"
        ops.append(Op(kind, argv(kind, tracker_seed, out), n_ticks, [str(out)],
                      lambda report, out=out, kind=kind: check_track(out, kind, n_ticks)))
    return Workload(ops, "step", argv("static", seeds[0], workdir / "probe.jsonl"), track_accuracy,
                    scaled_rate=False)


def write_inputs(workdir: Path, workload: str, seed: int, quick: bool) -> None:
    src = HERE.parent / "src"
    cmd = [sys.executable, str(HERE / "inputs.py"), str(src), str(workdir), workload, str(seed)]
    subprocess.run(cmd + (["--quick"] if quick else []), check=True, timeout=600)


WORKLOADS = {"ingest_noisy": ingest_noisy, "fuse_dense": fuse_dense, "track_grasp": track_grasp}
