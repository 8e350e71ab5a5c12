"""Benchmark of the `vitac` command line: one workload per run, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_noisy|fuse_dense|track_grasp \
        --seed N --seconds S --trace 0|1 [--quick]

The run writes its inputs from the seed, then repeats whole rounds of the
workload's commands through `vitac.cli.main` in this process, each command
waiting for the one before it, until S seconds have passed. Every output is
checked by reference code that does not import `vitac`. Between commands,
fresh `vitac` processes are timed up to their first tick (`setup_s`).
`--trace 1` wraps each module's public functions and reports per-layer
metrics instead of the end-to-end ones. The last line of stdout is the
JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
sys.path.insert(0, str(HERE))

from speed import NOMINAL_S, SpeedReference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBES = 8  # set-up samples aimed for per run, spread evenly over its length
PROBES_PER_GAP = 2  # at most this many back to back between two commands
MIN_PROBES = 4
LONG_COMMAND_S = 5.0  # the reference task also runs between the commands of a round when one is this long

END_TO_END = {"setup_s": "s", "ticks_per_s": "ticks/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "frame_codec.feed_s": "s", "frame_codec.frames": "count", "frame_codec.crc_mismatches": "count",
    "frame_codec.bytes_skipped": "count",
    "stream_sync.align_s": "s", "stream_sync.write_s": "s", "stream_sync.write_mb": "MB",
    "stream_sync.read_s": "s", "stream_sync.read_mb": "MB",
    "sensor_model.normalize_s": "s", "kinematics.tactile_cloud_s": "s",
    "pointcloud.fps_s": "s", "pointcloud.fps_points_in": "count", "pointcloud.crop_merge_fuse_s": "s",
    "pointcloud.ply_read_s": "s",
    "pose_tracker.step_s": "s", "pose_tracker.likelihood_s": "s", "pose_tracker.predict_s": "s",
    "pose_tracker.resample_s": "s", "pose_tracker.estimate_s": "s", "pose_tracker.nn_queries": "count",
    "pose_tracker.resamples": "count", "pose_tracker.model_build_s": "s",
    "pose_tracker.err_mm": "mm", "pose_tracker.err_deg": "deg",
    "cli.self_s": "s", "cli.import_s": "s", "trace.overhead_pct": "%",
}

clock = time.perf_counter


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def sample_setup(workload, workdir: Path) -> tuple:
    """(seconds from spawn to first tick, seconds of `import vitac.cli`) of one fresh process."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), workload.probe_marker, *workload.probe_argv]
    t0 = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=workdir)
    try:
        line = proc.stdout.readline()
        elapsed = clock() - t0
        proc.wait(timeout=120)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up probe exited with {proc.returncode} before its first tick")
    return elapsed, float(line)


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, quick: bool, workdir: Path):
        self.name, self.seconds, self.workdir = name, seconds, workdir
        self.workload = WORKLOADS[name](workdir, seed, quick)
        self.tracer = Tracer() if trace else None
        self.checked = {}  # (command, output digest, report) -> (problems, facts)
        self.attempted = self.failed = 0
        self.problems = []
        self.facts = []
        self.imports = []
        # ("speed", s) | ("op", round, s, ticks) | ("setup", s), in the order they happened
        self.events = []

    def command(self, op, vitac) -> tuple:
        """Run one command and check its output: (seconds it took, True when both succeed)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                argv = ["--json", *op.argv]
                code = self.tracer.span(f"bench.{op.name}", vitac, argv) if self.tracer else vitac(argv)
        except Exception:
            code = None
            traceback.print_exc()
        seconds = clock() - t0
        if code != 0:
            print(f"{op.name}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
            self.failed += 1
            return seconds, False
        key = (op.name, digest(op.outputs), out.getvalue())
        if key not in self.checked:
            try:
                self.checked[key] = op.check(json.loads(out.getvalue()))
            except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
                self.checked[key] = ([f"{op.name}: unreadable output: {exc!r}"], None)
        problems, facts = self.checked[key]
        if facts is not None:
            self.facts.append(facts)
        if problems:
            self.problems.extend(problems)
            self.failed += 1
            return seconds, False
        return seconds, True

    def probe(self) -> None:
        elapsed, import_s = sample_setup(self.workload, self.workdir)
        self.events.append(("setup", elapsed))
        self.imports.append(import_s)

    def execute(self) -> None:
        from vitac.cli import main as vitac

        speed = SpeedReference()
        if self.tracer:
            self.tracer.install()
        targets = [self.seconds * (i + 0.5) / PROBES for i in range(PROBES)]
        probes = 0
        start = clock()
        self.events.append(("speed", speed.measure()))
        rounds = 0
        while rounds == 0 or clock() - start < self.seconds:
            for i, op in enumerate(self.workload.ops):
                seconds, ok = self.command(op, vitac)
                self.events.append(("op", rounds, seconds, op.ticks if ok else 0))
                due = min(sum(1 for t in targets if t <= clock() - start) - probes, PROBES_PER_GAP)
                for _ in range(due):
                    self.probe()
                probes += max(due, 0)
                if due > 0 or i == len(self.workload.ops) - 1 or seconds > LONG_COMMAND_S:
                    self.events.append(("speed", speed.measure()))
            rounds += 1
        extra = min(MIN_PROBES - probes, PROBES_PER_GAP)
        for _ in range(extra):
            self.probe()
        if extra > 0:
            self.events.append(("speed", speed.measure()))
        if self.tracer:
            self.tracer.uninstall()

    def scaled(self) -> tuple:
        """Per-round ticks/s and set-up seconds, raw and scaled to the reference speed.

        Each set-up sample, and each command where the workload scales its rate,
        is scaled by NOMINAL_S over the mean of the reference times measured
        just before and just after it.
        """
        marks = [i for i, e in enumerate(self.events) if e[0] == "speed"]
        rounds, setup = {}, {"raw": [], "scaled": []}
        for i, event in enumerate(self.events):
            if event[0] == "speed":
                continue
            before = max(m for m in marks if m < i)
            after = min(m for m in marks if m > i)
            factor = NOMINAL_S / ((self.events[before][1] + self.events[after][1]) / 2)
            if event[0] == "setup":
                setup["raw"].append(event[1])
                setup["scaled"].append(event[1] * factor)
            else:
                _, r, seconds, ticks = event
                raw, scaled, n = rounds.get(r, (0.0, 0.0, 0))
                factor = factor if self.workload.scaled_rate else 1.0
                rounds[r] = (raw + seconds, scaled + seconds * factor, n + ticks)
        rates = {"raw": [n / raw for raw, _, n in rounds.values()],
                 "scaled": [n / scaled for _, scaled, n in rounds.values()]}
        return rates, setup

    def metrics(self) -> dict:
        if not self.tracer:
            rates, setup = self.scaled()
            values = {
                "setup_s": statistics.median(setup["scaled"]),
                "ticks_per_s": statistics.median(rates["scaled"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        else:
            rounds = 1 + max(e[1] for e in self.events if e[0] == "op")
            busy = sum(e[2] for e in self.events if e[0] == "op")
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(self.tracer.layer_metrics(rounds))
            values.update(self.workload.accuracy(self.facts))
            values["cli.import_s"] = statistics.median(self.imports)
            values["trace.overhead_pct"] = 100 * self.tracer.overhead_s() / busy
            units = PER_LAYER
        return {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}

    def summary(self) -> str:
        rates, setup = self.scaled()
        speeds = [e[1] for e in self.events if e[0] == "speed"]
        lines = [
            f"{self.name}: {len(rates['raw'])} rounds, {self.attempted} commands, {self.failed} failed",
            f"ticks/s per round, raw {[round(r, 2) for r in rates['raw']]}",
            f"ticks/s per round, scaled {[round(r, 2) for r in rates['scaled']]}",
            f"set-up s, raw {[round(s, 3) for s in setup['raw']]}",
            f"set-up s, scaled {[round(s, 3) for s in setup['scaled']]}",
            f"reference task s (nominal {NOMINAL_S}) {[round(s, 3) for s in speeds]}",
        ]
        lines += [f"check failed: {p}" for p in self.problems[:5]]
        if self.facts:
            lines.append("accuracy: " + json.dumps(self.workload.accuracy(self.facts)))
        if self.tracer:
            own = self.tracer.layer_self_times()
            lines.append("self time per round by layer (s): " + json.dumps(
                {k: round(v / len(rates["raw"]), 4) for k, v in sorted(own.items(), key=lambda kv: -kv[1])}))
        return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import vitac.cli
    except ImportError as exc:
        print(f"perfbench: cannot import vitac from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(vitac.cli.__file__).resolve().parent != SRC / "vitac":
        print(f"perfbench: vitac was imported from {vitac.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = RUNS / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick, workdir)
        run.execute()
        result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
                  "metrics": run.metrics()}
        print(run.summary())
        if run.tracer:
            trace_dir = RUNS / "traces"
            trace_dir.mkdir(exist_ok=True)
            run.tracer.write(trace_dir / f"{args.workload}-s{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
