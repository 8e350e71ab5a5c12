"""Alternating pairs of benchmark runs: a git revision against the working tree.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --against REV --workload ingest_noisy --pairs 10 \
        [--first-seed 1] [--scratch DIR]

The script exports REV with `git archive` into a scratch directory (removed at
the end), then runs
`perfbench/run.py` of that tree and of the working tree, each on its own
source, for N pairs of seeds `first-seed`, `first-seed + 1`, ..., each run
as long as BENCHMARK.json's `run_seconds`. Each pair runs both trees on the
same seed, one after the other; an even seed runs REV first
and an odd seed the working tree first. It prints each pair's metrics, each
side's median and quartiles, how many pairs the working tree won by each
metric's direction in BENCHMARK.json, the pairs in which either tree had a
failed operation or an INCORRECT result (they stay in the medians and the win
counts), and two more things that `run.py` prints: each run's median raw
ticks/s, the rate before any scaling by the reference task, and the
reference-task times. Neither `perfbench/` nor `BENCHMARK.json` is changed.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_LINE = "reference task s (nominal "
RAW_RATE_LINE = "ticks/s per round, raw "


def resolve(rev: str) -> str:
    """The commit that rev names; one error line and exit 2 when it names none."""
    found = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"], cwd=ROOT,
                           capture_output=True, text=True)
    if found.returncode != 0:
        print(f"error: --against {rev!r} names no commit", file=sys.stderr)
        raise SystemExit(2)
    return found.stdout.strip()


def export(commit: str, scratch: Path) -> Path:
    """The tree of commit, written under scratch by git archive; nothing is left when that fails."""
    tree = Path(tempfile.mkdtemp(prefix=f"rev-{commit[:12]}-", dir=scratch))
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    except BaseException:
        shutil.rmtree(tree)
        raise
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result of one run.py run of tree, as parse gives it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse(proc.stdout)


def parse(stdout: str) -> dict:
    """The result on run.py's last line, with the per-round raw ticks/s and the reference-task times it printed."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = [ast.literal_eval(line[len(RAW_RATE_LINE):]) for line in lines if line.startswith(RAW_RATE_LINE)]
    reference = [ast.literal_eval(line.split(") ", 1)[1]) for line in lines if line.startswith(REFERENCE_LINE)]
    return {"correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw_ticks_per_s": raw[0] if raw else [], "reference_s": reference[0] if reference else []}


def raw_rate(run: dict) -> float:
    """The median of a run's per-round raw ticks/s."""
    return statistics.median(run["raw_ticks_per_s"])


def spread(values: list) -> str:
    if len(values) < 2:
        return f"value {values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:.4g}, quartiles {q1:.4g}-{q3:.4g} (distance {q3 - q1:.4g})"


def checks(pair: dict, sep: str = " ") -> str:
    """Each side's failed operations of the pair, and whether its result was INCORRECT."""
    return sep.join(f"{side} {pair[side]['failed']}/{pair[side]['attempted']} failed"
                    f"{'' if pair[side]['correct'] else ', INCORRECT'}" for side in ("parent", "change"))


def report_pair(pair: dict, seed: int, order: tuple) -> None:
    values = "; ".join(f"{k} {pair['parent']['metrics'][k]:.4g} -> {pair['change']['metrics'][k]:.4g}"
                       for k in pair["parent"]["metrics"])
    if all(pair[side]["raw_ticks_per_s"] for side in pair):
        values += f"; raw ticks/s {raw_rate(pair['parent']):.4g} -> {raw_rate(pair['change']):.4g}"
    print(f"seed {seed} ({order[0]} first): {values} [{checks(pair)}]", flush=True)
    for side in ("parent", "change"):
        times = pair[side]["reference_s"]
        if times:
            print(f"  {side} reference task s: median {statistics.median(times):.3f}, "
                  f"{min(times):.3f}-{max(times):.3f} over {len(times)} readings")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--scratch", type=Path, default=None, help="where to export the revision")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    commit = resolve(args.against)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    scratch = args.scratch or Path(tempfile.gettempdir())
    scratch.mkdir(parents=True, exist_ok=True)
    trees = {"parent": export(commit, scratch), "change": ROOT}
    print(f"{args.workload}: {args.against} (parent) against the working tree (change), "
          f"{args.pairs} pairs of {spec['run_seconds']:g} s runs")
    pairs = {}
    try:
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            pairs[seed] = {side: run(trees[side], args.workload, seed, spec["run_seconds"]) for side in order}
            report_pair(pairs[seed], seed, order)
    finally:
        shutil.rmtree(trees["parent"])
    summarize(pairs, better)
    return 0


def summarize(pairs: dict, better: dict) -> None:
    """Print the summary of pairs, seed -> {"parent": run, "change": run} as run gives them, with
    better the direction, "higher" or "lower", of each metric."""
    print("summary:")
    runs = list(pairs.values())
    for metric in runs[0]["parent"]["metrics"]:
        sides = {side: [p[side]["metrics"][metric] for p in runs] for side in ("parent", "change")}
        sign = 1 if better.get(metric) == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        print(f"  {metric}: parent {spread(sides['parent'])}; change {spread(sides['change'])}; "
              f"change better in {wins} of {len(runs)} pairs ({better.get(metric, '?')} is better)")
    if all(p[side]["raw_ticks_per_s"] for p in runs for side in p):
        sides = {side: [raw_rate(p[side]) for p in runs] for side in ("parent", "change")}
        wins = sum(c > p for p, c in zip(sides["parent"], sides["change"]))
        print(f"  raw ticks/s, each run's median round: parent {spread(sides['parent'])}; "
              f"change {spread(sides['change'])}; change higher in {wins} of {len(runs)} pairs")
    failed = [seed for seed, p in pairs.items() if any(p[side]["failed"] or not p[side]["correct"] for side in p)]
    print(f"  pairs with a failed operation or an INCORRECT result, kept above: {len(failed)} of {len(runs)}")
    for seed in failed:
        print(f"    seed {seed}: {checks(pairs[seed], '; ')}")
    reference = {side: [s for p in runs for s in p[side]["reference_s"]] for side in ("parent", "change")}
    for side, times in reference.items():
        if times:
            print(f"  reference task s, {side}: {spread(times)}, range {min(times):.3f}-{max(times):.3f}")


if __name__ == "__main__":
    sys.exit(main())
