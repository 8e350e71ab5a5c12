"""Spans around the calls into each `vitac` module, installed from outside.

`Tracer.install()` replaces, by attribute assignment, the functions that
`vitac.cli` imports (and its `cmd_*` commands), `StreamDecoder.feed`,
`Tracker.step`, `ObjectModel` construction, `sensor_model.normalize_frame`
and the `pose_tracker` functions that `update` looks up at call time. No
file of the program changes. Spans (name, start, end, parent) stay in
memory until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

POSE_TRACKER_STAGES = ("predict", "particle_distances", "scale_weights", "resample_systematic", "estimate")


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


# counters taken at a span's boundary: span name -> (args, result) -> {counter: amount}
COUNTERS = {
    "cli.cmd_decode": lambda args, result: {
        "frame_codec.frames": result["frames"],
        "frame_codec.crc_mismatches": result["crc_mismatches"],
        "frame_codec.bytes_skipped": result["bytes_skipped"],
    },
    "stream_sync.read_episode": lambda args, result: {"stream_sync.read_mb": _file_mb(args[0])},
    "stream_sync.write_episode": lambda args, result: {"stream_sync.write_mb": _file_mb(args[1])},
    "pointcloud.fps_downsample": lambda args, result: {"pointcloud.fps_points_in": len(args[0])},
    "pose_tracker.particle_distances": lambda args, result: {
        "pose_tracker.nn_queries": len(args[0]) * len(args[1])
    },
    "pose_tracker.resample_systematic": lambda args, result: {"pose_tracker.resamples": 1},
}

# per-layer metric -> the spans whose busy time it sums
BUSY = {
    "frame_codec.feed_s": ("frame_codec.StreamDecoder.feed",),
    "stream_sync.align_s": ("stream_sync.align",),
    "stream_sync.write_s": ("stream_sync.write_episode",),
    "stream_sync.read_s": ("stream_sync.read_episode",),
    "sensor_model.normalize_s": ("sensor_model.normalize_frame",),
    "kinematics.tactile_cloud_s": ("kinematics.tactile_point_cloud",),
    "pointcloud.fps_s": ("pointcloud.fps_downsample",),
    "pointcloud.crop_merge_fuse_s": ("pointcloud.crop_aabb", "pointcloud.merge", "pointcloud.fuse"),
    "pointcloud.ply_read_s": ("pointcloud.read_cloud_ply",),
    "pose_tracker.step_s": ("pose_tracker.Tracker.step",),
    "pose_tracker.likelihood_s": ("pose_tracker.particle_distances",),
    "pose_tracker.predict_s": ("pose_tracker.predict",),
    "pose_tracker.resample_s": ("pose_tracker.resample_systematic",),
    "pose_tracker.estimate_s": ("pose_tracker.estimate",),
    "pose_tracker.model_build_s": ("pose_tracker.ObjectModel",),
}
COUNTS = ("frame_codec.frames", "frame_codec.crc_mismatches", "frame_codec.bytes_skipped",
          "stream_sync.read_mb", "stream_sync.write_mb", "pointcloud.fps_points_in",
          "pose_tracker.nn_queries", "pose_tracker.resamples")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    counts[key] += amount
            return result

        return functools.update_wrapper(traced, fn, updated=())

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span the benchmark itself opens."""
        return self.wrap(name, fn)(*args)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = inspect.getattr_static(owner, attr)
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrapped = self.wrap(name, fn)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(original, staticmethod) else wrapped)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        import vitac.cli as cli
        import vitac.pose_tracker as pt
        import vitac.sensor_model as sm

        for attr, obj in list(vars(cli).items()):
            if not inspect.isfunction(obj) or attr in ("main", "build_parser") or attr.startswith("_"):
                continue
            if obj.__module__.startswith("vitac."):
                self._patch(cli, attr, f"{obj.__module__.split('.', 1)[1]}.{attr}")
        self._patch(cli.StreamDecoder, "feed", "frame_codec.StreamDecoder.feed")
        self._patch(cli.Tracker, "step", "pose_tracker.Tracker.step")
        self._patch(cli.ContactSet, "from_tactile_cloud", "pose_tracker.ContactSet.from_tactile_cloud")
        self._patch(cli, "ObjectModel", "pose_tracker.ObjectModel")
        self._patch(sm, "normalize_frame", "sensor_model.normalize_frame")
        for attr in POSE_TRACKER_STAGES:
            self._patch(pt, attr, f"pose_tracker.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> dict:
        """Span name -> total self time: duration less the time of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer busy seconds and counts, each per round of the workload."""
        busy = defaultdict(float)
        for name, start, end, _ in self.spans:
            busy[name] += end - start
        metrics = {m: sum(busy[s] for s in spans) / rounds for m, spans in BUSY.items()}
        metrics.update({c: self.counts[c] / rounds for c in COUNTS})
        own = self.self_times()
        metrics["cli.self_s"] = sum(v for k, v in own.items() if k.startswith("cli.cmd_")) / rounds
        return metrics

    def layer_self_times(self) -> dict:
        """Module -> self time over the run, the benchmark's own spans excluded."""
        out = defaultdict(float)
        for name, seconds in self.self_times().items():
            if not name.startswith("bench."):
                out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def overhead_s(self, calls: int = 20000) -> float:
        """Estimated tracing cost of the recorded spans, from timing a traced no-op."""
        def noop():
            return None

        probe = Tracer()
        traced = probe.wrap("noop", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(5):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                traced()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
            probe.spans.clear()
        return min(costs) * len(self.spans)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent}) + "\n")
