"""Command line entry point: calibrate / decode / sync / fuse / simulate / track / eval.

Every subcommand is a thin composition of library operations; no numeric
logic lives here. Exit codes: 0 success, 1 domain error, 2 usage error.
Randomized commands are reproducible given --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, jsonio
from .errors import InvalidInputError, VitacError, check_range
from .frame_codec import StreamDecoder
from .kinematics import JointState, load_chain_file, tactile_point_cloud
from .pointcloud import (
    AABB,
    BASE_FRAME,
    CloudXYZF,
    crop_aabb,
    fps_downsample,
    fuse,
    merge,
    read_cloud_ply,
    write_cloud_ply,
)
from .pose_tracker import ContactSet, ObjectModel, Tracker, TrackerConfig
from .se3 import MAX_LENGTH_M, PoseSE3, quat_geodesic_angle
from .sensor_model import PadCalibration, TactileFrame, TaxelResponseModel, fit_response
from .sim_oracle import MAX_OBJECT_POINTS, GroundTruth, SceneSpec, render_episode, sample_object_cloud
from .stream_sync import (
    DEFAULT_RATE_HZ,
    DEFAULT_TOLERANCE_US,
    JOINTS_STREAM,
    TACTILE_PREFIX,
    Episode,
    SyncedTuple,
    TimedSample,
    align,
    camera_stream,
    episode_stats,
    map_ticks,
    read_episode,
    tactile_stream,
    write_episode,
)

log = logging.getLogger("vitac")
LOG_LEVELS = ("debug", "info", "warning", "error")

DEFAULT_SEED = 0


def _seed(args) -> int:
    """--seed if given, else DEFAULT_SEED; simulate instead falls back to the scene's seed."""
    return DEFAULT_SEED if args.seed is None else check_range("--seed", args.seed, 0)


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    return p


def _require_dir(path: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise FileNotFoundError(f"no such directory: {path}")
    return p


def _load_calibrations(paths) -> dict:
    calibs = [PadCalibration.load(_require_file(path)) for path in paths or []]
    return {c.pad_id: c for c in calibs}


def _tactile_cloud(tup: SyncedTuple, chain, mounts, calibs: dict) -> CloudXYZF:
    """The tuple's tactile frames, normalized by their pad calibrations, placed at their taxels."""
    from .sensor_model import normalize_frame

    joints = tup.joint_state()
    if joints is None:
        raise InvalidInputError("episode has no joint stream; cannot place tactile points")
    frames = {
        pad_id: normalize_frame(calibs.get(pad_id) or PadCalibration(pad_id=pad_id), frame)
        for pad_id, frame in tup.tactile_frames().items()
    }
    return tactile_point_cloud(frames, chain, joints, mounts)


def cmd_calibrate(args) -> dict:
    samples = []
    try:
        with open(_require_file(args.samples), encoding="utf-8") as fh:
            for row in csv.reader(fh):
                try:
                    samples.append((float(row[0]), float(row[1])))
                except (IndexError, ValueError):
                    continue  # header, comment or short line
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field over csv's size limit
        raise InvalidInputError(f"{args.samples}: {exc}") from None
    result = fit_response(samples, f_min=args.f_min, f_sat=args.f_sat, r_max=args.r_max)
    calib = PadCalibration(pad_id=args.pad_id, model=result.model)
    calib.save(args.out)
    return {
        "out": args.out,
        "pad_id": args.pad_id,
        "a": result.model.a,
        "b": result.model.b,
        "r_squared": result.r_squared,
        "samples_used": result.n_used,
    }


def cmd_decode(args) -> dict:
    decoder = StreamDecoder()
    with open(_require_file(args.infile), "rb") as fin:
        frames = (
            {
                "pad_id": frame.pad_id,
                "seq": frame.seq,
                "timestamp_us": frame.timestamp_us,
                "readings": frame.readings.tolist(),
            }
            for chunk in iter(lambda: fin.read(65536), b"")
            for frame in decoder.feed(chunk)
        )
        n = jsonio.write_jsonl(args.out, frames)
    report = {"out": args.out, "frames": n}
    report.update(decoder.diagnostics.to_dict())
    return report


def _read_tactile_jsonl(path) -> dict:
    """stream_id -> samples from a decode-format jsonl file."""
    streams = {}

    def parse(d):
        return TactileFrame(d["pad_id"], d["timestamp_us"], np.asarray(d["readings"]))

    for frame in jsonio.read_jsonl(path, parse):
        sid = tactile_stream(frame.pad_id)
        streams.setdefault(sid, []).append(TimedSample(sid, frame.timestamp_us, frame))
    return streams


def _read_cloud_dir(path) -> dict:
    """PLY files named {cam}_{timestamp_us}.ply (or {timestamp_us}.ply for cam 0)."""
    streams = {}
    for ply in sorted(Path(path).glob("*.ply")):
        stem = ply.stem
        if "_" in stem:
            cam_s, ts_s = stem.split("_", 1)
        else:
            cam_s, ts_s = "0", stem
        try:
            cam_id, ts = int(cam_s), int(ts_s)
        except ValueError:
            raise InvalidInputError(
                f"{ply.name}: cloud files must be named <cam>_<timestamp_us>.ply"
            )
        sid = camera_stream(cam_id)
        streams.setdefault(sid, []).append(TimedSample(sid, ts, read_cloud_ply(ply)))
    return streams


def _read_joints_jsonl(path) -> dict:
    def parse(d):
        ts = int(d["timestamp_us"])
        return TimedSample(JOINTS_STREAM, ts, JointState(np.asarray(d["positions"]), ts))

    return {JOINTS_STREAM: jsonio.read_jsonl(path, parse)}


def cmd_sync(args) -> dict:
    check_range("--tol-ms", args.tol_ms, 0, 2**63 / 1000, "ms")  # 2**63 us spans every int64 .vtep tick
    streams = {}
    for path in args.tactile or []:
        streams.update(_read_tactile_jsonl(_require_file(path)))
    if args.cloud:
        streams.update(_read_cloud_dir(_require_dir(args.cloud)))
    if args.joints:
        streams.update(_read_joints_jsonl(_require_file(args.joints)))
    if not streams:
        raise InvalidInputError("no input streams given")
    for samples in streams.values():
        samples.sort(key=lambda s: s.timestamp_us)
    tolerance_us = int(args.tol_ms * 1000)
    tuples, report = align(streams, rate_hz=args.rate, tolerance_us=tolerance_us)
    episode = Episode(
        rate_hz=args.rate,
        tolerance_us=tolerance_us,
        streams=sorted(streams),
        tuples=tuples,
        metadata={"drop_report": report.to_metadata()},
    )
    write_episode(episode, args.out)
    return {
        "out": args.out,
        "streams": sorted(streams),
        "ticks_total": report.ticks_total,
        "tuples": len(tuples),
        "dropped": len(report.dropped),
        "drops_by_stream": report.per_stream,
    }


def cmd_simulate(args) -> dict:
    check_range("--object-points", args.object_points, 1, MAX_OBJECT_POINTS)
    scene = SceneSpec.load(_require_file(args.scene))
    if args.seed is not None and args.seed != scene.seed:
        scene = replace(scene, seed=_seed(args))
    episode, truth = render_episode(scene, rate_hz=args.rate, duration_s=args.dur)
    write_episode(episode, args.out)
    report = {"out": args.out, "tuples": len(episode.tuples), "seed": scene.seed}
    if args.truth:
        truth.save_jsonl(args.truth)
        report["truth"] = args.truth
    if args.object_out:
        pts = sample_object_cloud(scene.obj, args.object_points, scene.seed)
        write_cloud_ply(CloudXYZF.from_xyz(pts, "object"), args.object_out)
        report["object_out"] = args.object_out
    return report


def cmd_fuse(args) -> dict:
    check_range("--nvis", args.nvis, 1)
    episode = read_episode(_require_file(args.episode))
    chain, mounts = load_chain_file(_require_file(args.chain))
    box = jsonio.read_json(_require_file(args.box), AABB.from_dict)
    calibs = _load_calibrations(args.calib)

    def fuse_tick(tup: SyncedTuple) -> SyncedTuple:
        clouds = [c for _, c in sorted(tup.clouds().items())]
        visual = crop_aabb(merge(clouds) if clouds else CloudXYZF.empty(BASE_FRAME), box)
        if len(visual):
            visual = fps_downsample(visual, args.nvis, seed=_seed(args))
        fused = fuse(visual, _tactile_cloud(tup, chain, mounts, calibs))
        return SyncedTuple(tup.tick_time_us, {"fused": TimedSample("fused", tup.tick_time_us, fused)})

    out_tuples = map_ticks(fuse_tick, episode.tuples)
    out = Episode(
        rate_hz=episode.rate_hz,
        tolerance_us=episode.tolerance_us,
        streams=["fused"],
        tuples=out_tuples,
        metadata={"n_vis": args.nvis, "source_episode": str(args.episode)},
    )
    write_episode(out, args.out)
    n_last = len(out_tuples[-1].members["fused"].payload) if out_tuples else 0
    return {"out": args.out, "tuples": len(out_tuples), "last_fused_points": n_last}


def _tracker_setup(doc: dict) -> tuple:
    """TrackerConfig and the Tracker prior arguments from a tracker config document."""
    prior = doc.get("prior", {})
    if not isinstance(prior, dict):
        raise TypeError(f"prior must be a JSON object, got {type(prior).__name__}")
    center = PoseSE3.from_dict(prior["center"]) if "center" in prior else PoseSE3.identity()
    extent = check_range("translation_half_extent", float(prior.get("translation_half_extent", 0.03)),
                         0, MAX_LENGTH_M, "m")
    angle = check_range("rotation_half_angle_deg", float(prior.get("rotation_half_angle_deg", 20.0)),
                        0, 180, "degrees")
    return TrackerConfig.from_dict(doc), {
        "prior_center": center,
        "translation_half_extent": extent,
        "rotation_half_angle": float(np.deg2rad(angle)),
    }


def cmd_track(args) -> dict:
    episode = read_episode(_require_file(args.episode), keep=(TACTILE_PREFIX, JOINTS_STREAM))
    obj_cloud = read_cloud_ply(_require_file(args.object))
    chain, mounts = load_chain_file(_require_file(args.chain))
    calibs = _load_calibrations(args.calib)
    if args.config:
        config, prior = jsonio.read_json(_require_file(args.config), _tracker_setup)
    else:
        config, prior = _tracker_setup({})
    tracker = Tracker(obj=ObjectModel(obj_cloud.xyz), config=config, seed=_seed(args), **prior)

    def steps():
        for tup in episode.tuples:
            cloud = _tactile_cloud(tup, chain, mounts, calibs)
            report = tracker.step(ContactSet.from_tactile_cloud(cloud, config.activation_threshold))
            pose, diag = tracker.estimate()
            yield {
                "t_us": tup.tick_time_us,
                "pose": pose.to_dict(),
                "ess": report.ess,
                "n_contacts": report.n_contacts,
                "resampled": report.resampled,
                "min_g": report.min_g,
                "translation_cov_trace": diag.translation_cov_trace,
                "rotation_spread_rad": diag.rotation_spread_rad,
            }

    n_steps = jsonio.write_jsonl(args.out, steps())
    return {"out": args.out, "steps": n_steps, "particles": config.particle_count}


def _read_poses_jsonl(path) -> dict:
    return dict(jsonio.read_jsonl(path, lambda d: (int(d["t_us"]), PoseSE3.from_dict(d["pose"]))))


def cmd_eval(args) -> dict:
    estimates = _read_poses_jsonl(_require_file(args.poses))
    truth = GroundTruth.load_jsonl(_require_file(args.truth))
    trans_sq = []
    rot_deg = []
    last = None
    for t_us, true_pose in truth.poses():
        est = estimates.get(t_us)
        if est is None:
            continue
        err_t = float(np.linalg.norm(est.t - true_pose.t))
        err_r = float(np.rad2deg(quat_geodesic_angle(est.q, true_pose.q)))
        trans_sq.append(err_t**2)
        rot_deg.append(err_r)
        last = (err_t, err_r)
    if not trans_sq:
        raise InvalidInputError("no matching timestamps between poses and truth")
    return {
        "matched_ticks": len(trans_sq),
        "translation_rmse_m": float(np.sqrt(np.mean(trans_sq))),
        "rotation_geodesic_deg_mean": float(np.mean(rot_deg)),
        "final_translation_error_m": last[0],
        "final_rotation_error_deg": last[1],
    }


def cmd_stats(args) -> dict:
    episode = read_episode(_require_file(args.episode), keep=())
    stats = episode_stats(episode)
    return {
        "duration_s": stats.duration_s,
        "tuples": stats.tuple_count,
        "expected_ticks": stats.expected_ticks,
        "dropped_ticks": stats.dropped_ticks,
        "drop_rate": stats.drop_rate,
        "max_skew_us": stats.max_skew_us,
        "drops_by_stream": stats.drops_by_stream,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vitac", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vitac {__version__}")
    parser.add_argument(
        "--seed", type=int, help="rng seed (default 0; simulate defaults to the scene's seed)"
    )
    parser.add_argument("--log-level", type=str.lower, choices=LOG_LEVELS, default="warning")
    parser.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a response model from force,reading CSV samples")
    p.add_argument("--samples", required=True, help="CSV with force_newton,reading_counts rows")
    p.add_argument("--out", required=True, help="calibration JSON to write")
    p.add_argument("--pad-id", type=int, default=0)
    p.add_argument("--f-min", type=float, default=TaxelResponseModel.f_min)
    p.add_argument("--f-sat", type=float, default=TaxelResponseModel.f_sat)
    p.add_argument("--r-max", type=int, default=TaxelResponseModel.r_max)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("decode", help="decode a raw capture into frames.jsonl")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sync", help="align streams into a fixed-rate episode")
    p.add_argument("--tactile", action="append", help="frames.jsonl (repeatable)")
    p.add_argument("--cloud", help="directory of <cam>_<timestamp_us>.ply files")
    p.add_argument("--joints", help="joints.jsonl with timestamp_us and positions")
    p.add_argument("--rate", type=float, default=DEFAULT_RATE_HZ)
    p.add_argument("--tol-ms", type=float, default=DEFAULT_TOLERANCE_US / 1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("simulate", help="render a synthetic episode with ground truth")
    p.add_argument("--scene", required=True, help="scene JSON")
    p.add_argument("--rate", type=float, default=DEFAULT_RATE_HZ)
    p.add_argument("--dur", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="ground-truth jsonl to write")
    p.add_argument("--object-out", help="write the sampled object model as PLY")
    p.add_argument("--object-points", type=int, default=2048)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="build fused visuo-tactile clouds from an episode")
    p.add_argument("--episode", required=True)
    p.add_argument("--chain", required=True, help="chain + mounts JSON")
    p.add_argument("--box", required=True, help="crop box JSON {min, max}")
    p.add_argument("--nvis", type=int, default=512)
    p.add_argument("--calib", action="append", help="pad calibration JSON (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("track", help="tactile-only pose tracking over an episode")
    p.add_argument("--episode", required=True)
    p.add_argument("--object", required=True, help="object model PLY")
    p.add_argument("--chain", required=True, help="chain + mounts JSON")
    p.add_argument("--config", help="tracker config JSON")
    p.add_argument("--calib", action="append", help="pad calibration JSON (repeatable)")
    p.add_argument("--out", required=True, help="poses.jsonl to write")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="compare tracked poses against ground truth")
    p.add_argument("--poses", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="summarize an episode file")
    p.add_argument("--episode", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = os.environ.get("VITAC_LOG", args.log_level).lower()
    if level not in LOG_LEVELS:
        parser.error(f"VITAC_LOG: invalid choice: {level!r} (choose from {', '.join(map(repr, LOG_LEVELS))})")
    logging.basicConfig(level=level.upper())
    try:
        report = args.func(args)
    except OSError as exc:  # a path that cannot be opened: missing, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VitacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
