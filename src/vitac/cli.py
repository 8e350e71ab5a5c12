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
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, frame_codec, jsonio
from .errors import InvalidInputError, VitacError, check_range, check_time
from .frame_codec import StreamDecoder
from .frozen import owned
from .kinematics import load_chain_file, read_joint_lines, tactile_point_cloud
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
from .se3 import quat_geodesic_angle
from .sensor_model import PadCalibration, TaxelResponseModel, fit_response
from .sim_oracle import MAX_OBJECT_POINTS, GroundTruth, SceneSpec, render_episode, sample_object_cloud
from .stream_sync import (
    DEFAULT_RATE_HZ,
    DEFAULT_TOLERANCE_US,
    JOINTS_STREAM,
    TACTILE_PREFIX,
    Episode,
    SampleColumns,
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
    """pad_id -> PadCalibration of the --calib files, at most one file per pad."""
    calibs, sources = {}, {}
    for path in paths or []:
        calib = PadCalibration.load(_require_file(path))
        if calib.pad_id in calibs:
            raise InvalidInputError(f"{path}: pad {calib.pad_id} is also calibrated by {sources[calib.pad_id]}")
        calibs[calib.pad_id], sources[calib.pad_id] = calib, path
    return calibs


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
    with open(_require_file(args.infile), "rb") as fin, open(args.out, "wb") as fout:
        for chunk in iter(lambda: fin.read(65536), b""):
            fout.write(frame_codec.frame_lines(decoder.feed(chunk)))
    return {"out": args.out, **decoder.diagnostics.to_dict()}


def _read_tactile_jsonl(path) -> dict:
    """stream_id -> samples from a decode-format jsonl file, in the order the pads first appear."""
    frames = frame_codec.read_frame_lines(path)
    by_pad = np.argsort(frames.pad_ids, kind="stable")  # each pad's frames in line order
    pads = frames.pad_ids[by_pad]
    groups = np.split(by_pad, np.flatnonzero(pads[1:] != pads[:-1]) + 1) if len(frames) else []
    streams = {}
    for rows in sorted(groups, key=lambda rows: rows[0]):
        sid = tactile_stream(frames.pad_ids.item(rows[0]))
        streams[sid] = SampleColumns(sid, owned(frames.timestamps[rows]), frames, rows)
    return streams


def _read_cloud_dir(path) -> dict:
    """PLY files named {cam}_{timestamp_us}.ply (or {timestamp_us}.ply for cam 0): cam in ASCII
    digits, timestamp_us a time in ASCII digits after an optional "-", no two naming one camera
    and time."""
    streams, names = {}, {}
    for ply in sorted(Path(path).glob("*.ply")):
        stem = ply.stem
        if "_" in stem:
            cam_s, ts_s = stem.split("_", 1)
        else:
            cam_s, ts_s = "0", stem
        if not all(s.isascii() and s.isdigit() for s in (cam_s, ts_s.removeprefix("-"))):
            raise InvalidInputError(f"{ply.name}: cloud files must be named <cam>_<timestamp_us>.ply")
        cam, ts = int(cam_s), check_time(f"{ply.name}: timestamp_us", int(ts_s))
        if (cam, ts) in names:
            raise InvalidInputError(f"{ply.name}: camera {cam} at {ts} us is also in {names[cam, ts]}")
        names[cam, ts] = ply.name
        sid = camera_stream(cam)
        streams.setdefault(sid, []).append(TimedSample(sid, ts, read_cloud_ply(ply)))
    return streams


def _read_joints_jsonl(path) -> dict:
    joints = read_joint_lines(path)
    return {JOINTS_STREAM: SampleColumns(JOINTS_STREAM, joints.timestamps, joints, np.arange(len(joints)))}


def cmd_sync(args) -> dict:
    check_range("--tol-ms", args.tol_ms, 0, 2**63 / 1000, "ms")  # 2**63 us spans every int64 .vtep tick
    streams, sources = {}, {}
    for path in args.tactile or []:
        for sid, samples in _read_tactile_jsonl(_require_file(path)).items():
            if sid in streams:
                raise InvalidInputError(f"{path}: stream {sid} is also in {sources[sid]}")
            streams[sid], sources[sid] = samples, path
    if args.cloud:
        clouds = _read_cloud_dir(_require_dir(args.cloud))
        streams.update({sid: SampleColumns.of(sid, samples) for sid, samples in clouds.items()})
    if args.joints:
        streams.update(_read_joints_jsonl(_require_file(args.joints)))
    if not streams:
        raise InvalidInputError("no input streams given")
    streams = {sid: samples.sorted() for sid, samples in streams.items()}
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


def cmd_track(args) -> dict:
    episode = read_episode(_require_file(args.episode), keep=(TACTILE_PREFIX, JOINTS_STREAM))
    obj_cloud = read_cloud_ply(_require_file(args.object))
    chain, mounts = load_chain_file(_require_file(args.chain))
    calibs = _load_calibrations(args.calib)
    config = jsonio.read_json(_require_file(args.config), TrackerConfig.from_dict) if args.config else TrackerConfig()
    tracker = Tracker(ObjectModel(obj_cloud.xyz), config, _seed(args))

    def step(tup: SyncedTuple) -> dict:
        cloud = _tactile_cloud(tup, chain, mounts, calibs)
        report = tracker.step(ContactSet.from_tactile_cloud(cloud, config.activation_threshold))
        pose, diag = tracker.estimate()
        return {
            "t_us": tup.tick_time_us,
            "pose": pose.to_dict(),
            "ess": report.ess,
            "n_contacts": report.n_contacts,
            "resampled": report.resampled,
            "min_g": report.min_g,
            "translation_cov_trace": diag.translation_cov_trace,
            "rotation_spread_rad": diag.rotation_spread_rad,
        }

    steps = [step(tup) for tup in episode.tuples]  # all of them before the file opens, so a failure writes nothing
    n_steps = jsonio.write_jsonl(args.out, steps)
    return {"out": args.out, "steps": n_steps, "particles": config.particle_count}


def cmd_eval(args) -> dict:
    # a poses line holds t_us and pose as a truth line does, so both files have one reader
    estimates = dict(GroundTruth.load_jsonl(_require_file(args.poses)).poses())
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
    try:
        return jsonio.fields_to(episode_stats(episode))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{args.episode}: {exc}") from None


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
    log.setLevel(level.upper())
    handler = logging.StreamHandler(sys.stderr)  # the stderr of this call, which a caller may have redirected
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    log.addHandler(handler)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except OSError as exc:  # a path that cannot be opened: missing, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VitacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.debug("%s took %.3f s", args.command, time.perf_counter() - start)
        log.removeHandler(handler)
    _print_report(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
