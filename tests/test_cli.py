import errno
import inspect
import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import vitac
from vitac import stream_sync
from vitac.cli import build_parser, main
from vitac.frame_codec import encode_frame
from vitac.kinematics import JointState, TaxelGrid, save_chain_file
from vitac.pointcloud import CloudXYZF, write_cloud_ply
from vitac.se3 import PoseSE3, matrix_to_quat
from vitac.sensor_model import PadCalibration, TactileFrame, TaxelResponseModel, fit_response
from vitac.sim_oracle import Primitive, SceneSpec
from vitac.stream_sync import JOINTS_STREAM, Episode, SyncedTuple, TimedSample, align, read_episode, write_episode

GRIP_ROT = np.array([[0.0, 0, -1], [0, 1, 0], [1, 0, 0]])


def write_scene(path, noise=0.0, seed=0, gap=0.077):
    scene = SceneSpec(
        obj=Primitive.box(0.04, 0.04, 0.08),
        object_trajectory=((0.0, PoseSE3.identity()),),
        aperture_trajectory=((0.0, gap),),
        gripper_pose=PoseSE3(matrix_to_quat(GRIP_ROT), np.zeros(3)),
        grid=TaxelGrid(16, 16, 3.0e-3),
        noise_sigma=noise,
        seed=seed,
        n_camera_points=256,
    )
    scene.save(path)
    return scene


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_calibrate(tmp_path, capsys):
    rng = np.random.default_rng(0)
    csv_path = tmp_path / "samples.csv"
    lines = ["force,reading"]
    for f in np.linspace(1.0, 9.0, 24):
        lines.append(f"{f},{120.0 * np.log(f) + 40.0 + rng.normal(0, 1.0)}")
    csv_path.write_text("\n".join(lines))
    out_path = tmp_path / "calib.json"
    report = run_json(capsys, ["calibrate", "--samples", str(csv_path), "--out", str(out_path), "--pad-id", "3"])
    assert report["a"] == pytest.approx(120.0, abs=2.0)
    assert report["b"] == pytest.approx(40.0, abs=3.0)
    assert report["r_squared"] > 0.99
    doc = json.loads(out_path.read_text())
    assert doc["pad_id"] == 3
    assert len(doc["gain"]) == 16


def test_decode_clean_and_corrupted(tmp_path, capsys):
    rng = np.random.default_rng(1)
    frames = [
        TactileFrame(0, 1000 * i, rng.integers(0, 1024, size=(16, 16))) for i in range(8)
    ]
    raw = b"".join(encode_frame(f, i) for i, f in enumerate(frames))
    bin_path = tmp_path / "raw.bin"
    bin_path.write_bytes(raw)
    out_path = tmp_path / "frames.jsonl"
    report = run_json(capsys, ["decode", "--in", str(bin_path), "--out", str(out_path)])
    assert report["frames"] == 8
    rows = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert [r["seq"] for r in rows] == list(range(8))
    assert np.array_equal(np.asarray(rows[0]["readings"]), frames[0].readings)
    # corrupted capture still exits 0 and reports diagnostics
    bad = bytearray(raw)
    bad[400] ^= 0xFF
    bin_path.write_bytes(bytes(bad))
    report = run_json(capsys, ["decode", "--in", str(bin_path), "--out", str(out_path)])
    assert report["frames"] >= 7
    assert report["crc_mismatches"] >= 1


def test_sync_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(2)
    tact_path = tmp_path / "frames.jsonl"
    with open(tact_path, "w") as fh:
        for i in range(10):
            jitter = int(rng.integers(-5000, 5000)) if 0 < i < 9 else 0
            frame = {
                "pad_id": 0,
                "seq": i,
                "timestamp_us": i * 100_000 + jitter,
                "readings": rng.integers(0, 1024, size=(16, 16)).tolist(),
            }
            fh.write(json.dumps(frame) + "\n")
    cloud_dir = tmp_path / "clouds"
    cloud_dir.mkdir()
    for i in range(10):
        cloud = CloudXYZF(np.column_stack([rng.normal(size=(5, 3)), np.zeros(5)]), "base")
        write_cloud_ply(cloud, cloud_dir / f"0_{i * 100_000}.ply")
    joints_path = tmp_path / "joints.jsonl"
    with open(joints_path, "w") as fh:
        for i in range(10):
            fh.write(json.dumps({"timestamp_us": i * 100_000, "positions": [0.01, -0.02]}) + "\n")
    out_path = tmp_path / "ep.vtep"
    report = run_json(
        capsys,
        [
            "sync",
            "--tactile", str(tact_path),
            "--cloud", str(cloud_dir),
            "--joints", str(joints_path),
            "--rate", "10",
            "--tol-ms", "50",
            "--out", str(out_path),
        ],
    )
    assert report["tuples"] == 10
    assert report["dropped"] == 0
    ep = read_episode(out_path)
    assert len(ep.tuples) == 10
    assert set(ep.streams) == {"tactile/0", "camera/0", "joints"}


def test_simulate_deterministic(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    write_scene(scene_path, noise=1.0, seed=13)
    a, b = tmp_path / "a.vtep", tmp_path / "b.vtep"
    for out in (a, b):
        run_json(
            capsys,
            ["--seed", "13", "simulate", "--scene", str(scene_path), "--rate", "10",
             "--dur", "1", "--out", str(out)],
        )
    assert a.read_bytes() == b.read_bytes()


def test_full_pipeline_simulate_fuse_track_eval(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene = write_scene(scene_path)
    ep_path = tmp_path / "ep.vtep"
    truth_path = tmp_path / "truth.jsonl"
    obj_path = tmp_path / "obj.ply"
    report = run_json(
        capsys,
        ["simulate", "--scene", str(scene_path), "--rate", "10", "--dur", "1",
         "--out", str(ep_path), "--truth", str(truth_path),
         "--object-out", str(obj_path), "--object-points", "512"],
    )
    assert report["tuples"] == 10

    chain_path = tmp_path / "chain.json"
    chain, mounts = scene.chain_and_mounts()
    save_chain_file(chain_path, chain, mounts)

    box_path = tmp_path / "box.json"
    box_path.write_text(json.dumps({"min": [-0.2, -0.2, -0.2], "max": [0.2, 0.2, 0.2]}))
    fused_path = tmp_path / "fused.vtep"
    report = run_json(
        capsys,
        ["fuse", "--episode", str(ep_path), "--chain", str(chain_path),
         "--box", str(box_path), "--nvis", "128", "--out", str(fused_path)],
    )
    assert report["tuples"] == 10
    fused_ep = read_episode(fused_path)
    fused = fused_ep.tuples[0].members["fused"].payload
    assert fused.n_visual == 128
    assert fused.n_tactile == 512

    cfg_path = tmp_path / "tracker.json"
    cfg_path.write_text(
        json.dumps(
            {
                "particle_count": 128,
                "prior": {
                    "center": PoseSE3.identity().to_dict(),
                    "translation_half_extent": 0.01,
                    "rotation_half_angle_deg": 5,
                },
            }
        )
    )
    poses_path = tmp_path / "poses.jsonl"
    report = run_json(
        capsys,
        ["--seed", "3", "track", "--episode", str(ep_path), "--object", str(obj_path),
         "--chain", str(chain_path), "--config", str(cfg_path), "--out", str(poses_path)],
    )
    assert report["steps"] == 10
    rows = [json.loads(l) for l in poses_path.read_text().splitlines()]
    assert all(r["n_contacts"] > 40 for r in rows)

    report = run_json(capsys, ["eval", "--poses", str(poses_path), "--truth", str(truth_path)])
    assert report["matched_ticks"] == 10
    assert report["translation_rmse_m"] < 0.03
    assert np.isfinite(report["rotation_geodesic_deg_mean"])

    report = run_json(capsys, ["stats", "--episode", str(ep_path)])
    assert report["tuples"] == 10
    assert report["dropped_ticks"] == 0


def test_track_tick_without_contacts_evaluates(tmp_path, capsys, monkeypatch):
    # the pads open 90 mm around the 80 mm box, so no tick has a contact
    monkeypatch.chdir(tmp_path)
    scene = write_scene("scene.json", gap=0.09)
    save_chain_file("chain.json", *scene.chain_and_mounts())
    Path("tracker.json").write_text(json.dumps({"particle_count": 16}))
    run_json(capsys, ["simulate", "--scene", "scene.json", "--dur", "0.3", "--out", "ep.vtep",
                      "--truth", "truth.jsonl", "--object-out", "obj.ply", "--object-points", "64"])
    run_json(capsys, ["track", "--episode", "ep.vtep", "--object", "obj.ply", "--chain", "chain.json",
                      "--config", "tracker.json", "--out", "poses.jsonl"])
    rows = [json.loads(line) for line in Path("poses.jsonl").read_text().splitlines()]
    assert [(r["n_contacts"], r["min_g"]) for r in rows] == [(0, None)] * 3
    report = run_json(capsys, ["eval", "--poses", "poses.jsonl", "--truth", "truth.jsonl"])
    assert report["matched_ticks"] == 3


def test_simulate_seed_defaults_to_scene(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    write_scene(scene_path, seed=5)
    base = ["simulate", "--scene", str(scene_path), "--dur", "0.2", "--out", str(tmp_path / "s.vtep")]
    assert run_json(capsys, base)["seed"] == 5
    assert run_json(capsys, ["--seed", "7"] + base)["seed"] == 7


@pytest.mark.parametrize("case", ["box-excludes-camera", "no-camera-stream"])
def test_fuse_without_visual_points(tmp_path, capsys, case):
    scene_path = tmp_path / "scene.json"
    scene = write_scene(scene_path)
    ep_path = tmp_path / "ep.vtep"
    run_json(capsys, ["simulate", "--scene", str(scene_path), "--dur", "0.3", "--out", str(ep_path)])
    if case == "box-excludes-camera":
        box = {"min": [0.5, 0.5, 0.5], "max": [0.6, 0.6, 0.6]}
    else:
        box = {"min": [-0.2, -0.2, -0.2], "max": [0.2, 0.2, 0.2]}
        ep = read_episode(ep_path)
        tuples = [
            SyncedTuple(t.tick_time_us, {k: v for k, v in t.members.items() if k != "camera/0"})
            for t in ep.tuples
        ]
        streams = [s for s in ep.streams if s != "camera/0"]
        write_episode(Episode(ep.rate_hz, ep.tolerance_us, streams, tuples), ep_path)
    box_path = tmp_path / "box.json"
    box_path.write_text(json.dumps(box))
    chain_path = tmp_path / "chain.json"
    save_chain_file(chain_path, *scene.chain_and_mounts())
    fused_path = tmp_path / "fused.vtep"
    report = run_json(
        capsys,
        ["fuse", "--episode", str(ep_path), "--chain", str(chain_path),
         "--box", str(box_path), "--out", str(fused_path)],
    )
    assert report["tuples"] == 3
    for tup in read_episode(fused_path).tuples:
        fused = tup.members["fused"].payload
        assert fused.n_visual == 0
        assert fused.n_tactile == 512


def test_sync_timestamp_beyond_episode_range_is_domain_error(tmp_path, capsys):
    joints_path = tmp_path / "joints.jsonl"
    joints_path.write_text(
        "".join(json.dumps({"timestamp_us": 2**63 + i * 100_000, "positions": [0.0]}) + "\n"
                for i in range(2))
    )
    code = main(["sync", "--joints", str(joints_path), "--out", str(tmp_path / "ep.vtep")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_READINGS = np.zeros((16, 16), dtype=int).tolist()
_FRAME = {"pad_id": 0, "seq": 0, "timestamp_us": 0, "readings": _READINGS}
_POSE = {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]}
# (input flag, bad line, text the error names); the file puts a good line and a blank
# one before the bad line, so the error must name line 3
BAD_JSON_LINES = {
    "joints-unclosed": ("--joints", '{"timestamp_us": 1, "positions": [0.0]', "not a JSON line"),
    "joints-no-positions": ("--joints", '{"timestamp_us": 1}', "'positions'"),
    "joints-timestamp-string": ("--joints", '{"timestamp_us": "x", "positions": [0.0]}', "'x'"),
    "tactile-no-readings": ("--tactile", '{"pad_id": 0, "timestamp_us": 5}', "'readings'"),
    "tactile-ragged": ("--tactile", json.dumps({**_FRAME, "readings": [[1, 2], [3]]}), ""),
    "tactile-65541": ("--tactile", json.dumps({**_FRAME, "readings": [[65541] * 16] * 16}),
                      "65535"),
    "tactile-pad-minus-2": ("--tactile", json.dumps({**_FRAME, "pad_id": -2}), "pad_id must lie in [0, 255], got -2"),
    "tactile-pad-256": ("--tactile", json.dumps({**_FRAME, "pad_id": 256}), "pad_id must lie in [0, 255], got 256"),
    "poses-no-pose": ("--poses", '{"t_us": 0}', "'pose'"),
    "poses-not-object": ("--poses", "[0, 1]", "expected a JSON object for GroundTruthTick, got list"),
    "poses-not-utf8": ("--poses", b'{"t_us": 0, "pose": "\xff"}', "utf-8"),
}
_GOOD_LINE = {
    "--joints": json.dumps({"timestamp_us": 0, "positions": [0.0]}),
    "--tactile": json.dumps(_FRAME),
    "--poses": json.dumps({"t_us": 0, "pose": _POSE}),
}


@pytest.mark.parametrize("kind", sorted(BAD_JSON_LINES))
def test_bad_json_line_is_one_error_line(tmp_path, capsys, kind):
    flag, line, names = BAD_JSON_LINES[kind]
    path = tmp_path / "in.jsonl"
    bad = line if isinstance(line, bytes) else line.encode()
    path.write_bytes(_GOOD_LINE[flag].encode() + b"\n\n" + bad + b"\n")
    if flag == "--poses":
        truth = tmp_path / "truth.jsonl"
        truth.write_text(json.dumps({"t_us": 0, "pose": _POSE}) + "\n")
        argv = ["eval", "--poses", str(path), "--truth", str(truth)]
    else:
        argv = ["sync", flag, str(path), "--out", str(tmp_path / "ep.vtep")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: ") and err.count("\n") == 1, err
    assert names in err


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    """flag -> a valid file for it: a short simulated episode and every file around it."""
    d = tmp_path_factory.mktemp("good")
    scene = write_scene(d / "scene.json")
    paths = {flag: d / name for flag, name in [
        ("--scene", "scene.json"), ("--episode", "ep.vtep"), ("--truth", "truth.jsonl"),
        ("--object", "obj.ply"), ("--chain", "chain.json"), ("--box", "box.json"),
        ("--config", "tracker.json"), ("--calib", "calib.json"), ("--poses", "poses.jsonl"),
        ("--joints", "joints.jsonl"), ("--tactile", "frames.jsonl"),
    ]}
    assert main(["simulate", "--scene", str(paths["--scene"]), "--dur", "0.2",
                 "--out", str(paths["--episode"]), "--truth", str(paths["--truth"]),
                 "--object-out", str(paths["--object"]), "--object-points", "64"]) == 0
    save_chain_file(paths["--chain"], *scene.chain_and_mounts())
    paths["--box"].write_text(json.dumps({"min": [-0.2] * 3, "max": [0.2] * 3}))
    paths["--config"].write_text(json.dumps({"particle_count": 16, "prior": {
        "center": _POSE, "translation_half_extent": 0.01, "rotation_half_angle_deg": 5.0}}))
    PadCalibration(pad_id=0).save(paths["--calib"])
    paths["--poses"].write_text(json.dumps({"t_us": 0, "pose": _POSE}) + "\n")
    paths["--joints"].write_text(_GOOD_LINE["--joints"] + "\n")
    paths["--tactile"].write_text(_GOOD_LINE["--tactile"] + "\n")
    return paths


# the command that reads each flag's file, every other file given valid
_READS = {
    "--scene": ["simulate", "--dur", "0.2", "--out", "{out}"],
    "--box": ["fuse", "--episode", "--chain", "--calib", "--out", "{out}"],
    "--chain": ["fuse", "--episode", "--box", "--out", "{out}"],
    "--calib": ["fuse", "--episode", "--chain", "--box", "--out", "{out}"],
    "--config": ["track", "--episode", "--object", "--chain", "--calib", "--out", "{out}"],
    "--object": ["track", "--episode", "--chain", "--out", "{out}"],
    "--truth": ["eval", "--poses"],
    "--poses": ["eval", "--truth"],
    "--joints": ["sync", "--out", "{out}"],
    "--tactile": ["sync", "--out", "{out}"],
}


def _argv(good, flag, path, out):
    words = []
    for word in _READS[flag]:
        words += [word, str(good[word])] if word in good else [word.format(out=out)]
    return words + [flag, str(path)]


_CENTER_NO_T = {"prior": {"center": {"q": [1.0, 0.0, 0.0, 0.0]}}}
_NAN_GAP_SCENE = {"object": {"kind": "box", "size": [0.04, 0.04, 0.08]},
                  "object_trajectory": [{"t": 0.0, "pose": _POSE}],
                  "aperture_trajectory": [{"t": 0.0, "gap": float("nan")}]}
_PITCH_SCENE = {**_NAN_GAP_SCENE, "aperture_trajectory": [{"t": 0.0, "gap": 0.077}],
                "grid": {"rows": 16, "cols": 16, "pitch": 1e300}}
_GRID_LIST_CHAIN = {"links": [{"joint": "fixed", "fixed": _POSE}],
                    "mounts": [{"pad_id": 0, "link": 0, "transform": _POSE, "grid": []}]}
_GRID_20_CHAIN = {**_GRID_LIST_CHAIN, "mounts": [{**_GRID_LIST_CHAIN["mounts"][0], "grid": {"rows": 20}}]}
_MOUNT = {**_GRID_LIST_CHAIN["mounts"][0], "grid": {}}


def _scene(obj: dict, **fields) -> str:
    """The pitch scene's JSON with a good gap, its object replaced, and fields set."""
    return json.dumps({**_PITCH_SCENE, "grid": {}, "object": obj, **fields})


def _calib(**fields) -> str:
    """A default calibration's JSON with fields set."""
    return json.dumps({**PadCalibration(pad_id=0).to_dict(), **fields})


# (input flag, bad file content, text the error names); truth is JSON lines, so its
# errors also name line 1
BAD_JSON_DOCS = {
    "box-no-max": ("--box", '{"min": [0, 0, 0]}', "missing key 'max'"),
    "box-unclosed": ("--box", '{"min": [0, 0, 0], "max": [1, 1, 1]', "not a JSON document"),
    "box-list": ("--box", "[[0, 0, 0], [1, 1, 1]]", "expected a JSON object"),
    "config-unclosed": ("--config", '{"particle_count": 16', "not a JSON document"),
    "config-count-many": ("--config", '{"particle_count": "many"}', "'many'"),
    "config-list": ("--config", "[16]", "expected a JSON object"),
    "config-center-no-t": ("--config", json.dumps(_CENTER_NO_T), "missing key 't'"),
    "config-extent-string": ("--config", '{"prior": {"translation_half_extent": "wide"}}',
                             "'wide'"),
    "config-infinity": ("--config", '{"prior": {"translation_half_extent": Infinity}}',
                        "number Infinity is not finite"),
    "config-nan": ("--config", '{"sigma_translation": NaN}', "number NaN is not finite"),
    "config-overflow": ("--config", '{"sigma_rotation": 1e400}', "number 1e400 is not finite"),
    "config-count-2-64": ("--config", '{"particle_count": 18446744073709551616}',
                          "particle_count must lie in [1, 2097152], got 18446744073709551616"),
    "config-sigma-rotation-1e300": ("--config", '{"sigma_rotation": 1e300}',
                                    "sigma_rotation must lie in [0, 3.14159] rad"),
    "config-sigma-translation-2m": ("--config", '{"sigma_translation": 2.0}',
                                    "sigma_translation must lie in [0, 1] m"),
    "config-extent-2m": ("--config", '{"prior": {"translation_half_extent": 2.0}}',
                         "translation_half_extent must lie in [0, 1] m, got 2.0"),
    "config-angle-1e300": ("--config", '{"prior": {"rotation_half_angle_deg": 1e300}}',
                           "rotation_half_angle_deg must lie in [0, 180] degrees, got 1e+300"),
    "config-prior-list": ("--config", '{"prior": []}', "prior must be a JSON object"),
    "config-temperature-1e-300": ("--config", '{"temperature": 1e-300}',
                                  "temperature must lie in [1e-12, 1000] m^2, got 1e-300"),
    "config-temperature-1e300": ("--config", '{"temperature": 1e300}',
                                 "temperature must lie in [1e-12, 1000] m^2, got 1e+300"),
    "config-extent-negative": ("--config", '{"prior": {"rotation_half_angle_deg": -5}}',
                               "rotation_half_angle_deg must lie in [0, 180] degrees, got -5.0"),
    "chain-link-no-fixed": ("--chain", '{"links": [{"joint": "fixed"}]}', "missing key 'fixed'"),
    "chain-link-one": ("--chain", json.dumps(
        {"links": [], "mounts": [{"pad_id": 0, "link": "one", "transform": _POSE}]}), "'one'"),
    "chain-unclosed": ("--chain", '{"links": [', "not a JSON document"),
    "chain-grid-list": ("--chain", json.dumps(_GRID_LIST_CHAIN), "expected a JSON object for TaxelGrid"),
    "scene-gap-nan": ("--scene", json.dumps(_NAN_GAP_SCENE), "number NaN is not finite"),
    "scene-no-object": ("--scene", '{"seed": 1}', "missing key 'object'"),
    "scene-pitch-1e300": ("--scene", json.dumps(_PITCH_SCENE), "pitch must lie in (0, 1] m, got 1e+300"),
    # a primitive's lengths lie in [1e-6, 1] m: past either end the face areas overflow or underflow
    "scene-box-1e300": ("--scene", _scene({"kind": "box", "size": [1e300, 1e300, 1e300]}),
                        "box size must lie in [1e-06, 1] m, got 1e+300"),
    "scene-box-1e-300": ("--scene", _scene({"kind": "box", "size": [0.04, 1e-300, 1e-300]}),
                         "box size must lie in [1e-06, 1] m, got 1e-300"),
    "scene-cylinder-1e300": ("--scene", _scene({"kind": "cylinder", "radius": 1e300, "height": 1e300}),
                             "cylinder radius must lie in [1e-06, 1] m, got 1e+300"),
    "scene-sphere-2m": ("--scene", _scene({"kind": "sphere", "radius": 2.0}),
                        "sphere radius must lie in [1e-06, 1] m, got 2.0"),
    "scene-gap-2m": ("--scene", _scene({"kind": "sphere", "radius": 0.05},
                                       aperture_trajectory=[{"t": 0.0, "gap": 2.0}]),
                     "aperture gap must lie in [0, 1] m, got 2.0"),
    # a sensor whose r_max passes a raw frame's uint16 range wrapped its readings around
    "scene-r-max-65536": ("--scene", _scene({"kind": "sphere", "radius": 0.05},
                                            sensor={"a": 100.0, "b": 70000.0, "r_max": 65536}),
                          "r_max must lie in [1, 65535] counts, got 65536"),
    "scene-grid-20-rows": ("--scene", _scene({"kind": "sphere", "radius": 0.05}, grid={"rows": 20}),
                           "grid must be the pad's 16 x 16, got 20 x 16"),
    "chain-grid-20-rows": ("--chain", json.dumps(_GRID_20_CHAIN), "grid must be the pad's 16 x 16, got 20 x 16"),
    "scene-unclosed": ("--scene", '{"object": {"kind": "sphere", "radius": 0.1}',
                       "not a JSON document"),
    "scene-box-two-sides": ("--scene", _scene({"kind": "box", "size": [0.04, 0.04]}),
                            "box needs three dimensions"),
    "scene-kind-wedge": ("--scene", _scene({"kind": "wedge", "size": [0.04] * 3}),
                         "unknown primitive kind 'wedge'"),
    "scene-no-aperture-keys": ("--scene", _scene({"kind": "sphere", "radius": 0.05}, aperture_trajectory=[]),
                               "trajectories must have at least one key"),
    "scene-keys-unsorted": ("--scene", _scene({"kind": "sphere", "radius": 0.05}, object_trajectory=[
        {"t": 1.0, "pose": _POSE}, {"t": 0.0, "pose": _POSE}]), "trajectory keys must be time-sorted"),
    # a pose translation lies within a kilometre of the origin, and a gain in (0, 1e6]: past them,
    # the sdf's squares and gain * (raw - offset) overflowed with only a warning
    "scene-t-1e300": ("--scene", _scene({"kind": "sphere", "radius": 0.05}, object_trajectory=[
        {"t": 0.0, "pose": {**_POSE, "t": [1e300, 0.0, 0.0]}}]),
                      "pose translation must lie in [-1000, 1000] m, got 1e+300"),
    "calib-gain-3.6e306": ("--calib", _calib(gain=[[3.6e306] * 16] * 16), "gain must lie in (0, 1e+06], got 3.6e+306"),
    "calib-offset-1e300": ("--calib", _calib(offset=[[-1e300] * 16] * 16),
                           "offset must lie in [-65535, 65535] counts, got -1e+300"),
    "calib-gain-shape": ("--calib", _calib(gain=[1.0] * 256), "gain/offset must be (16, 16)"),
    "calib-pad-256": ("--calib", _calib(pad_id=256), "pad_id must lie in [0, 255], got 256"),
    "calib-unclosed": ("--calib", '{"pad_id": 0', "not a JSON document"),
    "calib-no-gain": ("--calib", '{"pad_id": 0, "offset": [], "model": {"a": 1, "b": 0}}',
                      "missing key 'gain'"),
    "calib-model-no-a": ("--calib", json.dumps({**PadCalibration(pad_id=0).to_dict(), "model": {"b": 0}}),
                         "missing key 'a'"),
    "truth-unclosed": ("--truth", '{"t_us": 0, "pose": ', "not a JSON line"),
    "truth-no-pose": ("--truth", '{"t_us": 0}', "missing key 'pose'"),
    # a truth line's forces, when given, map pad ids to force grids
    **{f"truth-forces-{kind}": ("--truth", json.dumps({"t_us": 0, "pose": _POSE, "forces": value}),
                                f"forces must be a JSON object, got {kind}")
       for kind, value in (("list", [1, 2]), ("int", 7), ("str", "none"), ("NoneType", None))},
    # and each of its keys is the decimal text of a pad id, as GroundTruth.save_jsonl writes it
    **{f"truth-forces-key-{name}": ("--truth", json.dumps({"t_us": 0, "pose": _POSE, "forces": {key: [[1.0]]}}),
                                    f"forces keys must be pad ids in [0, 255] written in decimal, got {key!r}")
       for name, key in (("underscore", "1_0"), ("space", " 1"), ("x", "x"), ("256", "256"), ("leading-zero", "01"),
                         ("minus-1", "-1"), ("empty", ""))},
    # a mount holds a pad id, and a chain mounts each pad at most once
    "chain-mount-pad-256": ("--chain", json.dumps({**_GRID_LIST_CHAIN, "mounts": [{**_MOUNT, "pad_id": 256}]}),
                            "pad_id must lie in [0, 255], got 256"),
    "chain-pad-mounted-twice": ("--chain", json.dumps({**_GRID_LIST_CHAIN, "mounts": [_MOUNT, _MOUNT]}),
                                "pad 0 is mounted twice"),
    # a chain's links and mounts are arrays, and a missing mounts array means no mounts
    **{f"chain-{key}-{kind}": ("--chain", json.dumps({"links": [], key: value}),
                               f"{key} must be a JSON array, got {kind}")
       for key in ("links", "mounts")
       for kind, value in (("dict", {}), ("int", 5), ("str", "none"), ("NoneType", None))},
}
_PLY_HEAD = "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\nproperty double y\n"
BAD_PLY_FILES = {
    "ply-blank-header-line": ("--object", _PLY_HEAD + "\nproperty double z\nend_header\n0 0 0\n",
                              "blank header line"),
    "ply-vertex-many": ("--object", _PLY_HEAD.replace("vertex 1", "vertex many")
                        + "property double z\nend_header\n0 0 0\n", "'many'"),
    "ply-row-zero": ("--object", _PLY_HEAD + "property double z\nend_header\n0 zero 0\n", "zero"),
    "ply-row-two-columns": ("--object", _PLY_HEAD + "property double z\nend_header\n0 0\n", "2 columns"),
    "ply-blank-vertex-line": ("--object", _PLY_HEAD + "property double z\nend_header\n\n0 0 0\n",
                              "blank vertex line"),
    "ply-row-nan": ("--object", _PLY_HEAD + "property double z\nend_header\nnan 0 0\n", "non-finite"),
    "ply-vertex-negative": ("--object", _PLY_HEAD.replace("vertex 1", "vertex -1") + "property double z\nend_header\n",
                            "vertex count must be >= 0, got -1"),
    "ply-no-end-header": ("--object", _PLY_HEAD + "property double z\n", "missing end_header"),
    "ply-no-z": ("--object", _PLY_HEAD + "property double f\nend_header\n0 0 0\n",
                 "expected x,y,z properties, got ['x', 'y', 'f']"),
}


@pytest.mark.parametrize("kind", sorted(BAD_JSON_DOCS) + sorted(BAD_PLY_FILES))
def test_bad_input_file_is_one_error_line(tmp_path, capsys, good_inputs, kind):
    flag, content, names = {**BAD_JSON_DOCS, **BAD_PLY_FILES}[kind]
    path = tmp_path / "bad"
    path.write_text(content)
    assert main(_argv(good_inputs, flag, path, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    where = f"{path}:1" if flag == "--truth" else f"{path}"
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1, err
    assert names in err, err


def _number_leaves(doc, path=()):
    """The path of every JSON number in doc, depth first."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _number_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _number_leaves(value, path + (i,))
    elif type(doc) in (int, float):
        yield path


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replaced(doc, path, value):
    """A copy of doc with value at path."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _write_doc(flag, path, doc) -> None:
    """doc as the file flag reads: a JSON document, one JSON line, or an episode header without records."""
    if flag == "--episode":
        raw = json.dumps(doc).encode()
        path.write_bytes(b"VTEP" + struct.pack("<HI", 1, len(raw)) + raw)
    else:
        path.write_text(json.dumps(doc) + "\n")


# reader -> (input flag, a good document or line, None for good_inputs' file). Every number in it
# is read, so the free-form episode metadata and keys that no reader reads, such as a frame line's
# seq, are left out. The calibration's model and the scene's sensor are response models. The frame
# line is not canonical, so it goes through the document parse, not the batch.
GOOD_DOCS = {
    "tracker-config": ("--config", None),
    "calibration": ("--calib", None),
    "chain": ("--chain", None),
    "box": ("--box", None),
    "scene": ("--scene", None),
    "truth-line": ("--truth", {"t_us": 0, "pose": _POSE, "forces": {"0": [[0.5, 1.0], [0.0, 2.0]]}}),
    "poses-line": ("--poses", {"t_us": 0, "pose": _POSE}),
    "joints-line": ("--joints", {"timestamp_us": 0, "positions": [0.025, -0.05]}),
    "frame-line": ("--tactile", {"timestamp_us": 0, "pad_id": 0, "readings": _READINGS}),
    "vtep-header": ("--episode", {"rate_hz": 10.0, "tolerance_us": 0, "streams": [], "metadata": {}, "tuple_count": 0}),
}


@pytest.mark.parametrize("reader", sorted(GOOD_DOCS))
def test_every_number_a_file_holds_refuses_a_bool_or_a_string(tmp_path, capsys, good_inputs, reader):
    # each number leaf, scalar or array element, replaced once by true and once by its JSON text
    # as a string, is one error line that names the nearest key
    flag, doc = GOOD_DOCS[reader]
    doc = doc or json.loads(good_inputs[flag].read_text())
    path = tmp_path / "doc"
    if flag == "--episode":
        argv = ["stats", "--episode", str(path)]
    else:
        argv = _argv(good_inputs, flag, path, tmp_path / "out")
    _write_doc(flag, path, doc)
    assert main(argv) == 0
    capsys.readouterr()
    leaves = list(_number_leaves(doc))
    assert leaves
    missed = []
    for leaf in leaves:
        key = next(step for step in reversed(leaf) if isinstance(step, str))
        for bad in (True, json.dumps(_at(doc, leaf))):
            _write_doc(flag, path, _replaced(doc, leaf, bad))
            code = main(argv)
            err = capsys.readouterr().err
            if not (code == 1 and err.startswith("error: ") and err.count("\n") == 1 and f"{key} must" in err):
                missed.append(("/".join(map(str, leaf)), bad, code, err))
    assert missed == []


# (input flag of the command, numeric flags and their values, text the error names)
BAD_NUMBER_FLAGS = {
    "sync-rate-nan": ("--joints", ["--rate", "nan"], "rate must be > 0 Hz, got nan"),
    "sync-rate-inf": ("--joints", ["--rate", "inf"], "rate must be > 0 Hz, got inf"),
    "sync-rate-3mhz": ("--joints", ["--rate", "3e6"], "has no tick period in [1, 2**63 - 1] us"),
    "sync-rate-denormal": ("--joints", ["--rate", "1e-320"], "has no tick period in"),
    "sync-rate-3.3e-17": ("--joints", ["--rate", "3.3e-17"], "rate 3.3e-17 Hz has no tick period in [1, 2**63 - 1] us"),
    "sync-tol-nan": ("--joints", ["--tol-ms", "nan"], "--tol-ms must lie in [0, 9.22337e+15] ms, got nan"),
    "sync-tol-inf": ("--joints", ["--tol-ms", "inf"], "--tol-ms must lie in [0, 9.22337e+15] ms, got inf"),
    "sync-tol-1e308": ("--joints", ["--tol-ms", "1e308"], "--tol-ms must lie in [0, 9.22337e+15] ms, got 1e+308"),
    "sync-tol-negative": ("--joints", ["--tol-ms", "-1"], "--tol-ms must lie in [0, 9.22337e+15] ms, got -1.0"),
    "simulate-rate-nan": ("--scene", ["--rate", "nan"], "rate must be > 0 Hz, got nan"),
    "simulate-rate-3mhz": ("--scene", ["--rate", "3e6", "--dur", "1e-5"],
                           "has no tick period in [1, 2**63 - 1] us"),
    "simulate-dur-nan": ("--scene", ["--dur", "nan"], "duration must be > 0 s, got nan"),
    "simulate-dur-inf": ("--scene", ["--dur", "inf"], "duration must be > 0 s, got inf"),
    "simulate-object-points-0": ("--scene", ["--object-points", "0"],
                                 "--object-points must lie in [1, 8388608], got 0"),
    "simulate-object-points-negative": ("--scene", ["--object-points", "-3"],
                                        "--object-points must lie in [1, 8388608], got -3"),
    "simulate-object-points-huge": ("--scene", ["--object-points", "10000000000000000000"],
                                    "--object-points must lie in [1, 8388608], got 10000000000000000000"),
    "fuse-nvis-0": ("--box", ["--nvis", "0"], "--nvis must be >= 1, got 0"),
    "fuse-nvis-negative": ("--box", ["--nvis", "-1"], "--nvis must be >= 1"),
}


@pytest.mark.parametrize("kind", sorted(BAD_NUMBER_FLAGS))
def test_bad_number_flag_is_one_error_line(tmp_path, capsys, good_inputs, kind):
    reads, flags, names = BAD_NUMBER_FLAGS[kind]
    argv = _argv(good_inputs, reads, good_inputs[reads], tmp_path / "out") + flags
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err, err


_FAR_US = 10**15  # a span of 5e10 ticks at 50 Hz


@pytest.mark.parametrize("command", ["sync", "simulate-dur", "simulate-dur-1e303"])
def test_tick_grid_longer_than_the_bound_is_one_error_line(tmp_path, capsys, good_inputs, command):
    # imported first, so that a tree without the bound fails here instead of walking the grid
    from vitac.stream_sync import MAX_TICKS

    out = tmp_path / "out.vtep"
    if command == "sync":
        tactile, joints = tmp_path / "t.jsonl", tmp_path / "j.jsonl"
        tactile.write_text("".join(json.dumps({**_FRAME, "timestamp_us": t}) + "\n" for t in (0, _FAR_US)))
        joints.write_text("".join(json.dumps({"timestamp_us": t, "positions": [0.0]}) + "\n" for t in (0, _FAR_US)))
        argv = ["sync", "--tactile", str(tactile), "--joints", str(joints), "--rate", "50", "--tol-ms", "10"]
    else:  # one tick more than the bound at 50 Hz, and a duration whose microseconds overflow a float
        dur = "1e303" if command.endswith("1e303") else str((MAX_TICKS + 1) / 50)
        argv = ["simulate", "--scene", str(good_inputs["--scene"]), "--rate", "50", "--dur", dur]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: the tick grid holds more than {MAX_TICKS} ticks of 20000 us; shorten the span or lower the rate\n"
    assert not out.exists()


# (rate, first and last tick, member timestamp, largest skew): a grid far past the bound, and one of
# 2**64 ticks, past len(), whose largest skew is 2**63, past int64, or 2**64 - 1, the most two int64s differ by
@pytest.mark.parametrize("rate, ticks, stamp, skew", [(50.0, (0, _FAR_US), 0, _FAR_US),
                                                      (1e6, (-(2**63), 2**63 - 1), 0, 2**63),
                                                      (1e6, (-(2**63), 2**63 - 1), 2**63 - 1, 2**64 - 1)],
                         ids=["50.0-ticks0", "1000000.0-ticks1", "1000000.0-ticks1-last-stamp"])
def test_stats_counts_a_grid_longer_than_the_bound(tmp_path, capsys, rate, ticks, stamp, skew):
    members = {JOINTS_STREAM: TimedSample(JOINTS_STREAM, stamp, JointState([0.0], 0))}
    path = tmp_path / "far.vtep"
    write_episode(Episode(rate, 0, [JOINTS_STREAM], [SyncedTuple(t, members) for t in ticks]), path)
    report = run_json(capsys, ["stats", "--episode", str(path)])
    n = (ticks[1] - ticks[0]) // round(1e6 / rate) + 1
    assert (report["expected_ticks"], report["dropped_ticks"]) == (n, n - 2)
    assert report["max_skew_us"] == skew


# ticks that repeat, go backwards or lie off the 10 Hz grid, and the tick refused
@pytest.mark.parametrize("ticks, refused", [((0, 0, 0), 0), ((200_000, 100_000, 0), 100_000), ((1, 2, 3), 1)],
                         ids=["repeat", "backwards", "off-grid"])
def test_stats_refuses_a_tick_that_does_not_follow_on_the_grid(tmp_path, capsys, ticks, refused):
    members = {JOINTS_STREAM: TimedSample(JOINTS_STREAM, 0, JointState([0.0], 0))}
    path = tmp_path / "bad.vtep"
    write_episode(Episode(10.0, 0, [JOINTS_STREAM], [SyncedTuple(t, members) for t in ticks]), path)
    assert main(["stats", "--episode", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: tick {refused}: each tick must lie on the 100000 us grid, after the tick before it\n")


def test_simulate_with_no_object_points_writes_nothing(tmp_path, capsys, good_inputs):
    outs = [tmp_path / name for name in ("ep.vtep", "truth.jsonl", "obj.ply")]
    argv = ["simulate", "--scene", str(good_inputs["--scene"]), "--dur", "0.2", "--out", str(outs[0]),
            "--truth", str(outs[1]), "--object-out", str(outs[2]), "--object-points", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: --object-points must lie in [1, 8388608], got 0\n", err
    assert not any(p.exists() for p in outs)


SIMULATE = ["simulate", "--scene", "s.json", "--dur", "0.3"]


@pytest.mark.parametrize("argv, flags", [
    (["decode", "--in", "raw.bin", "--out", "raw.bin"], "--in raw.bin and --out raw.bin"),
    (["decode", "--in", "link.bin", "--out", "raw.bin"], "--in link.bin and --out raw.bin"),
    ([*SIMULATE, "--out", "same.out", "--truth", "same.out"], "--out same.out and --truth same.out"),
    ([*SIMULATE, "--out", "ep.vtep", "--truth", "t.jsonl", "--object-out", "./t.jsonl"],
     "--truth t.jsonl and --object-out ./t.jsonl"),
], ids=["decode", "decode-symlink", "simulate", "simulate-object-out"])
def test_an_output_that_names_an_input_or_another_output_is_refused(tmp_path, capsys, monkeypatch, argv, flags):
    # before anything is opened for writing: the capture keeps its bytes and no output is written
    monkeypatch.chdir(tmp_path)
    Path("raw.bin").write_bytes(b"".join(encode_frame(TactileFrame(0, 1000 * i, np.zeros((16, 16), int)), i)
                                         for i in range(3)))
    Path("link.bin").symlink_to("raw.bin")
    write_scene(Path("s.json"))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flags} name one file\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_outputs_that_are_not_regular_files_may_be_one_file(tmp_path, capsys, good_inputs):
    argv = ["simulate", "--scene", str(good_inputs["--scene"]), "--dur", "0.2", "--out", str(tmp_path / "ep.vtep"),
            "--truth", os.devnull, "--object-out", os.devnull]
    assert main(argv) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["ep.vtep"]


@pytest.mark.parametrize("change", ["n_camera_points", "rows", "run"])
def test_scene_past_a_size_bound_is_one_error_line_and_writes_nothing(tmp_path, capsys, good_inputs, change):
    from vitac.sim_oracle import MAX_CAMERA_POINTS

    doc = json.loads(good_inputs["--scene"].read_text())
    if change == "rows":  # a grid is the pad's 16 x 16 or nothing
        doc["grid"]["rows"] = 17
    else:  # 2 ticks of half the bound and one point more, or one tick past the bound
        doc["n_camera_points"] = MAX_CAMERA_POINTS // 2 + 1 if change == "run" else 10**19
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    outs = [tmp_path / name for name in ("ep.vtep", "truth.jsonl", "obj.ply")]
    argv = ["simulate", "--scene", str(scene), "--dur", "0.2", "--out", str(outs[0]),
            "--truth", str(outs[1]), "--object-out", str(outs[2])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    names = f"{scene}: grid must be the pad's 16 x 16, got 17 x 16" if change == "rows" else f"{MAX_CAMERA_POINTS}"
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err, err
    assert not any(p.exists() for p in outs)


def test_fuse_takes_any_nvis_without_allocating_it(tmp_path, capsys, good_inputs):
    # fps_indices picks min(k, N) points, so --nvis needs no upper bound
    out = tmp_path / "fused.vtep"
    argv = _argv(good_inputs, "--box", good_inputs["--box"], out) + ["--nvis", "10000000000000000000"]
    report = run_json(capsys, argv)
    assert report["tuples"] == 2 and read_episode(out).metadata["n_vis"] == 10**19


def test_track_leaves_no_thread_running(tmp_path, capsys, good_inputs, monkeypatch):
    import threading

    from test_pose_tracker import _cpus

    started = _cpus(monkeypatch, 2)
    config = tmp_path / "tracker.json"
    config.write_text(json.dumps({"particle_count": 2048}))
    before = threading.active_count()
    argv = _argv(good_inputs, "--config", config, tmp_path / "poses.jsonl")
    assert main(argv) == 0, capsys.readouterr().err
    assert "vitac-tracker" in [t.name for t in started] and threading.active_count() == before


@pytest.mark.parametrize("flag", ["--scene", "--object"])
def test_out_that_cannot_be_opened_is_usage_error(tmp_path, capsys, good_inputs, flag):
    # --scene runs simulate, --object runs track; both write to --out, here a directory
    assert main(_argv(good_inputs, flag, good_inputs[flag], tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "header",
    [b'{"rate_hz": 10.0', b'{"tolerance_us": 0, "streams": []}',
     b'{"rate_hz": 0, "tolerance_us": 0, "streams": []}'],
)
def test_stats_bad_header_is_one_error_line(tmp_path, capsys, header):
    path = tmp_path / "h.vtep"
    path.write_bytes(b"VTEP" + struct.pack("<HI", 1, len(header)) + header)
    assert main(["stats", "--episode", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "header" in err and err.count("\n") == 1


@pytest.mark.parametrize("rate", [1e-320, 3.3e-17])
def test_stats_rate_without_tick_grid_is_one_error_line(tmp_path, capsys, good_inputs, rate):
    data = good_inputs["--episode"].read_bytes()  # the writer refuses this rate, so patch its header
    (n,) = struct.unpack("<I", data[6:10])
    header = json.dumps({**json.loads(data[10 : 10 + n]), "rate_hz": rate}).encode()
    path = tmp_path / "slow.vtep"
    path.write_bytes(data[:6] + struct.pack("<I", len(header)) + header + data[10 + n :])
    assert main(["stats", "--episode", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"rate {rate} Hz has no tick period in" in err and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("drop_report", [5, {"drops_by_stream": [1]}], ids=["drop_report", "drops_by_stream"])
def test_stats_drop_report_not_an_object_is_one_error_line(tmp_path, capsys, drop_report):
    path = tmp_path / "d.vtep"
    write_episode(Episode(10.0, 0, [], [], {"drop_report": drop_report}), path)
    assert main(["stats", "--episode", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: metadata drop_report and its drops_by_stream must be JSON objects\n"
    )


def _patched_record(path, sid, payload, old, new):
    """A one-tuple episode whose record has the bytes old replaced by new, under a valid CRC."""
    write_episode(Episode(10.0, 0, [sid], [SyncedTuple(0, {sid: TimedSample(sid, 0, payload)})]), path)
    data = path.read_bytes()
    start = 14 + struct.unpack("<I", data[6:10])[0]  # magic, version, header length, header, record length
    body = data[start:-4].replace(old, new, 1)
    path.write_bytes(data[:start] + body + struct.pack("<I", zlib.crc32(body)))


# a record with a string that is not UTF-8: (stream id, payload); "ab" becomes b"\xff\xfe"
NOT_UTF8_RECORDS = {
    "stream-id": ("ab", JointState([0.0], 0)),
    "cloud-frame": ("camera/0", CloudXYZF(np.zeros((1, 4)), "ab")),
}


@pytest.mark.parametrize("kind", sorted(NOT_UTF8_RECORDS))
def test_stats_string_not_utf8_is_one_error_line(tmp_path, capsys, kind):
    path = tmp_path / "s.vtep"
    _patched_record(path, *NOT_UTF8_RECORDS[kind], b"\x02\x00ab", b"\x02\x00\xff\xfe")
    assert main(["stats", "--episode", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} record 0: ") and err.count("\n") == 1, err


# a payload that fails its value type's checks: (stream id, payload, bytes replaced, replacement)
BAD_VALUE_RECORDS = {
    "cloud-nan": ("camera/0", CloudXYZF(np.full((1, 4), 0.25), "base"),
                  struct.pack("<d", 0.25), struct.pack("<d", np.nan), "cloud contains non-finite values"),
    "tactile-above-1": ("tactile/0", TactileFrame(0, 0, np.full((16, 16), 0.75), normalized=True),
                        struct.pack("<d", 0.75), struct.pack("<d", 1.5), "normalized readings must be within [0, 1]"),
    # a tactile head stores its pad id in a u16, past the pad ids a frame holds
    "tactile-pad-300": ("tactile/7", TactileFrame(7, 0, np.zeros((16, 16))), b"\x01" + struct.pack("<HBq", 7, 0, 0),
                        b"\x01" + struct.pack("<HBq", 300, 0, 0), "pad_id must lie in [0, 255], got 300"),
}


@pytest.mark.parametrize("kind", sorted(BAD_VALUE_RECORDS))
def test_stats_bad_payload_value_names_the_record(tmp_path, capsys, kind):
    sid, payload, old, new, message = BAD_VALUE_RECORDS[kind]
    path = tmp_path / "v.vtep"
    _patched_record(path, sid, payload, old, new)
    assert main(["stats", "--episode", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path} record 0: {message}\n"


# the good episode with one member moved: tactile/0 to tactile/x, or the cloud of
# camera/0 or the joint state replaced by tactile/0's frame
@pytest.mark.parametrize("sid", ["tactile/x", "camera/0", "joints", "tactile/01", "tactile/1_0"])
def test_fuse_member_that_does_not_fit_its_stream_is_one_error_line(tmp_path, capsys, good_inputs, sid):
    episode = read_episode(good_inputs["--episode"])
    tuples = []
    for tup in episode.tuples:
        members = dict(tup.members)
        frame = members.pop("tactile/0").payload
        members[sid] = TimedSample(sid, tup.tick_time_us, frame)
        tuples.append(SyncedTuple(tup.tick_time_us, members))
    path = tmp_path / "moved.vtep"
    write_episode(Episode(episode.rate_hz, 0, sorted(tuples[0].members), tuples), path)
    assert main(["fuse", "--episode", str(path), "--chain", str(good_inputs["--chain"]),
                 "--box", str(good_inputs["--box"]), "--out", str(tmp_path / "f.vtep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and sid in err and err.count("\n") == 1, err


def test_only_track_loads_scipy(tmp_path, good_inputs):
    """A fresh interpreter: decode, sync, stats and fuse leave scipy unloaded; track loads it."""
    raw, frames, ep = tmp_path / "raw.bin", tmp_path / "frames.jsonl", tmp_path / "ep.vtep"
    raw.write_bytes(b"".join(encode_frame(TactileFrame(0, 1000 * i, np.zeros((16, 16), int)), i)
                             for i in range(4)))
    g = {k: str(v) for k, v in good_inputs.items()}
    commands = [
        ["decode", "--in", str(raw), "--out", str(frames)],
        ["sync", "--tactile", str(frames), "--rate", "1000", "--out", str(ep)],
        ["stats", "--episode", g["--episode"]],
        ["fuse", "--episode", g["--episode"], "--chain", g["--chain"], "--box", g["--box"],
         "--out", str(tmp_path / "fused.vtep")],
        ["track", "--episode", g["--episode"], "--object", g["--object"], "--chain", g["--chain"],
         "--config", g["--config"], "--out", str(tmp_path / "poses.jsonl")],
    ]
    script = (
        "import sys\nfrom vitac.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    print(argv[0], 'scipy' in sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vitac.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "decode False", "sync False", "stats False", "fuse False", "track True"
    ]


@pytest.mark.parametrize("content", [b"\xff\xfe1,2\n", b"1," + b"9" * 200_000 + b"\n"],
                         ids=["not-utf8", "field-over-csv-limit"])
def test_calibrate_samples_that_are_no_csv_text_are_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "samples.csv"
    path.write_bytes(content)
    assert main(["calibrate", "--samples", str(path), "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("pad_id", ["256", "-1"])
def test_calibrate_pad_id_out_of_range_is_one_error_line_and_writes_nothing(tmp_path, capsys, pad_id):
    path = tmp_path / "samples.csv"
    path.write_text("".join(f"{f},{100.0 * np.log(f) + 50.0}\n" for f in (2.0, 4.0, 8.0)))
    out = tmp_path / "c.json"
    assert main(["calibrate", "--samples", str(path), "--out", str(out), "--pad-id", pad_id]) == 1
    assert capsys.readouterr().err == f"error: pad_id must lie in [0, 255], got {pad_id}\n"
    assert not out.exists()


def test_calibrate_defaults_are_the_response_model_defaults(tmp_path):
    model = TaxelResponseModel()
    args = build_parser().parse_args(["calibrate", "--samples", "s.csv", "--out", "c.json"])
    assert (args.f_min, args.f_sat, args.r_max) == (model.f_min, model.f_sat, model.r_max)
    window = inspect.signature(fit_response).parameters
    assert [window[k].default for k in ("f_min", "f_sat", "r_max")] == [model.f_min, model.f_sat, model.r_max]


def test_sync_and_simulate_defaults_are_the_align_defaults():
    window = inspect.signature(align).parameters
    sync = build_parser().parse_args(["sync", "--out", "e.vtep"])
    simulate = build_parser().parse_args(["simulate", "--scene", "s.json", "--out", "e.vtep"])
    assert sync.rate == simulate.rate == window["rate_hz"].default
    assert int(sync.tol_ms * 1000) == window["tolerance_us"].default  # as sync converts it


def _clouds(tmp_path, names):
    d = tmp_path / "clouds"
    d.mkdir()
    for name in names:
        write_cloud_ply(CloudXYZF(np.zeros((1, 4)), "base"), d / name)
    return d


def test_sync_cloud_bare_timestamp_name_is_camera_0(tmp_path, capsys):
    d = _clouds(tmp_path, ["0.ply", "100000.ply"])
    report = run_json(capsys, ["sync", "--cloud", str(d), "--out", str(tmp_path / "ep.vtep")])
    assert report["streams"] == ["camera/0"] and report["tuples"] == 2


def test_sync_cloud_names_may_hold_leading_zeros(tmp_path, capsys):
    d = _clouds(tmp_path, ["01_0000000.ply", "001_0100000.ply"])
    report = run_json(capsys, ["sync", "--cloud", str(d), "--out", str(tmp_path / "ep.vtep")])
    assert report["streams"] == ["camera/1"] and report["tuples"] == 2


# <cam> is ASCII digits and <timestamp_us> ASCII digits after an optional "-"
@pytest.mark.parametrize("name", ["0_1_000.ply", "0_ 200000.ply", "0_+300000.ply", "\u0663_100000.ply",
                                  "-1_100000.ply", "0_--5.ply", "0_.ply", "_5.ply", "1e5.ply"])
def test_sync_cloud_name_that_is_not_decimal_is_one_error_line(tmp_path, capsys, name):
    d = _clouds(tmp_path, [name])
    assert main(["sync", "--cloud", str(d), "--out", str(tmp_path / "ep.vtep")]) == 1
    assert capsys.readouterr().err == f"error: {name}: cloud files must be named <cam>_<timestamp_us>.ply\n"


@pytest.mark.parametrize("stamp", [2**63, -(2**63) - 1])
def test_sync_cloud_name_past_int64_is_one_error_line(tmp_path, capsys, stamp):
    d = _clouds(tmp_path, ["0_0.ply", f"0_{stamp}.ply"])
    assert main(["sync", "--cloud", str(d), "--out", str(tmp_path / "ep.vtep")]) == 1
    assert capsys.readouterr().err == (
        f"error: 0_{stamp}.ply: timestamp_us must be an integer in [-2**63, 2**63 - 1] us, got {stamp}\n")
    assert not (tmp_path / "ep.vtep").exists()


def test_sync_cloud_names_of_one_camera_and_time_are_one_error_line(tmp_path, capsys):
    d = _clouds(tmp_path, ["1_0.ply", "01_0.ply"])
    assert main(["sync", "--cloud", str(d), "--out", str(tmp_path / "ep.vtep")]) == 1
    assert capsys.readouterr().err == "error: 1_0.ply: camera 1 at 0 us is also in 01_0.ply\n"
    assert not (tmp_path / "ep.vtep").exists()


def test_sync_of_two_tactile_files_holding_one_pad_is_one_error_line(tmp_path, capsys):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first.write_text(_GOOD_LINE["--tactile"] + "\n")
    second.write_text(json.dumps({**_FRAME, "timestamp_us": 3}) + "\n")
    out = tmp_path / "ep.vtep"
    assert main(["sync", "--tactile", str(first), "--tactile", str(second), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {second}: stream tactile/0 is also in {first}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--box", "--config"])  # fuse, track
def test_two_calibrations_of_one_pad_are_one_error_line(tmp_path, capsys, good_inputs, flag):
    calib = tmp_path / "calib.json"
    PadCalibration(pad_id=0).save(calib)
    out = tmp_path / "out"
    # the command's good inputs hold pad 0's calibration already
    assert main(_argv(good_inputs, flag, good_inputs[flag], out) + ["--calib", str(calib)]) == 1
    assert capsys.readouterr().err == f"error: {calib}: pad 0 is also calibrated by {good_inputs['--calib']}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, names", [
    (["sync"], "no input streams given"),
    (["sync", "--cloud", "{clouds}"], "a_b.ply: cloud files must be named"),
    (["eval", "--poses", "{poses}", "--truth", "{truth}"], "no matching timestamps"),
])
def test_nothing_to_work_on_is_one_error_line(tmp_path, capsys, argv, names):
    paths = {"clouds": _clouds(tmp_path, ["a_b.ply"]), "poses": tmp_path / "p.jsonl", "truth": tmp_path / "t.jsonl"}
    paths["poses"].write_text(json.dumps({"t_us": 0, "pose": _POSE}) + "\n")
    paths["truth"].write_text(json.dumps({"t_us": 5, "pose": _POSE}) + "\n")
    argv = [word.format(**paths) for word in argv]
    out = ["--out", str(tmp_path / "ep.vtep")] if argv[0] == "sync" else []
    assert main(argv + out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and err.count("\n") == 1, err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code = main(["decode", "--in", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_sync_cloud_that_is_no_directory_is_usage_error(tmp_path, capsys):
    (tmp_path / "0.ply").write_text("")
    assert main(["sync", "--cloud", str(tmp_path / "0.ply"), "--out", str(tmp_path / "ep.vtep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no such directory" in err and err.count("\n") == 1, err


def _episode_without_joints(good_inputs, path):
    ep = read_episode(good_inputs["--episode"])
    tuples = [SyncedTuple(t.tick_time_us, {k: v for k, v in t.members.items() if k != JOINTS_STREAM})
              for t in ep.tuples]
    write_episode(Episode(ep.rate_hz, ep.tolerance_us, [s for s in ep.streams if s != JOINTS_STREAM], tuples), path)
    return path


def test_fuse_of_an_episode_without_joints_is_one_error_line(tmp_path, capsys, good_inputs):
    ep_path = _episode_without_joints(good_inputs, tmp_path / "ep.vtep")
    out = tmp_path / "fused.vtep"
    assert main(_argv(good_inputs, "--box", good_inputs["--box"], out) + ["--episode", str(ep_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: episode has no joint stream; cannot place tactile points\n", err
    assert not out.exists()


def test_track_of_an_episode_without_joints_is_one_error_line_and_writes_nothing(tmp_path, capsys, good_inputs):
    ep_path = _episode_without_joints(good_inputs, tmp_path / "ep.vtep")
    out = tmp_path / "poses.jsonl"
    assert main(_argv(good_inputs, "--object", good_inputs["--object"], out) + ["--episode", str(ep_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: episode has no joint stream; cannot place tactile points\n", err
    assert not out.exists()


def test_domain_error_exit_code(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("0.5,10\n0.5,11\n")  # nothing inside the fit window
    code = main(["calibrate", "--samples", str(csv_path), "--out", str(tmp_path / "c.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("env, flags", [(None, ["--log-level", "bogus"]), ("nonsense", [])], ids=["flag", "env"])
def test_bad_log_level_is_usage_error(monkeypatch, capsys, good_inputs, env, flags):
    if env is None:
        monkeypatch.delenv("VITAC_LOG", raising=False)
    else:
        monkeypatch.setenv("VITAC_LOG", env)
    with pytest.raises(SystemExit) as exc:
        main(flags + ["stats", "--episode", str(good_inputs["--episode"])])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"invalid choice: '{env or flags[1]}'" in errors[0], errors


def test_log_level_names_any_case(monkeypatch, capsys, good_inputs):
    monkeypatch.setenv("VITAC_LOG", "Debug")
    assert main(["--log-level", "ERROR", "stats", "--episode", str(good_inputs["--episode"])]) == 0
    monkeypatch.delenv("VITAC_LOG")
    assert main(["--log-level", "Info", "stats", "--episode", str(good_inputs["--episode"])]) == 0


@pytest.mark.parametrize("old", [None, b"an older episode"], ids=["no-out", "old-out"])
def test_sync_that_fails_while_writing_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, old):
    # every record is written, then the disk is full: the file beside --out is removed, --out kept
    def write_then_fail(fh, tuples):
        write_records(fh, tuples)
        assert fh.tell() > 0
        raise OSError(errno.ENOSPC, "No space left on device")

    write_records = stream_sync._write_records
    monkeypatch.setattr(stream_sync, "_write_records", write_then_fail)
    frames = tmp_path / "frames.jsonl"
    frames.write_text("".join(json.dumps({**_FRAME, "seq": i, "timestamp_us": i * 20_000}) + "\n" for i in range(4)))
    out = tmp_path / "ep.vtep"
    if old is not None:
        out.write_bytes(old)
    assert main(["sync", "--tactile", str(frames), "--rate", "50", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["ep.vtep"] if old else []) + ["frames.jsonl"]
    assert old is None or out.read_bytes() == old


@pytest.mark.parametrize("old", [None, b"an older episode"], ids=["no-out", "old-out"])
def test_sync_that_fails_reading_leaves_out_as_it_was(tmp_path, capsys, old):
    # the frame on line 3 lies past 2**63 - 1 us, which no time may, so its line is the error
    frames = tmp_path / "frames.jsonl"
    frames.write_text("".join(json.dumps({**_FRAME, "seq": i, "timestamp_us": 2**63 - 30_000 + i * 20_000}) + "\n"
                              for i in range(4)))
    out = tmp_path / "ep.vtep"
    if old is not None:
        out.write_bytes(old)
    assert main(["sync", "--tactile", str(frames), "--rate", "50", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    stamp = 2**63 + 10_000
    assert err == f"error: {frames}:3: timestamp_us must be an integer in [-2**63, 2**63 - 1] us, got {stamp}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["ep.vtep"] if old else []) + ["frames.jsonl"]
    assert old is None or out.read_bytes() == old


def test_sync_of_a_frame_past_int64_is_the_error_of_its_line(tmp_path, capsys):
    # five good frames and a sixth at 2**63 us, past every time, against joints that end at 400,000 us
    frames, joints, out = tmp_path / "frames.jsonl", tmp_path / "joints.jsonl", tmp_path / "ep.vtep"
    frames.write_text("".join(json.dumps({**_FRAME, "seq": i, "timestamp_us": t}) + "\n"
                              for i, t in enumerate([0, 100_000, 200_000, 300_000, 400_000, 2**63])))
    joints.write_text("".join(json.dumps({"timestamp_us": t, "positions": [0.0]}) + "\n"
                              for t in range(0, 400_001, 100_000)))
    assert main(["sync", "--tactile", str(frames), "--joints", str(joints), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {frames}:6: timestamp_us must be an integer in [-2**63, 2**63 - 1] us, got {2**63}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.jsonl", "joints.jsonl"]


def test_simulate_at_a_long_period_writes_ticks_on_its_grid(tmp_path, capsys, good_inputs):
    # a period of 123456790123456800 us, where tick / 1e6 seconds and back would leave the grid
    out = tmp_path / "slow.vtep"
    argv = ["--json", "simulate", "--scene", str(good_inputs["--scene"]), "--rate", "8.1e-12", "--dur", "1e12"]
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["tuples"] == 8
    assert main(["--json", "stats", "--episode", str(out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["tuples"], stats["expected_ticks"], stats["dropped_ticks"]) == (8, 8, 0)
    ticks = [t.tick_time_us for t in read_episode(out).tuples]
    assert ticks == list(range(0, 8 * 123456790123456800, 123456790123456800))


def test_log_level_debug_logs_one_line_per_command(monkeypatch, capsys, good_inputs):
    argv = ["--json", "stats", "--episode", str(good_inputs["--episode"])]
    reports = []
    for env, flags, logged in [(None, ["--log-level", "debug"], True), ("debug", [], True), (None, [], False),
                               ("DEBUG", [], True), (None, [], False)]:
        if env is None:
            monkeypatch.delenv("VITAC_LOG", raising=False)
        else:
            monkeypatch.setenv("VITAC_LOG", env)
        assert main(flags + argv) == 0
        out, err = capsys.readouterr()
        reports.append(out)
        assert re.fullmatch(r"DEBUG:vitac:stats took \d+\.\d{3} s\n" if logged else "", err), err
    assert len(set(reports)) == 1


def test_text_report_mode(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    write_scene(scene_path)
    code = main(["simulate", "--scene", str(scene_path), "--rate", "10", "--dur", "0.3",
                 "--out", str(tmp_path / "t.vtep")])
    assert code == 0
    out = capsys.readouterr().out
    assert "tuples: 3" in out


@pytest.mark.parametrize("rev", ["no-such-rev", "HEAD^{tree}"])
def test_bench_pairs_refuses_a_revision_that_names_no_commit(tmp_path, rev):
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    proc = subprocess.run([sys.executable, str(script), "--against", rev, "--workload", "ingest_noisy",
                           "--scratch", str(tmp_path / "scratch")], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: --against {rev!r} names no commit\n"
    assert not (tmp_path / "scratch").exists()


def _bench_pairs():
    import importlib.util

    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", script)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summary_names_the_pairs_in_which_a_run_failed(capsys):
    def side(rate, raw, failed=0, correct=True):
        return {"correct": correct, "failed": failed, "attempted": 4, "metrics": {"ticks_per_s": rate},
                "raw_ticks_per_s": raw, "reference_s": []}

    pairs = {51: {"parent": side(12.0, [10.0, 11.0, 12.0]), "change": side(12.5, [13.0, 14.0, 15.0])},
             52: {"parent": side(12.0, [11.0]), "change": side(11.0, [10.0, 10.0], failed=1)},
             53: {"parent": side(6.0, [5.0, 6.0], 2, False), "change": side(6.5, [7.0], 2, False)}}
    _bench_pairs().summarize(pairs, {"ticks_per_s": "higher"})
    assert capsys.readouterr().out.splitlines() == [
        "summary:",
        # seed 53 stays in the medians and the win count
        "  ticks_per_s: parent median 12, quartiles 9-12 (distance 3); change median 11, quartiles 8.75-11.75 "
        "(distance 3); change better in 2 of 3 pairs (higher is better)",
        # each run's median round: parent 11, 11, 5.5; change 14, 10, 7
        "  raw ticks/s, each run's median round: parent median 11, quartiles 8.25-11 (distance 2.75); "
        "change median 10, quartiles 8.5-12 (distance 3.5); change higher in 2 of 3 pairs",
        "  pairs with a failed operation or an INCORRECT result, kept above: 2 of 3",
        "    seed 52: parent 0/4 failed; change 1/4 failed",
        "    seed 53: parent 2/4 failed, INCORRECT; change 2/4 failed, INCORRECT",
    ]


def test_bench_pairs_reads_the_raw_ticks_per_s_beside_the_scaled_metric(capsys):
    bench_pairs = _bench_pairs()

    def stdout(raw, scaled):
        metrics = {"setup_s": {"value": 0.3, "unit": "s"}, "ticks_per_s": {"value": scaled, "unit": "ticks/s"}}
        return "\n".join([
            "fuse_dense: 3 rounds, 3 commands, 0 failed",
            f"ticks/s per round, raw {raw}",
            f"ticks/s per round, scaled {[scaled] * len(raw)}",
            "set-up s, raw [0.29, 0.31]",
            "set-up s, scaled [0.3, 0.3]",
            "reference task s (nominal 0.125) [0.101, 0.085]",
            json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}),
        ]) + "\n"

    parent = bench_pairs.parse(stdout([44.73, 46.2, 40.0], 46.2))
    assert parent == {"correct": True, "failed": 0, "attempted": 3, "metrics": {"setup_s": 0.3, "ticks_per_s": 46.2},
                      "raw_ticks_per_s": [44.73, 46.2, 40.0], "reference_s": [0.101, 0.085]}
    change = bench_pairs.parse(stdout([58.4, 57.0], 58.4))
    bench_pairs.report_pair({"change": change, "parent": parent}, 81, ("change", "parent"))
    assert capsys.readouterr().out.splitlines()[0] == (
        "seed 81 (change first): setup_s 0.3 -> 0.3; ticks_per_s 46.2 -> 58.4; raw ticks/s 44.73 -> 57.7 "
        "[parent 0/3 failed change 0/3 failed]")
