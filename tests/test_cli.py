import inspect
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import vitac
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
    "poses-no-pose": ("--poses", '{"t_us": 0}', "'pose'"),
    "poses-not-object": ("--poses", "[0, 1]", "list indices"),
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
                         "prior extents must be at most 1.0 m and 180 degrees, got 2.0 m"),
    "config-angle-1e300": ("--config", '{"prior": {"rotation_half_angle_deg": 1e300}}',
                           "prior extents must be at most 1.0 m and 180 degrees"),
    "config-prior-list": ("--config", '{"prior": []}', "prior must be a JSON object"),
    "config-extent-negative": ("--config", '{"prior": {"rotation_half_angle_deg": -5}}',
                               "prior extents must be finite and nonnegative"),
    "chain-link-no-fixed": ("--chain", '{"links": [{"joint": "fixed"}]}', "missing key 'fixed'"),
    "chain-link-one": ("--chain", json.dumps(
        {"links": [], "mounts": [{"pad_id": 0, "link": "one", "transform": _POSE}]}), "'one'"),
    "chain-unclosed": ("--chain", '{"links": [', "not a JSON document"),
    "chain-grid-list": ("--chain", json.dumps(_GRID_LIST_CHAIN), "expected a JSON object for TaxelGrid"),
    "scene-gap-nan": ("--scene", json.dumps(_NAN_GAP_SCENE), "number NaN is not finite"),
    "scene-no-object": ("--scene", '{"seed": 1}', "missing key 'object'"),
    "scene-pitch-1e300": ("--scene", json.dumps(_PITCH_SCENE), "pitch must lie in (0, 1.0] m"),
    "scene-unclosed": ("--scene", '{"object": {"kind": "sphere", "radius": 0.1}',
                       "not a JSON document"),
    "calib-unclosed": ("--calib", '{"pad_id": 0', "not a JSON document"),
    "calib-no-gain": ("--calib", '{"pad_id": 0, "offset": [], "model": {"a": 1, "b": 0}}',
                      "missing key 'gain'"),
    "calib-model-no-a": ("--calib", json.dumps({**PadCalibration(pad_id=0).to_dict(), "model": {"b": 0}}),
                         "missing key 'a'"),
    "truth-unclosed": ("--truth", '{"t_us": 0, "pose": ', "not a JSON line"),
    "truth-no-pose": ("--truth", '{"t_us": 0}', "missing key 'pose'"),
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


# (input flag of the command, numeric flags and their values, text the error names)
BAD_NUMBER_FLAGS = {
    "sync-rate-nan": ("--joints", ["--rate", "nan"], "rate must be positive and finite"),
    "sync-rate-inf": ("--joints", ["--rate", "inf"], "rate must be positive and finite"),
    "sync-rate-3mhz": ("--joints", ["--rate", "3e6"], "no finite tick period of 1 us or more"),
    "sync-rate-denormal": ("--joints", ["--rate", "1e-320"], "no finite tick period"),
    "sync-tol-nan": ("--joints", ["--tol-ms", "nan"], "--tol-ms must be finite"),
    "sync-tol-inf": ("--joints", ["--tol-ms", "inf"], "--tol-ms must be finite"),
    "simulate-rate-nan": ("--scene", ["--rate", "nan"], "rate and duration must be positive"),
    "simulate-rate-3mhz": ("--scene", ["--rate", "3e6", "--dur", "1e-5"],
                           "no finite tick period of 1 us or more"),
    "simulate-dur-nan": ("--scene", ["--dur", "nan"], "rate and duration must be positive"),
    "simulate-dur-inf": ("--scene", ["--dur", "inf"], "rate and duration must be positive"),
    "simulate-object-points-0": ("--scene", ["--object-points", "0"], "--object-points must be >= 1, got 0"),
    "simulate-object-points-negative": ("--scene", ["--object-points", "-3"], "--object-points must be >= 1"),
    "simulate-object-points-huge": ("--scene", ["--object-points", "10000000000000000000"],
                                    "--object-points must be at most 8388608, got 10000000000000000000"),
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


# (rate, first and last tick): a grid far past the bound, and one of 2**64 ticks, past len()
@pytest.mark.parametrize("rate, ticks", [(50.0, (0, _FAR_US)), (1e6, (-(2**63), 2**63 - 1))])
def test_stats_counts_a_grid_longer_than_the_bound(tmp_path, capsys, rate, ticks):
    members = {JOINTS_STREAM: TimedSample(JOINTS_STREAM, 0, JointState([0.0], 0))}
    path = tmp_path / "far.vtep"
    write_episode(Episode(rate, 0, [JOINTS_STREAM], [SyncedTuple(t, members) for t in ticks]), path)
    report = run_json(capsys, ["stats", "--episode", str(path)])
    n = (ticks[1] - ticks[0]) // round(1e6 / rate) + 1
    assert (report["expected_ticks"], report["dropped_ticks"]) == (n, n - 2)


def test_simulate_with_no_object_points_writes_nothing(tmp_path, capsys, good_inputs):
    outs = [tmp_path / name for name in ("ep.vtep", "truth.jsonl", "obj.ply")]
    argv = ["simulate", "--scene", str(good_inputs["--scene"]), "--dur", "0.2", "--out", str(outs[0]),
            "--truth", str(outs[1]), "--object-out", str(outs[2]), "--object-points", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: --object-points must be >= 1, got 0\n", err
    assert not any(p.exists() for p in outs)


@pytest.mark.parametrize("change", ["n_camera_points", "rows", "run"])
def test_scene_past_a_size_bound_is_one_error_line_and_writes_nothing(tmp_path, capsys, good_inputs, change):
    from vitac.kinematics import MAX_GRID_SIDE  # first, so that a tree without the bounds fails here
    from vitac.sim_oracle import MAX_CAMERA_POINTS

    doc = json.loads(good_inputs["--scene"].read_text())
    if change == "rows":
        doc["grid"]["rows"] = MAX_GRID_SIDE + 1
    else:  # 2 ticks of half the bound and one point more, or one tick past the bound
        doc["n_camera_points"] = MAX_CAMERA_POINTS // 2 + 1 if change == "run" else 10**19
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    outs = [tmp_path / name for name in ("ep.vtep", "truth.jsonl", "obj.ply")]
    argv = ["simulate", "--scene", str(scene), "--dur", "0.2", "--out", str(outs[0]),
            "--truth", str(outs[1]), "--object-out", str(outs[2])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    bound = MAX_GRID_SIDE if change == "rows" else MAX_CAMERA_POINTS
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{bound}" in err, err
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


def test_stats_rate_without_tick_grid_is_one_error_line(tmp_path, capsys, good_inputs):
    data = good_inputs["--episode"].read_bytes()  # the writer refuses this rate, so patch its header
    (n,) = struct.unpack("<I", data[6:10])
    header = json.dumps({**json.loads(data[10 : 10 + n]), "rate_hz": 1e-320}).encode()
    path = tmp_path / "slow.vtep"
    path.write_bytes(data[:6] + struct.pack("<I", len(header)) + header + data[10 + n :])
    assert main(["stats", "--episode", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no finite tick period" in err and err.count("\n") == 1
    assert str(path) in err


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
                        struct.pack("<d", 0.75), struct.pack("<d", 1.5), "normalized readings must lie in [0, 1]"),
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
@pytest.mark.parametrize("sid", ["tactile/x", "camera/0", "joints"])
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


def test_text_report_mode(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    write_scene(scene_path)
    code = main(["simulate", "--scene", str(scene_path), "--rate", "10", "--dur", "0.3",
                 "--out", str(tmp_path / "t.vtep")])
    assert code == 0
    out = capsys.readouterr().out
    assert "tuples: 3" in out
