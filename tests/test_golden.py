"""Golden outputs: the sha256 of every command's seeded output files and --json reports.

Each command runs in-process through main, in a temporary directory and with relative paths,
since fuse writes its input's path into its header. fuse, track and eval run twice: with the
two-core machinery on (fuse's forked worker, the tracker's worker thread) and with
stream_sync.cpus patched to 1. Both runs must give the manifest's bytes.

The manifest, tests/golden.json, records the numpy and scipy versions it was made with, and
under others the test fails and names both. A change that alters output bytes on purpose
regenerates the manifest in the same diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from vitac import pose_tracker, stream_sync
from vitac.cli import main
from vitac.frame_codec import encode_frame
from vitac.kinematics import TaxelGrid, save_chain_file
from vitac.pointcloud import CloudXYZF, write_cloud_ply
from vitac.se3 import PoseSE3, matrix_to_quat
from vitac.sensor_model import TactileFrame
from vitac.sim_oracle import Primitive, SceneSpec

MANIFEST = Path(__file__).with_name("golden.json")
GRIP_ROT = np.array([[0.0, 0, -1], [0, 1, 0], [1, 0, 0]])
_PRIOR = {"center": PoseSE3.identity().to_dict(), "translation_half_extent": 0.03, "rotation_half_angle_deg": 20.0}

# (name, argv, the files it writes); fuse and the commands after it run once per CPU count
COMMANDS = [
    ("calibrate", ["calibrate", "--samples", "samples.csv", "--out", "calib.json", "--pad-id", "1"],
     ["calib.json"]),
    ("decode", ["decode", "--in", "capture.bin", "--out", "frames.jsonl"], ["frames.jsonl"]),
    ("sync", ["sync", "--tactile", "frames.jsonl", "--joints", "joints.jsonl", "--cloud", "clouds",
              "--out", "synced.vtep"], ["synced.vtep"]),
    ("stats", ["stats", "--episode", "synced.vtep"], []),
    *[(f"simulate-{scene}", ["simulate", "--scene", f"{scene}.json", "--dur", "1", "--out", f"{scene}.vtep",
                             "--truth", f"{scene}.truth.jsonl", "--object-out", f"{scene}.ply",
                             "--object-points", "512"],
       [f"{scene}.vtep", f"{scene}.truth.jsonl", f"{scene}.ply"])
      for scene in ("box", "rotating", "cylinder", "sphere")],
    ("fuse", ["fuse", "--episode", "box.vtep", "--chain", "chain.json", "--box", "crop.json", "--nvis", "128",
              "--calib", "calib.json", "--out", "fused.vtep"], ["fused.vtep"]),
    *[(f"track-{scene}", ["--seed", "5", "track", "--episode", f"{scene}.vtep", "--object", "box.ply",
                          "--chain", "chain.json", "--config", f"{scene}.tracker.json",
                          "--out", f"{scene}.poses.jsonl"], [f"{scene}.poses.jsonl"])
      for scene in ("box", "rotating")],
    *[(f"eval-{scene}", ["eval", "--poses", f"{scene}.poses.jsonl", "--truth", f"{scene}.truth.jsonl"], [])
      for scene in ("box", "rotating")],
]
SERIAL = [name for name, _, _ in COMMANDS].index("fuse")


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _scene(obj: Primitive, gap: float, trajectory=((0.0, PoseSE3.identity()),)) -> SceneSpec:
    return SceneSpec(obj=obj, object_trajectory=trajectory, aperture_trajectory=((0.0, gap),),
                     gripper_pose=PoseSE3(matrix_to_quat(GRIP_ROT), np.zeros(3)),
                     grid=TaxelGrid(16, 16, 3.0e-3), noise_sigma=2.0, seed=3, n_camera_points=512)


def write_inputs() -> None:
    """Every input file of COMMANDS, in the current directory."""
    rng = np.random.default_rng(11)
    forces = np.linspace(0.5, 9.0, 30)
    readings = 120.0 * np.log(forces) + 40.0 + rng.normal(0.0, 1.0, forces.size)
    rows = zip(forces.tolist(), readings.tolist())
    Path("samples.csv").write_text("force,reading\n" + "".join(f"{f!r},{r!r}\n" for f, r in rows))
    # two pads at 25 Hz over 1 s, with a burst of noise and a corrupted frame in the stream
    frames = [encode_frame(TactileFrame(pad, 40_000 * i + 3_000 * pad, rng.integers(0, 1024, (16, 16))), i)
              for i in range(26) for pad in (0, 1)]
    frames[9] = frames[9][:-1] + bytes([frames[9][-1] ^ 0xFF])
    frames.insert(20, rng.integers(0, 256, 100, dtype=np.uint8).tobytes())
    Path("capture.bin").write_bytes(b"".join(frames))
    Path("joints.jsonl").write_text("".join(
        json.dumps({"timestamp_us": 20_000 * i + 1_000, "positions": [0.0385, -0.077 + 1e-4 * i]}) + "\n"
        for i in range(51)))
    os.mkdir("clouds")
    for i in range(6):
        write_cloud_ply(CloudXYZF.from_xyz(rng.normal(0.0, 0.05, (40, 3)), "base"), f"clouds/0_{200_000 * i}.ply")
    spin_end = PoseSE3.from_rotvec(np.deg2rad(10.0) * np.array([0.0, 0.0, 1.0]))
    box = Primitive.box(0.04, 0.04, 0.08)
    scenes = {"box": _scene(box, 0.077), "rotating": _scene(box, 0.077, ((0.0, PoseSE3.identity()), (1.0, spin_end))),
              "cylinder": _scene(Primitive.cylinder(0.02, 0.08), 0.077), "sphere": _scene(Primitive.sphere(0.03), 0.057)}
    for name, scene in scenes.items():
        scene.save(f"{name}.json")
    save_chain_file("chain.json", *scenes["box"].chain_and_mounts())
    Path("crop.json").write_text(json.dumps({"min": [-0.1, -0.1, -0.1], "max": [0.1, 0.1, 0.1]}))
    for name, extra in (("box", {}), ("rotating", {"sigma_rotation": 0.05})):
        Path(f"{name}.tracker.json").write_text(json.dumps({"particle_count": 256, "prior": _PRIOR, **extra}))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(commands) -> dict:
    """name -> sha256 of each command's --json report and of every file it writes."""
    out = {}
    for name, argv, files in commands:
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = main(["--json", *argv])
        assert code == 0, f"{name} exited with {code}"
        out[f"{name} report"] = _sha256(report.getvalue().encode())
        out.update({path: _sha256(Path(path).read_bytes()) for path in files})
    return out


@contextlib.contextmanager
def cpus(n: int):
    """fuse's worker and the tracker's worker thread see n CPUs (the second module imports the name)."""
    with mock.patch.object(stream_sync, "cpus", lambda: n), mock.patch.object(pose_tracker, "cpus", lambda: n):
        yield


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding every input and the outputs of the serial commands, and their hashes."""
    d = tmp_path_factory.mktemp("golden")
    with contextlib.chdir(d):
        write_inputs()
        return d, run(COMMANDS[:SERIAL])


@pytest.fixture(scope="module")
def manifest():
    doc = json.loads(MANIFEST.read_text())
    if doc["versions"] != versions():
        pytest.fail(f"{MANIFEST.name} was made with {doc['versions']}, and this run has {versions()}: "
                    "regenerate it (see this module's docstring) and say so in CHANGES.md")
    return doc["sha256"]


def _differ(got: dict, want: dict) -> list:
    return sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))


def test_serial_commands_match_the_manifest(workdir, manifest):
    _, got = workdir
    differ = _differ(got, {name: manifest.get(name) for name in got})
    assert not differ, f"outputs that differ from {MANIFEST.name}: {differ}"


@pytest.mark.parametrize("n_cpus", [2, 1])
def test_fuse_track_and_eval_match_the_manifest_on_one_and_two_cpus(workdir, manifest, n_cpus):
    d, serial = workdir
    with contextlib.chdir(d), cpus(n_cpus):
        differ = _differ({**serial, **run(COMMANDS[SERIAL:])}, manifest)
    assert not differ, f"outputs that differ from {MANIFEST.name}: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_inputs()
        hashes = run(COMMANDS[:SERIAL])
        runs = []
        for n in (2, 1):
            with cpus(n):
                runs.append(run(COMMANDS[SERIAL:]))
        assert runs[0] == runs[1], "fuse, track or eval differ between one and two CPUs"
    MANIFEST.write_text(json.dumps({"versions": versions(), "sha256": {**hashes, **runs[0]}}, indent=1) + "\n")
    print(f"wrote {MANIFEST}")
