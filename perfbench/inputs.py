"""Write a workload's inputs from its seed.

Usage: python inputs.py SRC_DIR WORKDIR ingest_noisy|fuse_dense|track_grasp SEED [--quick]

The parent runs this as its own process, so that building the inputs
leaves no mark on the measured process's peak RSS. The ingest capture
comes from the reference frame writer; the simulated episodes come from
`vitac simulate`. What the checks need is saved next to the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import reference as ref

# ingest_noisy: four pads (two per gripper, two grippers) at 50 Hz plus a
# 100 Hz joint log, synchronized at 50 Hz within 10 ms.
PADS = 4
FRAME_RATE_HZ = 50
JITTER_US = 3000
CORRUPT_SHARE = 0.02
GARBAGE_MAX = 24
JOINT_RATE_HZ = 100
SYNC_RATE_HZ = 50
SYNC_TOL_US = 10_000
START_US = 1_000_000

# fuse_dense and track_grasp: the box grasp of the project README and of
# acceptance criterion 6, a 40 x 40 x 80 mm box squeezed along its long
# axis by two 16x16 pads at a 3 mm pitch (1.5 mm penetration per side).
GRIP_ROT = [[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
RATE_HZ = 10
DURATION_S = 5
SPIN_DEG_PER_S = 10.0
# Crops the bottom 10 mm of the box sides and its bottom face from the view.
CROP_BOX = {"min": [-0.1, -0.1, -0.03], "max": [0.1, 0.1, 0.1]}


def sizes(quick: bool) -> dict:
    # fuse_dense rounds of 10 ticks (under a second) keep a reference-speed
    # reading close to every stretch of FPS; see README, "Noise".
    if quick:
        return {"frames_per_pad": 100, "camera_points": 2000, "fuse_duration_s": 1, "particles": 512}
    return {"frames_per_pad": 1000, "camera_points": 20000, "fuse_duration_s": 1, "particles": 2048}


def make_capture(seed: int, frames_per_pad: int) -> dict:
    """A noisy serial capture plus the frames and joint states it should yield."""
    rng = np.random.default_rng([seed, 1])
    period = round(1e6 / FRAME_RATE_HZ)
    k = np.arange(frames_per_pad)
    ts = (START_US + k[None, :] * period + rng.integers(-2000, 2001, size=(PADS, 1))
          + rng.integers(-JITTER_US, JITTER_US + 1, size=(PADS, frames_per_pad)))
    n = PADS * frames_per_pad
    # one pressure blob per frame over a low noise floor
    grid = np.arange(16.0)
    cy, cx = rng.uniform(3, 12, size=(2, n, 1, 1))
    sigma = rng.uniform(1.5, 3.5, size=(n, 1, 1))
    amp = rng.uniform(200, 1000, size=(n, 1, 1))
    blob = amp * np.exp(-((grid[:, None] - cy) ** 2 + (grid[None, :] - cx) ** 2) / (2 * sigma**2))
    readings = np.clip(np.rint(blob + rng.integers(0, 12, size=(n, 16, 16))), 0, ref.R_MAX).astype(np.uint16)

    order = np.argsort(ts.ravel(), kind="stable")
    pad_ids = np.repeat(np.arange(PADS), frames_per_pad)[order]
    seqs = np.tile(k, PADS)[order]
    stamps = ts.ravel()[order]
    readings = readings[order]
    frames = ref.encode_frames(pad_ids, seqs, stamps, readings)

    # the last frame stays clean so that no candidate is left pending at the end
    corrupt = np.zeros(n, dtype=bool)
    corrupt[rng.choice(n - 1, size=round(CORRUPT_SHARE * n), replace=False)] = True
    garbage_len = rng.integers(0, GARBAGE_MAX + 1, size=n)
    chunks = []
    for i, frame in enumerate(frames):
        junk = rng.integers(0, 255, size=garbage_len[i])
        junk[junk >= 0xA5] += 1  # no magic byte in the garbage: no false candidates
        chunks.append(junk.astype(np.uint8).tobytes())
        if corrupt[i]:
            frame = bytearray(frame)
            frame[int(rng.integers(16, 336))] ^= int(rng.integers(1, 256))
        chunks.append(bytes(frame))

    joint_period = round(1e6 / JOINT_RATE_HZ)
    n_joints = (int(ts.max()) - START_US) // joint_period + 4
    joint_ts = (START_US - 2 * joint_period + np.arange(n_joints) * joint_period
                + rng.integers(-2000, 2001, size=n_joints))
    gaps = 0.06 + 0.02 * np.sin(np.arange(n_joints)[:, None] / 50.0 + np.array([0.0, 1.0]))
    positions = np.column_stack([gaps[:, 0] / 2, -gaps[:, 0], gaps[:, 1] / 2, -gaps[:, 1]])
    keep = ~corrupt
    return {
        "raw": b"".join(chunks),
        "n_corrupt": int(corrupt.sum()),
        "pad_ids": pad_ids[keep], "seqs": seqs[keep], "stamps": stamps[keep], "readings": readings[keep],
        "joint_ts": joint_ts, "joint_positions": positions,
    }


def write_capture(workdir: Path, seed: int, quick: bool) -> None:
    cap = make_capture(seed, sizes(quick)["frames_per_pad"])
    (workdir / "raw.bin").write_bytes(cap.pop("raw"))
    with open(workdir / "joints.jsonl", "w") as fh:
        for ts, pos in zip(cap["joint_ts"], cap["joint_positions"]):
            fh.write(json.dumps({"timestamp_us": int(ts), "positions": pos.tolist()}) + "\n")
    np.savez(workdir / "sent.npz", **cap)


def write_scenes(workdir: Path, workload: str, seed: int, quick: bool) -> None:
    from vitac.cli import main
    from vitac.kinematics import TaxelGrid, save_chain_file
    from vitac.se3 import PoseSE3, matrix_to_quat
    from vitac.sim_oracle import Primitive, SceneSpec

    size = sizes(quick)
    scene_seed = int(np.random.default_rng([seed, 2]).integers(2**31))

    def scene(trajectory) -> SceneSpec:
        return SceneSpec(
            obj=Primitive.box(0.04, 0.04, 0.08),
            object_trajectory=trajectory,
            aperture_trajectory=((0.0, 0.077),),
            gripper_pose=PoseSE3(matrix_to_quat(np.asarray(GRIP_ROT)), np.zeros(3)),
            grid=TaxelGrid(16, 16, 3.0e-3),
            seed=scene_seed,
            n_camera_points=size["camera_points"],
        )

    def simulate(spec: SceneSpec, name: str, duration_s: float, extra: list) -> None:
        spec.save(workdir / f"{name}.scene.json")
        argv = ["--seed", str(scene_seed), "simulate", "--scene", str(workdir / f"{name}.scene.json"),
                "--rate", str(RATE_HZ), "--dur", str(duration_s), "--out", str(workdir / f"{name}.vtep")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + extra)
        if code != 0:
            raise SystemExit(f"simulate {name} exited with {code}")

    static = scene(((0.0, PoseSE3.identity()),))
    chain, mounts = static.chain_and_mounts()
    save_chain_file(workdir / "chain.json", chain, mounts)
    if workload == "fuse_dense":
        (workdir / "box.json").write_text(json.dumps(CROP_BOX))
        simulate(static, "dense", size["fuse_duration_s"], [])
        return
    end = PoseSE3.from_rotvec([0.0, 0.0, np.radians(SPIN_DEG_PER_S * DURATION_S)])
    rotating = scene(((0.0, PoseSE3.identity()), (float(DURATION_S), end)))
    simulate(static, "static", DURATION_S, ["--object-out", str(workdir / "object.ply")])
    simulate(rotating, "rotating", DURATION_S, [])
    prior = {"center": {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]},
             "translation_half_extent": 0.03, "rotation_half_angle_deg": 20}
    # criterion 6 sizes the rotating filter's diffusion to the known spin (~1 deg per tick)
    for name, extra in (("static", {}), ("rotating", {"sigma_rotation": 0.05})):
        config = {"particle_count": size["particles"], "prior": prior, **extra}
        (workdir / f"{name}.tracker.json").write_text(json.dumps(config))


if __name__ == "__main__":
    src, workdir, workload, seed = sys.argv[1:5]
    quick = "--quick" in sys.argv[5:]
    if workload == "ingest_noisy":
        write_capture(Path(workdir), int(seed), quick)
    else:
        sys.path.insert(0, src)
        write_scenes(Path(workdir), workload, int(seed), quick)
