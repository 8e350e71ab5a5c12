"""Synthetic contact scenes with ground truth for end-to-end validation.

The scene is a rigid primitive following a keyed pose trajectory, squeezed
by a two-finger parallel gripper whose aperture follows its own keys.
Contact is a frictionless penetration spring: each taxel's force is the
stiffness times its penetration depth into the object's implicit surface,
pushed through the sensor response model plus optional ADC noise. Every
quantity is deterministic given the scene seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import InvalidInputError
from .frozen import freeze_mapping, read_only
from .kinematics import (
    PRISMATIC,
    JointState,
    KinematicChain,
    Link,
    PadMount,
    TaxelGrid,
    forward_kinematics,
    taxel_points,
)
from .pointcloud import BASE_FRAME, CloudXYZF
from .se3 import PoseSE3, matrix_to_quat, quat_slerp
from .sensor_model import TactileFrame, TaxelResponseModel, force_to_reading
from .stream_sync import (
    JOINTS_STREAM,
    Episode,
    SyncedTuple,
    TimedSample,
    camera_stream,
    limit_ticks,
    tactile_stream,
    tick_grid,
)

# Sampling a cloud peaks near 120 bytes per point, and a rendered episode holds about 40 bytes
# per camera point, so each bound keeps its largest input near 1 GB.
MAX_OBJECT_POINTS = 1 << 23  # points of an object cloud that `simulate --object-points` asks for
MAX_CAMERA_POINTS = 1 << 23  # camera points a scene's tick, and all the ticks of one run, hold


@dataclass(frozen=True)
class Primitive:
    """Rigid object geometry in its own frame, centered at the origin."""

    kind: str
    size: tuple = ()  # box: (lx, ly, lz)
    radius: float = 0.0
    height: float = 0.0

    def __post_init__(self):
        if self.kind == "box":
            if len(self.size) != 3 or any(s <= 0 for s in self.size):
                raise InvalidInputError("box needs three positive dimensions")
        elif self.kind == "cylinder":
            if self.radius <= 0 or self.height <= 0:
                raise InvalidInputError("cylinder needs positive radius and height")
        elif self.kind == "sphere":
            if self.radius <= 0:
                raise InvalidInputError("sphere needs a positive radius")
        else:
            raise InvalidInputError(f"unknown primitive kind {self.kind!r}")

    @staticmethod
    def box(lx: float, ly: float, lz: float) -> "Primitive":
        return Primitive("box", size=(float(lx), float(ly), float(lz)))

    @staticmethod
    def cylinder(radius: float, height: float) -> "Primitive":
        return Primitive("cylinder", radius=float(radius), height=float(height))

    @staticmethod
    def sphere(radius: float) -> "Primitive":
        return Primitive("sphere", radius=float(radius))

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance to the surface, negative inside."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        if self.kind == "sphere":
            return np.linalg.norm(pts, axis=1) - self.radius
        if self.kind == "box":
            half = np.asarray(self.size) / 2.0
            q = np.abs(pts) - half
            outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
            inside = np.minimum(np.max(q, axis=1), 0.0)
            return outside + inside
        radial = np.linalg.norm(pts[:, :2], axis=1) - self.radius  # cylinder
        axial = np.abs(pts[:, 2]) - self.height / 2.0
        d = np.column_stack([radial, axial])
        outside = np.linalg.norm(np.maximum(d, 0.0), axis=1)
        inside = np.minimum(np.max(d, axis=1), 0.0)
        return outside + inside

    def to_dict(self) -> dict:
        if self.kind == "box":
            return {"kind": "box", "size": list(self.size)}
        if self.kind == "cylinder":
            return {"kind": "cylinder", "radius": self.radius, "height": self.height}
        return {"kind": "sphere", "radius": self.radius}

    @staticmethod
    def from_dict(d: dict) -> "Primitive":
        kind = d["kind"]
        if kind == "box":
            return Primitive.box(*d["size"])
        if kind == "cylinder":
            return Primitive.cylinder(d["radius"], d["height"])
        if kind == "sphere":
            return Primitive.sphere(d["radius"])
        raise InvalidInputError(f"unknown primitive kind {kind!r}")


def sample_object_cloud(primitive: Primitive, n: int, seed: int) -> np.ndarray:
    """n surface points, uniform by area; deterministic by seed."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if primitive.kind == "sphere":
        dirs = rng.normal(size=(n, 3))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return primitive.radius * dirs / norms
    if primitive.kind == "box":
        lx, ly, lz = primitive.size
        # face order: -x, +x, -y, +y, -z, +z
        areas = np.array([ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly])
        faces = rng.choice(6, size=n, p=areas / areas.sum())
        u = rng.uniform(-0.5, 0.5, size=(n, 2))
        pts = np.empty((n, 3))
        half = np.array([lx, ly, lz]) / 2.0
        for f in range(6):
            mask = faces == f
            axis = f // 2
            sign = -1.0 if f % 2 == 0 else 1.0
            others = [i for i in range(3) if i != axis]
            pts[mask, axis] = sign * half[axis]
            pts[mask, others[0]] = u[mask, 0] * (2 * half[others[0]])
            pts[mask, others[1]] = u[mask, 1] * (2 * half[others[1]])
        return pts
    r, h = primitive.radius, primitive.height  # cylinder
    lateral = 2 * np.pi * r * h
    cap = np.pi * r * r
    region = rng.choice(3, size=n, p=np.array([lateral, cap, cap]) / (lateral + 2 * cap))
    theta = rng.uniform(0.0, 2 * np.pi, size=n)
    pts = np.empty((n, 3))
    side = region == 0
    pts[side, 0] = r * np.cos(theta[side])
    pts[side, 1] = r * np.sin(theta[side])
    pts[side, 2] = rng.uniform(-h / 2, h / 2, size=int(side.sum()))
    for reg, sign in ((1, -1.0), (2, 1.0)):
        mask = region == reg
        rho = r * np.sqrt(rng.uniform(size=int(mask.sum())))
        pts[mask, 0] = rho * np.cos(theta[mask])
        pts[mask, 1] = rho * np.sin(theta[mask])
        pts[mask, 2] = sign * h / 2
    return pts


# Pad frames for a two-finger gripper closing along the gripper x axis.
# Columns map pad axes into the gripper frame; z_pad is the inward normal.
_PAD_ROT_POS = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
_PAD_ROT_NEG = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])


def two_finger_gripper(gripper_pose: PoseSE3, grid: TaxelGrid):
    """Chain + mounts for two opposed pads whose gap is set by the joint state.

    The chain is a two-link prismatic path: joint values [gap/2, -gap]
    place pad 0 at +gap/2 and pad 1 at -gap/2 along the gripper x axis,
    grids centered on the axis, normals facing each other.
    """
    chain = KinematicChain(
        (
            Link(fixed=gripper_pose, joint=PRISMATIC, axis=np.array([1.0, 0.0, 0.0])),
            Link(fixed=PoseSE3.identity(), joint=PRISMATIC, axis=np.array([1.0, 0.0, 0.0])),
        )
    )
    center = np.array([(grid.cols - 1) / 2.0 * grid.pitch, (grid.rows - 1) / 2.0 * grid.pitch, 0.0])
    mounts = [
        PadMount(0, 0, PoseSE3(matrix_to_quat(_PAD_ROT_POS), -_PAD_ROT_POS @ center), grid),
        PadMount(1, 1, PoseSE3(matrix_to_quat(_PAD_ROT_NEG), -_PAD_ROT_NEG @ center), grid),
    ]
    return chain, mounts


def joints_for_aperture(gap: float, timestamp_us: int = 0) -> JointState:
    return JointState(np.array([gap / 2.0, -gap]), timestamp_us)


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to render a deterministic contact episode."""

    obj: Primitive
    object_trajectory: tuple  # ((t_seconds, PoseSE3), ...)
    aperture_trajectory: tuple  # ((t_seconds, gap_meters), ...)
    gripper_pose: PoseSE3 = field(default_factory=PoseSE3.identity)
    grid: TaxelGrid = field(default_factory=TaxelGrid)
    stiffness: float = 2000.0
    noise_sigma: float = 0.0
    sensor: TaxelResponseModel = field(default_factory=TaxelResponseModel)
    seed: int = 0
    n_camera_points: int = 1024

    def __post_init__(self):
        traj = tuple((float(t), p) for t, p in self.object_trajectory)
        apert = tuple((float(t), float(g)) for t, g in self.aperture_trajectory)
        if not traj or not apert:
            raise InvalidInputError("trajectories must have at least one key")
        for keys in (traj, apert):
            if any(b[0] < a[0] for a, b in zip(keys, keys[1:])):
                raise InvalidInputError("trajectory keys must be time-sorted")
        if not all(g >= 0 for _, g in apert):  # written so that NaN fails these checks
            raise InvalidInputError("aperture must be nonnegative")
        if not (self.stiffness > 0):
            raise InvalidInputError("stiffness must be positive")
        if not (self.noise_sigma >= 0):
            raise InvalidInputError("noise sigma must be nonnegative")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")
        n = self.n_camera_points
        if not (1 <= n <= MAX_CAMERA_POINTS):
            raise InvalidInputError(f"n_camera_points must lie in [1, {MAX_CAMERA_POINTS}], got {n}")
        object.__setattr__(self, "object_trajectory", traj)
        object.__setattr__(self, "aperture_trajectory", apert)

    def chain_and_mounts(self):
        return two_finger_gripper(self.gripper_pose, self.grid)

    def object_pose_at(self, t: float) -> PoseSE3:
        return _interp(self.object_trajectory, t, "object trajectory", _blend_poses)

    def aperture_at(self, t: float) -> float:
        return _interp(self.aperture_trajectory, t, "aperture trajectory", _blend_scalars)

    def to_dict(self) -> dict:
        return {
            "object": self.obj.to_dict(),
            "object_trajectory": [{"t": t, "pose": p.to_dict()} for t, p in self.object_trajectory],
            "aperture_trajectory": [{"t": t, "gap": g} for t, g in self.aperture_trajectory],
            "gripper_pose": self.gripper_pose.to_dict(),
            "grid": self.grid.to_dict(),
            "stiffness": self.stiffness,
            "noise_sigma": self.noise_sigma,
            "sensor": self.sensor.to_dict(),
            "seed": self.seed,
            "n_camera_points": self.n_camera_points,
        }

    @staticmethod
    def from_dict(d: dict) -> "SceneSpec":
        """The file names obj "object"; keys it leaves out take the dataclass defaults."""
        return jsonio.fields_from(
            SceneSpec,
            {**d, "obj": d["object"]},
            obj=Primitive.from_dict,
            object_trajectory=lambda keys: tuple((k["t"], PoseSE3.from_dict(k["pose"])) for k in keys),
            aperture_trajectory=lambda keys: tuple((k["t"], k["gap"]) for k in keys),
            gripper_pose=PoseSE3.from_dict,
            grid=TaxelGrid.from_dict,
            sensor=TaxelResponseModel.from_dict,
        )

    def save(self, path) -> None:
        jsonio.write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "SceneSpec":
        return jsonio.read_json(path, SceneSpec.from_dict)


def _interp(keys, t: float, what: str, blend):
    """The value of time-sorted (t, value) keys at t; a single key holds for all time."""
    lo, hi = (keys[0][0], keys[-1][0]) if len(keys) > 1 else (-np.inf, np.inf)
    if not (lo <= t <= hi):  # written so that NaN fails it
        raise InvalidInputError(f"t={t} outside {what} span [{lo}, {hi}]")
    if len(keys) == 1:
        return keys[0][1]
    for (t0, v0), (t1, v1) in zip(keys, keys[1:]):
        if t <= t1:
            return blend(v0, v1, 0.0 if t1 == t0 else (t - t0) / (t1 - t0))


def _blend_poses(p0: PoseSE3, p1: PoseSE3, alpha: float) -> PoseSE3:
    return PoseSE3(quat_slerp(p0.q, p1.q, alpha), (1.0 - alpha) * p0.t + alpha * p1.t)


def _blend_scalars(v0: float, v1: float, alpha: float) -> float:
    return (1.0 - alpha) * v0 + alpha * v1


@dataclass(frozen=True)
class ContactSnapshot:
    """Simulator output for one instant."""

    t_us: int
    object_pose: PoseSE3
    aperture: float
    joints: JointState
    forces: dict  # pad_id -> (rows, cols) float Newtons
    frames: dict  # pad_id -> raw TactileFrame

    def __post_init__(self):
        freeze_mapping(self, "forces", read_only)
        freeze_mapping(self, "frames")


def simulate_contact(scene: SceneSpec, t: float) -> ContactSnapshot:
    """Penetration-spring contact at time t: forces and noisy ADC frames."""
    pose_obj = scene.object_pose_at(t)
    gap = scene.aperture_at(t)
    t_us = int(round(t * 1e6))
    joints = joints_for_aperture(gap, t_us)
    chain, mounts = scene.chain_and_mounts()
    link_poses = forward_kinematics(chain, joints)
    inv_obj = pose_obj.inverse()
    rng = np.random.default_rng([scene.seed, t_us])
    forces = {}
    frames = {}
    for mount in mounts:
        pad_pose = link_poses[mount.link_index] @ mount.mount_transform
        pts_world = taxel_points(pad_pose, mount.grid)
        depth = -scene.obj.sdf(inv_obj.apply(pts_world))
        force = scene.stiffness * np.maximum(depth, 0.0)
        grid = force.reshape(mount.grid.rows, mount.grid.cols)
        reading = force_to_reading(scene.sensor, grid)
        if scene.noise_sigma > 0:
            reading = reading + rng.normal(0.0, scene.noise_sigma, size=reading.shape)
        reading = np.clip(np.rint(reading), 0, scene.sensor.r_max).astype(np.uint16)
        forces[mount.pad_id] = grid
        frames[mount.pad_id] = TactileFrame(mount.pad_id, t_us, reading, normalized=False)
    return ContactSnapshot(t_us, pose_obj, gap, joints, forces, frames)


@dataclass(frozen=True)
class GroundTruthTick:
    t_us: int
    pose: PoseSE3
    forces: dict  # pad_id -> (rows, cols) float Newtons

    def __post_init__(self):
        freeze_mapping(self, "forces", read_only)

    def to_dict(self) -> dict:
        return {
            "t_us": self.t_us,
            "pose": self.pose.to_dict(),
            "forces": {str(k): v.tolist() for k, v in self.forces.items()},
        }

    @staticmethod
    def from_dict(d: dict) -> "GroundTruthTick":
        return GroundTruthTick(
            t_us=int(d["t_us"]),
            pose=PoseSE3.from_dict(d["pose"]),
            forces={int(k): v for k, v in d.get("forces", {}).items()},
        )


@dataclass(frozen=True)
class GroundTruth:
    ticks: tuple

    def poses(self) -> list:
        return [(tick.t_us, tick.pose) for tick in self.ticks]

    def save_jsonl(self, path) -> None:
        jsonio.write_jsonl(path, (tick.to_dict() for tick in self.ticks))

    @staticmethod
    def load_jsonl(path) -> "GroundTruth":
        return GroundTruth(tuple(jsonio.read_jsonl(path, GroundTruthTick.from_dict)))


def render_episode(scene: SceneSpec, rate_hz: float, duration_s: float):
    """Synchronized tuples at rate_hz plus the matching ground truth.

    Each tick carries two tactile frames, one camera-like cloud freshly
    sampled from the object surface (whole surface; no occlusion model),
    and the joint state matching the aperture. Bit-identical under the
    same scene seed. Ticks sit on the tick_grid of rate_hz from 0, one for
    each whole period that fits in duration_s, at most stream_sync.MAX_TICKS of them, and
    all their clouds hold at most MAX_CAMERA_POINTS points.
    """
    if not (0 < rate_hz < np.inf and 0 < duration_s < np.inf):  # written so that NaN fails it
        raise InvalidInputError("rate and duration must be positive and finite")
    tuples = []
    truth = []
    # the grid's last point in [0, duration] ends the last whole period, so it is no tick; the
    # duration is cut to the int64 microseconds of a .vtep tick, so that round() stays finite
    end_us = round(min(duration_s * 1e6, 2.0**63))
    ticks = limit_ticks(tick_grid(rate_hz, 0, end_us)[:-1])
    if len(ticks) * scene.n_camera_points > MAX_CAMERA_POINTS:
        raise InvalidInputError(
            f"{len(ticks)} ticks of {scene.n_camera_points} camera points hold more than {MAX_CAMERA_POINTS}; "
            "shorten the run or lower n_camera_points"
        )
    for k, tick in enumerate(ticks):
        snap = simulate_contact(scene, tick / 1e6)
        cam_seed = int(np.random.default_rng([scene.seed, 7, k]).integers(2**63))
        local = sample_object_cloud(scene.obj, scene.n_camera_points, cam_seed)
        world = snap.object_pose.apply(local)
        cloud = CloudXYZF.from_xyz(world, BASE_FRAME)
        members = {}
        for pad_id, frame in snap.frames.items():
            sid = tactile_stream(pad_id)
            members[sid] = TimedSample(sid, snap.t_us, frame)
        members[camera_stream(0)] = TimedSample(camera_stream(0), snap.t_us, cloud)
        members[JOINTS_STREAM] = TimedSample(JOINTS_STREAM, snap.t_us, snap.joints)
        tuples.append(SyncedTuple(snap.t_us, members))
        truth.append(GroundTruthTick(snap.t_us, snap.object_pose, snap.forces))
    streams = sorted(tuples[0].members) if tuples else []
    episode = Episode(
        rate_hz=rate_hz,
        tolerance_us=0,
        streams=streams,
        tuples=tuples,
        metadata={"source": "simulator", "scene_seed": scene.seed},
    )
    return episode, GroundTruth(tuple(truth))
