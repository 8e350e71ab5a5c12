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
from .errors import InvalidInputError, check_range, check_time
from .frozen import freeze_mapping, read_only
from .kinematics import (
    PRISMATIC,
    JointState,
    KinematicChain,
    Link,
    PadMount,
    TaxelGrid,
    placed_taxels,
)
from .pointcloud import BASE_FRAME, CloudXYZF
from .se3 import MAX_LENGTH_M, PoseSE3, matrix_to_quat, quat_slerp
from .sensor_model import MAX_PAD_ID, PAD_COLS, PAD_ROWS, PAD_SHAPE, TactileFrame, TaxelResponseModel, force_to_reading
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
# A primitive's lengths lie in [MIN_LENGTH_M, se3.MAX_LENGTH_M]: a micrometre is far below a taxel's
# pitch, and far above where a face's area, the product of two lengths, underflows.
MIN_LENGTH_M = 1e-6


# Each primitive kind's length fields, as its constructor takes them; a box's size holds three.
_LENGTHS = {"box": ("size",), "cylinder": ("radius", "height"), "sphere": ("radius",)}


@dataclass(frozen=True)
class Primitive:
    """Rigid object geometry in its own frame, centered at the origin."""

    kind: str
    size: tuple = ()  # box: (lx, ly, lz)
    radius: float = 0.0
    height: float = 0.0

    def __post_init__(self):
        names = _LENGTHS.get(self.kind)
        if names is None:
            raise InvalidInputError(f"unknown primitive kind {self.kind!r}")
        if "size" in names and len(self.size) != 3:
            raise InvalidInputError(f"{self.kind} needs three dimensions")
        for name in names:
            value = getattr(self, name)
            value = tuple(map(float, value)) if name == "size" else float(value)
            object.__setattr__(self, name, value)
            for length in np.ravel(value):
                check_range(f"{self.kind} {name}", length, MIN_LENGTH_M, MAX_LENGTH_M, "m")

    @staticmethod
    def box(lx: float, ly: float, lz: float) -> "Primitive":
        return Primitive("box", size=(lx, ly, lz))

    @staticmethod
    def cylinder(radius: float, height: float) -> "Primitive":
        return Primitive("cylinder", radius=radius, height=height)

    @staticmethod
    def sphere(radius: float) -> "Primitive":
        return Primitive("sphere", radius=radius)

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance to the surface, negative inside."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        if self.kind == "sphere":
            return np.linalg.norm(pts, axis=1) - self.radius
        if self.kind == "box":
            return _rounded_box(np.abs(pts) - np.asarray(self.size) / 2.0)
        radial = np.linalg.norm(pts[:, :2], axis=1) - self.radius  # cylinder
        return _rounded_box(np.column_stack([radial, np.abs(pts[:, 2]) - self.height / 2.0]))

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in _LENGTHS[self.kind]}}

    @staticmethod
    def from_dict(d: dict) -> "Primitive":
        """The kind and each of its lengths are read; another kind's lengths are not."""
        names = _LENGTHS.get(jsonio.json_object("object", d).get("kind"), ())
        doc = {key: d[key] for key in ("kind", *names) if key in d}
        return jsonio.fields_from(Primitive, doc, *names, size=np.ndarray)


def _rounded_box(q: np.ndarray) -> np.ndarray:
    """Signed distance from rows of per-axis excesses q over a box's half extents."""
    return np.linalg.norm(np.maximum(q, 0.0), axis=1) + np.minimum(np.max(q, axis=1), 0.0)


def sample_object_cloud(primitive: Primitive, n: int, seed: int) -> np.ndarray:
    """n surface points, uniform by area; deterministic by seed."""
    check_range("n", n, 1)
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
        rows, axis = np.arange(n), faces // 2
        others = np.array([[1, 2], [0, 2], [0, 1]])[axis]
        pts[rows, axis] = np.where(faces % 2 == 0, -1.0, 1.0) * half[axis]
        pts[rows[:, None], others] = u * (2 * half[others])
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


# Pad frames for a two-finger gripper closing along the gripper x axis, pad i on link i: pad 0 at
# +gap/2, pad 1 at -gap/2. Columns map pad axes into the gripper frame; z_pad is the inward normal.
_PAD_ROTATIONS = (
    np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]),
)


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
    center = np.array([(PAD_COLS - 1) / 2.0 * grid.pitch, (PAD_ROWS - 1) / 2.0 * grid.pitch, 0.0])
    mounts = [PadMount(i, i, PoseSE3(matrix_to_quat(rot), -rot @ center), grid)
              for i, rot in enumerate(_PAD_ROTATIONS)]
    return chain, mounts


def joints_for_aperture(gap: float, timestamp_us: int = 0) -> JointState:
    return JointState(np.array([gap / 2.0, -gap]), timestamp_us)


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Everything needed to render a deterministic contact episode."""

    obj: Primitive = field(metadata={"key": "object"})
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
        for _, gap in apert:
            check_range("aperture gap", gap, 0, MAX_LENGTH_M, "m")
        check_range("stiffness", self.stiffness, 0, unit="N/m", ends="(]")
        check_range("noise_sigma", self.noise_sigma, 0, unit="counts")
        check_range("seed", self.seed, 0)
        check_range("n_camera_points", self.n_camera_points, 1, MAX_CAMERA_POINTS)
        object.__setattr__(self, "object_trajectory", traj)
        object.__setattr__(self, "aperture_trajectory", apert)

    def chain_and_mounts(self):
        return two_finger_gripper(self.gripper_pose, self.grid)

    def object_pose_at(self, t: float) -> PoseSE3:
        return _interp(self.object_trajectory, t, "object trajectory", _blend_poses)

    def aperture_at(self, t: float) -> float:
        return _interp(self.aperture_trajectory, t, "aperture trajectory", _blend_scalars)

    def to_dict(self) -> dict:
        """Every field in order; value types write themselves, trajectories as keys."""
        return jsonio.fields_to(
            self,
            object_trajectory=lambda keys: [{"t": t, "pose": p.to_dict()} for t, p in keys],
            aperture_trajectory=lambda keys: [{"t": t, "gap": g} for t, g in keys],
        )

    @staticmethod
    def from_dict(d: dict) -> "SceneSpec":
        """Keys the file leaves out take the dataclass defaults."""
        return jsonio.fields_from(
            SceneSpec,
            d,
            object_trajectory=lambda keys: tuple((jsonio.number("t", k["t"]), PoseSE3.from_dict(k["pose"]))
                                                 for k in keys),
            aperture_trajectory=lambda keys: tuple((jsonio.number("t", k["t"]), jsonio.number("gap", k["gap"]))
                                                   for k in keys),
        )

    def save(self, path) -> None:
        jsonio.write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "SceneSpec":
        return jsonio.read_json(path, SceneSpec.from_dict)


def _interp(keys, t: float, what: str, blend):
    """The value of time-sorted (t, value) keys at t; a single key holds for all time."""
    lo, hi = (keys[0][0], keys[-1][0]) if len(keys) > 1 else (-np.inf, np.inf)
    if not (lo <= t <= hi):
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


@dataclass(frozen=True, eq=False)
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


def simulate_contact(scene: SceneSpec, t_us: int) -> ContactSnapshot:
    """Penetration-spring contact at t_us microseconds: forces and noisy ADC frames, each stamped t_us."""
    pose_obj = scene.object_pose_at(t_us / 1e6)
    gap = scene.aperture_at(t_us / 1e6)
    joints = joints_for_aperture(gap, t_us)
    chain, mounts = scene.chain_and_mounts()
    inv_obj = pose_obj.inverse()
    rng = np.random.default_rng([scene.seed, t_us])
    forces = {}
    frames = {}
    for mount, pts_world in placed_taxels(chain, joints, mounts):
        depth = -scene.obj.sdf(inv_obj.apply(pts_world))
        force = scene.stiffness * np.maximum(depth, 0.0)
        grid = force.reshape(PAD_SHAPE)
        reading = force_to_reading(scene.sensor, grid)
        if scene.noise_sigma > 0:
            reading = reading + rng.normal(0.0, scene.noise_sigma, size=reading.shape)
        reading = np.clip(np.rint(reading), 0, scene.sensor.r_max).astype(np.uint16)
        forces[mount.pad_id] = grid
        frames[mount.pad_id] = TactileFrame(mount.pad_id, t_us, reading, normalized=False)
    return ContactSnapshot(t_us, pose_obj, gap, joints, forces, frames)


@dataclass(frozen=True, eq=False)
class GroundTruthTick:
    t_us: int
    pose: PoseSE3
    forces: dict = field(default_factory=dict)  # pad_id -> (rows, cols) float Newtons

    def __post_init__(self):
        object.__setattr__(self, "t_us", check_time("t_us", self.t_us))
        for pad_id in self.forces:
            check_range("pad_id", pad_id, 0, MAX_PAD_ID)
        freeze_mapping(self, "forces", read_only)

    @staticmethod
    def from_dict(d: dict) -> "GroundTruthTick":
        return jsonio.fields_from(GroundTruthTick, d, forces=lambda f: {
            _pad_key(k): jsonio.numbers(f"forces {k}", v) for k, v in jsonio.json_object("forces", f).items()})


_PAD_KEYS = {str(pad_id): pad_id for pad_id in range(MAX_PAD_ID + 1)}


def _pad_key(key: str) -> int:
    """The pad id that a key of a truth line's forces names, which must be the id's decimal text."""
    if key in _PAD_KEYS:
        return _PAD_KEYS[key]
    raise ValueError(f"forces keys must be pad ids in [0, {MAX_PAD_ID}] written in decimal, got {key!r}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    ticks: tuple

    def poses(self) -> list:
        return [(tick.t_us, tick.pose) for tick in self.ticks]

    def save_jsonl(self, path) -> None:
        docs = (jsonio.fields_to(t, forces=lambda f: {str(k): v.tolist() for k, v in f.items()}) for t in self.ticks)
        jsonio.write_jsonl(path, docs)

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
    check_range("duration", duration_s, 0, unit="s", ends="(]")  # tick_grid checks the rate
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
        snap = simulate_contact(scene, tick)
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
