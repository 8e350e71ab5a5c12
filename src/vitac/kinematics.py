"""Serial-chain forward kinematics and taxel placement.

A chain is an ordered list of links, each a fixed parent transform plus a
revolute, prismatic, or fixed joint. Pads mount on links; a pad pose
expands to 256 taxel positions laid out row-major to match the reading
order of a tactile frame.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import jsonio
from .errors import InvalidInputError
from .frozen import freeze
from .pointcloud import BASE_FRAME, CloudXYZF
from .se3 import MAX_LENGTH_M, PoseSE3
from .sensor_model import PAD_COLS, PAD_ROWS

REVOLUTE = "revolute"
PRISMATIC = "prismatic"
FIXED = "fixed"


@dataclass(frozen=True, eq=False)
class Link:
    fixed: PoseSE3
    joint: str = FIXED
    axis: np.ndarray | None = None

    def __post_init__(self):
        if self.joint not in (REVOLUTE, PRISMATIC, FIXED):
            raise InvalidInputError(f"unknown joint type {self.joint!r}")
        if self.joint == FIXED:
            if self.axis is not None:
                raise InvalidInputError("fixed joints take no axis")
            return
        if self.axis is None:
            raise InvalidInputError(f"{self.joint} joint requires an axis")
        norm = float(np.linalg.norm(freeze(self, "axis", 3)))
        if abs(norm - 1.0) > 1e-9:
            raise InvalidInputError(f"joint axis must be unit norm, got |axis|={norm}")


@dataclass(frozen=True)
class KinematicChain:
    links: tuple

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))

    @property
    def n_joints(self) -> int:
        return sum(1 for link in self.links if link.joint != FIXED)


@dataclass(frozen=True, eq=False)
class JointState:
    positions: np.ndarray
    timestamp_us: int = 0

    def __post_init__(self):
        self.check(freeze(self, "positions", -1))
        object.__setattr__(self, "timestamp_us", int(self.timestamp_us))

    @staticmethod
    def check(positions: np.ndarray) -> None:
        if not np.all(np.isfinite(positions)):
            raise InvalidInputError("joint positions must be finite")


MAX_GRID_SIDE = 1 << 11  # rows or cols of a TaxelGrid: a simulated tick holds about 140 bytes a taxel


@dataclass(frozen=True)
class TaxelGrid:
    rows: int = PAD_ROWS
    cols: int = PAD_COLS
    pitch: float = 1.75e-3

    def __post_init__(self):
        if not (1 <= self.rows <= MAX_GRID_SIDE and 1 <= self.cols <= MAX_GRID_SIDE):
            shape = f"{self.rows} x {self.cols}"
            raise InvalidInputError(f"grid rows and cols must lie in [1, {MAX_GRID_SIDE}], got {shape}")
        if not (0 < self.pitch <= MAX_LENGTH_M):  # written so that NaN fails it
            raise InvalidInputError(f"pitch must lie in (0, {MAX_LENGTH_M}] m, got {self.pitch}")

    @property
    def count(self) -> int:
        return self.rows * self.cols

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TaxelGrid":
        return jsonio.fields_from(TaxelGrid, d)


@dataclass(frozen=True)
class PadMount:
    """Placement of one sensor pad: which link, where on it, and its grid."""

    pad_id: int
    link_index: int
    mount_transform: PoseSE3 = field(default_factory=PoseSE3.identity)
    grid: TaxelGrid = field(default_factory=TaxelGrid)


def forward_kinematics(chain: KinematicChain, joints: JointState) -> list[PoseSE3]:
    """Pose of every link in the base frame; the implicit base pose is identity."""
    if len(joints.positions) != chain.n_joints:
        raise InvalidInputError(
            f"chain has {chain.n_joints} joints but state carries {len(joints.positions)}"
        )
    poses = []
    pose = PoseSE3.identity()
    qi = iter(joints.positions)
    for link in chain.links:
        if link.joint == REVOLUTE:
            motion = PoseSE3.from_rotvec(link.axis * next(qi))
        elif link.joint == PRISMATIC:
            motion = PoseSE3(t=link.axis * next(qi))
        else:
            motion = PoseSE3.identity()
        pose = pose @ link.fixed @ motion
        poses.append(pose)
    return poses


def taxel_points(pad_pose: PoseSE3, grid: TaxelGrid) -> np.ndarray:
    """World positions of every taxel, row-major: point(r, c) = pose(c*pitch, r*pitch, 0)."""
    r, c = np.meshgrid(np.arange(grid.rows), np.arange(grid.cols), indexing="ij")
    local = np.column_stack(
        [c.ravel() * grid.pitch, r.ravel() * grid.pitch, np.zeros(grid.count)]
    )
    return pad_pose.apply(local)


def tactile_point_cloud(frames, chain: KinematicChain, joints: JointState, mounts) -> CloudXYZF:
    """Tactile points for every mounted pad, positions from FK, values from readings.

    frames maps pad_id to a normalized TactileFrame; per-pad blocks are
    concatenated in mount order, each row-major within the pad.
    """
    link_poses = forward_kinematics(chain, joints)
    blocks = []
    for mount in mounts:
        frame = frames.get(mount.pad_id)
        if frame is None:
            raise InvalidInputError(f"no frame supplied for pad {mount.pad_id}")
        if not frame.normalized:
            raise InvalidInputError(f"frame for pad {mount.pad_id} is not normalized")
        if frame.readings.size != mount.grid.count:
            raise InvalidInputError(
                f"pad {mount.pad_id}: frame has {frame.readings.size} readings, "
                f"grid expects {mount.grid.count}"
            )
        if not (0 <= mount.link_index < len(chain.links)):
            raise InvalidInputError(f"mount link index {mount.link_index} out of range")
        pad_pose = link_poses[mount.link_index] @ mount.mount_transform
        xyz = taxel_points(pad_pose, mount.grid)
        blocks.append(np.column_stack([xyz, frame.values().ravel()]))
    if not blocks:
        return CloudXYZF.empty(BASE_FRAME)
    return CloudXYZF(np.concatenate(blocks, axis=0), BASE_FRAME)


def _link_to_dict(link: Link) -> dict:
    d = {"fixed": link.fixed.to_dict(), "joint": link.joint}
    if link.axis is not None:
        d["axis"] = link.axis.tolist()
    return d


def _link_from_dict(d: dict) -> Link:
    return Link(PoseSE3.from_dict(d["fixed"]), joint=d.get("joint", FIXED), axis=d.get("axis"))


def _mount_to_dict(mount: PadMount) -> dict:
    return {
        "pad_id": mount.pad_id,
        "link": mount.link_index,
        "transform": mount.mount_transform.to_dict(),
        "grid": mount.grid.to_dict(),
    }


def _mount_from_dict(d: dict) -> PadMount:
    return PadMount(
        pad_id=int(d["pad_id"]),
        link_index=int(d["link"]),
        mount_transform=PoseSE3.from_dict(d["transform"]),
        grid=TaxelGrid.from_dict(d.get("grid", {})),
    )


def _chain_from_dict(doc: dict) -> tuple[KinematicChain, list[PadMount]]:
    chain = KinematicChain(tuple(_link_from_dict(d) for d in doc["links"]))
    return chain, [_mount_from_dict(d) for d in doc.get("mounts", [])]


def save_chain_file(path, chain: KinematicChain, mounts) -> None:
    links = [_link_to_dict(link) for link in chain.links]
    jsonio.write_json(path, {"links": links, "mounts": [_mount_to_dict(m) for m in mounts]})


def load_chain_file(path) -> tuple[KinematicChain, list[PadMount]]:
    """Read the chain + mounts JSON consumed by the fuse/track commands."""
    return jsonio.read_json(path, _chain_from_dict)
