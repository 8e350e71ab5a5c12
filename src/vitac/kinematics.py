"""Serial-chain forward kinematics and taxel placement.

A chain is an ordered list of links, each a fixed parent transform plus a
revolute, prismatic, or fixed joint. Pads mount on links; a pad pose
expands to 256 taxel positions laid out row-major to match the reading
order of a tactile frame.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import TIME_MAX, TIME_MIN, InvalidInputError, check_range, check_time
from .frozen import freeze, int_column, owned
from .pointcloud import BASE_FRAME, CloudXYZF
from .se3 import MAX_LENGTH_M, UNIT_TOL, PoseSE3
from .sensor_model import MAX_PAD_ID, PAD_COLS, PAD_ROWS, PAD_TAXELS

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
        if abs(norm - 1.0) > UNIT_TOL:
            raise InvalidInputError(f"joint axis must be unit norm, got |axis|={norm}")


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "timestamp_us", check_time("timestamp_us", self.timestamp_us))

    @staticmethod
    def check(positions: np.ndarray) -> None:
        if not np.isfinite(positions).all():
            raise InvalidInputError("joint positions must be finite")


# The canonical joint line is json.dumps({"timestamp_us": T, "positions": [x, ...]}) and "\n":
# T a time (errors.check_time), each x a JSON number. Such lines are read in blocks, each x as
# json and then jsonio.numbers read it: float(x), which for an integer is float(int(x)) (both
# round to the nearest float) except for "-0", which json reads as the int 0, so as 0.0, never -0.0.
_JSON_NUMBER = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_JOINT_LINE = re.compile(rb'\{"timestamp_us": (-?(?:0|[1-9][0-9]{0,18})), "positions": \[(%s(?:, %s)*)\]\}\n?'
                         % (_JSON_NUMBER, _JSON_NUMBER))


@dataclass(frozen=True, eq=False)
class JointColumns(Sequence):
    """Joint states as columns: their timestamps as an int64 column, and all their positions one
    after another in one read-only float64 array, state i's at values[starts[i] : starts[i + 1]],
    so that states may hold different joint counts.

    As a sequence its items are JointStates, each built when it is read.
    """

    timestamps: np.ndarray
    values: np.ndarray
    starts: np.ndarray  # one more than there are states

    def __post_init__(self):
        object.__setattr__(self, "timestamps", int_column(self.timestamps))
        JointState.check(freeze(self, "values", -1))
        starts = freeze(self, "starts", -1, np.intp)
        if (len(starts) != len(self.timestamps) + 1 or np.any(np.diff(starts) < 0)
                or not 0 <= starts[0] <= starts[-1] <= len(self.values)):
            raise InvalidInputError("joint columns must hold one span of values per timestamp")

    @staticmethod
    def of(states) -> "JointColumns":
        """The columns of a sequence of JointStates."""
        return JointColumns([s.timestamp_us for s in states],
                            owned(np.concatenate([s.positions for s in states])) if states else np.zeros(0),
                            np.cumsum([0, *(len(s.positions) for s in states)]))

    @staticmethod
    def concat(chunks) -> "JointColumns":
        """The states of chunks, a list of JointColumns, one after another."""
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            return JointColumns.of([])
        values = [c.values[c.starts[0] : c.starts[-1]] for c in chunks]
        offsets = np.cumsum([0, *map(len, values)])
        starts = [c.starts[1:] - c.starts[0] + offset for c, offset in zip(chunks, offsets)]
        return JointColumns(owned(np.concatenate([c.timestamps for c in chunks])), owned(np.concatenate(values)),
                            np.concatenate([[0], *starts]))

    @staticmethod
    def canonical(lines: list) -> tuple:
        """(states, read): the columns of the canonical lines among lines, and for each line
        whether it is one."""
        found, stamps, tokens, ends = [], [], [], []
        for i, line in enumerate(lines):
            m = _JOINT_LINE.fullmatch(line)
            if m and TIME_MIN <= (stamp := int(m[1])) <= TIME_MAX:  # else not a time: the line-by-line error
                found.append(i)
                stamps.append(stamp)
                tokens += m[2].split(b", ")
                ends.append(len(tokens))
        read = np.zeros(len(lines), bool)
        if not found:
            return JointColumns.of([]), read
        if b"-0" in tokens:
            tokens = [b"0" if t == b"-0" else t for t in tokens]
        values = np.array(list(map(float, tokens)))
        counts = np.diff(ends, prepend=0)
        finite = np.logical_and.reduceat(np.isfinite(values), np.cumsum(counts) - counts)
        if not finite.all():  # a number too large for a float is left to json, which refuses it
            values, counts = values[np.repeat(finite, counts)], counts[finite]
            stamps = [stamp for stamp, ok in zip(stamps, finite) if ok]
        read[np.array(found)[finite]] = True
        return JointColumns(stamps, owned(values), np.cumsum([0, *counts])), read

    def counts(self, rows) -> np.ndarray:
        """The joint count of each state at rows, an index array."""
        return self.starts[rows + 1] - self.starts[rows]

    def positions(self, rows) -> np.ndarray:
        """(k, j): the positions of the leading states at rows, an index array, that hold as many
        joints, j, as the first."""
        counts = self.counts(rows)
        same = counts == counts[0]
        k = len(rows) if same.all() else int(same.argmin())
        return self.values[self.starts[rows[:k], None] + np.arange(counts[0])]

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            r = range(len(self))[i]
            if r.step != 1:
                raise ValueError("joint columns take slices of step 1 only")
            return JointColumns(self.timestamps[i], self.values, self.starts[r.start : r.start + len(r) + 1])
        i = range(len(self))[i]
        return JointState(self.values[self.starts.item(i) : self.starts.item(i + 1)], self.timestamps.item(i))


def _joint_from_doc(doc) -> JointState:
    stamp = jsonio.number("timestamp_us", doc["timestamp_us"], int)
    return JointState(jsonio.numbers("positions", doc["positions"]), stamp)


def read_joint_lines(path) -> JointColumns:
    """The JointStates of a JSON-lines file, one per nonblank line, in line order, as columns.

    A line may be any JSON object holding timestamp_us and positions. Canonical lines are read
    in blocks; every other line goes through jsonio.loads, with the same states and the same
    "<file>:<line>" errors as if every line did.
    """
    return jsonio.read_jsonl(path, _joint_from_doc, JointColumns)


@dataclass(frozen=True)
class TaxelGrid:
    """A pad's taxel grid. Frames are always PAD_SHAPE, so rows and cols can only be the pad's."""

    rows: int = PAD_ROWS
    cols: int = PAD_COLS
    pitch: float = 1.75e-3

    def __post_init__(self):
        if (self.rows, self.cols) != (PAD_ROWS, PAD_COLS):
            raise InvalidInputError(f"grid must be the pad's {PAD_ROWS} x {PAD_COLS}, got {self.rows} x {self.cols}")
        check_range("pitch", self.pitch, 0, MAX_LENGTH_M, "m", "(]")

    def to_dict(self) -> dict:
        return jsonio.fields_to(self)

    @staticmethod
    def from_dict(d: dict) -> "TaxelGrid":
        return jsonio.fields_from(TaxelGrid, d)


@dataclass(frozen=True, eq=False)
class PadMount:
    """Placement of one sensor pad: which link, where on it, and its grid."""

    pad_id: int
    link_index: int = field(metadata={"key": "link"})
    mount_transform: PoseSE3 = field(default_factory=PoseSE3.identity, metadata={"key": "transform"})
    grid: TaxelGrid = field(default_factory=TaxelGrid)

    def __post_init__(self):
        check_range("pad_id", self.pad_id, 0, MAX_PAD_ID)


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
    r, c = np.meshgrid(np.arange(PAD_ROWS), np.arange(PAD_COLS), indexing="ij")
    local = np.column_stack([c.ravel() * grid.pitch, r.ravel() * grid.pitch, np.zeros(PAD_TAXELS)])
    return pad_pose.apply(local)


def placed_taxels(chain: KinematicChain, joints: JointState, mounts):
    """(mount, world taxel points) for every mount in order, all placed from one FK pass."""
    link_poses = forward_kinematics(chain, joints)
    for mount in mounts:
        check_range(f"pad {mount.pad_id}'s link index", mount.link_index, 0, len(chain.links) - 1)
        yield mount, taxel_points(link_poses[mount.link_index] @ mount.mount_transform, mount.grid)


def tactile_point_cloud(frames, chain: KinematicChain, joints: JointState, mounts) -> CloudXYZF:
    """Tactile points for every mounted pad, positions from FK, values from readings.

    frames maps pad_id to a normalized TactileFrame; per-pad blocks are
    concatenated in mount order, each row-major within the pad.
    """
    blocks = []
    for mount, xyz in placed_taxels(chain, joints, mounts):
        frame = frames.get(mount.pad_id)
        if frame is None:
            raise InvalidInputError(f"no frame supplied for pad {mount.pad_id}")
        if not frame.normalized:
            raise InvalidInputError(f"frame for pad {mount.pad_id} is not normalized")
        blocks.append(np.column_stack([xyz, frame.values().ravel()]))
    return CloudXYZF(np.concatenate([np.zeros((0, CloudXYZF.WIDTH)), *blocks]), BASE_FRAME)


def _chain_from_dict(doc: dict) -> tuple[KinematicChain, list[PadMount]]:
    chain = KinematicChain(tuple(jsonio.fields_from(Link, d) for d in jsonio.json_array("links", doc["links"])))
    mounts = [jsonio.fields_from(PadMount, d, "mount_transform")
              for d in jsonio.json_array("mounts", doc.get("mounts", []))]
    pads = [m.pad_id for m in mounts]
    for i, pad in enumerate(pads):
        if pad in pads[:i]:
            raise InvalidInputError(f"pad {pad} is mounted twice")
    return chain, mounts


def save_chain_file(path, chain: KinematicChain, mounts) -> None:
    links = [jsonio.fields_to(link) for link in chain.links]
    jsonio.write_json(path, {"links": links, "mounts": [jsonio.fields_to(m) for m in mounts]})


def load_chain_file(path) -> tuple[KinematicChain, list[PadMount]]:
    """Read the chain + mounts JSON consumed by the fuse/track commands."""
    return jsonio.read_json(path, _chain_from_dict)
