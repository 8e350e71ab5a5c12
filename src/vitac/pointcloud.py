"""Visual point-cloud pipeline and visuo-tactile fusion.

Clouds carry xyz plus one feature channel; visual clouds keep the feature
at zero so they stack against tactile clouds whose feature is the
normalized reading. Fusion appends two one-hot flags marking modality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import InvalidInputError, check_range
from .frozen import freeze
from .se3 import PoseSE3

BASE_FRAME = "base"


@dataclass(frozen=True, eq=False)
class _Cloud:
    """N x WIDTH points in a named frame. Each subclass sets WIDTH and checks its rows, and no
    subclass derives from another: code that takes a CloudXYZF accepts no FusedCloud."""

    points: np.ndarray
    frame: str

    def __post_init__(self):
        self.check(freeze(self, "points", (-1, self.WIDTH)))
        object.__setattr__(self, "frame", str(self.frame))

    def __len__(self):
        return self.points.shape[0]


class CloudXYZF(_Cloud):
    """N x 4 point set: xyz in meters plus one feature channel, in a named frame."""

    WIDTH = 4

    @staticmethod
    def check(points: np.ndarray) -> None:
        if not np.all(np.isfinite(points)):
            raise InvalidInputError("cloud contains non-finite values")

    @staticmethod
    def empty(frame: str) -> "CloudXYZF":
        return CloudXYZF(np.zeros((0, CloudXYZF.WIDTH)), frame)

    @staticmethod
    def from_xyz(xyz: np.ndarray, frame: str) -> "CloudXYZF":
        xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
        return CloudXYZF(np.column_stack([xyz, np.zeros(xyz.shape[0])]), frame)

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def feature(self) -> np.ndarray:
        return self.points[:, 3]


@dataclass(frozen=True, eq=False)
class AABB:
    """Axis-aligned box: inclusive min/max corners in meters."""

    lo: np.ndarray = field(metadata={"key": "min"})
    hi: np.ndarray = field(metadata={"key": "max"})

    def __post_init__(self):
        lo = freeze(self, "lo", 3, finite="box corners must be finite")
        hi = freeze(self, "hi", 3, finite="box corners must be finite")
        if np.any(lo > hi):
            raise InvalidInputError("box min corner exceeds max corner")

    @staticmethod
    def from_dict(d: dict) -> "AABB":
        return jsonio.fields_from(AABB, d)


class FusedCloud(_Cloud):
    """N x 6 visuo-tactile points: xyz, value, onehot_visual, onehot_tactile."""

    WIDTH = 6

    @staticmethod
    def check(points: np.ndarray) -> None:
        if not np.all(np.isfinite(points)):
            raise InvalidInputError("fused cloud contains non-finite values")
        flags = points[:, 4:6]
        if not np.all(np.isin(flags, (0.0, 1.0))):
            raise InvalidInputError("one-hot channels must be 0 or 1")
        if not np.all(flags.sum(axis=1) == 1.0):
            raise InvalidInputError("one-hot channels must sum to 1 per point")
        if np.any(points[flags[:, 0] == 1.0, 3] != 0.0):
            raise InvalidInputError("visual points must carry a zero value channel")

    @property
    def n_visual(self) -> int:
        return int(np.count_nonzero(self.points[:, 4] == 1.0))

    @property
    def n_tactile(self) -> int:
        return int(np.count_nonzero(self.points[:, 5] == 1.0))


def merge(clouds) -> CloudXYZF:
    """Concatenate clouds sharing one frame label, preserving input order."""
    clouds = list(clouds)
    if not clouds:
        return CloudXYZF.empty("")
    frame = clouds[0].frame
    for c in clouds:
        if c.frame != frame:
            raise InvalidInputError(f"frame mismatch: {c.frame!r} vs {frame!r}")
    return CloudXYZF(np.concatenate([c.points for c in clouds], axis=0), frame)


def crop_aabb(cloud: CloudXYZF, box: AABB) -> CloudXYZF:
    """Keep points with lo <= p <= hi componentwise (boundary inclusive), stable order."""
    xyz = cloud.xyz
    mask = np.all((xyz >= box.lo) & (xyz <= box.hi), axis=1)
    return CloudXYZF(cloud.points[mask], cloud.frame)


def fps_indices(xyz: np.ndarray, k: int, seed: int, start: int | None = None) -> np.ndarray:
    """Greedy farthest-point selection over finite xyz rows.

    The start index is a seeded uniform pick unless forced. Each later pick
    maximizes the minimum squared distance to the selected set; ties break
    to the lowest index. Returns min(k, N) unique indices in pick order.
    """
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    n = xyz.shape[0]
    check_range("k", k, 1)
    if n == 0:
        raise InvalidInputError("cannot sample from an empty cloud")
    if not np.all(np.isfinite(xyz)):
        raise InvalidInputError("cannot sample from a cloud with non-finite coordinates")
    if start is None:
        start = int(np.random.default_rng(seed).integers(n))
    check_range("start index", start, 0, n - 1)
    count = min(k, n)
    # The points are sorted along their widest axis, and each pick updates
    # only the slab |key - key[p]| <= r, r = sqrt(m) padded so that r*r > m
    # despite rounding, m the largest dmin left. The searchsorted sides put
    # every point left out strictly beyond kp -+ r, so its rounded dx*dx is
    # already >= m >= dmin; adding nonnegative squares cannot lower a rounded
    # sum, so updating every point would leave those unchanged: the picks are
    # those of the full update.
    axis = int(np.argmax(np.ptp(xyz, axis=0)))
    order = np.argsort(xyz[:, axis], kind="stable")
    cols = np.ascontiguousarray(xyz[order].T)
    key = cols[axis]
    dmin = np.full(n, np.inf)
    sq = np.empty((3, n))
    selected = np.empty(count, dtype=np.int64)
    p, lo, hi = int(np.flatnonzero(order == start)[0]), 0, n
    for i in range(count):
        if i:
            m = dmin.max()
            ties = np.flatnonzero(dmin == m)
            p = int(ties[0])
            if ties.size > 1:  # equal distances go to the lowest input index
                p = int(ties[np.argmin(order[ties])])
            r = math.sqrt(m) * (1.0 + 1e-12)
            kp = float(key[p])
            lo = int(key.searchsorted(kp - r, "left"))
            hi = int(key.searchsorted(kp + r, "right"))
        selected[i] = order[p]
        # (dx*dx + dy*dy) + dz*dz, the arithmetic of the brute-force oracle
        d = sq[:, lo:hi]
        np.subtract(cols[:, lo:hi], cols[:, p : p + 1], out=d)
        np.multiply(d, d, out=d)
        np.add(d[0], d[1], out=d[0])
        np.add(d[0], d[2], out=d[0])
        np.minimum(dmin[lo:hi], d[0], out=dmin[lo:hi])
        dmin[p] = -1.0  # sentinel: never re-select
    return selected


def fps_downsample(cloud: CloudXYZF, k: int, seed: int) -> CloudXYZF:
    """Down-sample to min(k, N) points by farthest point sampling from a seeded start."""
    idx = fps_indices(cloud.xyz, k, seed)
    return CloudXYZF(cloud.points[idx], cloud.frame)


def transform(cloud: CloudXYZF, pose: PoseSE3, new_frame: str) -> CloudXYZF:
    """Rigidly map xyz, keep the feature channel, relabel the frame."""
    xyz = pose.apply(cloud.xyz)
    return CloudXYZF(np.column_stack([xyz, cloud.feature]), new_frame)


def fuse(visual: CloudXYZF, tactile: CloudXYZF) -> FusedCloud:
    """Stack visual then tactile points with one-hot modality flags.

    Visual rows become (x, y, z, 0, 1, 0); tactile rows keep their reading
    as the value channel: (x, y, z, value, 0, 1).
    """
    if visual.frame != tactile.frame:
        raise InvalidInputError(
            f"frame mismatch: visual {visual.frame!r} vs tactile {tactile.frame!r}"
        )
    nv, nt = len(visual), len(tactile)
    out = np.zeros((nv + nt, FusedCloud.WIDTH))
    out[:nv, :3] = visual.xyz
    out[:nv, 4] = 1.0
    out[nv:, :3] = tactile.xyz
    out[nv:, 3] = tactile.feature
    out[nv:, 5] = 1.0
    return FusedCloud(out, visual.frame)


def write_cloud_ply(cloud: CloudXYZF, path) -> None:
    """ASCII PLY with x, y, z, f vertex properties; frame kept in a comment."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"comment frame {cloud.frame}\n")
        fh.write(f"element vertex {len(cloud)}\n")
        for name in ("x", "y", "z", "f"):
            fh.write(f"property double {name}\n")
        fh.write("end_header\n")
        np.savetxt(fh, cloud.points, fmt="%.17g")


def read_cloud_ply(path) -> CloudXYZF:
    """The first four vertex properties of an ASCII PLY, f = 0 when only x, y, z are declared."""
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().strip() != "ply":
                raise ValueError("not a PLY file")
            frame = ""
            n = None
            props = []
            for line in fh:
                parts = line.split()
                if parts == ["end_header"]:
                    break
                if not parts:
                    raise ValueError("blank header line")
                if parts[:2] == ["comment", "frame"]:
                    frame = parts[2] if len(parts) > 2 else ""
                elif parts[:2] == ["element", "vertex"]:
                    n = check_range("vertex count", int(parts[2]), 0)
                elif parts[0] == "property":
                    props.append(parts[2])
            else:
                raise ValueError("missing end_header")
            if n is None:
                raise ValueError("missing vertex element")
            if props[:3] != ["x", "y", "z"]:
                raise ValueError(f"expected x,y,z properties, got {props}")
            lines = list(itertools.islice(fh, n))
        if len(lines) != n:
            raise ValueError(f"expected {n} vertices, got {len(lines)}")
        if not all(line.strip() for line in lines):  # loadtxt would skip it
            raise ValueError("blank vertex line")
        rows = np.loadtxt(lines, ndmin=2, usecols=range(len(props)), comments=None) if n else np.zeros((0, 0))
        points = np.zeros((n, CloudXYZF.WIDTH))
        points[:, : rows.shape[1]] = rows[:, : CloudXYZF.WIDTH]
        return CloudXYZF(points, frame)
    except (IndexError, ValueError) as exc:  # UnicodeDecodeError and InvalidInputError are ValueErrors too
        raise InvalidInputError(f"{path}: {exc}") from None
