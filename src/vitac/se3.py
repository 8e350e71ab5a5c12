"""Rigid transforms as unit quaternion + translation.

Quaternions are scalar-first (w, x, y, z). The vectorized helpers accept
stacked arrays with the quaternion/vector dimension last, so the particle
filter can push thousands of poses through one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import InvalidInputError, check_range
from .frozen import freeze

UNIT_TOL = 1e-9  # how far from 1 a unit quaternion's or joint axis's norm may lie
MAX_LENGTH_M = 1.0  # the largest grid pitch, primitive, aperture, or noise or prior scale, in meters
# A pose read from a file has each translation component in [-MAX_TRANSLATION_M, MAX_TRANSLATION_M]:
# a kilometre is far past any workspace a pad reaches, and sums of its squares stay finite.
MAX_TRANSLATION_M = 1e3
# Below this norm the squares that np.linalg.norm sums are subnormal and lose bits, and past float
# max they overflow; quat_normalize first scales such a quaternion by its largest |component|.
_MIN_PLAIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading dimensions."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    w1, x1, y1, z1 = np.moveaxis(q1, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(q2, -1, 0)
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Each quaternion along the last axis over its norm (see _MIN_PLAIN_NORM); a zero one is refused."""
    q = np.asarray(q, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(q, axis=-1, keepdims=True)
    # min and max allocate nothing (a NaN fails the first test); the tracker calls this every step
    if not (_MIN_PLAIN_NORM <= norm.min(initial=np.inf) and norm.max(initial=0.0) < np.inf):
        ordinary = (norm >= _MIN_PLAIN_NORM) & (norm < np.inf)
        peak = np.where(ordinary, 1.0, np.max(np.abs(q), axis=-1, keepdims=True))
        if np.any(peak == 0.0):
            raise InvalidInputError("zero quaternion is not a rotation")
        q = q / peak
        norm = np.linalg.norm(q, axis=-1, keepdims=True)
    return q / norm


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (or stack of matrices) for unit quaternion(s)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = np.moveaxis(q, -1, 0)
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    m = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    m[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    m[..., 0, 1] = 2.0 * (xy - wz)
    m[..., 0, 2] = 2.0 * (xz + wy)
    m[..., 1, 0] = 2.0 * (xy + wz)
    m[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    m[..., 1, 2] = 2.0 * (yz - wx)
    m[..., 2, 0] = 2.0 * (xz - wy)
    m[..., 2, 1] = 2.0 * (yz + wx)
    m[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return m


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternion (w >= 0) for a single 3x3 rotation matrix."""
    m = np.asarray(m, dtype=np.float64)
    tr = np.trace(m)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return quat_normalize(q)


def rotvec_to_quat(rotvec: np.ndarray) -> np.ndarray:
    """Exponential map so(3) -> unit quaternion, broadcasting over stacks."""
    rotvec = np.asarray(rotvec, dtype=np.float64)
    angle = np.linalg.norm(rotvec, axis=-1, keepdims=True)
    half = 0.5 * angle
    # sinc form is stable at angle -> 0
    small = angle < 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, angle))
    w = np.cos(half)
    xyz = rotvec * k
    return np.concatenate([w, xyz], axis=-1)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by quaternion(s) q with broadcasting."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    qv = q[..., 1:]
    uv = np.cross(qv, v)
    uuv = np.cross(qv, uv)
    return v + 2.0 * (q[..., :1] * uv + uuv)


def quat_geodesic_angle(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Rotation angle (radians) between two unit quaternions, sign-free."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    dot = np.clip(np.abs(np.sum(q1 * q2, axis=-1)), 0.0, 1.0)
    return 2.0 * np.arccos(dot)


def quat_slerp(q1: np.ndarray, q2: np.ndarray, alpha: float) -> np.ndarray:
    """Spherical interpolation between two unit quaternions."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    dot = float(np.dot(q1, q2))
    if dot < 0.0:
        q2 = -q2
        dot = -dot
    dot = min(dot, 1.0)
    theta = np.arccos(dot)
    if theta < 1e-12:
        return quat_normalize(q1 + alpha * (q2 - q1))
    s = np.sin(theta)
    return (np.sin((1.0 - alpha) * theta) * q1 + np.sin(alpha * theta) * q2) / s


@dataclass(frozen=True, eq=False)
class PoseSE3:
    """Rigid transform: rotation (unit quaternion, scalar-first) + translation in meters."""

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        q = freeze(self, "q", 4, finite="pose components must be finite")
        freeze(self, "t", 3, finite="pose components must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(q))  # np.dot on a 1-D array: keep its bits for ordinary poses
        if not _MIN_PLAIN_NORM <= norm < np.inf:
            object.__setattr__(self, "q", quat_normalize(q))
        elif abs(norm - 1.0) > UNIT_TOL:
            object.__setattr__(self, "q", q / norm)
        freeze(self, "q", 4)  # no copy when q was unit already: freeze keeps a read-only array

    @staticmethod
    def identity() -> "PoseSE3":
        return PoseSE3()

    @staticmethod
    def from_rotvec(rotvec, translation=(0.0, 0.0, 0.0)) -> "PoseSE3":
        return PoseSE3(rotvec_to_quat(np.asarray(rotvec, dtype=np.float64)), np.asarray(translation))

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 matrix."""
        m = np.eye(4)
        m[:3, :3] = quat_to_matrix(self.q)
        m[:3, 3] = self.t
        return m

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self applied after other is applied first: (self*other)(x) = self(other(x))."""
        q = quat_normalize(quat_multiply(self.q, other.q))
        t = self.t + quat_rotate(self.q, other.t)
        return PoseSE3(q, t)

    def __matmul__(self, other: "PoseSE3") -> "PoseSE3":
        return self.compose(other)

    def inverse(self) -> "PoseSE3":
        qc = quat_conjugate(self.q)
        return PoseSE3(qc, -quat_rotate(qc, self.t))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform point(s), shape (3,) or (N, 3)."""
        points = np.asarray(points, dtype=np.float64)
        return quat_rotate(self.q, points) + self.t

    def geodesic_angle_to(self, other: "PoseSE3") -> float:
        return float(quat_geodesic_angle(self.q, other.q))

    def to_dict(self) -> dict:
        return jsonio.fields_to(self)

    @staticmethod
    def from_dict(d: dict) -> "PoseSE3":
        """The pose a file holds; each translation component must lie within MAX_TRANSLATION_M."""
        pose = jsonio.fields_from(PoseSE3, d, "q", "t")
        for x in pose.t:
            check_range("pose translation", float(x), -MAX_TRANSLATION_M, MAX_TRANSLATION_M, "m")
        return pose

    def __repr__(self):
        q = ", ".join(f"{v:.6g}" for v in self.q)
        t = ", ".join(f"{v:.6g}" for v in self.t)
        return f"PoseSE3(q=[{q}], t=[{t}])"
