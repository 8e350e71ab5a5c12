"""Tactile-only 6-DoF pose tracking with a particle filter.

Each particle is a candidate object pose. A step diffuses the particles,
scores them by the summed squared distance from contact points to the
posed object model, converts scores to weights with a temperature-scaled
negative exponential, and resamples systematically when the effective
sample size degenerates. With no contacts there is no information, so
weights are left untouched.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import jsonio
from .errors import DegenerateWeightsError, InvalidInputError, check_range
from .frozen import freeze
from .pointcloud import CloudXYZF
from .se3 import (
    MAX_LENGTH_M,
    PoseSE3,
    quat_geodesic_angle,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    rotvec_to_quat,
)
from .stream_sync import cpus

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

_WEIGHT_SUM_TOL = 1e-9
MAX_PARTICLES = 1 << 21
# A weight changes by e when g, a sum of squared contact distances, changes by the temperature:
# from (1 um)^2, below what a taxel resolves, to 1,000 m^2, a thousand contacts each MAX_LENGTH_M off.
TEMPERATURE_M2 = (1e-12, 1e3)
_CELL_BUDGET = 1 << 17  # cells in an object model's lookup grid, at most
_CELL_CAP = 24  # candidates a grid cell may hold (< 128); cells that need more are left to the KD-tree
_DOMINATORS = 2  # the points nearest a cell's centre, tried as beating each other candidate
_QUERY_BLOCK = 1 << 15  # contact points per block of particle_distances, to bound temporaries
_SCAN_RANKS = 3  # candidates scanned for every query; only fuller cells are sorted out and scanned on
_BUILD_BLOCK = 1 << 9  # cells per block of the grid build: both runners' blocks and chunks hold about 7 MB
_QUERY_CHUNK = 1 << 11  # cells per neighbour query of the build (a multiple of _BUILD_BLOCK), and per
# item that a runner of _in_two takes


def _in_two(run, items) -> None:
    """run(items) on the calling thread and on one worker thread, each taking the next item left.

    A runner that another process holds up thus leaves more of the items to the other one. With
    one CPU, or fewer than two items, run(items) runs on the caller alone. The worker is joined
    before this returns or raises, and an exception it raised is re-raised here.
    """
    items = list(items)
    if cpus() < 2 or len(items) < 2:
        return run(items)
    left, failed = queue.SimpleQueue(), []
    for item in items + [None, None]:  # a None ends each runner's iter(left.get, None)
        left.put(item)

    def work():
        try:
            run(iter(left.get, None))
        except BaseException as e:
            failed.append(e)

    worker = threading.Thread(target=work, name="vitac-tracker", daemon=True)
    worker.start()
    try:
        run(iter(left.get, None))
    finally:
        worker.join()
    if failed:
        raise failed[0]


def _sum3(v: np.ndarray) -> np.ndarray:
    return (v[0] + v[1]) + v[2]


class _Work:
    """The temporaries of one runner's query blocks, each allocated once and reused by every block.

    Freed and allocated afresh per block, they cost up to about 7,000 minor page faults per
    tracker step, depending on what the heap did before. take and the ufuncs write into them
    through out=; take in mode "clip", since mode "raise" buffers its out array.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized array of this shape and dtype, a view of the first one asked for by name."""
        size = int(np.prod(shape))
        arr = self._arrays.get(name)
        if arr is None or arr.size < size:
            arr = self._arrays[name] = np.empty(size, dtype)
        return arr[:size].reshape(shape)


class _CellGrid:
    """Exact nearest-model-point distances near the model, without a tree walk.

    The grid covers the model's bounding box, grown by four cells, with
    cells about one point spacing wide. Every query in a cell B has its
    nearest point within u = min_p maxdist(p, B), so only points with
    mindist(p, B) <= u can be nearest. Of those, a point is dropped when one
    of the points nearest B's centre is closer to all of B: the difference
    of the two squared distances is linear, so its least value over B is
    found axis by axis at B's faces. The rest are B's candidates. A query is
    scored against its cell's candidates in the KD-tree's arithmetic,
    sqrt(min((dx*dx + dy*dy) + dz*dz)), so the distances are bit-identical
    to ``cKDTree.query``. A list is padded past its count with its first
    candidate, which leaves the minimum as it is, so every query is scored
    against the first ranks in its own order, and only the queries whose
    cells hold more are sorted out. Queries outside the grid, on its outer
    layer, or in a cell whose list may be incomplete go to the tree. The
    cells are laid out from the grid's corner ``lo``, so their rounding
    scales with the grid, not with the coordinates. Each cell is grown by
    1e-6 of its width, and u and the margin a point is dropped by are grown
    by a relative 1e-9: this covers rounding in a query's cell index (see
    cells) and in the distances.
    """

    def __init__(self, tree: cKDTree):
        self.tree, pts = tree, tree.data
        ext = np.ptp(pts, axis=0)
        h = max(float(np.mean(tree.query(pts, k=2)[0][:, 1])), 1e-12)
        while np.prod(np.ceil(ext / h) + 8) > _CELL_BUDGET:
            h *= 1.25
        self.h, self.lo = h, pts.min(axis=0) - 4 * h
        self.shape = (np.ceil(ext / h) + 8).astype(np.intp)
        self.xyz = np.ascontiguousarray(pts.T)
        local = np.ascontiguousarray((pts - self.lo).T)
        local_tree = type(tree)(local.T)
        n_cells = int(np.prod(self.shape))
        self.table = np.empty((_CELL_CAP, n_cells), np.min_scalar_type(-len(pts)))
        self.count = np.empty(n_cells, np.int8)
        e = 1e-6 * h

        def build(chunks):  # a runner's chunks: one neighbour query each, on its own thread
            for c in chunks:
                ijk = np.unravel_index(np.arange(c, min(c + _QUERY_CHUNK, n_cells)), self.shape)
                corners = np.stack(ijk) * h - e  # (3, cells): each cell's lower corner, grown by e
                dists, nbrs = local_tree.query((corners + (h / 2 + e)).T, k=_CELL_CAP + 1, workers=1)
                for b in range(0, len(dists), _BUILD_BLOCK):
                    s, part = c + b, slice(b, b + _BUILD_BLOCK)
                    lo, d = corners[:, part], dists[part]
                    idx = np.minimum(nbrs[part], len(pts) - 1)  # the tree pads short lists with n (at inf)
                    x = local[:, idx]  # (3, cells, points)
                    below = lo[:, :, None] - x  # how far each point lies past the cell's lower
                    above = x - (lo[:, :, None] + (h + 2 * e))  # and upper face, per axis
                    near2 = _sum3(np.square(np.maximum(np.maximum(below, above), 0.0)))
                    below, above = np.square(below), np.square(above)
                    far2 = _sum3(np.maximum(below, above))
                    u2 = np.min(far2, axis=1) * (1 + 1e-9)
                    keep = (near2 <= u2[:, None]) & np.isfinite(d)
                    keep[:, -1] = False  # the last point only shows whether the list is complete:
                    # it and every point past it lie at least `reach` from the cell
                    reach = np.maximum(d[:, -1] - np.sqrt(3) * (h / 2 + e), 0.0)
                    for j in range(_DOMINATORS):  # drop the points that point j beats all over the cell
                        gain = _sum3(np.minimum(below - below[:, :, j, None], above - above[:, :, j, None]))
                        keep &= gain <= 1e-9 * far2
                    n = keep.sum(axis=1)
                    self.count[s : s + _BUILD_BLOCK] = np.where(reach * reach > u2, n, 0)
                    order = np.argsort(~keep, axis=1, kind="stable")
                    lists = np.take_along_axis(idx, order, axis=1)[:, :-1]
                    # ranks past a cell's count repeat its first candidate, already in the minimum
                    ranked = np.where(np.arange(_CELL_CAP) < n[:, None], lists, lists[:, :1])
                    self.table[:, s : s + _BUILD_BLOCK] = ranked.T

        _in_two(build, range(0, n_cells, _QUERY_CHUNK))
        grid = self.count.reshape(self.shape)
        grid[[0, -1]] = grid[:, [0, -1]] = grid[:, :, [0, -1]] = 0

    def cells(self, q: np.ndarray, work: _Work) -> np.ndarray:
        """The flat index of each query's cell; queries outside the grid land on its outer layer.

        A grid coordinate t = (q - lo) / h is computed as (q - lo) * (1/h). Each of the three
        roundings is relative, so t is off by at most 4e-16 * t, under 1e-10 of a cell for a
        grid within the cell budget. Truncation can therefore differ from floor(t) only for a
        query that far from a cell face, and the cell it picks instead, grown by 1e-6 of its
        width, still holds the query.
        """
        n = len(q)
        t, i, cell = work.get("grid", n), work.get("ijk", n, np.intp), work.get("cell", n, np.intp)
        cell.fill(0)
        for a in range(3):  # axis by axis: on (N, 3) operands numpy loops over 3 elements at a time
            np.subtract(q[:, a], self.lo[a], out=t)
            t *= 1.0 / self.h
            np.clip(t, 0.0, self.shape[a] - 1.0, out=t)
            np.copyto(i, t, casting="unsafe")  # truncates, as astype does
            cell *= self.shape[a]
            cell += i
        return cell

    def distances(self, q: np.ndarray, work: _Work) -> np.ndarray:
        n = len(q)
        cell = self.cells(q, work)
        count = np.take(self.count, cell, out=work.get("count", n, self.count.dtype), mode="clip")
        best = work.get("best", n)
        best.fill(np.inf)
        self._scan(cell, q.T, best, [n] * _SCAN_RANKS, work)  # every query: ranks past a count repeat rank 0
        more = np.flatnonzero(count > _SCAN_RANKS)
        if len(more):
            neg = -count.take(more)
            order = np.argsort(neg, kind="stable")  # fullest cells first, so that the queries
            more, neg = more[order], neg[order]  # whose cell holds more than r candidates are the first ends[r]
            ends = np.searchsorted(neg, -np.arange(-int(neg[0])))
            part = best[more]
            self._scan(cell[more], q.T[:, more], part, ends, work, start=_SCAN_RANKS)
            best[more] = part
        d = np.sqrt(best, out=best)
        rest = np.flatnonzero(count == 0)
        if len(rest):  # with workers=1: _in_two's two runners already keep both CPUs busy
            d[rest] = self.tree.query(q[rest])[0]
        return d

    def _scan(self, cell, qt, best, ends, work: _Work, start=0):
        """Lower best[:ends[r]] to the squared distances from those queries to candidate r of their cells."""
        x, y, z = self.xyz
        n = len(cell)
        s, t = work.get("s", n), work.get("t", n)
        rank, c = work.get("rank", n, self.table.dtype), work.get("c", n, np.intp)
        for r in range(start, len(ends)):
            k = ends[r]
            ck, sk, tk = c[:k], s[:k], t[:k]
            np.copyto(ck, np.take(self.table[r], cell[:k], out=rank[:k], mode="clip"))
            np.square(np.subtract(np.take(x, ck, out=sk, mode="clip"), qt[0, :k], out=sk), out=sk)
            sk += np.square(np.subtract(np.take(y, ck, out=tk, mode="clip"), qt[1, :k], out=tk), out=tk)
            sk += np.square(np.subtract(np.take(z, ck, out=tk, mode="clip"), qt[2, :k], out=tk), out=tk)
            np.minimum(best[:k], sk, out=best[:k])


@dataclass(frozen=True, eq=False)
class ObjectModel:
    """Known object geometry as a surface point cloud in the object frame."""

    points: np.ndarray
    _tree: cKDTree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = freeze(self, "points", (-1, 3), finite="object model contains non-finite points")
        if pts.shape[0] < 3:
            raise InvalidInputError(f"object model needs >= 3 points, got {pts.shape[0]}")
        from scipy.spatial import cKDTree  # here, so that commands which never track skip scipy

        # the cell grid's build and the queries it leaves to the tree (a few percent) use this tree
        object.__setattr__(self, "_tree", cKDTree(pts, leafsize=8))

    def __len__(self):
        return self.points.shape[0]

    @cached_property
    def _cells(self) -> _CellGrid:
        # built on the first tracker step, so models that are never tracked skip it
        return _CellGrid(self._tree)


@dataclass(frozen=True, eq=False)
class ContactSet:
    """Active tactile points (base frame) above the activation threshold."""

    points: np.ndarray

    def __post_init__(self):
        freeze(self, "points", (-1, 3), finite="contact points must be finite")

    def __len__(self):
        return self.points.shape[0]

    @staticmethod
    def from_tactile_cloud(cloud: CloudXYZF, threshold: float) -> "ContactSet":
        """Keep tactile points whose normalized reading exceeds the threshold."""
        return ContactSet(cloud.xyz[cloud.feature > threshold])


@dataclass(frozen=True)
class TrackerConfig:
    """Filter settings. particle_count is at most MAX_PARTICLES: a step holds about 300 bytes
    per particle, so the largest filter takes about 0.6 GB."""

    particle_count: int = 2048
    sigma_translation: float = 2e-3
    sigma_rotation: float = 0.02
    temperature: float = 1e-4
    activation_threshold: float = 0.05
    ess_fraction: float = 0.5

    def __post_init__(self):
        check_range("particle_count", self.particle_count, 1, MAX_PARTICLES)
        check_range("sigma_translation", self.sigma_translation, 0, MAX_LENGTH_M, "m")
        check_range("sigma_rotation", self.sigma_rotation, 0, np.pi, "rad")
        check_range("temperature", self.temperature, *TEMPERATURE_M2, "m^2")
        check_range("activation_threshold", self.activation_threshold, 0)
        check_range("ess_fraction", self.ess_fraction, 0, 1, ends="(]")

    @staticmethod
    def from_dict(d: dict) -> "TrackerConfig":
        """Other keys, such as the CLI's ``prior``, are ignored."""
        return jsonio.fields_from(TrackerConfig, d)


@dataclass(frozen=True, eq=False)
class ParticleSet:
    """K pose hypotheses: stacked quaternions, translations, and weights."""

    quats: np.ndarray
    trans: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        q = freeze(self, "quats", (-1, 4))
        t = freeze(self, "trans", (-1, 3))
        w = freeze(self, "weights", -1)
        if not (q.shape[0] == t.shape[0] == w.shape[0]):
            raise InvalidInputError("quats, trans, weights must share the leading dimension")
        if q.shape[0] == 0:
            raise InvalidInputError("particle set cannot be empty")

    def __len__(self):
        return self.quats.shape[0]

    def pose(self, i: int) -> PoseSE3:
        return PoseSE3(self.quats[i], self.trans[i])

    @staticmethod
    def uniform(quats: np.ndarray, trans: np.ndarray) -> "ParticleSet":
        k = np.asarray(quats).shape[0]
        return ParticleSet(quats, trans, np.full(k, 1.0 / k))


def init_particles(
    prior_center: PoseSE3,
    translation_half_extent,
    rotation_half_angle: float,
    count: int,
    rng: np.random.Generator,
) -> ParticleSet:
    """Uniform prior: translation in a centered box, rotation within a cone.

    Rotations perturb the seed orientation by a uniformly random axis and
    an angle uniform in [0, rotation_half_angle].
    """
    half = np.broadcast_to(np.asarray(translation_half_extent, dtype=np.float64), (3,))
    trans = prior_center.t + rng.uniform(-half, half, size=(count, 3))
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.0, rotation_half_angle, size=(count, 1))
    dq = rotvec_to_quat(axes * angles)
    return ParticleSet.uniform(quat_normalize(quat_multiply(prior_center.q, dq)), trans)


def observe_model(obj: ObjectModel, pose: PoseSE3) -> np.ndarray:
    """Object model points transformed by the candidate pose."""
    return pose.apply(obj.points)


def weight_distance(contacts: ContactSet, observed: np.ndarray) -> float:
    """Sum over contacts of the squared distance to the nearest observed point."""
    observed = np.asarray(observed, dtype=np.float64).reshape(-1, 3)
    if observed.shape[0] == 0:
        raise InvalidInputError("observed point set must be nonempty")
    if len(contacts) == 0:
        return 0.0
    from scipy.spatial import cKDTree

    d, _ = cKDTree(observed).query(contacts.points)
    return float(np.sum(d * d))


def weight_distance_bruteforce(contacts: ContactSet, observed: np.ndarray) -> float:
    """O(N*M) double loop; the independent check for the accelerated path."""
    observed = np.asarray(observed, dtype=np.float64).reshape(-1, 3)
    if observed.shape[0] == 0:
        raise InvalidInputError("observed point set must be nonempty")
    total = 0.0
    for p in contacts.points:
        diff = observed - p
        total += float(np.min(diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2))
    return total


def scale_weights(g_values, temperature: float) -> np.ndarray:
    """Normalized weights proportional to exp(-g / temperature).

    Uses max-subtraction in the log domain so any finite g set normalizes
    without overflow. Infinite g yields zero weight.
    """
    check_range("temperature", temperature, *TEMPERATURE_M2, "m^2")
    g = np.asarray(g_values, dtype=np.float64).reshape(-1)
    if g.size == 0:
        raise InvalidInputError("empty distance vector")
    if np.any(np.isnan(g)):
        raise InvalidInputError("distance values must not be NaN")
    log_w = -g / temperature
    m = np.max(log_w)
    if not np.isfinite(m):
        raise DegenerateWeightsError("no finite distance values to weight")
    w = np.exp(log_w - m)
    return w / np.sum(w)


def effective_sample_size(weights: np.ndarray) -> float:
    return 1.0 / float(np.sum(np.square(weights)))


def predict(particles: ParticleSet, config: TrackerConfig, rng: np.random.Generator) -> ParticleSet:
    """Random-walk diffusion: Gaussian translation noise, exp-map rotation noise."""
    k = len(particles)
    trans = particles.trans + rng.normal(0.0, config.sigma_translation, size=(k, 3))
    rotvecs = rng.normal(0.0, config.sigma_rotation, size=(k, 3))
    quats = quat_normalize(quat_multiply(particles.quats, rotvec_to_quat(rotvecs)))
    return ParticleSet(quats, trans, particles.weights)


def resample_systematic(particles: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Single-offset stratified resampling; output weights are uniform.

    Expected copy count of particle k is K * w_k, exact at rational
    weight boundaries.
    """
    w = particles.weights
    if abs(float(np.sum(w)) - 1.0) > _WEIGHT_SUM_TOL or np.any(w < 0):
        raise InvalidInputError("weights must be normalized before resampling")
    k = len(particles)
    positions = (np.arange(k) + rng.uniform()) / k
    cumsum = np.cumsum(w)
    cumsum[-1] = 1.0
    idx = np.searchsorted(cumsum, positions, side="right")
    idx = np.minimum(idx, k - 1)
    return ParticleSet.uniform(particles.quats[idx], particles.trans[idx])


@dataclass(frozen=True)
class EstimateDiagnostics:
    translation_cov_trace: float
    rotation_spread_rad: float


def estimate(particles: ParticleSet) -> tuple[PoseSE3, EstimateDiagnostics]:
    """Weighted mean translation and weighted chordal-mean rotation.

    The rotation mean is the principal eigenvector of sum_k w_k q_k q_k^T,
    sign-aligned with the highest-weight particle.
    """
    w = particles.weights
    s = float(np.sum(w))
    if abs(s - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidInputError("weights must be normalized")
    t_mean = w @ particles.trans
    m = np.einsum("k,ki,kj->ij", w, particles.quats, particles.quats)
    eigvals, eigvecs = np.linalg.eigh(m)
    q_mean = eigvecs[:, -1]
    anchor = particles.quats[int(np.argmax(w))]
    if float(np.dot(q_mean, anchor)) < 0.0:
        q_mean = -q_mean
    diff = particles.trans - t_mean
    cov_trace = float(np.sum(w * np.sum(diff * diff, axis=1)))
    spread = float(np.sum(w * quat_geodesic_angle(particles.quats, q_mean)))
    return PoseSE3(q_mean, t_mean), EstimateDiagnostics(cov_trace, spread)


def particle_distances(particles: ParticleSet, contacts: ContactSet, obj: ObjectModel) -> np.ndarray:
    """Per-particle g, evaluated against the object model's prebuilt lookups.

    Contacts are pulled into each particle's object frame, which leaves
    nearest-neighbor distances unchanged and avoids rebuilding a tree per
    particle; agrees with weight_distance(observe_model(...)) to rigid
    floating-point accuracy. The distances are the object-frame KD-tree's,
    bit for bit (see _CellGrid).
    """
    if len(contacts) == 0:
        return np.zeros(len(particles))
    rot = quat_to_matrix(particles.quats)  # (K, 3, 3)
    g = np.empty(len(particles))
    step = max(1, _QUERY_BLOCK // len(contacts))
    cells = obj._cells  # built before the split: cached_property is not thread-safe

    def score(starts):  # a runner's blocks, each writing its own slice of g
        work = _Work()
        for s in starts:
            r = rot[s : s + step]
            # (c - t) @ R applies R^T rowwise; distribute to avoid the (K, M, 3) diff temp
            local = np.matmul(contacts.points[None, :, :], r, out=work.get("local", (len(r), len(contacts), 3)))
            shift = np.matmul(particles.trans[s : s + step, None, :], r)
            for a in range(3):  # axis by axis, so that numpy's inner loop runs over contacts, not 3 axes
                local[:, :, a] -= shift[:, :, a]
            d = cells.distances(local.reshape(-1, 3), work).reshape(len(r), -1)
            np.sum(np.square(d, out=d), axis=1, out=g[s : s + step])

    _in_two(score, range(0, len(particles), step))
    return g


@dataclass(frozen=True)
class StepReport:
    ess: float
    min_g: float | None  # None on a step without contacts
    resampled: bool
    n_contacts: int


def update(
    particles: ParticleSet,
    contacts: ContactSet,
    obj: ObjectModel,
    config: TrackerConfig,
    rng: np.random.Generator,
) -> tuple[ParticleSet, StepReport]:
    """One predict/weight/resample cycle.

    Empty contacts freeze the weights: diffusion still applies but no
    reweighting or resampling happens (no information, no update).
    """
    particles = predict(particles, config, rng)
    if len(contacts) == 0:
        ess = effective_sample_size(particles.weights)
        return particles, StepReport(ess, None, False, 0)
    g = particle_distances(particles, contacts, obj)
    weights = scale_weights(g, config.temperature)
    particles = ParticleSet(particles.quats, particles.trans, weights)
    ess = effective_sample_size(weights)
    resampled = ess < config.ess_fraction * len(particles)
    if resampled:
        particles = resample_systematic(particles, rng)
    return particles, StepReport(
        ess=ess,
        min_g=float(np.min(g)),
        resampled=resampled,
        n_contacts=len(contacts),
    )


class Tracker:
    """Single-owner convenience wrapper: init once, step per tick, read the estimate."""

    def __init__(
        self,
        obj: ObjectModel,
        config: TrackerConfig,
        prior_center: PoseSE3,
        translation_half_extent,
        rotation_half_angle: float,
        seed: int = 0,
    ):
        self.obj = obj
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.particles = init_particles(
            prior_center,
            translation_half_extent,
            rotation_half_angle,
            config.particle_count,
            self.rng,
        )

    def step(self, contacts: ContactSet) -> StepReport:
        self.particles, report = update(self.particles, contacts, self.obj, self.config, self.rng)
        return report

    def estimate(self) -> tuple[PoseSE3, EstimateDiagnostics]:
        return estimate(self.particles)
