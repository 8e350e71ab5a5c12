import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from test_acceptance import _episode_contacts, _grasp_scene

from vitac import pose_tracker
from vitac.errors import DegenerateWeightsError, InvalidInputError
from vitac.pointcloud import CloudXYZF
from vitac.pose_tracker import (
    MAX_PARTICLES,
    ContactSet,
    ObjectModel,
    ParticleSet,
    Tracker,
    TrackerConfig,
    effective_sample_size,
    estimate,
    init_particles,
    observe_model,
    particle_distances,
    predict,
    resample_systematic,
    scale_weights,
    update,
    weight_distance,
    weight_distance_bruteforce,
)
from vitac.se3 import PoseSE3, quat_normalize, quat_to_matrix
from vitac.sim_oracle import Primitive, sample_object_cloud


def random_pose(rng, t_scale=1.0):
    return PoseSE3(quat_normalize(rng.normal(size=4)), rng.normal(size=3) * t_scale)


def random_model(rng, n=50):
    return ObjectModel(rng.normal(size=(n, 3)))


def test_observe_model_examples():
    rng = np.random.default_rng(0)
    obj = random_model(rng)
    assert np.array_equal(observe_model(obj, PoseSE3.identity()), obj.points)
    t = np.array([0.1, -0.2, 0.3])
    assert np.allclose(observe_model(obj, PoseSE3(t=t)), obj.points + t, atol=1e-12)
    z90 = PoseSE3.from_rotvec([0, 0, np.pi / 2])
    single = ObjectModel(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 1.0]]))
    assert np.allclose(observe_model(single, z90)[0], [0, 1, 0], atol=1e-12)


def test_weight_distance_examples():
    rng = np.random.default_rng(1)
    observed = rng.normal(size=(100, 3))
    contacts = ContactSet(observed[[3, 17, 42]])
    assert weight_distance(contacts, observed) == 0.0
    far = ContactSet(observed[[0]] + [0.01, 0.0, 0.0])
    # observed[0] plus 1 cm along x; nearest may be observed[0] unless another is closer
    d = weight_distance(far, observed)
    assert d <= 1e-4 + 1e-12
    lone = ContactSet(np.array([[10.0, 0, 0]]))
    single_obs = np.array([[10.0, 0.01, 0]])
    assert weight_distance(lone, single_obs) == pytest.approx(1e-4, rel=1e-12)


def test_weight_distance_matches_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(25):
        m = int(rng.integers(1, 100))
        n = int(rng.integers(1, 500))
        contacts = ContactSet(rng.normal(size=(m, 3)))
        observed = rng.normal(size=(n, 3))
        fast = weight_distance(contacts, observed)
        slow = weight_distance_bruteforce(contacts, observed)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_weight_distance_rigid_invariance():
    rng = np.random.default_rng(3)
    contacts = ContactSet(rng.normal(size=(40, 3)))
    observed = rng.normal(size=(200, 3))
    g0 = weight_distance(contacts, observed)
    for _ in range(20):
        g = random_pose(rng)
        gt = weight_distance(ContactSet(g.apply(contacts.points)), g.apply(observed))
        assert gt == pytest.approx(g0, rel=1e-9)


def test_weight_distance_empty_cases():
    contacts = ContactSet(np.zeros((0, 3)))
    assert weight_distance(contacts, np.array([[0.0, 0, 0]])) == 0.0
    with pytest.raises(InvalidInputError):
        weight_distance(ContactSet(np.array([[0.0, 0, 0]])), np.zeros((0, 3)))


def test_contacts_from_tactile_cloud():
    pts = np.array(
        [[0, 0, 0, 0.0], [1, 0, 0, 0.04], [2, 0, 0, 0.06], [3, 0, 0, 1.0]], dtype=float
    )
    contacts = ContactSet.from_tactile_cloud(CloudXYZF(pts, "base"), threshold=0.05)
    assert len(contacts) == 2
    assert np.array_equal(contacts.points[:, 0], [2, 3])


def test_scale_weights_examples():
    w = scale_weights([5.0, 5.0, 5.0, 5.0], 1e-4)
    assert np.allclose(w, 0.25)
    w = scale_weights([0.0, np.inf], 1.0)
    assert np.array_equal(w, [1.0, 0.0])
    tau = 0.37
    w = scale_weights([0.0, tau], tau)
    assert w[0] == pytest.approx(np.e / (np.e + 1))
    assert w[1] == pytest.approx(1 / (np.e + 1))


def test_scale_weights_properties():
    rng = np.random.default_rng(4)
    for _ in range(200):
        tau = float(rng.uniform(1e-6, 10.0))
        g = rng.uniform(0, 100.0, size=int(rng.integers(2, 50))) * tau
        w = scale_weights(g, tau)
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(w > 0)
        assert np.argmax(w) == np.argmin(g)
        order_g = np.argsort(g)
        assert np.all(np.diff(w[order_g]) <= 1e-15)
        # scale covariance: multiplying g and tau by c leaves weights unchanged
        c = float(rng.uniform(0.1, 100))
        w2 = scale_weights(g * c, tau * c)
        assert np.allclose(w, w2, rtol=1e-12, atol=1e-15)


def test_scale_weights_extreme_ratios_underflow_gracefully():
    w = scale_weights([0.0, 1e9], 1e-6)
    assert w[0] == 1.0 and w[1] == 0.0
    assert abs(w.sum() - 1.0) <= 1e-9


@pytest.mark.parametrize("field, value", [("sigma_translation", np.nan), ("sigma_translation", np.inf),
                                          ("sigma_rotation", np.nan), ("temperature", np.nan),
                                          ("activation_threshold", np.nan)])
def test_tracker_config_rejects_non_finite(field, value):
    with pytest.raises(InvalidInputError):
        TrackerConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("sigma_translation", 1.5), ("sigma_translation", -1e-3),
                                          ("sigma_rotation", 1e300), ("sigma_rotation", 3.2),
                                          ("particle_count", 0), ("particle_count", MAX_PARTICLES + 1),
                                          ("particle_count", 2**64)])
def test_tracker_config_rejects_out_of_physical_range(field, value):
    with pytest.raises(InvalidInputError, match=field):
        TrackerConfig(**{field: value})


def test_tracker_config_range_ends_are_allowed():
    cfg = TrackerConfig(sigma_translation=1.0, sigma_rotation=np.pi, particle_count=MAX_PARTICLES)
    assert (cfg.sigma_translation, cfg.sigma_rotation) == (1.0, np.pi)


def test_scale_weights_degenerate():
    with pytest.raises(DegenerateWeightsError):
        scale_weights([np.inf, np.inf], 1.0)
    with pytest.raises(InvalidInputError):
        scale_weights([0.0, np.nan], 1.0)
    with pytest.raises(InvalidInputError):
        scale_weights([0.0], 0.0)


def _uniform_particles(rng, k):
    quats = quat_normalize(rng.normal(size=(k, 4)))
    return ParticleSet.uniform(quats, rng.normal(size=(k, 3)))


def test_predict_zero_noise_identity():
    rng = np.random.default_rng(5)
    particles = _uniform_particles(rng, 64)
    cfg = TrackerConfig(sigma_translation=0.0, sigma_rotation=0.0)
    out = predict(particles, cfg, np.random.default_rng(0))
    assert np.allclose(out.trans, particles.trans, atol=0)
    assert np.allclose(np.abs(np.sum(out.quats * particles.quats, axis=1)), 1.0, atol=1e-12)
    assert np.array_equal(out.weights, particles.weights)


def test_predict_deterministic_by_seed():
    rng = np.random.default_rng(6)
    particles = _uniform_particles(rng, 32)
    cfg = TrackerConfig()
    a = predict(particles, cfg, np.random.default_rng(99))
    b = predict(particles, cfg, np.random.default_rng(99))
    assert np.array_equal(a.trans, b.trans)
    assert np.array_equal(a.quats, b.quats)


def test_predict_zero_mean_statistics():
    rng = np.random.default_rng(7)
    k = 100_000
    particles = ParticleSet.uniform(np.tile([1.0, 0, 0, 0], (k, 1)), np.zeros((k, 3)))
    cfg = TrackerConfig(sigma_translation=2e-3, sigma_rotation=0.02)
    out = predict(particles, cfg, np.random.default_rng(11))
    se = cfg.sigma_translation / np.sqrt(k)
    assert np.all(np.abs(out.trans.mean(axis=0)) < 3 * se)
    assert np.allclose(np.linalg.norm(out.quats, axis=1), 1.0, atol=1e-12)


def test_resample_uniform_is_permutation_free():
    rng = np.random.default_rng(8)
    particles = _uniform_particles(rng, 16)
    for trial in range(10):
        out = resample_systematic(particles, np.random.default_rng(trial))
        assert np.array_equal(out.trans, particles.trans)
        assert np.array_equal(out.quats, particles.quats)


def test_resample_single_winner():
    rng = np.random.default_rng(9)
    quats = quat_normalize(rng.normal(size=(8, 4)))
    trans = rng.normal(size=(8, 3))
    w = np.zeros(8)
    w[5] = 1.0
    out = resample_systematic(ParticleSet(quats, trans, w), np.random.default_rng(0))
    assert np.all(out.trans == trans[5])


def test_resample_exact_rational_weights():
    quats = np.tile([1.0, 0, 0, 0], (4, 1))
    trans = np.arange(12, dtype=float).reshape(4, 3)
    w = np.array([0.75, 0.25, 0.0, 0.0])
    for trial in range(50):
        out = resample_systematic(
            ParticleSet(quats, trans, w), np.random.default_rng(trial)
        )
        counts = [int(np.sum(np.all(out.trans == trans[i], axis=1))) for i in range(4)]
        assert counts[0] == 3 and counts[1] == 1


def test_resample_copy_count_bounds():
    rng = np.random.default_rng(10)
    for trial in range(20):
        k = 64
        quats = np.tile([1.0, 0, 0, 0], (k, 1))
        trans = np.column_stack([np.arange(k, dtype=float), np.zeros((k, 2))])
        w = rng.uniform(size=k)
        w /= w.sum()
        out = resample_systematic(ParticleSet(quats, trans, w), np.random.default_rng(trial))
        assert len(out) == k
        assert np.allclose(out.weights, 1.0 / k)
        for i in range(k):
            count = int(np.sum(out.trans[:, 0] == i))
            assert np.floor(k * w[i]) <= count <= np.ceil(k * w[i])


def test_resample_rejects_unnormalized():
    particles = ParticleSet(np.tile([1.0, 0, 0, 0], (3, 1)), np.zeros((3, 3)), np.ones(3))
    with pytest.raises(InvalidInputError):
        resample_systematic(particles, np.random.default_rng(0))


def test_estimate_identical_particles():
    rng = np.random.default_rng(11)
    p = random_pose(rng)
    particles = ParticleSet.uniform(np.tile(p.q, (10, 1)), np.tile(p.t, (10, 1)))
    est, diag = estimate(particles)
    assert np.allclose(est.t, p.t, atol=0)
    assert min(np.linalg.norm(est.q - p.q), np.linalg.norm(est.q + p.q)) < 1e-9
    assert diag.translation_cov_trace == pytest.approx(0.0, abs=1e-18)
    assert diag.rotation_spread_rad == pytest.approx(0.0, abs=1e-6)


def test_estimate_two_translations():
    q = np.array([1.0, 0, 0, 0])
    particles = ParticleSet.uniform(np.tile(q, (2, 1)), np.array([[0.0, 0, 0], [2.0, 0, 0]]))
    est, _ = estimate(particles)
    assert np.allclose(est.t, [1.0, 0, 0])


def test_estimate_antipodal_quaternions():
    rng = np.random.default_rng(12)
    q = quat_normalize(rng.normal(size=4))
    particles = ParticleSet.uniform(np.array([q, -q]), np.zeros((2, 3)))
    est, _ = estimate(particles)
    assert np.allclose(est.q, q, atol=1e-9)


def test_particle_distances_matches_literal_composition():
    rng = np.random.default_rng(13)
    obj = random_model(rng, 200)
    contacts = ContactSet(rng.normal(size=(30, 3)))
    particles = _uniform_particles(rng, 20)
    fast = particle_distances(particles, contacts, obj)
    for i in range(len(particles)):
        literal = weight_distance(contacts, observe_model(obj, particles.pose(i)))
        assert fast[i] == pytest.approx(literal, rel=1e-9)


def _kdtree_particle_distances(particles, contacts, obj):
    """particle_distances as it was before the cell grid: one KD-tree query over every
    particle's contacts. The oracle the grid must match bit for bit."""
    rot = quat_to_matrix(particles.quats)
    local = np.matmul(contacts.points[None, :, :], rot)
    local -= np.matmul(particles.trans[:, None, :], rot)
    d, _ = cKDTree(obj.points).query(local.reshape(-1, 3))
    d = d.reshape(len(particles), len(contacts))
    return np.sum(d * d, axis=1)


def _squared_distances(obj, q):
    """Squared distance from each row of q to the model, through particle_distances:
    one unrotated particle at -q_i per point and a single contact at the origin."""
    particles = ParticleSet.uniform(np.tile([1.0, 0, 0, 0], (len(q), 1)), -q)
    return particle_distances(particles, ContactSet(np.zeros((1, 3))), obj)


def _assert_kdtree_distances(obj, q):
    d, _ = cKDTree(obj.points).query(q)
    assert np.array_equal(_squared_distances(obj, q), d * d)


@pytest.fixture(scope="module")
def box_model():
    return ObjectModel(sample_object_cloud(Primitive.box(0.04, 0.04, 0.08), 2048, seed=42))


@pytest.fixture(scope="module")
def grasp_contacts():
    contacts, _ = _episode_contacts(_grasp_scene(((0.0, PoseSE3.identity()),)), 1)[0]
    return contacts


@pytest.mark.parametrize("extent, angle_deg", [(0.03, 20.0), (0.005, 3.0), (0.001, 0.5)])
def test_particle_distances_bit_identical_to_kdtree_on_the_criterion_6_grasp(
    box_model, grasp_contacts, extent, angle_deg
):
    # from criterion 6's wide prior down to a converged particle cloud
    rng = np.random.default_rng(31)
    particles = init_particles(PoseSE3.identity(), extent, np.deg2rad(angle_deg), 512, rng)
    fast = particle_distances(particles, grasp_contacts, box_model)
    assert np.array_equal(fast, _kdtree_particle_distances(particles, grasp_contacts, box_model))


def test_particle_distances_bit_identical_to_kdtree_on_tracked_particles(box_model, grasp_contacts):
    tracker = Tracker(box_model, TrackerConfig(particle_count=256), PoseSE3.identity(), 0.03,
                      np.deg2rad(20.0), seed=3)
    for _ in range(12):
        tracker.step(grasp_contacts)
    particles = tracker.particles
    fast = particle_distances(particles, grasp_contacts, box_model)
    assert np.array_equal(fast, _kdtree_particle_distances(particles, grasp_contacts, box_model))


@pytest.mark.parametrize("kind", ["static", "rotating"])
def test_tracker_run_bit_identical_to_the_kdtree_oracle_run(monkeypatch, box_model, kind):
    # criterion 6's grasps from its +-30 mm / 20 deg prior: every step's weights, resampling
    # and estimate follow from g, so the two runs agree bit for bit only if every g does
    if kind == "static":
        contacts = [_episode_contacts(_grasp_scene(((0.0, PoseSE3.identity()),)), 1)[0][0]] * 12
        config = TrackerConfig(particle_count=256)
    else:
        spin_end = PoseSE3.from_rotvec(np.deg2rad(50.0) * np.array([0.0, 0, 1.0]))
        scene = _grasp_scene(((0.0, PoseSE3.identity()), (5.0, spin_end)))
        contacts = [c for c, _ in _episode_contacts(scene, 12)]
        config = TrackerConfig(particle_count=256, sigma_rotation=0.05)
    runs = []
    for distances in (particle_distances, _kdtree_particle_distances):
        monkeypatch.setattr(pose_tracker, "particle_distances", distances)
        tracker = Tracker(box_model, config, PoseSE3.identity(), 0.03, np.deg2rad(20.0), seed=5)
        reports = [tracker.step(c) for c in contacts]
        pose, diag = tracker.estimate()
        p = tracker.particles
        runs.append((reports, diag, [p.quats, p.trans, p.weights, pose.q, pose.t]))
    (reports, diag, arrays), (oracle_reports, oracle_diag, oracle_arrays) = runs
    assert reports == oracle_reports and diag == oracle_diag
    assert all(np.array_equal(a, b) for a, b in zip(arrays, oracle_arrays))
    assert sum(r.resampled for r in reports) >= 3


def test_particle_distances_bit_identical_with_more_contacts_than_a_block(box_model):
    rng = np.random.default_rng(32)
    contacts = ContactSet(rng.uniform(-0.06, 0.06, size=(70_000, 3)))
    particles = init_particles(PoseSE3.identity(), 0.01, 0.2, 3, rng)
    fast = particle_distances(particles, contacts, box_model)
    assert np.array_equal(fast, _kdtree_particle_distances(particles, contacts, box_model))


# --- the two runners: the caller and one worker thread --------------------------


def _cpus(monkeypatch, n):
    """Let the tracker see n CPUs; the list returned collects every thread started meanwhile."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(threading, "Thread", Spy)
    return started


def test_the_cell_grid_build_is_bit_identical_on_one_and_two_cpus(monkeypatch, box_model):
    grids = []
    for n in (1, 2):
        started = _cpus(monkeypatch, n)
        grids.append(pose_tracker._CellGrid(box_model._tree))
        assert len(started) == n - 1
    one, two = grids
    assert len(range(0, one.count.size, pose_tracker._QUERY_CHUNK)) > 2  # chunks on both runners
    assert np.array_equal(one.table, two.table) and np.array_equal(one.count, two.count)


@pytest.mark.parametrize("blocks", ["one particle", "one block", "three blocks"])
def test_a_tracker_run_is_bit_identical_on_one_and_two_cpus(monkeypatch, box_model, grasp_contacts, blocks):
    box_model._cells  # built here, so that only particle blocks start threads below
    step = pose_tracker._QUERY_BLOCK // len(grasp_contacts)
    k = {"one particle": 1, "one block": step, "three blocks": 3 * step - 1}[blocks]
    runs, interval = [], sys.getswitchinterval()
    for n in (1, 2):
        started = _cpus(monkeypatch, n)
        tracker = Tracker(box_model, TrackerConfig(particle_count=k), PoseSE3.identity(), 0.03,
                          np.deg2rad(20.0), seed=7)
        sys.setswitchinterval(1e-5)  # the runners hand over the interpreter lock often, so that a race shows
        try:
            reports = [tracker.step(grasp_contacts) for _ in range(4)]
        finally:
            sys.setswitchinterval(interval)
        pose, diag = tracker.estimate()
        p = tracker.particles
        runs.append((reports, diag, [p.quats, p.trans, p.weights, pose.q, pose.t]))
        assert len(started) == (4 if n == 2 and blocks == "three blocks" else 0)
    (reports, diag, arrays), (two_reports, two_diag, two_arrays) = runs
    assert reports == two_reports and diag == two_diag
    assert all(np.array_equal(a, b) for a, b in zip(arrays, two_arrays))


def test_an_exception_in_the_workers_block_reaches_the_caller_after_the_join(monkeypatch, box_model,
                                                                             grasp_contacts):
    cells = box_model._cells
    caller, distances, worker_in = threading.get_ident(), type(cells).distances, threading.Event()

    def failing(self, q, work=None):
        if threading.get_ident() == caller:
            assert worker_in.wait(5)  # the worker has taken the other block
            return distances(self, q, work)
        worker_in.set()
        time.sleep(0.2)  # the caller's block is done long before
        raise ValueError("the worker's block")

    started = _cpus(monkeypatch, 2)
    monkeypatch.setattr(type(cells), "distances", failing)
    before = threading.active_count()
    step = pose_tracker._QUERY_BLOCK // len(grasp_contacts)
    particles = init_particles(PoseSE3.identity(), 0.01, 0.1, 2 * step, np.random.default_rng(35))
    with pytest.raises(ValueError, match="the worker's block"):
        particle_distances(particles, grasp_contacts, box_model)
    assert len(started) == 1 and not started[0].is_alive() and threading.active_count() == before


def test_an_exception_on_the_caller_waits_for_the_worker(monkeypatch):
    caller, done = threading.get_ident(), []

    def run(items):
        for item in items:
            if threading.get_ident() == caller:
                raise ValueError("the caller's block")
            time.sleep(0.1)
            done.append(item)

    started = _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="the caller's block"):
        pose_tracker._in_two(run, range(4))
    assert len(done) == 3 and not started[0].is_alive()  # every item but the one that failed


def _nudged(pts, rng):
    """pts with a copy one float step away in each coordinate, up or down, and one two
    steps up: near ties that rounding decides."""
    once = np.nextafter(pts, pts + rng.choice([-1.0, 1.0], size=pts.shape))
    return np.vstack([pts, once, np.nextafter(np.nextafter(pts, np.inf), np.inf)])


AWKWARD_MODELS = {
    "three points": lambda rng: rng.normal(size=(3, 3)),
    "one point thrice": lambda rng: np.ones((3, 3)),
    "plane": lambda rng: np.column_stack([rng.uniform(size=(400, 2)), np.zeros(400)]),
    "line": lambda rng: np.column_stack([rng.uniform(size=400), np.zeros((400, 2))]),
    "duplicates": lambda rng: np.repeat(rng.normal(size=(60, 3)), 3, axis=0),
    "near duplicates": lambda rng: _nudged(rng.normal(size=(200, 3)), rng),
    "lattice": lambda rng: np.indices((8, 8, 8)).reshape(3, -1).T * 1e-3,
    "ball": lambda rng: rng.normal(size=(3000, 3)),
    "cluster and outliers": lambda rng: np.vstack(
        [rng.normal(size=(500, 3)) * 1e-4, rng.normal(size=(40, 3)) * 0.1]
    ),
    "tiny far away": lambda rng: rng.normal(size=(300, 3)) * 1e-7 + 5.0,
    "two far clusters": lambda rng: np.vstack(
        [rng.normal(size=(12, 3)) * 1e-3, rng.normal(size=(12, 3)) * 1e-3 + [10.0, 0, 0]]
    ),
}


@pytest.mark.parametrize("kind", sorted(AWKWARD_MODELS))
def test_particle_distances_bit_identical_to_kdtree_on_awkward_models(kind):
    rng = np.random.default_rng(33)
    pts = AWKWARD_MODELS[kind](rng)
    obj = ObjectModel(pts)
    extent = float(np.ptp(pts, axis=0).max()) or 1.0
    queries = [pts] + [pts + rng.normal(size=pts.shape) * extent * s for s in (1e-3, 1e-2, 0.1, 1.0)]
    # points on the lookup grid's cell faces, edges and corners, where rounding picks the
    # cell, everywhere inside it, and far outside it
    cells = obj._cells
    for offset in ([0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.5]):
        queries.append(cells.lo + (rng.integers(0, cells.shape + 1, size=(3000, 3)) + offset) * cells.h)
    queries.append(cells.lo + rng.uniform(0, 1, size=(20_000, 3)) * cells.shape * cells.h)
    queries.append(cells.lo + rng.normal(size=(300, 3)) * cells.shape * cells.h * 1e3)
    _assert_kdtree_distances(obj, np.vstack(queries))


def test_a_point_at_the_candidate_bound_stays_a_candidate():
    # queries just inside the corner c of a cell B, with a model point p* at B's centre:
    # |q - p*| is u, the bound on B's candidates. Just past c lies p, a hair nearer to c, so
    # mindist(p, B) = u * (1 - 1e-12) and p is the queries' nearest point. Only the margins
    # of the candidate test keep p on B's list.
    base = np.random.default_rng(35).uniform(0.0, 10.0, size=(2000, 3))
    base = base[np.linalg.norm(base - 5.0, axis=1) > 3.0]
    lo, h = np.zeros(3), 1.0
    for _ in range(20):  # the grid depends on the points placed on it: iterate to a fixed point
        corner = lo + (np.floor((5.0 - lo) / h) + 1.0) * h
        pts = np.vstack([base, corner - h / 2, corner + h / 2 * (1 - 1e-12)])
        obj = ObjectModel(pts)
        if obj._cells.h == h and np.array_equal(obj._cells.lo, lo):
            break
        lo, h = obj._cells.lo, obj._cells.h
    q = corner - np.array([1e-14, 3e-14, 1e-13, 2e-13])[:, None] * h
    assert np.all(cKDTree(pts).query(q)[1] == len(pts) - 1)
    assert np.all(np.floor((q - lo) / h) == np.floor((corner - h / 2 - lo) / h))
    _assert_kdtree_distances(obj, q)


def _unpadded_lists(cells):
    """count and table as the grid build made them before ranks past a count were padded:
    the oracle for the candidate lists."""
    h, pts, e = cells.h, cells.tree.data, 1e-6 * cells.h
    local = np.ascontiguousarray((pts - cells.lo).T)
    tree, n_cells = cKDTree(local.T), int(np.prod(cells.shape))
    count, table = np.empty(n_cells, np.intp), np.empty((24, n_cells), np.intp)
    for s in range(0, n_cells, 4096):
        lo = np.stack(np.unravel_index(np.arange(s, min(s + 4096, n_cells)), cells.shape)) * h - e
        d, idx = tree.query((lo + (h / 2 + e)).T, k=25)
        idx = np.minimum(idx, len(pts) - 1)
        x = local[:, idx]
        below, above = lo[:, :, None] - x, x - (lo[:, :, None] + (h + 2 * e))
        near = np.square(np.maximum(np.maximum(below, above), 0.0))
        below, above = np.square(below), np.square(above)
        far = np.maximum(below, above)
        far2 = (far[0] + far[1]) + far[2]
        u2 = np.min(far2, axis=1) * (1 + 1e-9)
        keep = ((near[0] + near[1]) + near[2] <= u2[:, None]) & np.isfinite(d)
        keep[:, -1] = False
        reach = np.maximum(d[:, -1] - np.sqrt(3) * (h / 2 + e), 0.0)
        for j in range(2):
            gain = np.minimum(below - below[:, :, j, None], above - above[:, :, j, None])
            keep &= (gain[0] + gain[1]) + gain[2] <= 1e-9 * far2
        count[s : s + 4096] = np.where(reach * reach > u2, keep.sum(axis=1), 0)
        order = np.argsort(~keep, axis=1, kind="stable")
        table[:, s : s + 4096] = np.take_along_axis(idx, order, axis=1)[:, :-1].T
    grid = count.reshape(cells.shape)
    grid[[0, -1]] = grid[:, [0, -1]] = grid[:, :, [0, -1]] = 0
    return count, table


@pytest.mark.parametrize("kind", ["box", "lattice", "near duplicates", "two far clusters"])
def test_padded_ranks_keep_each_cells_candidates(box_model, kind):
    obj = box_model if kind == "box" else ObjectModel(AWKWARD_MODELS[kind](np.random.default_rng(33)))
    cells = obj._cells
    count, table = _unpadded_lists(cells)
    assert np.array_equal(cells.count, count)
    ranks = np.arange(len(table))[:, None]
    assert np.array_equal(np.where(ranks < count, cells.table, -1), np.where(ranks < count, table, -1))
    # past its count, a cell's list repeats its first candidate, which the scan has already scored
    answered = count > 0
    assert np.all((cells.table == cells.table[0])[:, answered] | (ranks < count)[:, answered])


def test_cell_index_holds_queries_on_cell_faces(box_model):
    cells = box_model._cells
    h, e = cells.h, 1e-6 * cells.h
    rng = np.random.default_rng(36)
    faces = rng.integers(1, cells.shape - 1, size=(4000, 3)).astype(float)
    steps = rng.choice([0.0, 0.5, *(s * 10.0**-k for s in (1, -1) for k in (3, 5, 7, 9, 12, 15))], size=faces.shape)
    q = cells.lo + (faces + steps) * h
    q = np.vstack([q, np.nextafter(q, np.inf), np.nextafter(q, -np.inf)])
    ijk = np.stack(np.unravel_index(cells.cells(q), cells.shape), axis=1)
    local = q - cells.lo
    # each query lies in its cell grown by e, the growth the candidate lists cover
    assert np.all((local >= ijk * h - e) & (local <= (ijk + 1) * h + e))
    # and the cell is floor((q - lo) / h) except within e of a face
    exact = np.floor(local / h)
    assert np.all((ijk == exact) | (np.abs(local - np.round(local / h) * h) < e))
    _assert_kdtree_distances(box_model, q)


def test_a_wide_model_widens_the_cells_to_the_cell_budget():
    pts = AWKWARD_MODELS["two far clusters"](np.random.default_rng(33))
    cells = ObjectModel(pts)._cells
    spacing = np.mean(cKDTree(pts).query(pts, k=2)[0][:, 1])
    assert cells.h > 2 * spacing and np.prod(cells.shape) <= 1 << 17
    assert np.count_nonzero(cells.count) > 0  # cells near the clusters still answer


def test_the_grid_answers_most_queries_near_the_model(box_model, grasp_contacts):
    # a cell list that is never used would leave every query to the tree: still exact, no faster
    rng = np.random.default_rng(34)
    particles = init_particles(PoseSE3.identity(), 0.001, 0.01, 64, rng)
    rot = quat_to_matrix(particles.quats)
    q = (np.matmul(grasp_contacts.points[None], rot) - np.matmul(particles.trans[:, None], rot))
    cells = box_model._cells
    idx = np.floor((q.reshape(-1, 3) - cells.lo) / cells.h).astype(np.intp)
    assert np.mean(cells.count[np.ravel_multi_index(idx.T, cells.shape)] > 0) > 0.9


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    grid=st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=3, max_size=60),
    scale=st.sampled_from([1e-3, 0.37, 1.0, 1e3]),
    offset=st.sampled_from([0.0, -2.5, 1e3]),
    seed=st.integers(0, 2**16),
)
def test_particle_distances_property_bit_identical_to_kdtree(grid, scale, offset, seed):
    pts = np.asarray(grid, dtype=np.float64) * scale + offset
    rng = np.random.default_rng(seed)
    q = np.vstack(
        [
            pts + rng.normal(size=pts.shape) * scale * 0.3,
            offset + rng.uniform(-6, 6, size=(200, 3)) * scale,
            offset + rng.integers(-6, 7, size=(200, 3)) * scale * 0.5,
        ]
    )
    _assert_kdtree_distances(ObjectModel(pts), q)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_contact_set_rejects_non_finite_points(bad):
    with pytest.raises(InvalidInputError):
        ContactSet(np.array([[0.0, 0.0, 0.0], [0.0, bad, 0.0]]))


def test_update_empty_contacts_is_predict_only():
    rng = np.random.default_rng(14)
    particles = _uniform_particles(rng, 32)
    obj = random_model(rng)
    cfg = TrackerConfig()
    out, report = update(particles, ContactSet(np.zeros((0, 3))), obj, cfg, np.random.default_rng(5))
    ref = predict(particles, cfg, np.random.default_rng(5))
    assert np.array_equal(out.trans, ref.trans)
    assert np.array_equal(out.quats, ref.quats)
    assert np.array_equal(out.weights, particles.weights)
    assert not report.resampled and report.n_contacts == 0 and report.min_g is None


def test_update_zero_noise_no_contacts_identity():
    rng = np.random.default_rng(15)
    particles = _uniform_particles(rng, 16)
    cfg = TrackerConfig(sigma_translation=0.0, sigma_rotation=0.0)
    out, _ = update(particles, ContactSet(np.zeros((0, 3))), random_model(rng), cfg, np.random.default_rng(0))
    assert np.allclose(out.trans, particles.trans, atol=0)


def test_update_truth_particle_dominates():
    rng = np.random.default_rng(16)
    obj = random_model(rng, 100)
    contacts = ContactSet(obj.points[:20])  # consistent with the identity pose
    k = 64
    quats = np.tile([1.0, 0, 0, 0], (k, 1))
    trans = np.vstack([np.zeros(3), rng.uniform(0.5, 1.0, size=(k - 1, 3))])
    particles = ParticleSet.uniform(quats, trans)
    cfg = TrackerConfig(
        particle_count=k, sigma_translation=0.0, sigma_rotation=0.0, temperature=1e-6
    )
    out, report = update(particles, contacts, obj, cfg, np.random.default_rng(1))
    assert report.resampled
    copies = int(np.sum(np.all(out.trans == 0.0, axis=1)))
    assert copies == k  # the truth particle takes every slot


def test_update_converged_particles_stay_near_truth():
    rng = np.random.default_rng(17)
    obj = random_model(rng, 300)
    truth = random_pose(rng, t_scale=0.1)
    contacts = ContactSet(truth.apply(obj.points[::7]))
    k = 128
    particles = ParticleSet.uniform(np.tile(truth.q, (k, 1)), np.tile(truth.t, (k, 1)))
    cfg = TrackerConfig(particle_count=k)
    out, _ = update(particles, contacts, obj, cfg, np.random.default_rng(2))
    est, _ = estimate(out)
    assert np.linalg.norm(est.t - truth.t) < 4 * cfg.sigma_translation
    assert est.geodesic_angle_to(truth) < 4 * cfg.sigma_rotation


def test_init_particles_within_prior():
    rng = np.random.default_rng(18)
    center = random_pose(rng)
    particles = init_particles(center, 0.03, np.deg2rad(20), 500, np.random.default_rng(3))
    assert len(particles) == 500
    assert np.all(np.abs(particles.trans - center.t) <= 0.03 + 1e-12)
    angles = [center.geodesic_angle_to(particles.pose(i)) for i in range(0, 500, 25)]
    assert max(angles) <= np.deg2rad(20) + 1e-9
    assert abs(particles.weights.sum() - 1.0) <= 1e-9


def test_effective_sample_size():
    assert effective_sample_size(np.full(10, 0.1)) == pytest.approx(10.0)
    w = np.zeros(10)
    w[0] = 1.0
    assert effective_sample_size(w) == pytest.approx(1.0)


def test_tracker_deterministic():
    rng = np.random.default_rng(19)
    obj = random_model(rng, 120)
    contacts = ContactSet(obj.points[:25])
    cfg = TrackerConfig(particle_count=128)
    runs = []
    for _ in range(2):
        tr = Tracker(obj, cfg, PoseSE3.identity(), 0.02, 0.2, seed=123)
        for _ in range(5):
            tr.step(contacts)
        est, _ = tr.estimate()
        runs.append((est.q.copy(), est.t.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
