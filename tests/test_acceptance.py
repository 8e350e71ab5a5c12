"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end tracking
criterion is the slow one (several minutes of particle filtering); the
rest finish in seconds.
"""

import time

import numpy as np
import pytest

from vitac.errors import SaturatedReadingError
from vitac.frame_codec import FRAME_LEN, StreamDecoder, decode_frame, encode_frame
from vitac.kinematics import (
    JointState,
    KinematicChain,
    Link,
    PadMount,
    TaxelGrid,
    tactile_point_cloud,
)
from vitac.pointcloud import CloudXYZF, fps_indices, fuse
from vitac.pose_tracker import (
    ContactSet,
    ObjectModel,
    ParticleSet,
    Tracker,
    TrackerConfig,
    resample_systematic,
    scale_weights,
    weight_distance,
    weight_distance_bruteforce,
)
from vitac.se3 import PoseSE3, matrix_to_quat, quat_normalize
from vitac.sensor_model import (
    PadCalibration,
    TactileFrame,
    TaxelResponseModel,
    fit_response,
    force_to_reading,
    normalize_frame,
)
from vitac.sim_oracle import Primitive, SceneSpec, sample_object_cloud, simulate_contact
from vitac.stream_sync import (
    Episode,
    TimedSample,
    align,
    camera_stream,
    episode_stats,
    read_episode,
    tactile_stream,
    write_episode,
)
from vitac.stream_sync import JOINTS_STREAM

from test_pointcloud import fps_bruteforce


def _report(name, elapsed, budget):
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded {budget:.0f}s budget"
    print(f"\nPASS: {name} ({elapsed:.1f}s, budget {budget:.0f}s)")


def test_criterion_1_sensor_model_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    # monotone, zero at zero, saturated above 9 N
    for _ in range(100):
        m = TaxelResponseModel(a=rng.uniform(10, 500), b=rng.uniform(0, 300))
        forces = np.sort(rng.uniform(0, 14, size=120))
        r = force_to_reading(m, forces)
        assert np.all(np.diff(r) >= 0)
        assert force_to_reading(m, 0.0) == 0.0
        r9 = force_to_reading(m, 9.0)
        assert force_to_reading(m, 12.0) == r9
        assert force_to_reading(m, 9.0 + rng.uniform(0, 100)) == r9
    # parameter recovery to 1e-9 on noiseless data, 100 random draws
    for _ in range(100):
        a = rng.uniform(10, 500)
        b = rng.uniform(0, 300)
        forces = rng.uniform(1.0, 9.0, size=24)
        fit = fit_response([(f, a * np.log(f) + b) for f in forces])
        assert abs(fit.model.a - a) <= 1e-9 * max(1.0, a)
        assert abs(fit.model.b - b) <= 1e-9 * max(1.0, b)
    _report("criterion 1: sensor model fidelity", time.time() - t0, 1.0)


def test_criterion_2_codec():
    t0 = time.time()
    rng = np.random.default_rng(102)
    # 10,000-frame random round trip, bit exact
    readings = rng.integers(0, 1024, size=(10_000, 16, 16))
    seqs = rng.integers(0, 2**32, size=10_000)
    stamps = rng.integers(0, 2**63, size=10_000)
    for i in range(10_000):
        frame = TactileFrame(int(i % 256), int(stamps[i]), readings[i])
        wire = decode_frame(encode_frame(frame, int(seqs[i])))
        assert wire.seq == seqs[i]
        assert wire.timestamp_us == stamps[i]
        assert np.array_equal(wire.readings, readings[i])

    # 1,000-trial single-byte corruption fuzz: recover >= N - 2 frames
    n = 10
    frames = [
        TactileFrame(0, int(rng.integers(0, 2**48)), rng.integers(0, 1024, size=(16, 16)))
        for _ in range(n)
    ]
    clean = b"".join(encode_frame(f, i) for i, f in enumerate(frames))
    for _ in range(1000):
        data = bytearray(clean)
        data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        dec = StreamDecoder()
        got = dec.feed(bytes(data))
        assert len(got) >= n - 2

    # chunking invariance over 50 random partitions
    stream = b"\x00\xa5" + clean + b"\xa5"
    reference = None
    for _ in range(50):
        cuts = np.sort(rng.integers(0, len(stream) + 1, size=int(rng.integers(1, 60))))
        dec = StreamDecoder()
        got = []
        prev = 0
        for cut in list(cuts) + [len(stream)]:
            got.extend(dec.feed(stream[prev:cut]))
            prev = cut
        sig = [(w.seq, w.timestamp_us) for w in got]
        if reference is None:
            reference = sig
            assert [s[0] for s in sig] == list(range(n))
        assert sig == reference
    _report("criterion 2: codec round-trip / fuzz / chunking", time.time() - t0, 30.0)


def test_criterion_3_fps_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(103)
    for trial in range(200):
        n = int(rng.integers(1, 201))
        k = int(rng.integers(1, 51))
        xyz = rng.normal(size=(n, 3))
        start = int(rng.integers(n))
        fast = fps_indices(xyz, k, seed=0, start=start)
        slow = fps_bruteforce(xyz, k, start)
        assert np.array_equal(fast, slow), f"trial {trial}"
    _report("criterion 3: FPS matches brute-force oracle (200 clouds)", time.time() - t0, 30.0)


def test_criterion_4_chamfer_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(104)
    for _ in range(100):
        m = int(rng.integers(1, 201))
        n = int(rng.integers(1, 1001))
        contacts = ContactSet(rng.normal(size=(m, 3)))
        observed = rng.normal(size=(n, 3))
        fast = weight_distance(contacts, observed)
        slow = weight_distance_bruteforce(contacts, observed)
        assert fast == pytest.approx(slow, rel=1e-12)
    # rigid invariance under 100 random common transforms
    contacts = ContactSet(rng.normal(size=(80, 3)))
    observed = rng.normal(size=(400, 3))
    g0 = weight_distance(contacts, observed)
    for _ in range(100):
        g = PoseSE3(quat_normalize(rng.normal(size=4)), rng.normal(size=3))
        gt = weight_distance(ContactSet(g.apply(contacts.points)), g.apply(observed))
        assert gt == pytest.approx(g0, rel=1e-9)
    _report("criterion 4: chamfer weight oracle + rigid invariance", time.time() - t0, 30.0)


def test_criterion_5_particle_filter_correctness():
    t0 = time.time()
    rng = np.random.default_rng(105)
    # systematic resampling at exact rational weights: always 3:1
    quats = np.tile([1.0, 0, 0, 0], (4, 1))
    trans = np.arange(12, dtype=float).reshape(4, 3)
    particles = ParticleSet(quats, trans, np.array([0.75, 0.25, 0.0, 0.0]))
    for trial in range(100):
        out = resample_systematic(particles, np.random.default_rng(trial))
        c0 = int(np.sum(np.all(out.trans == trans[0], axis=1)))
        c1 = int(np.sum(np.all(out.trans == trans[1], axis=1)))
        assert (c0, c1) == (3, 1)
    # scale_weights order reversal + normalization on 1,000 random vectors
    for _ in range(1000):
        tau = float(rng.uniform(1e-5, 1.0))
        g = rng.uniform(0, 200.0, size=int(rng.integers(2, 64))) * tau
        w = scale_weights(g, tau)
        assert abs(float(w.sum()) - 1.0) <= 1e-9
        order = np.argsort(g)
        assert np.all(np.diff(w[order]) <= 0)
        i, j = order[0], order[-1]
        if g[i] < g[j]:
            assert w[i] > w[j]
        assert np.argmax(w) == np.argmin(g)
    _report("criterion 5: resampling exactness + weight ordering", time.time() - t0, 10.0)


GRIP_ROT = np.array([[0.0, 0, -1], [0, 1, 0], [1, 0, 0]])


def _grasp_scene(trajectory):
    return SceneSpec(
        obj=Primitive.box(0.04, 0.04, 0.08),
        object_trajectory=trajectory,
        aperture_trajectory=((0.0, 0.077),),
        gripper_pose=PoseSE3(matrix_to_quat(GRIP_ROT), np.zeros(3)),
        grid=TaxelGrid(16, 16, 3.0e-3),
    )


def _episode_contacts(scene, n_ticks, rate_hz=10.0):
    chain, mounts = scene.chain_and_mounts()
    calibs = {i: PadCalibration(pad_id=i) for i in (0, 1)}
    out = []
    for k in range(n_ticks):
        snap = simulate_contact(scene, round(k * 1e6 / rate_hz))
        frames = {i: normalize_frame(calibs[i], f) for i, f in snap.frames.items()}
        cloud = tactile_point_cloud(frames, chain, snap.joints, mounts)
        out.append((ContactSet.from_tactile_cloud(cloud, 0.05), snap.object_pose))
    return out


def _run_tracking_seed(args):
    """One seeded filter run; a module-level function so a process pool can map it."""
    seed, model_pts, ticks, cfg_kwargs = args
    tracker = Tracker(
        ObjectModel(model_pts),
        TrackerConfig(
            particle_count=2048,
            prior_center=PoseSE3.identity(),
            translation_half_extent=0.03,
            rotation_half_angle_deg=20.0,
            **cfg_kwargs,
        ),
        seed=seed,
    )
    errs = []
    for contact_pts, pose_dict in ticks:
        tracker.step(ContactSet(contact_pts))
        est, _ = tracker.estimate()
        truth = PoseSE3.from_dict(pose_dict)
        errs.append(
            (float(np.linalg.norm(est.t - truth.t)), float(est.geodesic_angle_to(truth)))
        )
    return errs


def _map_seeds(jobs):
    # seeds are independent; two workers keep both cores busy through the
    # serial numpy phases. Results are identical to a sequential run.
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(2) as pool:
        return pool.map(_run_tracking_seed, jobs)


def test_criterion_6_end_to_end_pose_tracking():
    t0 = time.time()
    model_pts = sample_object_cloud(Primitive.box(0.04, 0.04, 0.08), 2048, seed=42)

    # static grasp: 50 updates, final error < 5 mm / < 5 deg in >= 8/10 seeds
    true_pose = PoseSE3.identity()
    contacts, _ = _episode_contacts(_grasp_scene(((0.0, true_pose),)), 1)[0]
    assert len(contacts) >= 40
    static_ticks = [(contacts.points, true_pose.to_dict())] * 50
    results = _map_seeds([(seed, model_pts, static_ticks, {}) for seed in range(10)])
    static_pass = 0
    for seed, errs in enumerate(results):
        terr_mm = errs[-1][0] * 1e3
        rerr_deg = np.rad2deg(errs[-1][1])
        ok = terr_mm < 5.0 and rerr_deg < 5.0
        static_pass += ok
        print(f"  static seed {seed}: {terr_mm:.2f} mm, {rerr_deg:.2f} deg {'ok' if ok else 'FAIL'}")
    assert static_pass >= 8, f"static grasp: only {static_pass}/10 seeds passed"

    # object rotating at 10 deg/s about the grip axis: lag < 10 deg in >= 7/10 seeds
    spin_end = PoseSE3.from_rotvec(np.deg2rad(50.0) * np.array([0.0, 0, 1.0]))
    rotating = _episode_contacts(
        _grasp_scene(((0.0, PoseSE3.identity()), (5.0, spin_end))), 50
    )
    rot_ticks = [(c.points, p.to_dict()) for c, p in rotating]
    # diffusion sized to the known motion rate (~1 deg per tick)
    results = _map_seeds(
        [(seed, model_pts, rot_ticks, {"sigma_rotation": 0.05}) for seed in range(10)]
    )
    rotating_pass = 0
    for seed, errs in enumerate(results):
        lag = float(np.rad2deg(np.mean([e[1] for e in errs[-10:]])))
        ok = lag < 10.0
        rotating_pass += ok
        print(f"  rotating seed {seed}: lag {lag:.2f} deg {'ok' if ok else 'FAIL'}")
    assert rotating_pass >= 7, f"rotating object: only {rotating_pass}/10 seeds passed"
    _report(
        f"criterion 6: tracking (static {static_pass}/10, rotating {rotating_pass}/10)",
        time.time() - t0,
        300.0,
    )


def test_criterion_7_representation_bookkeeping():
    t0 = time.time()
    rng = np.random.default_rng(107)
    # N_vis = 512 after FPS
    cloud = rng.normal(size=(3000, 3))
    idx = fps_indices(cloud, 512, seed=0)
    assert len(idx) == 512 and len(set(idx.tolist())) == 512
    visual = CloudXYZF(
        np.column_stack([cloud[idx], np.zeros(512)]), "base"
    )
    # N_tac = 512 for two fingers, 1024 for four
    def pads(n):
        chain = KinematicChain(
            tuple(Link(PoseSE3(t=[0.05 * i, 0, 0]), "fixed") for i in range(n))
        )
        mounts = [PadMount(i, i, PoseSE3.identity(), TaxelGrid()) for i in range(n)]
        frames = {
            i: TactileFrame(i, 0, rng.uniform(0, 1, size=(16, 16)), normalized=True)
            for i in range(n)
        }
        return tactile_point_cloud(frames, chain, JointState([]), mounts)

    two = pads(2)
    four = pads(4)
    assert len(two) == 512
    assert len(four) == 1024
    # fused one-hot partition
    fused = fuse(visual, two)
    assert len(fused) == 1024
    flags = fused.points[:, 4:6]
    assert np.all(np.isin(flags, (0.0, 1.0)))
    assert np.all(flags.sum(axis=1) == 1.0)
    assert fused.n_visual == 512 and fused.n_tactile == 512
    # rigid equivariance of the tactile cloud under a base pre-transform
    g = PoseSE3(quat_normalize(rng.normal(size=4)), rng.normal(size=3))
    chain = KinematicChain(
        (
            Link(PoseSE3(t=[0, 0, 0.1]), "fixed"),
            Link(PoseSE3(t=[0, 0, -0.2]), "fixed"),
        )
    )
    pre = KinematicChain(
        (
            Link(g @ chain.links[0].fixed, "fixed"),
            Link(chain.links[1].fixed, "fixed"),
        )
    )
    mounts = [PadMount(0, 0, PoseSE3.identity()), PadMount(1, 1, PoseSE3.identity())]
    frames = {
        i: TactileFrame(i, 0, rng.uniform(0, 1, size=(16, 16)), normalized=True)
        for i in range(2)
    }
    base = tactile_point_cloud(frames, chain, JointState([]), mounts)
    moved = tactile_point_cloud(frames, pre, JointState([]), mounts)
    assert np.allclose(moved.xyz, g.apply(base.xyz), atol=1e-9)
    _report("criterion 7: representation bookkeeping", time.time() - t0, 10.0)


def test_criterion_8_sync_and_episode_roundtrip(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(108)
    # 60 s of three streams at 10 Hz, +-20 ms jitter, 50 ms tolerance
    n = 601
    streams = {}
    for sid in (tactile_stream(0), camera_stream(0), JOINTS_STREAM):
        ts = np.arange(n) * 100_000 + rng.integers(-20_000, 20_001, size=n)
        ts = np.sort(ts)
        streams[sid] = [TimedSample(sid, int(t), None) for t in ts]
    tuples, report = align(streams, rate_hz=10.0, tolerance_us=50_000)
    assert not report.dropped, f"{len(report.dropped)} ticks dropped"
    max_skew = max(abs(s.timestamp_us - t.tick_time_us) for t in tuples for s in t.members.values())
    assert max_skew <= 20_000
    assert len(tuples) >= 598

    # episode file round trip, bit exact
    ep_tuples = []
    for k in range(20):
        tick = k * 100_000
        frame = TactileFrame(0, tick + 7, rng.integers(0, 1024, size=(16, 16)))
        cloud = CloudXYZF(
            np.column_stack([rng.normal(size=(33, 3)), rng.uniform(size=33)]), "base"
        )
        joints = JointState(rng.normal(size=2), tick)
        members = {
            tactile_stream(0): TimedSample(tactile_stream(0), tick + 7, frame),
            camera_stream(0): TimedSample(camera_stream(0), tick - 4, cloud),
            JOINTS_STREAM: TimedSample(JOINTS_STREAM, tick, joints),
        }
        from vitac.stream_sync import SyncedTuple

        ep_tuples.append(SyncedTuple(tick, members))
    ep = Episode(10.0, 50_000, sorted(streams), ep_tuples)
    p1 = tmp_path / "a.vtep"
    p2 = tmp_path / "b.vtep"
    write_episode(ep, p1)
    write_episode(read_episode(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    stats = episode_stats(read_episode(p1))
    assert stats.tuple_count == 20 and stats.dropped_ticks == 0
    _report(
        f"criterion 8: sync (max skew {max_skew/1000:.1f} ms) + episode round trip",
        time.time() - t0,
        10.0,
    )
