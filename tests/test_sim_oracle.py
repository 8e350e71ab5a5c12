import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from vitac.errors import InvalidInputError
from vitac.kinematics import TaxelGrid, forward_kinematics, tactile_point_cloud, taxel_points
from vitac.se3 import PoseSE3, matrix_to_quat
from vitac.sensor_model import PadCalibration, force_to_reading, normalize_frame, reading_to_force
from vitac.sim_oracle import (
    GroundTruth,
    GroundTruthTick,
    Primitive,
    SceneSpec,
    joints_for_aperture,
    render_episode,
    sample_object_cloud,
    simulate_contact,
    two_finger_gripper,
)
from vitac.stream_sync import (
    JOINTS_STREAM,
    TACTILE_PREFIX,
    episode_stats,
    read_episode,
    write_episode,
)

# gripper closing along world z so pads land on the box end faces
GRIP_ROT = np.array([[0.0, 0, -1], [0, 1, 0], [1, 0, 0]])
GRIPPER = PoseSE3(matrix_to_quat(GRIP_ROT), np.zeros(3))


def grip_scene(obj=None, gap=0.077, pitch=3.0e-3, noise=0.0, seed=0, trajectory=None):
    return SceneSpec(
        obj=obj or Primitive.box(0.04, 0.04, 0.08),
        object_trajectory=trajectory or ((0.0, PoseSE3.identity()),),
        aperture_trajectory=((0.0, gap),),
        gripper_pose=GRIPPER,
        grid=TaxelGrid(16, 16, pitch),
        noise_sigma=noise,
        seed=seed,
    )


# --- primitives ---------------------------------------------------------------


def test_sphere_sampling_on_surface():
    pts = sample_object_cloud(Primitive.sphere(1.0), 10_000, seed=0)
    r = np.linalg.norm(pts, axis=1)
    assert np.all(np.abs(r - 1.0) < 1e-9)


def test_box_sampling_on_faces():
    box = Primitive.box(0.2, 0.4, 0.6)
    pts = sample_object_cloud(box, 5000, seed=1)
    half = np.array([0.1, 0.2, 0.3])
    assert np.all(np.abs(pts) <= half + 1e-12)
    on_face = np.any(np.abs(np.abs(pts) - half) < 1e-12, axis=1)
    assert np.all(on_face)


def test_box_sampling_area_uniform():
    # multinomial check: per-face counts within 3 sigma of area proportions
    lx, ly, lz = 0.2, 0.4, 0.6
    n = 20_000
    pts = sample_object_cloud(Primitive.box(lx, ly, lz), n, seed=2)
    half = np.array([lx, ly, lz]) / 2
    areas = np.array([ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly])
    p = areas / areas.sum()
    for axis in range(3):
        for side, sign in ((2 * axis, -1), (2 * axis + 1, 1)):
            count = np.sum(np.abs(pts[:, axis] - sign * half[axis]) < 1e-12)
            expect = n * p[side]
            sigma = np.sqrt(n * p[side] * (1 - p[side]))
            assert abs(count - expect) < 3 * sigma, f"face {side}"


def test_box_sampling_matches_a_face_by_face_reference():
    lx, ly, lz = 0.02, 0.05, 0.08
    n, seed = 3000, 11
    rng = np.random.default_rng(seed)  # the draws sample_object_cloud makes, in its order
    areas = np.array([ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=(n, 2))
    half = np.array([lx, ly, lz]) / 2.0
    expected = np.empty((n, 3))
    for f in range(6):
        mask, axis = faces == f, f // 2
        others = [i for i in range(3) if i != axis]
        expected[mask, axis] = (-1.0 if f % 2 == 0 else 1.0) * half[axis]
        expected[mask, others[0]] = u[mask, 0] * (2 * half[others[0]])
        expected[mask, others[1]] = u[mask, 1] * (2 * half[others[1]])
    assert np.array_equal(sample_object_cloud(Primitive.box(lx, ly, lz), n, seed), expected)


def test_cylinder_sampling_on_surface():
    cyl = Primitive.cylinder(0.3, 0.8)
    pts = sample_object_cloud(cyl, 5000, seed=3)
    assert np.all(np.abs(cyl.sdf(pts)) < 1e-9)


def test_sampling_deterministic():
    box = Primitive.box(1, 1, 1)
    a = sample_object_cloud(box, 100, seed=7)
    b = sample_object_cloud(box, 100, seed=7)
    assert np.array_equal(a, b)
    c = sample_object_cloud(box, 100, seed=8)
    assert not np.array_equal(a, c)


def test_sdf_box_values():
    box = Primitive.box(1.0, 1.0, 1.0)
    assert box.sdf([[0, 0, 0]])[0] == pytest.approx(-0.5)
    assert box.sdf([[0.5, 0, 0]])[0] == pytest.approx(0.0)
    assert box.sdf([[1.0, 0, 0]])[0] == pytest.approx(0.5)
    assert box.sdf([[0.45, 0, 0]])[0] == pytest.approx(-0.05)
    # outside a corner: euclidean distance to the corner
    assert box.sdf([[1.0, 1.0, 1.0]])[0] == pytest.approx(np.sqrt(0.75))


def test_sdf_cylinder_values():
    cyl = Primitive.cylinder(0.5, 1.0)
    assert cyl.sdf([[0, 0, 0]])[0] == pytest.approx(-0.5)
    assert cyl.sdf([[0.5, 0, 0]])[0] == pytest.approx(0.0)
    assert cyl.sdf([[0, 0, 0.75]])[0] == pytest.approx(0.25)
    assert cyl.sdf([[1.0, 0, 0.5]])[0] == pytest.approx(0.5)


def test_primitive_validation():
    with pytest.raises(InvalidInputError):
        Primitive.box(1, -1, 1)
    with pytest.raises(InvalidInputError):
        Primitive.sphere(0)
    for kind in ("wedge", "mesh"):
        with pytest.raises(InvalidInputError, match="unknown primitive kind"):
            Primitive(kind)


@pytest.mark.parametrize("field, value", [("aperture_trajectory", ((0.0, float("nan")),)),
                                          ("stiffness", float("nan")), ("noise_sigma", float("nan"))])
def test_scene_spec_rejects_nan(field, value):
    spec = {"obj": Primitive.sphere(0.1), "object_trajectory": ((0.0, PoseSE3.identity()),),
            "aperture_trajectory": ((0.0, 0.05),), field: value}
    with pytest.raises(InvalidInputError):
        SceneSpec(**spec)


@pytest.mark.parametrize("n", [0, 2**23 + 1, 10**19])
def test_scene_spec_refuses_camera_points_outside_one_to_the_bound(n):
    from vitac.sim_oracle import MAX_CAMERA_POINTS  # first, so that a tree without the bound fails here

    with pytest.raises(InvalidInputError, match=f"n_camera_points must lie in \\[1, {MAX_CAMERA_POINTS}\\]"):
        dataclasses.replace(grip_scene(), n_camera_points=n)
    assert dataclasses.replace(grip_scene(), n_camera_points=MAX_CAMERA_POINTS).n_camera_points == MAX_CAMERA_POINTS


def test_render_episode_refuses_a_run_past_the_camera_point_bound_before_any_tick():
    from vitac.sim_oracle import MAX_CAMERA_POINTS

    scene = dataclasses.replace(grip_scene(), n_camera_points=MAX_CAMERA_POINTS // 4 + 1)
    with pytest.raises(InvalidInputError, match=f"4 ticks of {scene.n_camera_points} camera points hold more than"):
        render_episode(scene, rate_hz=10.0, duration_s=0.45)


# --- gripper model --------------------------------------------------------------


def test_two_finger_gripper_geometry():
    grid = TaxelGrid(16, 16, 3.0e-3)
    chain, mounts = two_finger_gripper(PoseSE3.identity(), grid)
    gap = 0.06
    poses = forward_kinematics(chain, joints_for_aperture(gap))
    for mount, x_expect in ((mounts[0], gap / 2), (mounts[1], -gap / 2)):
        pad_pose = poses[mount.link_index] @ mount.mount_transform
        pts = taxel_points(pad_pose, grid)
        assert np.allclose(pts[:, 0], x_expect, atol=1e-12)  # pad plane at +-gap/2
        assert np.allclose(pts.mean(axis=0), [x_expect, 0, 0], atol=1e-12)  # centered
        normal = pad_pose.rotation_matrix()[:, 2]
        assert np.allclose(normal, [-np.sign(x_expect), 0, 0], atol=1e-12)  # inward


# --- contact simulation -----------------------------------------------------------


def test_open_pads_no_contact():
    scene = grip_scene(gap=0.2)
    snap = simulate_contact(scene, 0)
    for pad in (0, 1):
        assert np.all(snap.forces[pad] == 0.0)
        assert np.all(snap.frames[pad].readings == 0)


def test_open_pads_noise_only_readings():
    scene = grip_scene(gap=0.2, noise=3.0, seed=5)
    snap = simulate_contact(scene, 0)
    readings = snap.frames[0].readings.astype(float)
    assert np.all(snap.forces[0] == 0.0)
    assert readings.max() <= 12  # a few counts of noise, clamped at zero below
    assert readings.max() > 0


def test_penetration_force_value():
    # 2 mm penetration at k = 2000 N/m -> 4 N on the deepest taxels
    scene = grip_scene(gap=0.076)
    snap = simulate_contact(scene, 0)
    assert snap.forces[0].max() == pytest.approx(4.0, rel=1e-9)
    assert snap.forces[1].max() == pytest.approx(4.0, rel=1e-9)


def test_deep_penetration_saturates_reading():
    # 6 mm penetration -> 12 N, reads identically to 9 N
    scene = grip_scene(gap=0.068)
    snap = simulate_contact(scene, 0)
    assert snap.forces[0].max() == pytest.approx(12.0, rel=1e-9)
    r9 = int(round(force_to_reading(scene.sensor, 9.0)))
    deep = snap.forces[0] >= 12.0 - 1e-9
    assert np.all(snap.frames[0].readings[deep] == r9)


def test_force_mirror_symmetry_and_balance():
    for obj in (
        Primitive.box(0.04, 0.04, 0.08),
        Primitive.cylinder(0.02, 0.08),
        Primitive.sphere(0.04),
    ):
        scene = grip_scene(obj=obj)
        snap = simulate_contact(scene, 0)
        f0, f1 = snap.forces[0], snap.forces[1]
        assert f0.sum() > 0
        assert abs(f0.sum() - f1.sum()) < 1e-9
        assert np.allclose(f0, f1[::-1, :], atol=1e-12)  # mirrored rows


def test_reading_pipeline_consistency():
    # recover within 2% across the log-linear region at zero noise
    scene = grip_scene()
    model = scene.sensor
    for f_true in np.linspace(1.1, 8.9, 40):
        reading = float(np.rint(force_to_reading(model, f_true)))
        back = reading_to_force(model, reading)
        assert back == pytest.approx(f_true, rel=0.02)


def test_contact_outside_span_rejected():
    scene = grip_scene(
        trajectory=((0.0, PoseSE3.identity()), (1.0, PoseSE3(t=[0, 0, 0.01])))
    )
    with pytest.raises(InvalidInputError):
        simulate_contact(scene, 2_000_000)
    snap = simulate_contact(scene, 500_000)
    assert np.allclose(snap.object_pose.t, [0, 0, 0.005], atol=1e-12)


def test_noise_deterministic_per_seed_and_time():
    scene = grip_scene(noise=2.0, seed=9)
    a = simulate_contact(scene, 0)
    b = simulate_contact(scene, 0)
    assert np.array_equal(a.frames[0].readings, b.frames[0].readings)
    c = simulate_contact(scene, 100_000)
    assert not np.array_equal(a.frames[0].readings, c.frames[0].readings)


# --- episodes -----------------------------------------------------------------------


def test_render_episode_counts_and_roundtrip(tmp_path):
    scene = grip_scene()
    episode, truth = render_episode(scene, rate_hz=10.0, duration_s=5.0)
    assert len(episode.tuples) == 50
    assert len(truth.ticks) == 50
    ticks = [t.tick_time_us for t in episode.tuples]
    assert ticks[0] == 0 and ticks[1] == 100_000
    tup = episode.tuples[0]
    assert set(tup.tactile_frames()) == {0, 1}
    assert len(tup.clouds()[0]) == scene.n_camera_points
    assert tup.joint_state() is not None
    path = tmp_path / "sim.vtep"
    write_episode(episode, path)
    back = read_episode(path)
    assert len(back.tuples) == 50


@pytest.mark.parametrize("rate_hz, duration_s, period_us", [(6000.0, 0.05, 167), (30000.0, 0.01, 33)])
def test_render_episode_ticks_on_the_stats_grid(rate_hz, duration_s, period_us):
    # a period that is not a whole number of microseconds is rounded, as sync and stats round it
    scene = dataclasses.replace(grip_scene(), n_camera_points=1)
    episode, truth = render_episode(scene, rate_hz=rate_hz, duration_s=duration_s)
    ticks = [t.tick_time_us for t in episode.tuples]
    assert ticks == list(range(0, int(duration_s * 1e6) - period_us + 1, period_us))
    assert [t.t_us for t in truth.ticks] == ticks
    assert episode_stats(episode).dropped_ticks == 0


def _arrays(episode, sids) -> list:
    """The payload arrays of the members sids, tick by tick."""
    payloads = [t.members[sid].payload for t in episode.tuples for sid in sids]
    return [getattr(p, name) for p in payloads for name in ("readings", "points", "positions") if hasattr(p, name)]


def _traced(read, *args, **kwargs) -> tuple:
    """(read(*args, **kwargs), the peak of the memory that tracemalloc saw it take)."""
    tracemalloc.start()
    try:
        return read(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_episode_holds_the_file_once(tmp_path):
    # with every member kept, the payloads are copies out of one reused record buffer, so
    # memory holds them, about the file, plus one record
    scene = dataclasses.replace(grip_scene(), n_camera_points=20_000)
    episode, _ = render_episode(scene, rate_hz=10.0, duration_s=0.4)
    path = tmp_path / "big.vtep"
    write_episode(episode, path)
    size = path.stat().st_size
    assert size >= 2 << 20
    back, peak = _traced(read_episode, path)
    assert len(back.tuples) == 4
    payloads = sum(a.nbytes for a in _arrays(back, back.streams))
    assert payloads > 0.95 * size and peak < payloads + 2 * size / 4, (peak / size, payloads / size)


def test_read_episode_with_keep_holds_one_record_plus_the_members_kept(tmp_path):
    scene = dataclasses.replace(grip_scene(), n_camera_points=20_000)
    episode, _ = render_episode(scene, rate_hz=10.0, duration_s=1.4)
    path = tmp_path / "big.vtep"
    write_episode(episode, path)
    size = path.stat().st_size
    assert size >= 8 << 20
    keep = (TACTILE_PREFIX, JOINTS_STREAM)
    kept, peak = _traced(read_episode, path, keep=keep)
    full = read_episode(path)
    record = size / len(full.tuples)  # the records are all of one size, and the header is small
    sids = [sid for sid in kept.streams if sid.startswith(keep)]
    kept_arrays = _arrays(kept, sids)
    assert peak < 2 * record + sum(a.nbytes for a in kept_arrays), peak / record
    assert kept.streams == full.streams and sids == ["joints", "tactile/0", "tactile/1"]
    assert len(kept.tuples) == len(full.tuples) == 14
    for k, f in zip(kept.tuples, full.tuples):
        assert k.tick_time_us == f.tick_time_us
        assert sorted(k.members) == kept.streams
        for sid, sample in k.members.items():
            assert sample.timestamp_us == f.members[sid].timestamp_us
            assert (sample.payload is None) == (sid not in sids)
    full_arrays = _arrays(full, sids)
    assert [a.dtype for a in kept_arrays] == [a.dtype for a in full_arrays]
    assert [a.tobytes() for a in kept_arrays] == [a.tobytes() for a in full_arrays]
    for i, a in enumerate(kept_arrays):
        assert not any(np.shares_memory(a, b) for b in kept_arrays[i + 1 :])


def test_render_episode_bit_identical_by_seed(tmp_path):
    scene = grip_scene(noise=1.5, seed=21)
    p1, p2 = tmp_path / "a.vtep", tmp_path / "b.vtep"
    for p in (p1, p2):
        episode, _ = render_episode(scene, rate_hz=10.0, duration_s=1.0)
        write_episode(episode, p)
    assert p1.read_bytes() == p2.read_bytes()


def test_render_episode_consistent_with_kinematics():
    # FK applied to the episode's joint state reproduces the simulator's pad poses:
    # active tactile points must lie on (penetrate) the object surface
    scene = grip_scene()
    episode, truth = render_episode(scene, rate_hz=10.0, duration_s=0.5)
    chain, mounts = scene.chain_and_mounts()
    calibs = {i: PadCalibration(pad_id=i) for i in (0, 1)}
    tup = episode.tuples[0]
    frames = {i: normalize_frame(calibs[i], f) for i, f in tup.tactile_frames().items()}
    cloud = tactile_point_cloud(frames, chain, tup.joint_state(), mounts)
    active = cloud.xyz[cloud.feature > 0.05]
    pose = truth.ticks[0].pose
    sdf = scene.obj.sdf(pose.inverse().apply(active))
    assert np.all(sdf < 0)  # every active taxel is inside the object


def test_ground_truth_jsonl_roundtrip(tmp_path):
    scene = grip_scene()
    _, truth = render_episode(scene, rate_hz=10.0, duration_s=0.3)
    path = tmp_path / "truth.jsonl"
    truth.save_jsonl(path)
    back = GroundTruth.load_jsonl(path)
    assert len(back.ticks) == 3
    for a, b in zip(truth.ticks, back.ticks):
        assert a.t_us == b.t_us
        assert np.allclose(a.pose.t, b.pose.t, atol=0)
        assert np.allclose(a.pose.q, b.pose.q, atol=0)
        for pad in a.forces:
            assert np.allclose(a.forces[pad], b.forces[pad], atol=0)


@pytest.mark.parametrize("pad_id", [256, -1])
def test_a_truth_tick_holds_forces_of_pad_ids_only(pad_id):
    # so every tick that can be built saves a truth file that load_jsonl reads
    with pytest.raises(InvalidInputError, match=re.escape(f"pad_id must lie in [0, 255], got {pad_id}")):
        GroundTruthTick(0, PoseSE3(), {0: np.zeros((16, 16)), pad_id: np.zeros((16, 16))})


def test_scene_json_roundtrip(tmp_path):
    scene = grip_scene(noise=2.5, seed=4)
    path = tmp_path / "scene.json"
    scene.save(path)
    back = SceneSpec.load(path)
    assert back.seed == 4
    assert back.noise_sigma == 2.5
    assert back.grid.pitch == scene.grid.pitch
    assert back.obj.kind == "box"
    snap_a = simulate_contact(scene, 0)
    snap_b = simulate_contact(back, 0)
    assert np.array_equal(snap_a.frames[0].readings, snap_b.frames[0].readings)


@pytest.mark.parametrize("obj", [Primitive.cylinder(0.02, 0.08), Primitive.sphere(0.03)])
def test_round_primitive_scene_json_roundtrip(tmp_path, obj):
    scene = grip_scene(obj=obj)
    scene.save(tmp_path / "scene.json")
    assert SceneSpec.load(tmp_path / "scene.json").obj == obj


def test_scene_file_with_only_required_keys_takes_the_defaults(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "object": {"kind": "sphere", "radius": 0.03},
        "object_trajectory": [{"t": 0.0, "pose": {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]}}],
        "aperture_trajectory": [{"t": 0.0, "gap": 0.05}],
    }))
    scene = SceneSpec(Primitive.sphere(0.03), ((0.0, PoseSE3.identity()),), ((0.0, 0.05),))
    assert SceneSpec.load(path).to_dict() == scene.to_dict()


def test_multi_key_aperture_trajectory_interpolates():
    scene = dataclasses.replace(grip_scene(), aperture_trajectory=((0.0, 0.08), (1.0, 0.076), (2.0, 0.076)))
    assert scene.aperture_at(0.5) == pytest.approx(0.078, abs=1e-15)
    assert simulate_contact(scene, 1_500_000).aperture == pytest.approx(0.076, abs=1e-15)


def test_consistency_stats_uniform_load_from_simulator():
    # wide flat box squeezed uniformly: every taxel carries 5 N (2.5 mm penetration)
    scene = grip_scene(obj=Primitive.box(0.2, 0.2, 0.08), gap=0.075, noise=2.0, seed=11)
    snap = simulate_contact(scene, 0)
    assert np.allclose(snap.forces[0], 5.0, atol=1e-9)
    from vitac.sensor_model import consistency_stats

    report = consistency_stats(snap.frames[0])
    expected = force_to_reading(scene.sensor, 5.0)
    # block sums are 4 readings of ~expected each; noise sigma 2 per taxel
    assert report.mean == pytest.approx(4 * expected, abs=4.0)
    assert report.coefficient_of_variation < 3 * 2.0 / (2 * expected)
