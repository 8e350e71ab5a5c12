import numpy as np
import pytest

from vitac.errors import InvalidInputError
from vitac.kinematics import (
    FIXED,
    PRISMATIC,
    REVOLUTE,
    JointState,
    KinematicChain,
    Link,
    PadMount,
    TaxelGrid,
    forward_kinematics,
    load_chain_file,
    save_chain_file,
    tactile_point_cloud,
    taxel_points,
)
from vitac.pointcloud import BASE_FRAME
from vitac.se3 import PoseSE3, quat_multiply, quat_normalize, rotvec_to_quat
from vitac.sensor_model import TactileFrame


def random_pose(rng):
    q = quat_normalize(rng.normal(size=4))
    return PoseSE3(q, rng.normal(size=3))


# --- independent homogeneous-matrix oracle -----------------------------------


def _axis_angle_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    kx, ky, kz = axis
    K = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def _fk_matrix_oracle(chain, positions):
    mats = []
    m = np.eye(4)
    qs = iter(positions)
    for link in chain.links:
        motion = np.eye(4)
        if link.joint == REVOLUTE:
            motion[:3, :3] = _axis_angle_matrix(link.axis, next(qs))
        elif link.joint == PRISMATIC:
            motion[:3, 3] = link.axis * next(qs)
        m = m @ link.fixed.matrix() @ motion
        mats.append(m.copy())
    return mats


# --- pose algebra -------------------------------------------------------------


def test_identity_and_inverse():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_pose(rng)
        r = p.inverse() @ p
        assert np.allclose(r.t, 0, atol=1e-9)
        assert min(np.linalg.norm(r.q - [1, 0, 0, 0]), np.linalg.norm(r.q + [1, 0, 0, 0])) < 1e-9


def test_composition_matches_matrix_product():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        assert np.allclose((a @ b).matrix(), a.matrix() @ b.matrix(), atol=1e-9)


def test_composition_associative():
    rng = np.random.default_rng(3)
    a, b, c = (random_pose(rng) for _ in range(3))
    lhs = (a @ b) @ c
    rhs = a @ (b @ c)
    assert np.allclose(lhs.matrix(), rhs.matrix(), atol=1e-9)


def test_apply_matches_matrix():
    rng = np.random.default_rng(4)
    p = random_pose(rng)
    pts = rng.normal(size=(100, 3))
    hom = np.column_stack([pts, np.ones(100)])
    expected = (p.matrix() @ hom.T).T[:, :3]
    assert np.allclose(p.apply(pts), expected, atol=1e-9)


def test_quaternion_norm_stable_after_many_compositions():
    # tree-reduce over 2**20 random rotations exercises > 1e6 compositions
    rng = np.random.default_rng(5)
    q = quat_normalize(rng.normal(size=(2**20, 4)))
    while q.shape[0] > 1:
        q = quat_multiply(q[0::2], q[1::2])
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
    assert abs(np.linalg.norm(q[0]) - 1.0) < 1e-9


def test_rotvec_roundtrip():
    rng = np.random.default_rng(6)
    v = rng.normal(size=3)
    p = PoseSE3.from_rotvec(v)
    assert np.allclose(p.rotation_matrix(), _axis_angle_matrix(v / np.linalg.norm(v), np.linalg.norm(v)), atol=1e-12)


def test_pose_renormalizes_non_unit_quaternion():
    pose = PoseSE3(np.array([0.0, 0.0, 3.0, 4.0]), np.zeros(3))
    assert pose.q.tolist() == [0.0, 0.0, 0.6, 0.8]
    assert not pose.q.flags.writeable


def test_pose_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        PoseSE3(np.zeros(4), np.zeros(3))
    with pytest.raises(InvalidInputError):
        PoseSE3(np.array([1, 0, 0, np.nan]), np.zeros(3))


# --- forward kinematics ---------------------------------------------------------


def test_fk_all_identity():
    chain = KinematicChain(tuple(Link(PoseSE3.identity(), REVOLUTE, np.array([0.0, 0, 1])) for _ in range(4)))
    poses = forward_kinematics(chain, JointState(np.zeros(4)))
    for p in poses:
        assert np.allclose(p.matrix(), np.eye(4), atol=1e-12)


def test_fk_quarter_turn_child_offset():
    chain = KinematicChain(
        (
            Link(PoseSE3.identity(), REVOLUTE, np.array([0.0, 0, 1])),
            Link(PoseSE3(t=[1.0, 0, 0]), FIXED),
        )
    )
    poses = forward_kinematics(chain, JointState([np.pi / 2]))
    assert np.allclose(poses[1].t, [0, 1, 0], atol=1e-9)


def test_fk_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        links = []
        kinds = rng.choice([REVOLUTE, PRISMATIC, FIXED], size=6)
        for kind in kinds:
            axis = None
            if kind != FIXED:
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
            links.append(Link(random_pose(rng), kind, axis))
        chain = KinematicChain(tuple(links))
        positions = rng.normal(size=chain.n_joints)
        poses = forward_kinematics(chain, JointState(positions))
        oracle = _fk_matrix_oracle(chain, positions)
        for p, m in zip(poses, oracle):
            assert np.allclose(p.matrix(), m, atol=1e-9)


def test_fk_prefix_suffix_consistency():
    rng = np.random.default_rng(8)
    links = tuple(Link(random_pose(rng), REVOLUTE, np.array([0.0, 0, 1.0])) for _ in range(6))
    chain = KinematicChain(links)
    positions = rng.normal(size=6)
    full = forward_kinematics(chain, JointState(positions))
    prefix = forward_kinematics(KinematicChain(links[:3]), JointState(positions[:3]))
    suffix = forward_kinematics(KinematicChain(links[3:]), JointState(positions[3:]))
    for i, p in enumerate(suffix):
        combined = prefix[-1] @ p
        assert np.allclose(combined.matrix(), full[3 + i].matrix(), atol=1e-9)


def test_fk_joint_count_mismatch():
    chain = KinematicChain((Link(PoseSE3.identity(), REVOLUTE, np.array([0.0, 0, 1])),))
    with pytest.raises(InvalidInputError):
        forward_kinematics(chain, JointState([0.0, 0.0]))


# --- taxel placement ------------------------------------------------------------


def test_taxel_points_identity_pitch():
    grid = TaxelGrid(16, 16, 2.0e-3)
    pts = taxel_points(PoseSE3.identity(), grid)
    assert pts.shape == (256, 3)
    assert np.allclose(pts[0], [0, 0, 0])
    assert np.allclose(pts[1], [2.0e-3, 0, 0])  # (r=0, c=1)
    assert np.allclose(pts[16], [0, 2.0e-3, 0])  # (r=1, c=0)


@pytest.mark.parametrize("pitch", [0.0, -1e-3, 1.5, 1e300, np.nan, np.inf])
def test_taxel_grid_pitch_outside_zero_to_one_meter_is_refused(pitch):
    with pytest.raises(InvalidInputError, match="pitch"):
        TaxelGrid(16, 16, pitch)
    assert TaxelGrid(16, 16, 1.0).pitch == 1.0


@pytest.mark.parametrize("rows, cols", [(0, 16), (16, -1), (2049, 16), (16, 2049), (10**19, 16)])
def test_taxel_grid_side_outside_one_to_the_bound_is_refused(rows, cols):
    from vitac.kinematics import MAX_GRID_SIDE  # first, so that a tree without the bound fails here

    with pytest.raises(InvalidInputError, match=f"grid rows and cols must lie in \\[1, {MAX_GRID_SIDE}\\]"):
        TaxelGrid(rows, cols, 1e-3)
    assert TaxelGrid(MAX_GRID_SIDE, 1, 1e-3).count == MAX_GRID_SIDE


def test_taxel_points_translation_and_rotation():
    grid = TaxelGrid(4, 4, 1.0e-3)
    t = np.array([0.1, -0.2, 0.3])
    shifted = taxel_points(PoseSE3(t=t), grid)
    base = taxel_points(PoseSE3.identity(), grid)
    assert np.allclose(shifted, base + t, atol=1e-12)
    # pi about z: (c p, r p, 0) -> (-c p, -r p, 0)
    rot = taxel_points(PoseSE3.from_rotvec([0, 0, np.pi]), grid)
    assert np.allclose(rot[:, :2], -base[:, :2], atol=1e-12)
    assert np.allclose(rot[:, 2], 0, atol=1e-12)


def _normalized_frame(pad_id, value, rng=None):
    grid = np.full((16, 16), value) if rng is None else rng.uniform(0, 1, size=(16, 16))
    return TactileFrame(pad_id, 0, grid, normalized=True)


def _two_pad_setup():
    chain = KinematicChain(
        (
            Link(PoseSE3(t=[0, 0, 0.1]), FIXED),
            Link(PoseSE3(t=[0, 0, -0.2]), FIXED),
        )
    )
    mounts = [PadMount(0, 0, PoseSE3.identity()), PadMount(1, 1, PoseSE3.identity())]
    return chain, mounts


def test_tactile_point_cloud_counts():
    chain, mounts = _two_pad_setup()
    frames = {0: _normalized_frame(0, 0.5), 1: _normalized_frame(1, 0.25)}
    cloud = tactile_point_cloud(frames, chain, JointState([]), mounts)
    assert len(cloud) == 512
    assert cloud.frame == BASE_FRAME
    assert np.all(cloud.feature[:256] == 0.5)
    assert np.all(cloud.feature[256:] == 0.25)
    # four mounts -> 1024 points
    chain4 = KinematicChain(tuple(Link(PoseSE3(t=[0.05 * i, 0, 0]), FIXED) for i in range(4)))
    mounts4 = [PadMount(i, i, PoseSE3.identity()) for i in range(4)]
    frames4 = {i: _normalized_frame(i, 0.0) for i in range(4)}
    cloud4 = tactile_point_cloud(frames4, chain4, JointState([]), mounts4)
    assert len(cloud4) == 1024
    assert np.all(cloud4.feature == 0.0)


def test_tactile_point_cloud_missing_frame():
    chain, mounts = _two_pad_setup()
    with pytest.raises(InvalidInputError):
        tactile_point_cloud({0: _normalized_frame(0, 0.5)}, chain, JointState([]), mounts)


def test_tactile_point_cloud_rejects_raw_frames():
    chain, mounts = _two_pad_setup()
    raw = TactileFrame(0, 0, np.zeros((16, 16), dtype=int), normalized=False)
    frames = {0: raw, 1: _normalized_frame(1, 0.0)}
    with pytest.raises(InvalidInputError):
        tactile_point_cloud(frames, chain, JointState([]), mounts)


def test_tactile_cloud_rigid_equivariance():
    rng = np.random.default_rng(9)
    links = (
        Link(random_pose(rng), REVOLUTE, np.array([0.0, 0, 1.0])),
        Link(random_pose(rng), PRISMATIC, np.array([1.0, 0, 0.0])),
    )
    mounts = [PadMount(0, 0, random_pose(rng)), PadMount(1, 1, random_pose(rng))]
    joints = JointState(rng.normal(size=2))
    frames = {0: _normalized_frame(0, 0, rng), 1: _normalized_frame(1, 0, rng)}
    g = random_pose(rng)
    base_cloud = tactile_point_cloud(frames, KinematicChain(links), joints, mounts)
    pre_links = (Link(g @ links[0].fixed, links[0].joint, links[0].axis),) + links[1:]
    moved = tactile_point_cloud(frames, KinematicChain(pre_links), joints, mounts)
    assert np.allclose(moved.xyz, g.apply(base_cloud.xyz), atol=1e-9)
    assert np.array_equal(moved.feature, base_cloud.feature)


def test_chain_file_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    chain = KinematicChain(
        (
            Link(random_pose(rng), PRISMATIC, np.array([1.0, 0, 0])),
            Link(PoseSE3.identity(), FIXED),
        )
    )
    mounts = [PadMount(0, 0, random_pose(rng), TaxelGrid(16, 16, 3e-3))]
    path = tmp_path / "chain.json"
    save_chain_file(path, chain, mounts)
    chain2, mounts2 = load_chain_file(path)
    assert len(chain2.links) == 2
    assert chain2.links[0].joint == PRISMATIC
    assert np.allclose(chain2.links[0].fixed.matrix(), chain.links[0].fixed.matrix(), atol=1e-15)
    assert mounts2[0].grid.pitch == 3e-3
    joints = JointState([0.37])
    a = forward_kinematics(chain, joints)
    b = forward_kinematics(chain2, joints)
    assert np.allclose(a[-1].matrix(), b[-1].matrix(), atol=1e-12)
