import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitac.errors import InvalidInputError
from vitac.pointcloud import (
    AABB,
    CloudXYZF,
    FusedCloud,
    crop_aabb,
    fps_downsample,
    fps_indices,
    fuse,
    merge,
    read_cloud_ply,
    transform,
    write_cloud_ply,
)
from vitac.se3 import PoseSE3


def random_cloud(rng, n, frame="base"):
    pts = rng.normal(size=(n, 3))
    f = rng.uniform(0, 1, size=n)
    return CloudXYZF(np.column_stack([pts, f]), frame)


# --- brute-force FPS oracle: recompute min over selected from scratch ----------


def fps_bruteforce(xyz, k, start):
    xyz = np.asarray(xyz, dtype=float)
    n = xyz.shape[0]
    selected = [start]
    while len(selected) < min(k, n):
        best_idx, best_d = None, -1.0
        for i in range(n):
            if i in selected:
                continue
            dmin = np.inf
            for j in selected:
                dx = xyz[i, 0] - xyz[j, 0]
                dy = xyz[i, 1] - xyz[j, 1]
                dz = xyz[i, 2] - xyz[j, 2]
                d = dx * dx + dy * dy + dz * dz
                if d < dmin:
                    dmin = d
            if dmin > best_d:  # strict: ties keep the lowest index
                best_d = dmin
                best_idx = i
        selected.append(best_idx)
    return np.array(selected)


def fps_full_update(xyz, k, start):
    """The plain greedy loop: every pick updates the minimum distance of every point."""
    xyz = np.asarray(xyz, dtype=np.float64)

    def sqdist_to(p):
        dx = xyz[:, 0] - p[0]
        dy = xyz[:, 1] - p[1]
        dz = xyz[:, 2] - p[2]
        return dx * dx + dy * dy + dz * dz

    selected = np.empty(min(k, xyz.shape[0]), dtype=np.int64)
    selected[0] = start
    dmin = sqdist_to(xyz[start])
    dmin[start] = -1.0
    for i in range(1, len(selected)):
        nxt = int(np.argmax(dmin))
        selected[i] = nxt
        dmin = np.minimum(dmin, sqdist_to(xyz[nxt]))
        dmin[nxt] = -1.0
    return selected


def assert_fps_matches_oracles(xyz, k, start):
    fast = fps_indices(xyz, k, seed=0, start=start)
    assert np.array_equal(fast, fps_full_update(xyz, k, start))
    if xyz.shape[0] <= 40:
        assert np.array_equal(fast, fps_bruteforce(xyz, k, start))


def test_merge_basics():
    rng = np.random.default_rng(0)
    a, b = random_cloud(rng, 100), random_cloud(rng, 200)
    m = merge([a, b])
    assert len(m) == 300
    assert np.array_equal(m.points[:100], a.points)
    assert np.array_equal(m.points[100:], b.points)
    assert len(merge([])) == 0
    single = merge([a])
    assert np.array_equal(single.points, a.points)
    with pytest.raises(InvalidInputError):
        merge([a, random_cloud(rng, 10, frame="cam0")])


def test_crop_inclusive_boundary():
    pts = np.array([[0.0, 0, 0, 1], [1.0, 1, 1, 2], [2.0, 0, 0, 3], [-0.1, 0, 0, 4]])
    cloud = CloudXYZF(pts, "base")
    box = AABB([0, 0, 0], [1, 1, 1])
    kept = crop_aabb(cloud, box)
    assert np.array_equal(kept.points, pts[:2])  # corner points retained, stable order
    everything = AABB([-10, -10, -10], [10, 10, 10])
    assert np.array_equal(crop_aabb(cloud, everything).points, pts)
    disjoint = AABB([5, 5, 5], [6, 6, 6])
    assert len(crop_aabb(cloud, disjoint)) == 0


def test_crop_keeps_every_face_and_drops_one_step_past_it_on_every_axis():
    rng = np.random.default_rng(15)
    lo, hi = rng.uniform(-1.0, 0.0, 3), rng.uniform(0.5, 2.0, 3)
    box = AABB(lo, hi)
    rows, kept = [], []
    for axis in range(3):
        for face, past in ((lo[axis], np.nextafter(lo[axis], -np.inf)), (hi[axis], np.nextafter(hi[axis], np.inf))):
            for value, inside in ((face, True), (past, False)):
                xyz = rng.uniform(lo, hi, size=(4, 3))
                xyz[:, axis] = value
                rows.append(xyz)
                kept += [inside] * 4
    rows.append(rng.uniform(lo - 1.0, hi + 1.0, size=(200, 3)))
    xyz = np.concatenate(rows)
    points = np.column_stack([xyz, rng.uniform(size=len(xyz))])
    reference = np.all((xyz >= lo) & (xyz <= hi), axis=1)  # the (N, 3) mask reduced over its rows
    assert np.array_equal(reference[: len(kept)], kept)
    assert 0 < np.count_nonzero(reference[len(kept) :]) < 200
    shuffle = rng.permutation(len(points))
    cropped = crop_aabb(CloudXYZF(points[shuffle], "base"), box)
    assert np.array_equal(cropped.points, points[shuffle][reference[shuffle]]) and cropped.frame == "base"
    empty = crop_aabb(CloudXYZF.empty("cam"), box)
    assert empty.points.shape == (0, 4) and empty.frame == "cam"


def test_box_refuses_a_min_corner_above_its_max():
    with pytest.raises(InvalidInputError, match="box min corner exceeds max corner"):
        AABB([0.0, 0.0, 1.0], [1.0, 1.0, 0.5])


def test_crop_idempotent():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 500)
    box = AABB([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    once = crop_aabb(cloud, box)
    twice = crop_aabb(once, box)
    assert np.array_equal(once.points, twice.points)


def test_fps_line_examples():
    xyz = np.column_stack([np.arange(11.0), np.zeros(11), np.zeros(11)])
    assert list(fps_indices(xyz, 2, seed=0, start=0)) == [0, 10]
    assert list(fps_indices(xyz, 3, seed=0, start=0)) == [0, 10, 5]


def test_fps_full_cloud():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 20)
    out = fps_downsample(cloud, 20, seed=1)
    assert len(out) == 20
    assert {tuple(r) for r in out.points} == {tuple(r) for r in cloud.points}
    # k beyond N just returns everything
    assert len(fps_downsample(cloud, 50, seed=1)) == 20


def test_fps_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(1, min(n, 20) + 1))
        xyz = rng.normal(size=(n, 3))
        start = int(rng.integers(n))
        fast = fps_indices(xyz, k, seed=0, start=start)
        slow = fps_bruteforce(xyz, k, start)
        assert np.array_equal(fast, slow), f"trial {trial}: {fast} vs {slow}"


def test_fps_with_duplicate_points():
    xyz = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    idx = fps_indices(xyz, 4, seed=0, start=0)
    assert len(set(idx.tolist())) == 4  # a true subset even with duplicates


def test_fps_quantized_clouds_match_oracles():
    # coordinates on a 1 mm grid: many exactly equal distances, also at slab edges
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(2, 40 if trial % 2 else 1500))
        extent = rng.uniform(0.002, 0.05, size=3)
        xyz = np.round(rng.uniform(0.0, 1.0, size=(n, 3)) * extent, 3)
        k = int(rng.integers(1, min(n, 64) + 1))
        assert_fps_matches_oracles(xyz, k, int(rng.integers(n)))


def test_fps_flat_and_identical_clouds_match_oracles():
    rng = np.random.default_rng(12)
    for n in (5, 33, 700):
        for flat_axes in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)):
            xyz = rng.normal(size=(n, 3))
            xyz[:, list(flat_axes)] = 0.25
            assert_fps_matches_oracles(xyz, min(n, 30), int(rng.integers(n)))
            assert_fps_matches_oracles(np.round(xyz, 1), min(n, 30), 0)


def test_fps_two_points_and_k_beyond_n():
    two = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert list(fps_indices(two, 2, seed=0, start=1)) == [1, 0]
    assert list(fps_indices(two, 5, seed=0, start=0)) == [0, 1]
    assert list(fps_indices(np.zeros((2, 3)), 2, seed=0, start=1)) == [1, 0]
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 17):
        xyz = np.round(rng.normal(size=(n, 3)), 1)
        for k in (n, n + 1, 10 * n):
            idx = fps_indices(xyz, k, seed=3)
            assert sorted(idx.tolist()) == list(range(n))
            assert_fps_matches_oracles(xyz, k, int(idx[0]))


def test_fps_dense_clouds_match_full_update():
    # the size the fuse command meets: 16k camera points down to 512
    rng = np.random.default_rng(14)
    gaussian = rng.normal(size=(16_000, 3)) * [0.02, 0.02, 0.04]
    box_grid = np.round(rng.uniform(size=(16_000, 3)) * [0.04, 0.04, 0.07], 3)
    slab = rng.uniform(size=(16_000, 3)) * [0.08, 0.08, 0.0]
    for xyz in (gaussian, box_grid, slab):
        start = int(rng.integers(len(xyz)))
        fast = fps_indices(xyz, 512, seed=0, start=start)
        assert np.array_equal(fast, fps_full_update(xyz, 512, start))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    grid=st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=1, max_size=60),
    scale=st.sampled_from([1e-3, 0.37, 1.0, 1e3]),
    offset=st.sampled_from([0.0, -2.5, 1e3]),
    k=st.integers(1, 70),
    start=st.integers(0, 59),
)
def test_fps_property_matches_full_update(grid, scale, offset, k, start):
    xyz = np.asarray(grid, dtype=np.float64) * scale + offset
    start %= len(xyz)
    idx = fps_indices(xyz, k, seed=0, start=start)
    assert len(idx) == min(k, len(xyz)) and len(set(idx.tolist())) == len(idx)
    assert np.array_equal(idx, fps_full_update(xyz, k, start))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fps_rejects_non_finite_points(bad):
    xyz = np.zeros((4, 3))
    xyz[2, 1] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        fps_indices(xyz, 2, seed=0)


@pytest.mark.parametrize(
    "xyz, shape",
    [(np.zeros((3, 4)), "(3, 4)"), (np.zeros((5, 4)), "(5, 4)"), (np.zeros((5, 2)), "(5, 2)"),
     (np.zeros(3), "(3,)"), (np.zeros((2, 2, 3)), "(2, 2, 3)")],
)
def test_fps_refuses_xyz_that_is_not_n_by_3(xyz, shape):
    with pytest.raises(InvalidInputError, match=re.escape(f"xyz must be an (N, 3) array, got shape {shape}")):
        fps_indices(xyz, 2, seed=0)


@pytest.mark.parametrize(
    "k, start, message",
    [(2.0, None, "k must be an integer, got 2.0"), ("2", 0, "k must be an integer, got '2'"),
     (True, 0, "k must be an integer, got True"), (None, 0, "k must be an integer, got None"),
     (2, 1.0, "start must be an integer, got 1.0"), (2, np.float64(1.0), f"start must be an integer, got {np.float64(1.0)!r}"),
     (2, False, "start must be an integer, got False"), (2, 4, "start must lie in [0, 3], got 4")],
)
def test_fps_refuses_k_or_start_that_is_not_an_integer_in_range(k, start, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        fps_indices(np.arange(12.0).reshape(4, 3), k, seed=0, start=start)


def test_fps_takes_numpy_integers():
    xyz = np.arange(12.0).reshape(4, 3)
    assert list(fps_indices(xyz, np.int64(2), seed=0, start=np.int32(1))) == [1, 3]


def test_fps_deterministic_and_subset():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 300)
    a = fps_indices(cloud.xyz, 40, seed=77)
    b = fps_indices(cloud.xyz, 40, seed=77)
    assert np.array_equal(a, b)
    out = fps_downsample(cloud, 40, seed=77)
    rows = {tuple(r) for r in cloud.points}
    assert all(tuple(r) in rows for r in out.points)


def test_fps_min_distance_monotone_in_k():
    rng = np.random.default_rng(5)
    xyz = rng.normal(size=(120, 3))

    def min_pairwise(sel):
        pts = xyz[sel]
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        return np.min(d[np.triu_indices(len(sel), k=1)])

    prev = np.inf
    for k in range(2, 40, 3):
        sel = fps_indices(xyz, k, seed=9)
        cur = min_pairwise(sel)
        assert cur <= prev + 1e-12
        prev = cur


def test_fps_empty_cloud_rejected():
    with pytest.raises(InvalidInputError):
        fps_downsample(CloudXYZF.empty("base"), 1, seed=0)
    with pytest.raises(InvalidInputError):
        fps_indices(np.zeros((5, 3)), 0, seed=0)


def test_transform_examples():
    rng = np.random.default_rng(6)
    cloud = random_cloud(rng, 50)
    same = transform(cloud, PoseSE3.identity(), "base")
    assert np.allclose(same.points, cloud.points)
    z90 = PoseSE3.from_rotvec([0, 0, np.pi / 2])
    single = CloudXYZF(np.array([[1.0, 0, 0, 0.7]]), "cam")
    moved = transform(single, z90, "base")
    assert np.allclose(moved.points[0], [0, 1, 0, 0.7], atol=1e-12)
    assert moved.frame == "base"
    # round trip under the inverse
    p = PoseSE3.from_rotvec(rng.normal(size=3), rng.normal(size=3))
    back = transform(transform(cloud, p, "x"), p.inverse(), "base")
    assert np.allclose(back.xyz, cloud.xyz, atol=1e-9)
    assert np.array_equal(back.feature, cloud.feature)


def test_fuse_counts_and_layout():
    rng = np.random.default_rng(7)
    visual = CloudXYZF(np.column_stack([rng.normal(size=(512, 3)), np.zeros(512)]), "base")
    tactile = random_cloud(rng, 512)
    fused = fuse(visual, tactile)
    assert len(fused) == 1024
    assert fused.n_visual == 512
    assert fused.n_tactile == 512
    assert np.all(fused.points[:512, 4] == 1.0)
    assert np.all(fused.points[:512, 3] == 0.0)
    assert np.all(fused.points[512:, 5] == 1.0)
    assert np.array_equal(fused.points[512:, 3], tactile.feature)
    # every input point appears exactly once, in order
    assert np.array_equal(fused.points[:512, :3], visual.xyz)
    assert np.array_equal(fused.points[512:, :3], tactile.xyz)


def test_fuse_onehot_partition():
    rng = np.random.default_rng(8)
    visual = CloudXYZF(np.column_stack([rng.normal(size=(30, 3)), np.zeros(30)]), "base")
    tactile = CloudXYZF(np.column_stack([rng.normal(size=(20, 3)), np.zeros(20)]), "base")
    fused = fuse(visual, tactile)
    flags = fused.points[:, 4:6]
    assert np.all(flags.sum(axis=1) == 1.0)
    assert fused.n_visual + fused.n_tactile == len(fused)
    # all-zero tactile values: one-hot still distinguishes modality
    assert np.all(fused.points[:, 3] == 0.0)
    assert fused.n_tactile == 20


def test_fuse_empty_tactile():
    rng = np.random.default_rng(9)
    visual = CloudXYZF(np.column_stack([rng.normal(size=(10, 3)), np.zeros(10)]), "base")
    fused = fuse(visual, CloudXYZF.empty("base"))
    assert fused.n_visual == 10 and fused.n_tactile == 0


def test_fuse_frame_mismatch():
    with pytest.raises(InvalidInputError):
        fuse(CloudXYZF.empty("a"), CloudXYZF.empty("b"))


def test_fused_cloud_validation():
    bad = np.zeros((1, 6))
    bad[0, 4:6] = [1, 1]
    with pytest.raises(InvalidInputError):
        FusedCloud(bad, "base")
    bad2 = np.zeros((1, 6))
    bad2[0, 4] = 1
    bad2[0, 3] = 0.5  # visual point with nonzero value
    with pytest.raises(InvalidInputError):
        FusedCloud(bad2, "base")


def test_ply_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    cloud = random_cloud(rng, 77, frame="cam1")
    path = tmp_path / "c.ply"
    write_cloud_ply(cloud, path)
    loaded = read_cloud_ply(path)
    assert loaded.frame == "cam1"
    assert np.array_equal(loaded.points, cloud.points)  # %.17g is bit-exact for float64
    empty = CloudXYZF.empty("e")
    write_cloud_ply(empty, tmp_path / "e.ply")
    loaded_empty = read_cloud_ply(tmp_path / "e.ply")
    assert len(loaded_empty) == 0 and loaded_empty.frame == "e"


def test_ply_without_f_reads_feature_zero(tmp_path):
    path = tmp_path / "xyz.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\nproperty double y\n"
                    "property double z\nend_header\n1 2 3\n4 5 6\n")
    assert read_cloud_ply(path).points.tolist() == [[1.0, 2.0, 3.0, 0.0], [4.0, 5.0, 6.0, 0.0]]


def test_ply_bytes_are_utf8_with_17_significant_digits(tmp_path):
    points = np.array([[0.1, -0.0, 1e-300, 1.0 / 3.0], [2.0**60, -7.5, 123456789.123456789, 0.0]])
    path = tmp_path / "u.ply"
    write_cloud_ply(CloudXYZF(points, "kamera_ü"), path)
    rows = "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in points)
    head = "ply\nformat ascii 1.0\ncomment frame kamera_ü\nelement vertex 2\n"
    head += "".join(f"property double {name}\n" for name in "xyzf") + "end_header\n"
    assert path.read_bytes() == (head + rows).encode("utf-8")
    assert read_cloud_ply(path).frame == "kamera_ü"
