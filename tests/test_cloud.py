import threading

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import PILLAR_CASES

from pillarmatch import cloud as cloud_module
from pillarmatch.cloud import (
    ORIGIN_EPS,
    PARALLEL_QUERY_POINTS,
    QUERY_CHUNK_POINTS,
    CorrespondenceLabels,
    FramePair,
    KeyPointSet,
    PillarSet,
    PointCloud,
    SceneConfig,
    _neighbor_indices,
    generate_synthetic_pair,
    label_correspondences,
    load_kitti_poses,
    load_kitti_scan,
    sample_pillars,
    save_kitti_poses,
    save_kitti_scan,
    select_keypoints,
    smoothness,
    smoothness_field,
)
from pillarmatch.errors import (
    ArgumentError,
    DegeneratePointError,
    FormatError,
    InsufficientPointsError,
)
from pillarmatch.transforms import RigidTransform, rotation_about_axis


def cloud_from(points, intensities=None, frame_id="test"):
    pts = np.asarray(points, dtype=float)
    if intensities is None:
        intensities = np.zeros(len(pts))
    return PointCloud(pts, intensities, frame_id)


# ---------------------------------------------------------------------------
# KITTI ingestion
# ---------------------------------------------------------------------------

def test_scan_ten_points_round_trip(tmp_path, rng):
    records = rng.normal(size=(10, 4)).astype("<f4")
    records[:, 3] = np.abs(records[:, 3]) % 1.0
    raw = records.tobytes()
    assert len(raw) == 160
    path = tmp_path / "000000.bin"
    path.write_bytes(raw)
    cloud = load_kitti_scan(path)
    assert len(cloud) == 10
    out = tmp_path / "rt.bin"
    save_kitti_scan(cloud, out)
    assert out.read_bytes() == raw


def test_scan_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert len(load_kitti_scan(path)) == 0


def test_scan_unaligned_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 17)
    with pytest.raises(FormatError):
        load_kitti_scan(path)


def test_scan_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_kitti_scan(tmp_path / "nope.bin")


def test_cloud_keeps_read_only_copies_of_callers_arrays(rng):
    points = rng.normal(size=(6, 3))
    intensities = rng.uniform(size=6)
    cloud = PointCloud(points, intensities)
    assert points.flags.writeable and intensities.flags.writeable
    assert not (cloud.points.flags.writeable or cloud.intensities.flags.writeable)
    kept = cloud.points.copy(), cloud.intensities.copy()
    points[0, 0] = 5.0
    intensities[0] = 0.5
    np.testing.assert_array_equal(cloud.points, kept[0])
    np.testing.assert_array_equal(cloud.intensities, kept[1])


def test_pose_identity_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    poses = load_kitti_poses(path)
    assert len(poses) == 1
    np.testing.assert_array_equal(poses[0].matrix, np.eye(4))


def test_pose_translation_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 5 0 1 0 0 0 0 1 0\n")
    pose = load_kitti_poses(path)[0]
    np.testing.assert_array_equal(pose.translation, [5.0, 0.0, 0.0])
    np.testing.assert_array_equal(pose.rotation, np.eye(3))


def test_pose_wrong_token_count(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
    with pytest.raises(FormatError):
        load_kitti_poses(path)


def test_pose_round_trip_exact(tmp_path, rng):
    rot = rotation_about_axis(rng.normal(size=3), 0.7315)
    pose = RigidTransform.from_rotation_translation(rot, rng.normal(size=3))
    path = tmp_path / "poses.txt"
    save_kitti_poses([pose], path)
    loaded = load_kitti_poses(path)[0]
    np.testing.assert_array_equal(loaded.matrix, pose.matrix)


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def grid_cloud(extra=None):
    """Flat z=0 grid away from the origin, plus optional extra points."""
    xs, ys = np.meshgrid(np.linspace(4.0, 8.0, 9), np.linspace(4.0, 8.0, 9))
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
    if extra is not None:
        pts = np.vstack([pts, extra])
    return cloud_from(pts)


def test_smoothness_symmetric_neighbors_cancel():
    pts = [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
    c = smoothness(cloud_from(pts), 0, neighborhood_size=2)
    assert c == pytest.approx(0.0, abs=1e-12)


def test_smoothness_hand_value():
    # offsets sum to (2, -1, 0); |S| = 2, point norm 1 -> sqrt(5)/2
    pts = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    c = smoothness(cloud_from(pts), 0, neighborhood_size=2)
    assert c == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-12)


def test_smoothness_origin_degenerate():
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(DegeneratePointError):
        smoothness(cloud_from(pts), 0, neighborhood_size=2)


def test_smoothness_central_symmetry_zero():
    # point with a centrally symmetric neighborhood
    center = np.array([5.0, 5.0, 0.0])
    ring = [center + d for d in
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0.5, 0.5, 0], [-0.5, -0.5, 0]]]
    cloud = cloud_from([center] + ring)
    assert smoothness(cloud, 0, neighborhood_size=6) == pytest.approx(0.0, abs=1e-12)


def test_smoothness_rotation_invariant(rng):
    pts = rng.normal(size=(80, 3)) + np.array([5.0, 0.0, 0.0])
    cloud = cloud_from(pts)
    values, valid = smoothness_field(cloud, neighborhood_size=10)
    for _ in range(3):
        rot = rotation_about_axis(rng.normal(size=3), rng.uniform(0, np.pi))
        rotated = cloud_from(pts @ rot.T)
        rot_values, rot_valid = smoothness_field(rotated, neighborhood_size=10)
        np.testing.assert_array_equal(valid, rot_valid)
        np.testing.assert_allclose(rot_values[valid], values[valid], rtol=1e-9)


def drop_own_per_point(nearest, k):
    """Each point's k neighbors from its k+1 nearest results: the own index
    dropped if present, else the first k kept."""
    expected = []
    for own, cand in enumerate(nearest):
        keep = cand[cand != own]
        expected.append(keep[:k] if len(keep) >= k else cand[:k])
    return np.array(expected)


def smoothness_by_balanced_tree(points, k):
    """The smoothness field as computed from a median-split tree, an
    (n, k, 3) neighbor gather, ``.sum(axis=1)`` and ``np.linalg.norm``."""
    neighbors = drop_own_per_point(cKDTree(points).query(points, k=k + 1)[1], k)
    sums = k * points - points[neighbors].sum(axis=1)
    norms = np.linalg.norm(points, axis=1)
    valid = norms > ORIGIN_EPS
    values = np.zeros(len(points))
    values[valid] = np.linalg.norm(sums[valid], axis=1) / (k * norms[valid])
    return values, valid


def tie_free_points(rng, n):
    """``n`` float32-rounded points away from the origin, then 30 exact
    copies of one of them and the origin itself. Only the copies tie: every
    equal distance among a point's 11 nearest is to equal coordinates."""
    pts = (rng.normal(size=(n, 3)) * 4.0 + 10.0).astype(np.float32).astype(np.float64)
    pts = np.vstack([pts, np.repeat(pts[:1], 30, axis=0), [[0.0, 0.0, 0.0]]])
    dist, nearest = cKDTree(pts).query(pts, k=11)
    same = np.all(pts[nearest[:, 1:]] == pts[nearest[:, :-1]], axis=2)
    assert np.all((np.diff(dist, axis=1) > 0.0) | same)
    return pts


def test_smoothness_field_equals_balanced_tree_reference_bytes(rng):
    pts = tie_free_points(rng, PARALLEL_QUERY_POINTS + 2000)
    values, valid = smoothness_field(cloud_from(pts), neighborhood_size=10)
    ref_values, ref_valid = smoothness_by_balanced_tree(pts, 10)
    assert values.tobytes() == ref_values.tobytes()
    np.testing.assert_array_equal(valid, ref_valid)
    assert not valid[-1] and valid[:-1].all()


def test_smoothness_scalar_equals_field_with_duplicate_points(rng):
    # 15 exact copies of one point: a copy's k+1 nearest results can all be
    # other copies, so its own index falls outside them
    pts = np.vstack([
        rng.normal(size=(60, 3)) + np.array([5.0, 0.0, 0.0]),
        np.repeat([[5.5, 0.2, -0.3]], 15, axis=0),
        [[0.0, 0.0, 0.0]],
    ])
    cloud = cloud_from(pts)
    _, nearest = cloud.tree.query(pts, k=11)
    assert any(i not in nearest[i] for i in range(60, 75))
    neighbors = _neighbor_indices(cloud, np.arange(len(pts)), 10)
    np.testing.assert_array_equal(neighbors, drop_own_per_point(nearest, 10))
    values, valid = smoothness_field(cloud, neighborhood_size=10)
    assert not valid[-1]
    for i in np.flatnonzero(valid):
        assert smoothness(cloud, i, neighborhood_size=10) == values[i]


def assert_neighbors_match_per_point_reference(pts):
    """``_neighbor_indices`` of every point against the per-point reference,
    on a cloud as large as the clouds smoothness_field splits into threaded
    chunks; the k-d tree query itself runs on the calling thread. Returns
    whether every point came first in its own results."""
    assert len(pts) >= PARALLEL_QUERY_POINTS
    cloud = cloud_from(pts)
    _, nearest = cloud.tree.query(pts, k=11, workers=1)
    neighbors = _neighbor_indices(cloud, np.arange(len(pts)), 10)
    np.testing.assert_array_equal(neighbors, drop_own_per_point(nearest, 10))
    own_first = np.array_equal(nearest[:, 0], np.arange(len(pts)))
    # the own column is sliced off a view only when it comes first everywhere
    assert neighbors.flags.owndata != own_first
    return own_first


def test_neighbor_indices_threaded_query_matches_per_point_reference(rng):
    # a copy can come after another copy in its own results
    pts = np.vstack([rng.normal(size=(20_000, 3)) * 4.0 + 10.0,
                     np.repeat([[9.0, 10.5, 11.0]], 30, axis=0)])
    assert not assert_neighbors_match_per_point_reference(pts)


def test_neighbor_indices_without_copies_slice_off_the_own_column(rng):
    pts = rng.normal(size=(20_000, 3)) * 4.0 + 10.0
    assert assert_neighbors_match_per_point_reference(pts)


def test_smoothness_field_in_threaded_chunks_equals_one_chunk_on_one_thread(rng, monkeypatch):
    # exact duplicates, whose neighbors tie, and one invalid point at the origin
    pts = np.vstack([rng.normal(size=(3 * QUERY_CHUNK_POINTS, 3)) * 4.0 + 10.0,
                     np.repeat([[9.0, 10.5, 11.0]], 30, axis=0), [[0.0, 0.0, 0.0]]])
    assert len(pts) >= PARALLEL_QUERY_POINTS
    cloud = cloud_from(pts)
    calls = []
    chunk = cloud_module._smoothness_chunk

    def recorded(cloud, coords, indices, k):
        calls.append((threading.get_ident(), len(indices)))
        return chunk(cloud, coords, indices, k)

    monkeypatch.setattr(cloud_module, "_smoothness_chunk", recorded)
    values, valid = smoothness_field(cloud, neighborhood_size=10)
    assert len(calls) == -(-len(pts) // QUERY_CHUNK_POINTS)
    assert all(ident != threading.get_ident() and n <= QUERY_CHUNK_POINTS for ident, n in calls)
    calls.clear()
    monkeypatch.setattr(cloud_module, "PARALLEL_QUERY_POINTS", len(pts) + 1)
    one_values, one_valid = smoothness_field(cloud, neighborhood_size=10)
    assert calls == [(threading.get_ident(), len(pts))]
    assert values.tobytes() == one_values.tobytes()
    np.testing.assert_array_equal(valid, one_valid)
    assert not valid[-1] and valid[:-1].all()


def test_smoothness_needs_enough_points():
    pts = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    with pytest.raises(InsufficientPointsError):
        smoothness(cloud_from(pts), 0, neighborhood_size=10)


# ---------------------------------------------------------------------------
# key-point selection
# ---------------------------------------------------------------------------

def test_select_keypoints_extremes():
    # a flat grid plus one isolated spike: the spike is sharpest, grid interior flattest
    spike = np.array([[6.0, 6.0, 3.0]])
    cloud = grid_cloud(extra=spike)
    kps = select_keypoints(cloud, 2, neighborhood_size=8)
    assert set(kps.kind.tolist()) == {0, 1}
    sharp, planar = np.argmax(kps.kind == 1), np.argmax(kps.kind == 0)
    assert kps.smoothness[sharp] >= kps.smoothness[planar]
    np.testing.assert_array_equal(kps.positions[sharp], spike[0])


def test_select_keypoints_split_counts():
    cloud = grid_cloud()
    kps = select_keypoints(cloud, 11, neighborhood_size=8)
    assert np.sum(kps.kind == 1) == 6 and np.sum(kps.kind == 0) == 5
    assert len(np.unique(kps.index)) == len(kps.index)


def test_select_keypoints_scan_scale_hundred():
    cloud = generate_synthetic_pair(1).source
    kps = select_keypoints(cloud, 100)
    assert len(kps) == 100 and np.sum(kps.kind == 1) == 50


def test_select_keypoints_insufficient():
    pts = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
    with pytest.raises(InsufficientPointsError):
        select_keypoints(cloud_from(pts), 4, neighborhood_size=2)


def test_select_keypoints_deterministic():
    cloud = grid_cloud()
    a = select_keypoints(cloud, 10, neighborhood_size=8)
    b = select_keypoints(cloud, 10, neighborhood_size=8)
    np.testing.assert_array_equal(a.index, b.index)


def test_select_keypoints_min_separation():
    cloud = grid_cloud()
    kps = select_keypoints(cloud, 8, neighborhood_size=8, min_separation=1.0)
    pos = kps.positions
    dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() >= 1.0


def select_by_full_sort(cloud, values, valid, count, min_separation=None):
    """Reference for select_keypoints' ranking: both ends fully ordered by
    ``np.lexsort`` on (key, index), then picked in that order."""
    valid_idx = np.flatnonzero(valid)
    if len(valid_idx) < count:
        raise InsufficientPointsError(
            f"{len(valid_idx)} valid points < requested {count} key-points"
        )
    n_sharp = (count + 1) // 2
    order_desc = valid_idx[np.lexsort((valid_idx, -values[valid_idx]))]
    order_asc = valid_idx[np.lexsort((valid_idx, values[valid_idx]))]
    chosen = []
    for candidates, wanted, kind in ((order_desc, n_sharp, "sharp"),
                                     (order_asc, count - n_sharp, "planar")):
        got = 0
        for i in candidates:
            if got == wanted:
                break
            if i in chosen:
                continue
            if min_separation is not None and chosen and np.min(np.linalg.norm(
                    cloud.points[chosen] - cloud.points[i], axis=1)) < min_separation:
                continue
            chosen.append(int(i))
            got += 1
        if got < wanted:
            raise InsufficientPointsError(f"only {got} of {wanted} {kind} key-points satisfiable")
    return np.array(chosen, dtype=np.int64)


def selection_outcome(select, *args, **kwargs):
    """The chosen indices, or the message of the InsufficientPointsError raised."""
    try:
        chosen = select(*args, **kwargs)
    except InsufficientPointsError as exc:
        return str(exc)
    return getattr(chosen, "index", chosen).tolist()


def assert_ranked_as_full_sort(cloud, count, neighborhood_size, min_separation=None):
    values, valid = smoothness_field(cloud, neighborhood_size)
    expected = selection_outcome(select_by_full_sort, cloud, values, valid, count, min_separation)
    got = selection_outcome(select_keypoints, cloud, count, neighborhood_size, min_separation)
    assert got == expected
    return got


@pytest.mark.parametrize("seed", range(4))
def test_select_keypoints_ranks_random_clouds_as_a_full_sort(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(300, 3)) + np.array([4.0, 0.0, 0.0])
    cloud = cloud_from(np.vstack([pts, [[0.0, 0.0, 0.0]]]))
    # at 150 the 2 * count head covers every valid point; 301 exceeds them
    for count in (1, 2, 7, 20, 64, 150, 300, 301):
        assert_ranked_as_full_sort(cloud, count, neighborhood_size=8)


def test_select_keypoints_ranks_ties_at_the_cut_as_a_full_sort():
    # a doubled integer lattice: with 13 neighbors, every interior point sums
    # its copy and the full shell of face neighbors, so its smoothness is 0.0
    axis = np.arange(6.0) + 10.0
    lattice = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    cloud = cloud_from(np.repeat(lattice, 2, axis=0))
    values, valid = smoothness_field(cloud, neighborhood_size=13)
    assert np.sum(values[valid] == 0.0) == 2 * 4 ** 3
    for count in (5, 20, 40):
        ascending = np.sort(values[valid])
        assert ascending[2 * count - 1] == ascending[2 * count] == 0.0
        chosen = assert_ranked_as_full_sort(cloud, count, neighborhood_size=13)
        assert len(chosen) == count


def test_select_keypoints_ranks_values_with_ties_at_both_cuts_as_a_full_sort(rng, monkeypatch):
    # few distinct values: each end's cut falls inside a run of equal keys
    cloud = cloud_from(rng.normal(size=(500, 3)) + np.array([4.0, 0.0, 0.0]))
    values = rng.integers(0, 4, len(cloud)) / 4.0
    valid = rng.uniform(size=len(cloud)) > 0.1
    monkeypatch.setattr(cloud_module, "smoothness_field", lambda cloud, k: (values, valid))
    for count in (1, 9, 40, 120, 300, 500):
        expected = selection_outcome(select_by_full_sort, cloud, values, valid, count)
        assert selection_outcome(select_keypoints, cloud, count) == expected


def test_select_keypoints_min_separation_reads_past_the_head_as_a_full_sort():
    rng = np.random.default_rng(3)
    cloud = cloud_from(rng.uniform(-1.0, 1.0, size=(2000, 3)) + np.array([5.0, 0.0, 0.0]))
    count = 10
    chosen = assert_ranked_as_full_sort(cloud, count, neighborhood_size=8, min_separation=1.0)
    values, valid = smoothness_field(cloud, 8)
    valid_idx = np.flatnonzero(valid)
    n_sharp = (count + 1) // 2
    # each end picks a candidate past the 2 * count it sorts first
    keys = values[valid_idx]
    for picks, end_keys in ((chosen[:n_sharp], -keys), (chosen[n_sharp:], keys)):
        order = valid_idx[np.lexsort((valid_idx, end_keys))].tolist()
        assert max(order.index(i) for i in picks) >= 2 * count
    # and a radius that leaves too few candidates fails with the full sort's error
    message = assert_ranked_as_full_sort(cloud, count, neighborhood_size=8, min_separation=2.0)
    assert message.startswith("only ")


# ---------------------------------------------------------------------------
# pillars
# ---------------------------------------------------------------------------

def test_sample_pillar_pads_to_capacity():
    pts = [[5.0, 0.0, 0.0], [5.1, 0.0, 0.0], [5.0, 0.1, 0.0], [9.0, 9.0, 9.0]]
    cloud = cloud_from(pts, intensities=[0.1, 0.2, 0.3, 0.4])
    pillars = sample_pillars(cloud, kps_at([[5.0, 0.0, 0.0]]), capacity=100, radius=0.5)
    assert pillars.real_count[0] == 3
    assert pillars.capacity == 100
    np.testing.assert_array_equal(pillars.members[0, 3:], 0.0)


def test_sample_pillar_nearest_first():
    pts = [[5.0, 0.0, 0.0], [5.1, 0.0, 0.0], [5.2, 0.0, 0.0]]
    cloud = cloud_from(pts)
    pillars = sample_pillars(cloud, kps_at([[5.0, 0.0, 0.0]]), capacity=1, radius=1.0)
    assert pillars.real_count[0] == 1
    np.testing.assert_array_equal(pillars.members[0, 0, :3], [5.0, 0.0, 0.0])


def test_sample_pillar_all_out_of_range():
    pts = [[5.0, 0.0, 0.0], [6.0, 0.0, 0.0]]
    cloud = cloud_from(pts)
    pillars = sample_pillars(cloud, kps_at([[0.0, 0.0, 0.0]]), capacity=4, radius=0.5)
    assert pillars.real_count[0] == 0
    np.testing.assert_array_equal(pillars.centroids[0], [0.0, 0.0, 0.0])


def test_sample_pillar_distances_sorted_and_inside(rng):
    pts = rng.uniform(3.0, 6.0, size=(200, 3))
    cloud = cloud_from(pts, intensities=rng.uniform(size=200))
    pillars = sample_pillars(cloud, kps_at([pts[17]]), capacity=32, radius=0.8)
    real = pillars.real_count[0]
    dists = np.linalg.norm(pillars.members[0, :real, :3] - pts[17], axis=1)
    assert np.all(np.diff(dists) >= 0.0)
    assert np.all(dists < 0.8)


@pytest.mark.parametrize("name, call", [
    ("count", lambda cloud: select_keypoints(cloud, -1)),
    ("count", lambda cloud: select_keypoints(cloud, 2.5)),
    ("neighborhood_size", lambda cloud: select_keypoints(cloud, 4, neighborhood_size=2.5)),
    ("neighborhood_size", lambda cloud: smoothness_field(cloud, neighborhood_size=0)),
    ("capacity", lambda cloud: sample_pillars(cloud, kps_at([[5.0, 5.0, 0.0]]), 2.5, 0.5)),
    ("radius", lambda cloud: sample_pillars(cloud, kps_at([[5.0, 5.0, 0.0]]), 4, float("nan"))),
    ("radius", lambda cloud: sample_pillars(cloud, kps_at([[5.0, 5.0, 0.0]]), 4, 0.0)),
    ("index", lambda cloud: smoothness(cloud, 10**6)),
    ("index", lambda cloud: smoothness(cloud, -1)),
    ("index", lambda cloud: smoothness(cloud, 1.0)),
], ids=["count-negative", "count-fraction", "neighborhood-fraction", "neighborhood-zero",
        "capacity-fraction", "radius-nan", "radius-zero", "index-past-end", "index-negative",
        "index-float"])
def test_malformed_argument_is_refused_by_name(name, call):
    with pytest.raises(ArgumentError, match=f"^{name} "):
        call(grid_cloud())


def reference_pillar(cloud, position, capacity, radius):
    """One pillar by the per-key-point query that sample_pillars batches:
    ``(members, centroid, real_count)``."""
    k = min(capacity, len(cloud))
    members = np.zeros((capacity, 4))
    real = 0
    if k > 0:
        dist, idx = cloud.tree.query(position, k=k)
        dist = np.atleast_1d(dist)
        idx = np.atleast_1d(idx)
        inside = dist < radius
        dist, idx = dist[inside], idx[inside]
        idx = idx[np.lexsort((idx, dist))]
        real = len(idx)
        members[:real, :3] = cloud.points[idx]
        members[:real, 3] = cloud.intensities[idx]
    centroid = members[:real, :3].mean(axis=0) if real else np.array(position)
    return members, centroid, real


@pytest.mark.parametrize("case", PILLAR_CASES)
def test_sample_pillars_equals_per_keypoint_reference(pillar_cases, case):
    cloud, kps, capacity, radius = pillar_cases[case]
    pillars = sample_pillars(cloud, kps, capacity, radius)
    members, centroids, counts = zip(
        *(reference_pillar(cloud, p, capacity, radius) for p in kps.positions))
    assert pillars.keypoints is kps and pillars.capacity == capacity
    np.testing.assert_array_equal(pillars.members, np.stack(members))
    np.testing.assert_array_equal(pillars.centroids, np.stack(centroids))
    np.testing.assert_array_equal(pillars.real_count, counts)
    shape = {"capacity-above-cloud": min(counts) == len(cloud) < capacity,
             "empty-pillars": min(counts) == 0 < max(counts),
             "equal-distance-ties": min(counts) == capacity}
    assert shape.get(case, True)


def test_records_are_read_only(pillar_cases):
    cloud, kps, capacity, radius = pillar_cases["empty-pillars"]
    pillars = sample_pillars(cloud, kps, capacity, radius)
    for record in (kps, pillars):
        for name, arr in vars(record).items():
            if isinstance(arr, np.ndarray):
                with pytest.raises(ValueError):
                    arr[0] = 1
        with pytest.raises(AttributeError):
            record.kind = None
    np.testing.assert_array_equal(kps.kind, [1, 0, 1, 0, 1])
    assert pillars.real_count[3] == 0 and pillars.keypoints.index[3] == -1


def test_record_arrays_must_agree_in_length():
    with pytest.raises(ArgumentError):
        KeyPointSet(positions=np.zeros((2, 3)), smoothness=[0.0], kind=[1, 0], index=[0, 1])
    kps = kps_at([[3.0, 0, 0]])
    with pytest.raises(ArgumentError):
        PillarSet(kps, members=np.zeros((1, 4, 3)), centroids=np.zeros((1, 3)), real_count=[0])


# ---------------------------------------------------------------------------
# correspondence labels
# ---------------------------------------------------------------------------

def kps_at(positions):
    k = len(positions)
    return KeyPointSet(positions=np.reshape(positions, (k, 3)), smoothness=np.zeros(k),
                       kind=np.ones(k), index=np.arange(k))


def pair_with_identity(points):
    cloud = cloud_from(points)
    return FramePair(source=cloud, target=cloud, gt_transform=RigidTransform.identity())


def test_labels_identity_self_match():
    points = np.array([[3.0, 0, 0], [0, 3.0, 0], [0, 0, 3.0], [2.0, 2.0, 0]])
    kps = kps_at(points)
    labels = label_correspondences(pair_with_identity(points), kps, kps)
    assert labels.matched == {(i, i) for i in range(4)}
    assert not labels.unmatched_rows and not labels.unmatched_cols


def test_labels_band_is_ignored():
    src = kps_at([[3.0, 0, 0], [10.0, 0, 0]])
    tgt = kps_at([[3.0, 0.3, 0], [10.0, 0, 0]])
    pair = pair_with_identity(np.array([[3.0, 0, 0], [10.0, 0, 0]]))
    labels = label_correspondences(pair, src, tgt)
    assert 0 in labels.ignored_rows  # 0.3 m sits between the two radii
    assert (1, 1) in labels.matched


def test_labels_far_point_unmatched():
    src = kps_at([[3.0, 0, 0], [50.0, 0, 0]])
    tgt = kps_at([[3.0, 0, 0], [52.0, 0, 0]])
    pair = pair_with_identity(np.array([[3.0, 0, 0]]))
    labels = label_correspondences(pair, src, tgt)
    assert 1 in labels.unmatched_rows
    assert 1 in labels.unmatched_cols
    assert (0, 0) in labels.matched


def test_labels_radii_ordering_enforced():
    kps = kps_at([[3.0, 0, 0]])
    pair = pair_with_identity(np.array([[3.0, 0, 0]]))
    with pytest.raises(ArgumentError):
        label_correspondences(pair, kps, kps, match_radius=0.5, unmatch_radius=0.1)


def test_labels_symmetric_under_role_swap(rng):
    scene = SceneConfig(point_count=400, overlap=0.7, rotation_bound=0.1,
                        translation_bound=0.3, noise_sigma=0.01, window=6.0,
                        width=4.0, pole_count=6)
    pair = generate_synthetic_pair(11, scene)
    src = kps_at(pair.source.points[rng.choice(len(pair.source), 30, replace=False)])
    tgt = kps_at(pair.target.points[rng.choice(len(pair.target), 30, replace=False)])
    fwd = label_correspondences(pair, src, tgt)
    swapped = FramePair(
        source=pair.target, target=pair.source, gt_transform=pair.gt_transform.inverse()
    )
    rev = label_correspondences(swapped, tgt, src)
    assert {(j, i) for i, j in fwd.matched} == rev.matched


def test_labels_one_to_one_validation():
    with pytest.raises(ArgumentError):
        CorrespondenceLabels(
            matched=frozenset({(0, 0), (0, 1)}),
            unmatched_rows=frozenset(),
            unmatched_cols=frozenset(),
            ignored_rows=frozenset(),
            ignored_cols=frozenset(),
        )


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

def test_synthetic_deterministic():
    a = generate_synthetic_pair(7)
    b = generate_synthetic_pair(7)
    np.testing.assert_array_equal(a.source.points, b.source.points)
    np.testing.assert_array_equal(a.target.points, b.target.points)
    np.testing.assert_array_equal(a.gt_transform.matrix, b.gt_transform.matrix)


def test_synthetic_identity_config_clouds_equal():
    config = SceneConfig(point_count=500, overlap=1.0, rotation_bound=0.0,
                         translation_bound=0.0, noise_sigma=0.0)
    pair = generate_synthetic_pair(3, config)
    np.testing.assert_array_equal(pair.source.points, pair.target.points)
    np.testing.assert_array_equal(pair.gt_transform.matrix, np.eye(4))


def test_synthetic_rotation_bound_respected():
    config = SceneConfig(point_count=300, overlap=0.5, rotation_bound=np.radians(30.0))
    from pillarmatch.transforms import rotation_angle
    for seed in range(5):
        pair = generate_synthetic_pair(seed, config)
        assert rotation_angle(pair.gt_transform.rotation) <= np.radians(30.0) + 1e-12


def test_synthetic_overlap_bounds_checked():
    with pytest.raises(ArgumentError):
        SceneConfig(overlap=0.0)
    with pytest.raises(ArgumentError):
        SceneConfig(overlap=-0.2)


def test_synthetic_has_sharp_and_planar_structure():
    pair = generate_synthetic_pair(5)
    values, valid = smoothness_field(pair.source, neighborhood_size=10)
    vals = values[valid]
    assert vals.max() > 5.0 * np.median(vals)
