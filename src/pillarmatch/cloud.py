"""Point-cloud data model, ingestion, key-point selection and labeling.

Clouds are immutable once constructed and build their k-d tree once, on
first use. The tree follows the sliding-midpoint rule (Maneewongvatana and
Mount, 1999): a cell splits at the middle of its widest side, and the plane
slides to the nearest point when one side would be empty. It builds in about
two thirds of the time of a median-split tree, and its queries are no slower.
The smoothness field walks the points in the tree's leaf order. For large
clouds it splits them into fixed chunks and runs each chunk's neighbor query
and neighbor sums on a pool of one thread per core: the query releases the
interpreter lock, so one chunk's query overlaps another's sums. Each point's
result depends on neither the chunking, the thread count nor the query order.
Among exactly equidistant neighbors, which ones count toward a smoothness
sum or fill a pillar's last slots follows the tree's search order. Key-point
selection partitions the smoothness values and sorts only the candidates at
each end that it reads.

A cloud's key-points are one :class:`KeyPointSet` and its pillars one
:class:`PillarSet`: frozen records of read-only arrays with one row per
key-point, laid out as in the pair file. Sampling fills every pillar from a
single k-d tree query.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .container import is_count
from .errors import (
    ArgumentError,
    DegeneratePointError,
    FormatError,
    InsufficientPointsError,
)
from .transforms import RigidTransform, random_rotation
from .transport import mutual_nearest

SCAN_RECORD_BYTES = 16  # 4 little-endian float32 per point: x, y, z, reflectance
ORIGIN_EPS = 1e-6       # smoothness is singular at the sensor origin
DEFAULT_NEIGHBORHOOD = 10
DEFAULT_MATCH_RADIUS = 0.1
DEFAULT_UNMATCH_RADIUS = 0.5
# points per leaf of a cloud's sliding-midpoint k-d tree. On a 2-core x86
# host with one BLAS thread and a 100k-point bench frame, the tree built in
# 19 to 27 ms at 16, 24 or 32 points a leaf, against 31 to 42 ms for scipy's
# default median-split tree of 16-point leaves. Tree plus key-point selection
# took 135 to 165 ms at 16 and at 24, 142 to 184 ms at 32 (slower queries)
# and 150 to 188 ms for the median-split tree, over three runs of 20 to 40
# frames. At 16 the tree had 17.9k nodes, and its build raised peak memory by
# 3.1 MB; at 24 (12.4k nodes) by 1.6 MB, and the median-split tree (16.4k)
# by 1.8 MB
TREE_LEAF_POINTS = 24
# smoothness fields of at least this many points run in chunks of
# QUERY_CHUNK_POINTS on a pool of one thread per core; below it, one chunk runs
# on the calling thread, since starting threads costs more than they save (on
# the same host and tree, a threaded field was 1.2 to 1.7x slower at 1.3k
# points and 1.4x faster at 11k). A chunk holds its (n, k + 1) query results
# only while it runs; chunks of 2k to 8k points ran a 100k-point field equally
# fast, and chunks of 1k, of 16k or of half the cloud were slower
PARALLEL_QUERY_POINTS = 10_000
QUERY_CHUNK_POINTS = 4096


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points with per-point intensity."""

    points: np.ndarray       # (N, 3) float64
    intensities: np.ndarray  # (N,) float64
    frame_id: str = ""

    def __post_init__(self):
        # own copies: freezing the caller's arrays would make them read-only
        pts = np.atleast_2d(np.array(self.points, dtype=np.float64))
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        intens = np.array(self.intensities, dtype=np.float64).reshape(-1)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ArgumentError(f"points must be (N, 3), got {pts.shape}")
        if len(intens) != len(pts):
            raise ArgumentError("points and intensities must have equal length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(intens))):
            raise ArgumentError("cloud contains non-finite values")
        pts.setflags(write=False)
        intens.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "intensities", intens)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def tree(self) -> cKDTree:
        return cKDTree(self.points, balanced_tree=False, leafsize=TREE_LEAF_POINTS)


def _freeze(record, **dtypes) -> None:
    """Store each named field of a frozen record as a read-only array copy."""
    for name, dtype in dtypes.items():
        arr = np.array(getattr(record, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


@dataclass(frozen=True, eq=False)
class KeyPointSet:
    """A cloud's key-points as read-only arrays with one row per key-point,
    laid out as in the pair file."""

    positions: np.ndarray   # (k, 3) float64
    smoothness: np.ndarray  # (k,) float64
    kind: np.ndarray        # (k,) uint8: 1 sharp, 0 planar
    index: np.ndarray       # (k,) int64 into the originating cloud, -1 if detached

    def __post_init__(self):
        _freeze(self, positions=np.float64, smoothness=np.float64, kind=np.uint8, index=np.int64)
        k = len(self.index)
        if self.positions.shape != (k, 3) or not (
                self.smoothness.shape == self.kind.shape == self.index.shape == (k,)):
            raise ArgumentError("key-point arrays must have shapes (k, 3), (k,), (k,), (k,)")

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True, eq=False)
class PillarSet:
    """A cloud's pillars as read-only arrays with one row per key-point,
    filled as :func:`sample_pillars` describes. ``frame_id`` is that of the
    cloud they were sampled from."""

    keypoints: KeyPointSet
    members: np.ndarray     # (k, capacity, 4) float64: x, y, z, intensity
    centroids: np.ndarray   # (k, 3) float64
    real_count: np.ndarray  # (k,) int64
    frame_id: str = ""

    def __post_init__(self):
        _freeze(self, members=np.float64, centroids=np.float64, real_count=np.int64)
        k = len(self.keypoints)
        if (self.members.ndim, len(self.members), self.members.shape[-1]) != (3, k, 4) or not (
                self.centroids.shape == (k, 3) and self.real_count.shape == (k,)):
            raise ArgumentError("pillar arrays must have shapes (k, capacity, 4), (k, 3), (k,)")

    @property
    def capacity(self) -> int:
        return self.members.shape[1]

    def __len__(self) -> int:
        return len(self.real_count)


@dataclass(frozen=True)
class CorrespondenceLabels:
    """Ground-truth assignment targets for one frame pair.

    ``matched`` is one-to-one; unmatched rows are assigned to the dustbin
    column and unmatched columns to the dustbin row; ignored indices carry
    no supervision at all.
    """

    matched: frozenset       # of (i, j)
    unmatched_rows: frozenset
    unmatched_cols: frozenset
    ignored_rows: frozenset
    ignored_cols: frozenset

    def __post_init__(self):
        matched = frozenset((int(i), int(j)) for i, j in self.matched)
        rows = [i for i, _ in matched]
        cols = [j for _, j in matched]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ArgumentError("matched pairs must be one-to-one")
        object.__setattr__(self, "matched", matched)
        for name in ("unmatched_rows", "unmatched_cols", "ignored_rows", "ignored_cols"):
            object.__setattr__(self, name, frozenset(int(v) for v in getattr(self, name)))
        if self.unmatched_rows & set(rows) or self.ignored_rows & (set(rows) | self.unmatched_rows):
            raise ArgumentError("row index appears in more than one label class")
        if self.unmatched_cols & set(cols) or self.ignored_cols & (set(cols) | self.unmatched_cols):
            raise ArgumentError("column index appears in more than one label class")

    @property
    def matched_array(self) -> np.ndarray:
        return np.array(sorted(self.matched), dtype=np.int64).reshape(-1, 2)

    def total_cells(self) -> int:
        return len(self.matched) + len(self.unmatched_rows) + len(self.unmatched_cols)


@dataclass(frozen=True)
class FramePair:
    """Two frames and the transform from source to target; a frame is a
    cloud, or the pillars :func:`~.pairio.preprocess_frame` built from one."""

    source: PointCloud | PillarSet
    target: PointCloud | PillarSet
    gt_transform: RigidTransform
    frame_distance: int = 1


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def load_kitti_scan(path, frame_id: str | None = None) -> PointCloud:
    """Read a velodyne ``.bin`` scan: consecutive float32 (x, y, z, reflectance)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % SCAN_RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: {len(raw)} bytes is not a multiple of {SCAN_RECORD_BYTES}"
        )
    records = np.frombuffer(raw, dtype="<f4").reshape(-1, 4).astype(np.float64)
    try:
        return PointCloud(records[:, :3], records[:, 3],
                          frame_id=frame_id if frame_id is not None else str(path))
    except ArgumentError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_kitti_scan(cloud: PointCloud, path) -> None:
    records = np.empty((len(cloud), 4), dtype="<f4")
    records[:, :3] = cloud.points
    records[:, 3] = cloud.intensities
    with open(path, "wb") as fh:
        fh.write(records.tobytes(order="C"))


def load_kitti_poses(path) -> list[RigidTransform]:
    """Read a pose file: one row-major 3x4 matrix (12 numbers) per line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not an ASCII pose file: {exc}") from None
    poses = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 12:
            raise FormatError(f"{path}:{lineno}: expected 12 values, got {len(tokens)}")
        try:
            values = np.array([float(t) for t in tokens], dtype=np.float64)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric pose entry") from None
        mat = np.eye(4)
        mat[:3, :] = values.reshape(3, 4)
        try:
            poses.append(RigidTransform(mat))
        except ArgumentError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return poses


def save_kitti_poses(poses, path) -> None:
    # repr() gives the shortest decimal that parses back to the same float,
    # so save -> load round-trips values exactly
    with open(path, "w", encoding="ascii") as fh:
        for pose in poses:
            fh.write(" ".join(repr(float(v)) for v in pose.matrix[:3, :].reshape(-1)) + "\n")


# ---------------------------------------------------------------------------
# smoothness and key-points
# ---------------------------------------------------------------------------

def _smoothness_at(cloud: PointCloud, indices: np.ndarray, k: int):
    """Normalized magnitude of the summed offsets from each indexed point to
    its ``k`` nearest neighbors: ``|k p - sum(q)| / (k |p|)``.

    Near zero on locally symmetric (planar) neighborhoods, large on edges.
    Returns ``(values, valid)``; points within ORIGIN_EPS of the origin are
    invalid and get value 0. At least PARALLEL_QUERY_POINTS indices are
    evaluated in chunks of QUERY_CHUNK_POINTS on one thread per core, in order.
    """
    if not is_count(k, 1):
        raise ArgumentError(f"neighborhood_size must be an integer >= 1, got {k!r}")
    if len(cloud) <= k:
        raise InsufficientPointsError(f"cloud has {len(cloud)} points, need > {k}")
    if len(indices) < PARALLEL_QUERY_POINTS:
        return _smoothness_chunk(cloud, cloud.points.T, indices, k)
    # one contiguous row per coordinate keeps the neighbor gathers of a
    # coordinate in one compact array
    coords = np.ascontiguousarray(cloud.points.T)
    chunks = [indices[start:start + QUERY_CHUNK_POINTS]
              for start in range(0, len(indices), QUERY_CHUNK_POINTS)]
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        parts = list(pool.map(lambda chunk: _smoothness_chunk(cloud, coords, chunk, k),
                              chunks))
    return np.concatenate([v for v, _ in parts]), np.concatenate([ok for _, ok in parts])


def _smoothness_chunk(cloud: PointCloud, coords: np.ndarray, indices: np.ndarray, k: int):
    """:func:`_smoothness_at` of ``indices`` on the calling thread; ``coords``
    holds the cloud's points as ``(3, N)``, a view or a contiguous copy."""
    neighbors = _neighbor_indices(cloud, indices, k)
    # one coordinate at a time, without (n, 3) gathers: the neighbor columns
    # are added in the order .sum(axis=1) adds them, and both norms are
    # sqrt((x*x + y*y) + z*z), the order np.linalg.norm adds three squares in
    # (0.0 plus a square is the square)
    point_sq = offset_sq = 0.0
    for coord in coords:
        point = coord[indices]
        total = coord[neighbors[:, 0]]
        for column in range(1, k):
            total += coord[neighbors[:, column]]
        offset = k * point - total
        point_sq = point_sq + point * point
        offset_sq = offset_sq + offset * offset
    norms = np.sqrt(point_sq)
    valid = norms > ORIGIN_EPS
    values = np.divide(np.sqrt(offset_sq), k * norms, out=np.zeros(len(indices)), where=valid)
    return values, valid


def smoothness(cloud: PointCloud, index: int, neighborhood_size: int = DEFAULT_NEIGHBORHOOD) -> float:
    """Smoothness of one point; see :func:`smoothness_field`.

    Raises DegeneratePointError for points within ORIGIN_EPS of the origin.
    """
    if not (is_count(index) and index < len(cloud)):
        raise ArgumentError(f"index must be an integer in [0, {len(cloud)}), got {index!r}")
    values, valid = _smoothness_at(cloud, np.array([index]), neighborhood_size)
    if not valid[0]:
        raise DegeneratePointError(f"point {index} is within {ORIGIN_EPS} m of the origin")
    return float(values[0])


def _neighbor_indices(cloud: PointCloud, indices: np.ndarray, k: int) -> np.ndarray:
    """k nearest neighbors per query point, excluding the point's own index.

    Exact duplicates can push a point's own index out of its k+1 nearest
    results; the first k are then kept as they are. When every point's first
    result is its own index, the rest of the results are returned as a view.
    """
    indices = np.asarray(indices)
    idx = cloud.tree.query(cloud.points[indices], k=k + 1)[1]
    if np.array_equal(idx[:, 0], indices):
        return idx[:, 1:]
    # drop the own column where it appears; every later column shifts left
    own_seen = np.logical_or.accumulate(idx[:, :k] == indices[:, None], axis=1)
    return np.where(own_seen, idx[:, 1:], idx[:, :k])


def smoothness_field(cloud: PointCloud, neighborhood_size: int = DEFAULT_NEIGHBORHOOD):
    """Vectorized smoothness for every point.

    Returns ``(values, valid)``; points within ORIGIN_EPS of the origin are
    flagged invalid and skipped by key-point selection.
    """
    # queried in the tree's leaf order, where consecutive queries walk the
    # same nodes; no point's result depends on the order
    order = cloud.tree.indices
    leaf_values, leaf_valid = _smoothness_at(cloud, order, neighborhood_size)
    values, valid = np.empty_like(leaf_values), np.empty_like(leaf_valid)
    values[order], valid[order] = leaf_values, leaf_valid
    return values, valid


def _ranked(keys: np.ndarray, index: np.ndarray, head: int):
    """``index`` in ascending ``(key, index)`` order, as ``np.lexsort`` gives it.

    The keys at or below the ``head``-th smallest, ties included, are the
    order's exact prefix: they are sorted first, and the rest only when the
    caller reads past them.
    """
    if 0 < head < len(keys):
        # a NaN key, which lexsort puts last, fails the comparison and stays
        # in the rest; a NaN cut leaves the whole order to the full sort
        first = keys <= np.partition(keys, head - 1)[head - 1]
        yield from index[first][np.lexsort((index[first], keys[first]))]
        keys, index = keys[~first], index[~first]
    yield from index[np.lexsort((index, keys))]


def select_keypoints(
    cloud: PointCloud,
    count: int,
    neighborhood_size: int = DEFAULT_NEIGHBORHOOD,
    min_separation: float | None = None,
) -> KeyPointSet:
    """Pick ``count`` key-points: the sharpest ceil(count/2) and the most
    planar floor(count/2), ranked by smoothness with ties broken by index.

    ``min_separation`` optionally suppresses candidates within that radius of
    an already selected key-point (off by default).
    """
    if not is_count(count):
        raise ArgumentError(f"count must be an integer >= 0, got {count!r}")
    if min_separation is not None and not 0.0 < min_separation < np.inf:
        raise ArgumentError(f"min_separation must be finite and > 0, got {min_separation}")
    values, valid = smoothness_field(cloud, neighborhood_size)
    valid_idx = np.flatnonzero(valid)
    if len(valid_idx) < count:
        raise InsufficientPointsError(
            f"{len(valid_idx)} valid points < requested {count} key-points"
        )
    n_sharp = (count + 1) // 2
    valid_values = values[valid_idx]
    chosen: list[int] = []
    for keys, wanted, kind in ((-valid_values, n_sharp, "sharp"),
                               (valid_values, count - n_sharp, "planar")):
        got = 0
        # an end skips at most the other end's picks, so 2 * count candidates
        # are enough unless min_separation suppresses some
        for i in _ranked(keys, valid_idx, 2 * count):
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
    index = np.array(chosen, dtype=np.int64)
    return KeyPointSet(positions=cloud.points[index], smoothness=values[index],
                       kind=np.arange(count) < n_sharp, index=index)


# ---------------------------------------------------------------------------
# pillars
# ---------------------------------------------------------------------------

def sample_pillars(
    cloud: PointCloud, keypoints: KeyPointSet, capacity: int, radius: float
) -> PillarSet:
    """Fill each key-point's pillar with the ``capacity`` nearest cloud points
    inside ``radius``, from one k-d tree query for the whole set.

    Members are sorted by ascending distance (ties by point index); unused
    slots stay zero. An empty pillar is legal and centers on its key-point.
    """
    if not is_count(capacity, 1):
        raise ArgumentError(f"capacity must be an integer >= 1, got {capacity!r}")
    # a NaN radius fails the comparison too
    if not radius > 0.0:
        raise ArgumentError(f"radius must be positive, got {radius!r}")
    n, k = len(keypoints), min(capacity, len(cloud))
    members = np.zeros((n, capacity, 4))
    inside = np.zeros((n, capacity), dtype=bool)
    if n and k:
        dist, idx = cloud.tree.query(keypoints.positions, k=k)
        dist, idx = dist.reshape(n, k), idx.reshape(n, k)
        order = np.lexsort((idx, dist), axis=1)
        dist, idx = np.take_along_axis(dist, order, 1), np.take_along_axis(idx, order, 1)
        # points inside the radius are a prefix of each distance-sorted row
        inside[:, :k] = dist < radius
        members[:, :k, :3] = np.where(inside[:, :k, None], cloud.points[idx], 0.0)
        members[:, :k, 3] = np.where(inside[:, :k], cloud.intensities[idx], 0.0)
    real = inside.sum(axis=1)
    centroids = np.divide(members[:, :, :3].sum(axis=1), real[:, None],
                          out=np.array(keypoints.positions), where=real[:, None] > 0)
    return PillarSet(keypoints=keypoints, members=members, centroids=centroids,
                     real_count=real, frame_id=cloud.frame_id)


# ---------------------------------------------------------------------------
# ground-truth labels
# ---------------------------------------------------------------------------

def label_correspondences(
    pair: FramePair,
    src_keypoints: KeyPointSet,
    tgt_keypoints: KeyPointSet,
    match_radius: float = DEFAULT_MATCH_RADIUS,
    unmatch_radius: float = DEFAULT_UNMATCH_RADIUS,
) -> CorrespondenceLabels:
    """Label mutual nearest neighbors closer than ``match_radius`` as matches,
    key-points farther than ``unmatch_radius`` from everything as unmatched,
    and the band in between as ignored.
    """
    if not 0.0 < match_radius < unmatch_radius:
        raise ArgumentError("match_radius must be > 0 and smaller than unmatch_radius")
    gt = pair.gt_transform
    if not isinstance(gt, RigidTransform):
        raise ArgumentError("gt_transform must be a RigidTransform")
    src = gt.apply(src_keypoints.positions)
    tgt = tgt_keypoints.positions
    if len(src) == 0 or len(tgt) == 0:
        raise ArgumentError("both key-point sets must be nonempty")

    # brute-force distances keep tie-breaking exact (lowest index wins)
    rows, cols, dists = mutual_nearest(src, tgt)
    close = dists[rows, cols] < match_radius
    matched_rows, matched_cols = rows[close].tolist(), cols[close].tolist()
    unmatched_rows = np.flatnonzero(dists.min(axis=1) > unmatch_radius).tolist()
    unmatched_cols = np.flatnonzero(dists.min(axis=0) > unmatch_radius).tolist()
    return CorrespondenceLabels(
        matched=frozenset(zip(matched_rows, matched_cols)),
        unmatched_rows=frozenset(unmatched_rows),
        unmatched_cols=frozenset(unmatched_cols),
        ignored_rows=frozenset(range(len(src))) - set(matched_rows) - set(unmatched_rows),
        ignored_cols=frozenset(range(len(tgt))) - set(matched_cols) - set(unmatched_cols),
    )


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneConfig:
    """Desk-scale scene generator settings.

    The scene is a structured mock interior (floor, wall, thin poles) so the
    smoothness field produces both planar and edge-like points. Source and
    target clouds sample shifted windows of the same scene; ``overlap`` is the
    shared fraction of each window.
    """

    point_count: int = 2000
    overlap: float = 0.8
    rotation_bound: float = 0.1      # radians
    translation_bound: float = 0.5   # meters
    noise_sigma: float = 0.005       # meters, per cloud
    window: float = 12.0             # window length along x, meters
    width: float = 8.0               # scene width along y
    wall_height: float = 2.5
    pole_count: int = 12
    frame_distance: int = 1

    def __post_init__(self):
        if not 0.0 < self.overlap <= 1.0:
            raise ArgumentError("overlap fraction must be in (0, 1]")
        if self.point_count < 1:
            raise ArgumentError("point_count must be positive")
        # a bound b is drawn from uniform(-b, b), whose width 2b must be a finite float
        if not all(0.0 <= b and np.isfinite(2.0 * b)
                   for b in (self.rotation_bound, self.translation_bound, self.noise_sigma)):
            raise ArgumentError("bounds and noise sigma must be >= 0 and at most half the "
                                "largest float")


def _build_scene(rng: np.random.Generator, config: SceneConfig):
    """Deterministic structured scene: returns (points, intensities)."""
    length = (2.0 - config.overlap) * config.window
    n = config.point_count
    n_floor = n // 2
    n_wall = n // 4
    n_pole = n - n_floor - n_wall

    # keep everything away from the sensor origin (smoothness denominator)
    x0, y0, z0 = 3.0, 2.0, 0.5

    floor = np.empty((n_floor, 3))
    floor[:, 0] = x0 + rng.uniform(0.0, length, n_floor)
    floor[:, 1] = y0 + rng.uniform(0.0, config.width, n_floor)
    # gentle undulation: a flat plane makes the smoothness ranking of floor
    # points a pure noise lottery, so the two frames would select disjoint
    # planar key-points; curvature keeps ranks stable across frames
    floor[:, 2] = z0 + 0.15 * np.sin(2.2 * floor[:, 0]) * np.sin(1.7 * floor[:, 1])

    wall = np.empty((n_wall, 3))
    wall[:, 0] = x0 + rng.uniform(0.0, length, n_wall)
    wall[:, 2] = z0 + rng.uniform(0.0, config.wall_height, n_wall)
    wall[:, 1] = y0 + 0.1 * np.sin(1.9 * wall[:, 0]) * np.sin(2.3 * wall[:, 2])

    pole_x = x0 + rng.uniform(0.0, length, config.pole_count)
    pole_y = y0 + rng.uniform(0.5, config.width - 0.5, config.pole_count)
    per_pole = np.full(config.pole_count, n_pole // config.pole_count)
    per_pole[: n_pole % config.pole_count] += 1
    pole_rows = []
    pole_intensity = []
    for index, (px, py, cnt) in enumerate(zip(pole_x, pole_y, per_pole)):
        seg = np.empty((cnt, 3))
        seg[:, 0] = px
        seg[:, 1] = py
        seg[:, 2] = z0 + rng.uniform(0.0, 1.8, cnt)
        pole_rows.append(seg)
        # distinct per-pole reflectance, like signage or markers
        pole_intensity.append(np.full(cnt, 0.55 + 0.4 * (index % 8) / 7.0))
    poles = np.concatenate(pole_rows) if pole_rows else np.zeros((0, 3))

    points = np.concatenate([floor, wall, poles])
    points += rng.normal(0.0, 0.01, points.shape)  # shared surface roughness
    intensities = np.concatenate(
        [
            np.full(n_floor, 0.2),
            np.full(n_wall, 0.4),
            np.concatenate(pole_intensity) if pole_intensity else np.zeros(0),
        ]
    )
    intensities = np.clip(intensities + rng.normal(0.0, 0.02, len(intensities)), 0.0, 1.0)
    return points, intensities


def generate_synthetic_pair(seed: int, config: SceneConfig | None = None) -> FramePair:
    """Deterministic synthetic frame pair with a known rigid transform.

    Both clouds sample the same underlying scene points, so with zero noise
    and full overlap they are identical; the ground-truth transform maps the
    source frame into the target frame.
    """
    if not is_count(seed):
        raise ArgumentError(f"seed must be an integer >= 0, got {seed!r}")
    config = config or SceneConfig()
    rng = np.random.default_rng(seed)
    points, intensities = _build_scene(rng, config)

    x_min = points[:, 0].min() if len(points) else 0.0
    src_lo = x_min
    src_hi = src_lo + config.window
    tgt_lo = src_lo + (1.0 - config.overlap) * config.window
    tgt_hi = tgt_lo + config.window
    src_mask = (points[:, 0] >= src_lo) & (points[:, 0] <= src_hi)
    tgt_mask = (points[:, 0] >= tgt_lo) & (points[:, 0] <= tgt_hi)

    rotation = random_rotation(rng, config.rotation_bound)
    translation = rng.uniform(-config.translation_bound, config.translation_bound, 3)
    center = points.mean(axis=0)
    # rotate about the scene centroid so the two clouds stay comparable in
    # sensor range, then translate
    offset = center - rotation @ center + translation
    gt = RigidTransform.from_rotation_translation(rotation, offset)

    src_pts = points[src_mask] + rng.normal(0.0, config.noise_sigma, (src_mask.sum(), 3))
    tgt_pts = gt.apply(points[tgt_mask]) + rng.normal(
        0.0, config.noise_sigma, (tgt_mask.sum(), 3)
    )
    source = PointCloud(src_pts, intensities[src_mask], frame_id=f"synth-{seed}-src")
    target = PointCloud(tgt_pts, intensities[tgt_mask], frame_id=f"synth-{seed}-tgt")
    return FramePair(
        source=source, target=target, gt_transform=gt, frame_distance=config.frame_distance
    )
