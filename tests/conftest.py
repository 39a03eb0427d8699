import numpy as np
import pytest

from pillarmatch.cloud import (
    CorrespondenceLabels,
    KeyPointSet,
    PillarSet,
    PointCloud,
    SceneConfig,
    generate_synthetic_pair,
    select_keypoints,
)
from pillarmatch.container import read_container, write_container
from pillarmatch.network import HyperParams
from pillarmatch.pairio import PreprocessedPair, preprocess_pair


def toy_hyper(**overrides) -> HyperParams:
    """Small network used by unit tests and gradient checks."""
    base = dict(
        src_keypoints=4,
        tgt_keypoints=4,
        pillar_points=4,
        pillar_radius=0.5,
        feature_depth=8,
        attention_heads=2,
        attention_layers=2,
        sinkhorn_iterations=10,
        positional_hidden=(8, 16),
    )
    base.update(overrides)
    return HyperParams(**base)


def make_pillar(members_xyz_i, keypoint_xyz, capacity):
    """One-row PillarSet from explicit member rows (already sorted by distance)."""
    members = np.zeros((capacity, 4))
    real = len(members_xyz_i)
    if real:
        members[:real] = np.asarray(members_xyz_i, dtype=float)
    centroid = (
        members[:real, :3].mean(axis=0) if real else np.asarray(keypoint_xyz, dtype=float)
    )
    kp = KeyPointSet(positions=[keypoint_xyz], smoothness=[0.0], kind=[1], index=[-1])
    return PillarSet(keypoints=kp, members=members[None], centroids=centroid[None],
                     real_count=[real])


def toy_pair(seed=0, hyper=None, scene=None) -> PreprocessedPair:
    hyper = hyper or toy_hyper()
    scene = scene or SceneConfig(
        point_count=400,
        overlap=0.9,
        rotation_bound=0.02,
        translation_bound=0.1,
        noise_sigma=0.002,
        window=6.0,
        width=4.0,
        pole_count=6,
    )
    frame = generate_synthetic_pair(seed, scene)
    return preprocess_pair(frame, hyper)


def rewrite_container(path, kind, edit):
    """Read a container, let ``edit(meta, arrays)`` change it in place, write it back."""
    meta, arrays = read_container(path, expect_kind=kind)
    edit(meta, arrays)
    write_container(path, kind, meta, arrays)


def synthetic_labels(n, m, matched, unmatched_rows=(), unmatched_cols=()):
    used_rows = {i for i, _ in matched} | set(unmatched_rows)
    used_cols = {j for _, j in matched} | set(unmatched_cols)
    return CorrespondenceLabels(
        matched=frozenset(matched),
        unmatched_rows=frozenset(unmatched_rows),
        unmatched_cols=frozenset(unmatched_cols),
        ignored_rows=frozenset(set(range(n)) - used_rows),
        ignored_cols=frozenset(set(range(m)) - used_cols),
    )


PILLAR_CASES = ("scan-20k", "capacity-1", "capacity-above-cloud", "empty-pillars",
                "equal-distance-ties")


@pytest.fixture(scope="session")
def pillar_cases():
    """``name -> (cloud, keypoints, capacity, radius)`` for pillar sampling.

    The cases cover a 20k-point scan at paper shape, one-point pillars,
    pillars larger than the cloud, pillars with no point inside the radius
    and pillars whose last slots fall among points at equal distance.
    """
    scan = generate_synthetic_pair(3, SceneConfig(point_count=20_000)).source
    scan_kps = select_keypoints(scan, 100)
    rng = np.random.default_rng(7)
    small = PointCloud(rng.uniform(3.0, 4.0, (50, 3)), rng.uniform(size=50))
    detached = KeyPointSet(
        positions=np.vstack([small.points[:3], [[9.0, 9.0, 9.0], [-5.0, 0.0, 0.0]]]),
        smoothness=np.zeros(5), kind=[1, 0, 1, 0, 1], index=[0, 1, 2, -1, -1],
    )
    # an integer grid: each node has 6 neighbours at distance 1 and 12 at
    # sqrt(2), so a capacity of 10 cuts through the sqrt(2) shell
    axis = np.arange(5.0)
    grid_points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3) + 3.0
    grid = PointCloud(grid_points, np.linspace(0.0, 1.0, len(grid_points)))
    inner = np.flatnonzero(np.all((grid_points > 3.0) & (grid_points < 7.0), axis=1))
    grid_kps = KeyPointSet(positions=grid_points[inner], smoothness=np.zeros(len(inner)),
                           kind=np.ones(len(inner)), index=inner)
    return {
        "scan-20k": (scan, scan_kps, 100, 0.5),
        "capacity-1": (scan, scan_kps, 1, 0.5),
        "capacity-above-cloud": (small, detached, 64, 20.0),
        "empty-pillars": (small, detached, 8, 0.3),
        "equal-distance-ties": (grid, grid_kps, 10, 1.5),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
