import numpy as np
import pytest

from conftest import synthetic_labels, toy_hyper, toy_pair

from pillarmatch.cloud import SceneConfig, generate_synthetic_pair
from pillarmatch.errors import (
    ArgumentError,
    DegenerateGeometryError,
    InsufficientCorrespondencesError,
)
from pillarmatch.pairio import preprocess_pair
from pillarmatch.register import (
    EVAL_MATCHERS,
    REFERENCE_FULL_SCALE,
    estimate_transform_svd,
    evaluate_matchers,
    format_report_table,
    icp,
    matching_score,
    nn_matcher,
    transform_errors,
)
from pillarmatch.transforms import RigidTransform, rotation_about_axis
from pillarmatch.transport import MatchSet

TETRAHEDRON = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


# ---------------------------------------------------------------------------
# SVD estimation
# ---------------------------------------------------------------------------

def test_svd_identity_on_equal_sets():
    out = estimate_transform_svd(TETRAHEDRON, TETRAHEDRON)
    np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-12)


def test_svd_recovers_known_transform():
    rot = rotation_about_axis([0.0, 0.0, 1.0], np.pi / 2.0)
    gt = RigidTransform.from_rotation_translation(rot, [1.0, 2.0, 3.0])
    out = estimate_transform_svd(TETRAHEDRON, gt.apply(TETRAHEDRON))
    np.testing.assert_allclose(out.matrix, gt.matrix, atol=1e-9)


def test_svd_two_pairs_insufficient():
    with pytest.raises(InsufficientCorrespondencesError):
        estimate_transform_svd(TETRAHEDRON[:2], TETRAHEDRON[:2])


def test_svd_collinear_degenerate():
    line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        estimate_transform_svd(line, line + [0.0, 1.0, 0.0])


def test_svd_output_is_strictly_rigid_on_noisy_planar(rng):
    # reflection-prone: nearly planar clusters with noise
    src = rng.normal(size=(40, 3)) * [1.0, 1.0, 1e-4]
    rot = rotation_about_axis(rng.normal(size=3), 0.8)
    tgt = src @ rot.T + [0.2, -0.1, 0.4] + rng.normal(0, 0.05, size=src.shape)
    out = estimate_transform_svd(src, tgt)
    rot = out.rotation
    assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(rot) - 1.0) <= 1e-9
    assert np.linalg.det(out.rotation) == pytest.approx(1.0, abs=1e-12)


def test_svd_equivariant_under_pre_rotation(rng):
    src = rng.normal(size=(12, 3))
    rot = rotation_about_axis([0.2, 0.9, -0.1], 0.5)
    gt = RigidTransform.from_rotation_translation(rot, [0.3, 0.0, -0.7])
    tgt = gt.apply(src) + rng.normal(0, 0.01, size=src.shape)
    base = estimate_transform_svd(src, tgt)

    q = RigidTransform.from_rotation_translation(
        rotation_about_axis([1.0, 1.0, 0.0], 0.9), [5.0, -2.0, 1.0]
    )
    conjugated = estimate_transform_svd(q.apply(src), q.apply(tgt))
    expected = q.compose(base).compose(q.inverse())
    np.testing.assert_allclose(conjugated.matrix, expected.matrix, atol=1e-8)


def test_svd_minimizes_residual(rng):
    src = rng.normal(size=(20, 3))
    tgt = rng.normal(size=(20, 3))
    best = estimate_transform_svd(src, tgt)
    best_cost = np.sum((best.apply(src) - tgt) ** 2)
    for _ in range(20):
        rot = rotation_about_axis(rng.normal(size=3), rng.uniform(0, np.pi))
        other = RigidTransform.from_rotation_translation(rot, rng.normal(size=3))
        assert best_cost <= np.sum((other.apply(src) - tgt) ** 2) + 1e-9


# ---------------------------------------------------------------------------
# NN matcher
# ---------------------------------------------------------------------------

def test_nn_matcher_identity():
    out = nn_matcher(TETRAHEDRON, TETRAHEDRON)
    assert out.index_pairs == {(i, i) for i in range(4)}


def test_nn_matcher_tie_breaks_to_lower_index():
    src = np.array([[0.0, 0.0, 0.0]])
    tgt = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])  # equidistant
    out = nn_matcher(src, tgt)
    assert out.index_pairs == {(0, 0)}
    assert out.unmatched_cols == (1,)


def test_nn_matcher_mutuality_required():
    src = np.array([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0]])
    tgt = np.array([[0.3, 0.0, 0.0]])
    out = nn_matcher(src, tgt)
    # both sources point at the single target; only the mutual one survives
    assert out.index_pairs == {(1, 0)}
    assert out.unmatched_rows == (0,)


def test_nn_matcher_empty_input():
    with pytest.raises(ArgumentError):
        nn_matcher(np.zeros((0, 3)), TETRAHEDRON)


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------

def test_icp_identity_converges_immediately(rng):
    pts = rng.normal(size=(50, 3))
    result = icp(pts, pts, max_iters=10)
    np.testing.assert_allclose(result.transform.matrix, np.eye(4), atol=1e-9)
    assert result.residuals[0] == pytest.approx(0.0, abs=1e-12)


def test_icp_small_perturbation_recovered(rng):
    pts = rng.uniform(-3.0, 3.0, size=(120, 3))
    gt = RigidTransform.from_rotation_translation(
        rotation_about_axis([0.1, 0.9, 0.2], np.radians(1.0)), [0.05, -0.02, 0.03]
    )
    result = icp(pts, gt.apply(pts), max_iters=50, tol=1e-14)
    t_err, r_err = transform_errors(result.transform, gt)
    assert t_err < 1e-6
    assert r_err < 1e-6


def test_icp_residual_non_increasing(rng):
    pts = rng.uniform(-3.0, 3.0, size=(150, 3))
    gt = RigidTransform.from_rotation_translation(
        rotation_about_axis([0.0, 0.0, 1.0], np.pi), [0.0, 0.0, 0.0]
    )
    result = icp(pts, gt.apply(pts), max_iters=30, reject_radius=1e9)
    diffs = np.diff(result.residuals)
    assert np.all(diffs <= 1e-9)


def test_icp_requires_iterations():
    with pytest.raises(ArgumentError):
        icp(TETRAHEDRON, TETRAHEDRON, max_iters=0)


@pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan"), float("inf")])
def test_icp_reject_radius_must_be_finite_and_positive(radius):
    with pytest.raises(ArgumentError):
        icp(TETRAHEDRON, TETRAHEDRON, reject_radius=radius)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_matching_score_bounds():
    labels = synthetic_labels(4, 4, matched={(0, 0), (1, 1)})
    perfect = MatchSet(pairs=((0, 0, 1.0), (1, 1, 1.0)), unmatched_rows=(), unmatched_cols=())
    empty = MatchSet(pairs=(), unmatched_rows=(0, 1, 2, 3), unmatched_cols=(0, 1, 2, 3))
    assert matching_score(perfect, labels) == 1.0
    assert matching_score(empty, labels) == 0.0


def test_transform_errors_identities(rng):
    for _ in range(10):
        rot = rotation_about_axis(rng.normal(size=3), rng.uniform(0, np.pi))
        t = RigidTransform.from_rotation_translation(rot, rng.normal(size=3))
        t_err, r_err = transform_errors(t, t)
        assert t_err == pytest.approx(0.0, abs=1e-9)
        assert r_err == pytest.approx(0.0, abs=1e-6)


def test_transform_errors_pure_translation():
    gt = RigidTransform.from_rotation_translation(np.eye(3), [3.0, 4.0, 0.0])
    t_err, r_err = transform_errors(RigidTransform.identity(), gt)
    assert t_err == 5.0
    assert r_err == 0.0


def test_transform_errors_known_rotation(rng):
    for axis in ([0, 0, 1], [1, 0, 0], rng.normal(size=3)):
        gt = RigidTransform.from_rotation_translation(
            rotation_about_axis(axis, 0.3), [0.0, 0.0, 0.0]
        )
        t_err, r_err = transform_errors(RigidTransform.identity(), gt)
        assert t_err == 0.0
        assert r_err == pytest.approx(0.3, abs=1e-9)


def test_transform_errors_type_checked():
    with pytest.raises(ArgumentError):
        transform_errors(np.eye(4), RigidTransform.identity())


# ---------------------------------------------------------------------------
# evaluation harness
# ---------------------------------------------------------------------------

def eval_dataset(count=3):
    hyper = toy_hyper(src_keypoints=12, tgt_keypoints=12, pillar_points=8)
    scene = SceneConfig(point_count=500, overlap=0.9, rotation_bound=0.02,
                        translation_bound=0.1, noise_sigma=0.0, window=6.0,
                        width=4.0, pole_count=6)
    return [
        preprocess_pair(generate_synthetic_pair(40 + k, scene), hyper)
        for k in range(count)
    ]


def test_vm_baseline_reproduces_gt_on_noiseless_pairs():
    pairs = eval_dataset()
    report = evaluate_matchers(pairs, matchers=("vm",))
    for rec in report.records:
        assert not rec.failed
        assert rec.matching_score == 1.0
        assert rec.translational_error < 1e-6
        assert rec.rotational_error < 1e-6


def test_report_table_shape():
    pairs = eval_dataset()
    report = evaluate_matchers(pairs, matchers=("nn", "icp", "vm"))
    table = format_report_table(report)
    assert "-- Matching Score --" in table
    assert "-- Translational Error --" in table
    assert "-- Rotational Error --" in table
    score_section = table.split("-- Translational Error --")[0]
    assert "icp" not in score_section  # ICP yields no match set
    assert "nn" in score_section
    records = [r.to_json() for r in report.records]
    assert all(set(r) >= {"matcher", "frame_distance", "matching_score"} for r in records)


def test_eval_unknown_matcher_rejected():
    with pytest.raises(ArgumentError):
        evaluate_matchers(eval_dataset(1), matchers=("pfh",))


def test_eval_without_matchers_rejected():
    with pytest.raises(ArgumentError):
        evaluate_matchers(eval_dataset(1), matchers=())


def test_eval_reports_svd_failures_not_skips():
    # a frame with fewer than 3 GT matches makes the vm transform fail;
    # the record stays in the report and the failure is counted
    pairs = eval_dataset(2)
    starved = pairs[0].labels
    two = sorted(starved.matched)[:2]
    pairs[0].labels = synthetic_labels(
        len(pairs[0].src_keypoints), len(pairs[0].tgt_keypoints), set(two)
    )
    report = evaluate_matchers(pairs, matchers=("vm",))
    assert report.failures["vm"] == 1
    failed = [r for r in report.records if r.failed]
    assert len(failed) == 1 and failed[0].matcher == "vm"
    assert "failures: vm=1" in format_report_table(report)


def test_reference_values_recorded_not_asserted():
    # full-scale numbers are reference-only: present, typed, never targets
    assert REFERENCE_FULL_SCALE["matching_score"]["ours"] == (0.909, 0.722, 0.559)
    assert set(EVAL_MATCHERS) == {"ours", "nn", "icp", "vm"}
