import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import synthetic_labels, toy_hyper, toy_pair

from pillarmatch import transport
from pillarmatch.cloud import (
    DEFAULT_MATCH_RADIUS,
    FramePair,
    KeyPointSet,
    PointCloud,
    SceneConfig,
    generate_synthetic_pair,
    label_correspondences,
)
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
from pillarmatch.transforms import RigidTransform, rotation_about_axis, rotation_angle
from pillarmatch.transport import MatchSet, mutual_argmax

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


def tie_heavy_sets():
    """Two 100-point sets on a 0.1-spaced lattice, with duplicate points and
    many distances that are equal in exact arithmetic but round apart."""
    axis = np.arange(5) * 0.1 + 0.37
    lattice = np.stack(np.meshgrid(axis, axis, axis[:4], indexing="ij"), -1).reshape(-1, 3)
    src = lattice.copy()
    src[50:60] = src[:10]                       # exact duplicates
    tgt = lattice[::-1] + [0.05, 0.0, -0.05]    # half-spacing offsets: equidistant pairs
    tgt[::7] = src[::7]                         # some coincident points
    return src, tgt


def test_nn_matcher_distances_equal_linalg_norm_on_ties(monkeypatch):
    # nn_matcher and label_correspondences share one distance routine, so
    # pair files keep the labels the norm gave
    src, tgt = tie_heavy_sets()
    seen = []

    def recording(scores):
        seen.append(scores.copy())
        return mutual_argmax(scores)

    monkeypatch.setattr(transport, "mutual_argmax", recording)
    out = nn_matcher(src, tgt)
    identity = RigidTransform.identity()
    keypoints = [KeyPointSet(positions=p, smoothness=np.zeros(len(p)), kind=np.ones(len(p)),
                             index=np.arange(len(p))) for p in (src, tgt)]
    cloud = PointCloud(src, np.zeros(len(src)))
    labels = label_correspondences(FramePair(cloud, cloud, identity), *keypoints)
    reference = np.linalg.norm(identity.apply(src)[:, None, :] - tgt[None, :, :], axis=2)
    assert len(seen) == 2
    assert all(scores.tobytes() == (-reference).tobytes() for scores in seen)
    rows, cols = mutual_argmax(-reference)
    assert out.index_pairs == set(zip(rows.tolist(), cols.tolist()))
    close = reference[rows, cols] < DEFAULT_MATCH_RADIUS
    assert labels.matched == set(zip(rows[close].tolist(), cols[close].tolist()))


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


@pytest.mark.parametrize("init", [np.eye(4), np.eye(4).tolist(), "identity"],
                         ids=["array", "list", "string"])
def test_icp_init_must_be_a_rigid_transform(init):
    with pytest.raises(ArgumentError, match="RigidTransform"):
        icp(np.eye(3), np.eye(3), init=init)


def icp_by_transforms(src, tgt, init=None, max_iters=50, tol=1e-8, reject_radius=2.0):
    """ICP as a loop over validated transforms: one ``RigidTransform`` per
    step, composed and applied to the source twice an iteration."""
    current = init if init is not None else RigidTransform.identity()
    tree = cKDTree(tgt)
    residuals = []
    converged = False
    for iterations in range(1, max_iters + 1):
        moved = current.apply(src)
        dist, idx = tree.query(moved)
        keep = dist <= reject_radius
        if keep.sum() < 3:
            raise DegenerateGeometryError("fewer than 3 ICP correspondences in range")
        step = estimate_transform_svd(moved[keep], tgt[idx[keep]])
        current = step.compose(current)
        residuals.append(float(np.mean(np.linalg.norm(
            current.apply(src)[keep] - tgt[idx[keep]], axis=1))))
        if len(residuals) >= 2 and abs(residuals[-2] - residuals[-1]) < tol:
            converged = True
            break
    return current, residuals, iterations, converged


def icp_case(rng, count=200):
    src = rng.uniform(-4.0, 4.0, size=(count, 3))
    gt = RigidTransform.from_rotation_translation(
        rotation_about_axis([0.3, -0.2, 0.9], 0.15), [0.4, -0.3, 0.1])
    tgt = gt.apply(src) + rng.normal(0.0, 0.02, size=src.shape)
    return src, tgt


@pytest.mark.parametrize("kwargs", [
    {},
    {"init": RigidTransform.from_rotation_translation(
        rotation_about_axis([1.0, 0.0, 1.0], 0.1), [0.3, -0.2, 0.05])},
    {"reject_radius": 0.3, "tol": 1e-12},
    {"max_iters": 3},
], ids=["identity-init", "non-identity-init", "radius-drops-points", "iteration-cap"])
def test_icp_equals_transform_loop_bit_for_bit(rng, kwargs):
    src, tgt = icp_case(rng)
    if "reject_radius" in kwargs:
        moved = src if "init" not in kwargs else kwargs["init"].apply(src)
        dist, _ = cKDTree(tgt).query(moved)
        assert 3 <= np.sum(dist <= kwargs["reject_radius"]) < len(src)
    result = icp(src, tgt, **kwargs)
    transform, residuals, iterations, converged = icp_by_transforms(src, tgt, **kwargs)
    assert np.array_equal(result.transform.matrix, transform.matrix)
    assert result.transform.matrix.tobytes() == transform.matrix.tobytes()
    assert result.residuals == residuals
    assert (result.iterations, result.converged) == (iterations, converged)


def test_icp_too_few_in_range_raises_as_transform_loop(rng):
    src, tgt = icp_case(rng)
    far = RigidTransform.from_rotation_translation(np.eye(3), [50.0, 0.0, 0.0])
    for run in (icp, icp_by_transforms):
        with pytest.raises(DegenerateGeometryError, match="fewer than 3 ICP"):
            run(src, tgt, init=far)


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


def test_transform_errors_equal_validated_composition(rng):
    for _ in range(20):
        pred, gt = (RigidTransform.from_rotation_translation(
            rotation_about_axis(rng.normal(size=3), rng.uniform(0, np.pi)),
            rng.normal(size=3) * 10.0) for _ in range(2))
        relative = pred.inverse().compose(gt)
        expected = (float(np.linalg.norm(relative.translation)),
                    rotation_angle(relative.rotation))
        assert transform_errors(pred, gt) == expected


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


def test_eval_repeated_matcher_rejected():
    with pytest.raises(ArgumentError, match="distinct"):
        evaluate_matchers(eval_dataset(1), matchers=("nn", "vm", "nn"))


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


def test_eval_records_the_reason_a_frame_failed():
    # vm on a frame with 2 GT matches is short of correspondences; ICP with
    # a tiny radius keeps fewer than 3 points in range on every frame
    pairs = eval_dataset(2)
    two = sorted(pairs[0].labels.matched)[:2]
    pairs[0].labels = synthetic_labels(
        len(pairs[0].src_keypoints), len(pairs[0].tgt_keypoints), set(two)
    )
    report = evaluate_matchers(pairs, matchers=("vm", "icp"), icp_reject_radius=1e-9)
    reasons = {(r.index, r.matcher): r.failure_reason for r in report.records}
    assert reasons == {
        (0, "vm"): "InsufficientCorrespondencesError: need at least 3 correspondences, got 2",
        (1, "vm"): None,
        (0, "icp"): "DegenerateGeometryError: fewer than 3 ICP correspondences in range",
        (1, "icp"): "DegenerateGeometryError: fewer than 3 ICP correspondences in range",
    }
    for rec in report.records:
        assert rec.failed == (rec.failure_reason is not None)
        assert rec.to_json()["failure_reason"] == rec.failure_reason


def test_aggregate_and_failures_are_computed_from_the_records():
    # frame 0 (d=10) has 2 GT matches, so vm fails on it; frame 1 has none, so it has no
    # matching score and vm fails on it too; ICP with a tiny radius fails on every frame
    pairs = eval_dataset(4)
    n, m = len(pairs[0].src_keypoints), len(pairs[0].tgt_keypoints)
    pairs[0].labels = synthetic_labels(n, m, set(sorted(pairs[0].labels.matched)[:2]))
    pairs[1].labels = synthetic_labels(n, m, set(), unmatched_rows=range(n))
    for pair, distance in zip(pairs, (10, 1, 1, 5)):
        pair.frame_distance = distance
    report = evaluate_matchers(pairs, matchers=("nn", "icp", "vm"), icp_reject_radius=1e-9)
    rec = {(r.index, r.matcher): r for r in report.records}
    assert report.failures == {"nn": 0, "icp": 4, "vm": 2}
    assert [i for i in range(4) if rec[i, "vm"].failed] == [0, 1]
    assert rec[0, "vm"].matching_score == 1.0 and rec[1, "nn"].matching_score is None

    def means(*frames):
        return {key: float(np.mean([getattr(r, key) for r in frames
                                    if getattr(r, key) is not None]))
                for key in ("matching_score", "translational_error", "rotational_error")}

    # failed records, the starved vm frame's score among them, stay out of every mean
    assert report.aggregate() == {
        "nn": {1: means(rec[1, "nn"], rec[2, "nn"]), 5: means(rec[3, "nn"]),
               10: means(rec[0, "nn"])},
        "vm": {1: means(rec[2, "vm"]), 5: means(rec[3, "vm"])},
    }
    assert report.aggregate()["nn"][1]["matching_score"] == rec[2, "nn"].matching_score


def test_reference_values_recorded_not_asserted():
    # full-scale numbers are reference-only: present, typed, never targets
    assert REFERENCE_FULL_SCALE["matching_score"]["ours"] == (0.909, 0.722, 0.559)
    assert set(EVAL_MATCHERS) == {"ours", "nn", "icp", "vm"}
