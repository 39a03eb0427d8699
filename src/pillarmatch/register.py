"""Rigid-transform estimation, classical baselines and evaluation metrics."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import pipeline
from .cloud import CorrespondenceLabels
from .errors import (
    ArgumentError,
    DegenerateGeometryError,
    InsufficientCorrespondencesError,
)
from .transforms import RigidTransform, rigid_inverse, rigid_matrix, rotation_angle
from .transport import MatchSet, mutual_nearest

# correspondences farther apart are discarded by each ICP iteration
DEFAULT_REJECT_RADIUS = 2.0

# Published full-scale results for this architecture (KITTI, 300-epoch GPU
# training). They require that setup and are recorded here as reference
# values only; desk-scale runs are not expected to reproduce them.
REFERENCE_FULL_SCALE = {
    "matching_score": {"ours": (0.909, 0.722, 0.559), "nn": (0.485, 0.106, 0.048)},
    "translational_error": {
        "nn": (0.039, 0.717, 4.451),
        "icp": (0.073, 0.393, 3.264),
        "ours": (0.025, 0.056, 0.548),
        "vm": (0.025, 0.049, 0.169),
    },
    "rotational_error": {
        "nn": (0.003, 0.086, 0.366),
        "icp": (0.012, 0.014, 0.068),
        "ours": (0.002, 0.004, 0.091),
        "vm": (0.002, 0.003, 0.009),
    },
    # loss ablation: training split -> (precision, accuracy) per validation
    # split at frame distances 1/5/10
    "loss_ablation": {
        "nll": {
            "t1": ((86.9, 76.8), (64.0, 47.1), (46.8, 30.5)),
            "t5": ((85.1, 74.1), (72.0, 56.3), (53.7, 36.7)),
            "t10": ((82.9, 70.9), (71.0, 55.0), (55.8, 38.7)),
        },
        "nllp": {
            "t1": ((89.6, 81.2), (70.5, 54.5), (52.6, 35.7)),
            "t5": ((84.4, 73.0), (70.5, 54.5), (52.9, 36.0)),
            "t10": ((83.4, 71.5), (71.3, 55.4), (56.5, 39.4)),
        },
        "dce": {
            "t1": ((86.7, 76.6), (68.2, 51.8), (51.2, 34.4)),
            "t5": ((85.9, 75.3), (72.2, 56.6), (56.1, 39.0)),
            "t10": ((84.4, 73.0), (72.4, 56.8), (57.9, 40.8)),
        },
    },
    "forward_latency_ms": 27.0,
}


def estimate_transform_svd(src_points, tgt_points) -> RigidTransform:
    """Least-squares rigid transform mapping src onto tgt.

    Centroid subtraction, SVD of the cross covariance, reflection corrected
    by the determinant sign; needs at least 3 non-collinear pairs. The
    estimate is validated as rigid once, when it is returned.
    """
    return RigidTransform(_svd_rigid(src_points, tgt_points))


def _svd_rigid(src_points, tgt_points) -> np.ndarray:
    """The unchecked (4, 4) matrix of :func:`estimate_transform_svd`."""
    src = np.asarray(src_points, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(tgt_points, dtype=np.float64).reshape(-1, 3)
    if src.shape != tgt.shape:
        raise ArgumentError(f"point sets differ in shape: {src.shape} vs {tgt.shape}")
    if len(src) < 3:
        raise InsufficientCorrespondencesError(
            f"need at least 3 correspondences, got {len(src)}"
        )
    # sum / count is np.mean's arithmetic, without its per-call overhead
    src_centroid = src.sum(axis=0) / len(src)
    tgt_centroid = tgt.sum(axis=0) / len(tgt)
    cov = (src - src_centroid).T @ (tgt - tgt_centroid)
    u, s, vt = np.linalg.svd(cov)
    if s[1] <= max(s[0] * 1e-9, 1e-12):
        raise DegenerateGeometryError("correspondences are (near-)collinear")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return rigid_matrix(rotation, tgt_centroid - rotation @ src_centroid)


def nn_matcher(src_positions, tgt_positions) -> MatchSet:
    """Mutual nearest neighbors on raw 3D coordinates; ties break to the
    smaller index, so results are deterministic."""
    src = np.asarray(src_positions, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(tgt_positions, dtype=np.float64).reshape(-1, 3)
    if len(src) == 0 or len(tgt) == 0:
        raise ArgumentError("both key-point sets must be nonempty")
    rows, cols, _ = mutual_nearest(src, tgt)
    pairs = ((i, j, 1.0) for i, j in zip(rows.tolist(), cols.tolist()))
    return MatchSet.from_pairs(pairs, len(src), len(tgt))


@dataclass
class IcpResult:
    transform: RigidTransform
    residuals: list
    iterations: int
    converged: bool


def icp(
    src_points,
    tgt_points,
    init: RigidTransform | None = None,
    max_iters: int = 50,
    tol: float = 1e-8,
    reject_radius: float = DEFAULT_REJECT_RADIUS,
) -> IcpResult:
    """Point-to-point ICP: alternate nearest-neighbor correspondence and SVD.

    Correspondences farther than ``reject_radius`` are discarded each
    iteration. Stops when the mean residual changes by less than ``tol``.
    The iterations compose plain (4, 4) arrays; the returned transform is
    validated as rigid once.
    """
    if max_iters < 1:
        raise ArgumentError("max_iters must be >= 1")
    if not 0.0 < reject_radius < np.inf:
        raise ArgumentError(f"reject_radius must be finite and > 0, got {reject_radius}")
    if not (init is None or isinstance(init, RigidTransform)):
        raise ArgumentError(f"init must be None or a RigidTransform, got {type(init).__name__}")
    src = np.asarray(src_points, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(tgt_points, dtype=np.float64).reshape(-1, 3)
    current = init.matrix if init is not None else np.eye(4)
    moved = src @ current[:3, :3].T + current[:3, 3]
    tree = cKDTree(tgt)
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        dist, idx = tree.query(moved)
        keep = dist <= reject_radius
        if np.count_nonzero(keep) < 3:
            raise DegenerateGeometryError("fewer than 3 ICP correspondences in range")
        matched = tgt[idx[keep]]
        current = _svd_rigid(moved[keep], matched) @ current
        moved = src @ current[:3, :3].T + current[:3, 3]
        diff = moved[keep] - matched
        # the mean point distance, summed as np.mean(np.linalg.norm(diff, axis=1)) sums
        residuals.append(float(np.sqrt((diff * diff).sum(axis=1)).sum() / len(diff)))
        if len(residuals) >= 2 and abs(residuals[-2] - residuals[-1]) < tol:
            converged = True
            break
    return IcpResult(RigidTransform(current), residuals, iterations, converged)


def matching_score(predicted: MatchSet, labels: CorrespondenceLabels) -> float:
    """Fraction of ground-truth matches recovered by the prediction."""
    if labels.total_cells() == 0:
        raise ArgumentError("labels are empty")
    if not labels.matched:
        raise ArgumentError("frame has zero ground-truth matches")
    return len(predicted.index_pairs & labels.matched) / len(labels.matched)


def transform_errors(t_pred: RigidTransform, t_gt: RigidTransform) -> tuple[float, float]:
    """Translational (meters) and rotational (radians) error between a
    prediction and the ground truth, from their relative transform."""
    if not isinstance(t_pred, RigidTransform) or not isinstance(t_gt, RigidTransform):
        raise ArgumentError("transform_errors expects RigidTransform inputs")
    relative = rigid_inverse(t_pred.matrix) @ t_gt.matrix
    return float(np.linalg.norm(relative[:3, 3])), rotation_angle(relative[:3, :3])


# ---------------------------------------------------------------------------
# evaluation harness
# ---------------------------------------------------------------------------

EVAL_MATCHERS = ("ours", "nn", "icp", "vm")


@dataclass
class FrameRecord:
    index: int
    frame_distance: int
    matcher: str
    matching_score: float | None
    translational_error: float | None
    rotational_error: float | None
    num_matches: int
    failed: bool = False
    failure_reason: str | None = None   # "<ErrorClass>: <message>" of a failed frame

    def to_json(self) -> dict:
        return asdict(self)


# the metrics of a record that aggregate() averages, with their table titles
_SECTION_METRIC = (
    ("Matching Score", "matching_score"),
    ("Translational Error", "translational_error"),
    ("Rotational Error", "rotational_error"),
)


@dataclass
class EvalReport:
    """The records of one evaluation: one :class:`FrameRecord` per frame and
    matcher, frame-major, each frame's in the order of ``matchers``. ``failures``
    and :meth:`aggregate` are computed from the records, so they always agree."""

    matchers: tuple = ()
    records: list = field(default_factory=list)

    @property
    def failures(self) -> dict:
        """matcher -> number of its failed records; 0 for a matcher that never failed."""
        return {m: sum(r.failed for r in self.records if r.matcher == m) for m in self.matchers}

    def aggregate(self) -> dict:
        """matcher -> distance -> mean metrics over non-failed frames; a metric
        that none of a group's records has is None."""
        groups: dict = {}
        for rec in self.records:
            if not rec.failed:
                groups.setdefault(rec.matcher, {}).setdefault(rec.frame_distance, []).append(rec)
        return {matcher: {dist: {key: _mean(recs, key) for _, key in _SECTION_METRIC}
                          for dist, recs in sorted(by_dist.items())}
                for matcher, by_dist in groups.items()}


def _mean(records: list, key: str) -> float | None:
    """The mean of the records' ``key`` values that are not None, or None."""
    values = [getattr(r, key) for r in records if getattr(r, key) is not None]
    return float(np.mean(values)) if values else None


def evaluate_matchers(
    pairs,
    matchers=EVAL_MATCHERS,
    params=None,
    icp_reject_radius: float = DEFAULT_REJECT_RADIUS,
) -> EvalReport:
    """Per-frame matching scores and transform errors for each matcher; the
    learned matcher ``ours`` reads its settings from ``params.hyper``.

    ``matchers`` are distinct names of :data:`EVAL_MATCHERS`, checked before
    the first frame. Frames where transform estimation fails (too few
    matches, degenerate geometry) are recorded as failures, not dropped
    silently. Frames with no ground-truth matches are excluded from
    matching-score aggregation.
    """
    matchers = tuple(matchers)
    if not (matchers and set(matchers) <= set(EVAL_MATCHERS)
            and len(set(matchers)) == len(matchers)):
        raise ArgumentError(f"matchers must be distinct names of {EVAL_MATCHERS}, "
                            f"got {list(matchers)}")
    if "ours" in matchers and params is None:
        raise ArgumentError("matcher 'ours' needs model parameters")
    report = EvalReport(matchers)
    for index, pair in enumerate(pairs):
        if pair.gt_transform is None:
            raise ArgumentError(f"pair {index} has no ground-truth transform")
        src_pos, tgt_pos = pair.coords
        for matcher in matchers:
            matches = None  # ICP registers the clouds without a match set
            if matcher == "ours":
                # looked up at call time, so a wrapper installed on pipeline.match_pair sees it
                matches = pipeline.match_pair(params, pair).matches
            elif matcher == "nn":
                matches = nn_matcher(src_pos, tgt_pos)
            elif matcher == "vm":
                matches = MatchSet.from_pairs(((i, j, 1.0) for i, j in sorted(pair.labels.matched)),
                                              len(src_pos), len(tgt_pos))
            score = t_err = r_err = failure = None
            if matches is not None and pair.labels.matched:
                score = matching_score(matches, pair.labels)
            try:
                if matches is None:
                    estimate = icp(src_pos, tgt_pos, reject_radius=icp_reject_radius).transform
                else:
                    rows, cols = np.array(
                        [(i, j) for i, j, _ in matches.pairs], dtype=np.int64).reshape(-1, 2).T
                    estimate = estimate_transform_svd(src_pos[rows], tgt_pos[cols])
                t_err, r_err = transform_errors(estimate, pair.gt_transform)
            except (DegenerateGeometryError, InsufficientCorrespondencesError) as exc:
                failure = f"{type(exc).__name__}: {exc}"
            report.records.append(FrameRecord(
                index=index, frame_distance=pair.frame_distance, matcher=matcher,
                matching_score=score, translational_error=t_err, rotational_error=r_err,
                num_matches=0 if matches is None else len(matches.pairs),
                failed=failure is not None, failure_reason=failure))
    return report


def format_report_table(report: EvalReport) -> str:
    """Render the aggregate as one section per metric, one row per evaluated
    matcher and one column per frame distance of the records, failed ones
    included; a cell no record gives a value reads ``n/a``, and ICP has no
    matching-score row."""
    summary = report.aggregate()
    distances = sorted({rec.frame_distance for rec in report.records})
    lines = []
    header = "matcher".ljust(10) + "".join(f"d={d}".rjust(12) for d in distances)
    for title, key in _SECTION_METRIC:
        lines.append(f"-- {title} --")
        lines.append(header)
        for matcher in report.matchers:
            if key == "matching_score" and matcher == "icp":
                continue
            cells = []
            for dist in distances:
                value = summary.get(matcher, {}).get(dist, {}).get(key)
                cells.append("n/a".rjust(12) if value is None else f"{value:.4f}".rjust(12))
            lines.append(matcher.ljust(10) + "".join(cells))
        lines.append("")
    failing = {k: v for k, v in report.failures.items() if v}
    if failing:
        lines.append("failures: " + ", ".join(f"{k}={v}" for k, v in sorted(failing.items())))
    return "\n".join(lines).rstrip() + "\n"
