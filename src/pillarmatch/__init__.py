"""pillarmatch: differentiable point-cloud key-point matching.

Pipeline: smoothness-ranked key-points with pillar neighborhoods, a shared
pillar/positional encoder, alternating self/cross multi-head attention over
the two-frame graph, and a Sinkhorn optimal-transport assignment of log
probabilities with a dustbin for occluded points. Rigid transforms are
estimated from the matches by SVD; classical NN and ICP baselines plus an
evaluation harness are included.
"""

from .autodiff import BatchNormState, Tensor, grad_check, linear, linear_batchnorm_relu
from .cloud import (
    CorrespondenceLabels,
    FramePair,
    KeyPointSet,
    PillarSet,
    PointCloud,
    SceneConfig,
    generate_synthetic_pair,
    label_correspondences,
    load_kitti_poses,
    load_kitti_scan,
    sample_pillars,
    save_kitti_poses,
    save_kitti_scan,
    select_keypoints,
    smoothness,
)
from .learn import AdamState, TrainRun, adam_step, compute_loss, train
from .network import (
    HyperParams,
    ModelParameters,
    attention,
    encode_pillars,
    encode_positions,
    feature_stacks,
    final_projection,
    gnn_layer,
    load_checkpoint,
    save_checkpoint,
)
from .pairio import PreprocessedPair, preprocess_pair, read_pair, write_pair
from .pipeline import MatchResult, batch_assignments, match_pair
from .register import (
    IcpResult,
    estimate_transform_svd,
    evaluate_matchers,
    icp,
    matching_score,
    nn_matcher,
    transform_errors,
)
from .transforms import RigidTransform
from .transport import (
    AssignmentMatrix,
    MatchSet,
    augment_dustbin,
    extract_matches,
    score_matrix,
    sinkhorn,
)

__version__ = "0.1.0"
