"""End-to-end glue: preprocessed pairs through the network into assignments.

For mini-batches the pillar and positional encoders run jointly over every
pillar of every pair so batch-norm statistics pool across the whole batch.
The pairs are then grouped by key-point counts, and the attention graph,
score matrix, dustbin and Sinkhorn run once per group on stacked
``(B, ...)`` arrays; a single pair is a group of one. Single-pair inference
records no autodiff tape.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from . import network as net
from . import transport
from .network import ModelParameters
from .pairio import PreprocessedPair
from .transport import AssignmentMatrix, MatchSet


@dataclass
class MatchResult:
    assignment: AssignmentMatrix
    matches: MatchSet


def batch_assignments(
    params: ModelParameters,
    pairs: list[PreprocessedPair],
    train: bool = False,
    sinkhorn_iterations: int | None = None,
) -> list[AssignmentMatrix]:
    """One :class:`AssignmentMatrix` per pair, in input order.

    Each pair's ``log_p`` is a one-node view of slice b of its group's
    batched Sinkhorn output, so gradients flow back through the group.
    """
    hyper = params.hyper
    iters = hyper.sinkhorn_iterations if sinkhorn_iterations is None else sinkhorn_iterations
    stacks = [s for pair in pairs for s in pair.stacks]
    coords = [c for pair in pairs for c in pair.coords]
    assignments = [None] * len(pairs)
    for members, desc_src, desc_tgt in net.batch_descriptors(params, stacks, coords, train):
        raw = transport.score_matrix(desc_src, desc_tgt)
        augmented = transport.augment_dustbin(raw, params.dustbin_score)
        log_p = transport.sinkhorn(
            augmented,
            iterations=iters,
            mode=hyper.sinkhorn_mode,
            marginals=hyper.sinkhorn_marginals,
        ).log_p
        for b, index in enumerate(members):
            assignments[index] = AssignmentMatrix(log_p.gather_rows(b), iters, hyper.sinkhorn_mode)
    return assignments


def match_pair(
    params: ModelParameters,
    pair: PreprocessedPair,
    threshold: float | None = None,
    sinkhorn_iterations: int | None = None,
) -> MatchResult:
    """Inference for a single pair: assignment plus hard matches, recording no tape."""
    with ad.no_grad():
        assignment = batch_assignments(
            params, [pair], train=False, sinkhorn_iterations=sinkhorn_iterations
        )[0]
    if threshold is None:
        threshold = params.hyper.match_threshold
    return MatchResult(
        assignment=assignment,
        matches=transport.extract_matches(assignment, threshold),
    )
