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
) -> list[AssignmentMatrix]:
    """One :class:`AssignmentMatrix` per pair, in input order, with the
    Sinkhorn settings of ``params.hyper``.

    Each pair's ``log_p`` is a one-node view of slice b of its group's
    batched Sinkhorn output, so gradients flow back through the group.
    """
    hyper = params.hyper
    stacks = [s for pair in pairs for s in pair.stacks]
    coords = [c for pair in pairs for c in pair.coords]
    assignments = [None] * len(pairs)
    for members, desc_src, desc_tgt in net.batch_descriptors(params, stacks, coords, train):
        raw = transport.score_matrix(desc_src, desc_tgt)
        augmented = transport.augment_dustbin(raw, params.dustbin_score)
        log_p = transport.sinkhorn(
            augmented,
            iterations=hyper.sinkhorn_iterations,
            mode=hyper.sinkhorn_mode,
            marginals=hyper.sinkhorn_marginals,
        ).log_p
        for b, index in enumerate(members):
            assignments[index] = AssignmentMatrix(log_p.gather_rows(b))
    return assignments


def match_pair(params: ModelParameters, pair: PreprocessedPair) -> MatchResult:
    """Inference for a single pair: assignment plus hard matches, recording no
    tape. Every setting, the match threshold included, is ``params.hyper``'s."""
    with ad.no_grad():
        assignment = batch_assignments(params, [pair])[0]
    return MatchResult(
        assignment=assignment,
        matches=transport.extract_matches(assignment, params.hyper.match_threshold),
    )
