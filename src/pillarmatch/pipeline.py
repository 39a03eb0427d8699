"""End-to-end glue: preprocessed pairs through the network into assignments.

For mini-batches the pillar and positional encoders run jointly over every
pillar of every pair so batch-norm statistics pool across the whole batch.
The pairs are then grouped by key-point counts, and the attention graph,
score matrix, dustbin and Sinkhorn run once per group on stacked
``(B, ...)`` arrays; a single pair is a group of one. Each group's
assignment is its ``(B, n+1, m+1)`` Sinkhorn stack, which the training loss
scores whole. Single-pair inference reads the one matrix of its group and
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
) -> list[tuple[list[int], AssignmentMatrix]]:
    """One ``(members, assignment)`` per ``(n, m)`` group of ``pairs``, as
    :func:`network.batch_descriptors` groups them, with the Sinkhorn settings
    of ``params.hyper``. The assignment's ``log_p`` is the group's ``(B, n+1,
    m+1)`` Sinkhorn stack; matrix b belongs to ``pairs[members[b]]``.
    """
    hyper = params.hyper
    stacks = [s for pair in pairs for s in pair.stacks]
    coords = [c for pair in pairs for c in pair.coords]
    groups = []
    for members, desc_src, desc_tgt in net.batch_descriptors(params, stacks, coords, train):
        raw = transport.score_matrix(desc_src, desc_tgt)
        augmented = transport.augment_dustbin(raw, params.dustbin_score)
        groups.append((members, transport.sinkhorn(augmented, hyper.sinkhorn_iterations,
                                                   hyper.sinkhorn_mode, hyper.sinkhorn_marginals)))
    return groups


def match_pair(params: ModelParameters, pair: PreprocessedPair) -> MatchResult:
    """Inference for a single pair: the one matrix of its group plus hard
    matches, recording no tape. Every setting, the match threshold included,
    is ``params.hyper``'s."""
    with ad.no_grad():
        [(_, group)] = batch_assignments(params, [pair])
    assignment = AssignmentMatrix(ad.Tensor(group.log_p.data[0]))
    return MatchResult(
        assignment=assignment,
        matches=transport.extract_matches(assignment, params.hyper.match_threshold),
    )
