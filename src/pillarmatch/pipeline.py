"""End-to-end glue: preprocessed pairs through the network into assignments.

For mini-batches the pillar and positional encoders run jointly over every
pillar of every pair so batch-norm statistics pool across the whole batch.
The pairs of a batch share one key-point count ``(n, m)``, and the attention
graph, score matrix, dustbin and Sinkhorn run once on stacked ``(B, ...)``
arrays; a single pair is a batch of one. A batch's assignment is its ``(B,
n+1, m+1)`` Sinkhorn stack, which the training loss scores whole.
Single-pair inference reads the one matrix of its stack and records no
autodiff tape.
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
) -> AssignmentMatrix:
    """The assignment of a batch of pairs of one key-point count ``(n, m)``,
    with the Sinkhorn settings of ``params.hyper``. Its ``log_p`` is the ``(B,
    n+1, m+1)`` Sinkhorn stack; matrix b belongs to ``pairs[b]``. An empty
    batch, or pairs of several counts, is a :class:`ShapeError`.
    """
    hyper = params.hyper
    desc_src, desc_tgt = net.batch_descriptors(
        params, [s for pair in pairs for s in pair.stacks],
        [c for pair in pairs for c in pair.coords], train)
    raw = transport.score_matrix(desc_src, desc_tgt)
    augmented = transport.augment_dustbin(raw, params.dustbin_score)
    return transport.sinkhorn(augmented, hyper.sinkhorn_iterations, hyper.sinkhorn_mode,
                              hyper.sinkhorn_marginals)


def match_pair(params: ModelParameters, pair: PreprocessedPair) -> MatchResult:
    """Inference for a single pair: the one matrix of its stack plus hard
    matches, recording no tape. Every setting, the match threshold included,
    is ``params.hyper``'s."""
    with ad.no_grad():
        batch = batch_assignments(params, [pair])
    assignment = AssignmentMatrix(ad.Tensor(batch.log_p.data[0]))
    return MatchResult(
        assignment=assignment,
        matches=transport.extract_matches(assignment, params.hyper.match_threshold),
    )
