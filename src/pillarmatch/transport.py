"""Score matrix, dustbin augmentation, Sinkhorn normalization, match readout.

All heavy lifting stays in the log domain: the assignment matrix holds log
probabilities, normalization subtracts log-sum-exp corrections, and only the
final readout or exports exponentiate. Sinkhorn is one tape node whose
backward replays its iterations in reverse. Score, dustbin and Sinkhorn take
stacks with leading batch axes, one independent matrix per leading index, so
a batch of same-sized pairs is normalised as one array.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ArgumentError, NumericError, ShapeError


@dataclass
class AssignmentMatrix:
    """Log-domain soft assignment with one dustbin row and column."""

    log_p: Tensor          # (n+1, m+1), or (..., n+1, m+1) for a batched Sinkhorn
    iterations: int
    mode: str = "alternating"

    @property
    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_p.data)


@dataclass(frozen=True)
class MatchSet:
    """Hard matches read out of a soft assignment (or a classical matcher)."""

    pairs: tuple           # of (i, j, confidence)
    unmatched_rows: tuple  # row indices with no accepted match
    unmatched_cols: tuple

    @classmethod
    def from_pairs(cls, pairs, n: int, m: int) -> "MatchSet":
        """Matches plus every row of ``range(n)`` and column of ``range(m)``
        they leave unmatched."""
        pairs = tuple(pairs)
        rows = {i for i, _, _ in pairs}
        cols = {j for _, j, _ in pairs}
        return cls(
            pairs=pairs,
            unmatched_rows=tuple(i for i in range(n) if i not in rows),
            unmatched_cols=tuple(j for j in range(m) if j not in cols),
        )

    @property
    def index_pairs(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.pairs}


def score_matrix(desc_src: Tensor, desc_tgt: Tensor) -> Tensor:
    """Pairwise descriptor dot products, (..., n, m) from (..., n, d) and
    (..., m, d); no scaling."""
    if (desc_src.ndim < 2 or desc_src.shape[:-2] != desc_tgt.shape[:-2]
            or desc_src.shape[-1] != desc_tgt.shape[-1]):
        raise ShapeError(
            f"descriptor stacks differ: {desc_src.shape} vs {desc_tgt.shape}"
        )
    return desc_src @ desc_tgt.T


def augment_dustbin(raw: Tensor, dustbin: Tensor) -> Tensor:
    """Append one dustbin column and row holding the shared learnable scalar
    to each (n, m) matrix of a (..., n, m) stack."""
    if raw.ndim < 2:
        raise ShapeError("raw score matrix must be at least 2-D")
    if dustbin.size != 1:
        raise ShapeError("dustbin score must be a scalar")
    *lead, n, m = raw.shape
    flat = dustbin if dustbin.ndim == 1 else dustbin.broadcast_to((1,))
    with_col = ad.concat([raw, flat.broadcast_to((*lead, n, 1))], axis=-1)
    return ad.concat([with_col, flat.broadcast_to((*lead, 1, m + 1))], axis=-2)


def _log_marginals(n_rows: int, n_cols: int, marginals: str, dtype):
    """Log target masses per row/column of the augmented matrix.

    Uniform: every row and column carries mass 1. Dustbin-weighted: the
    dustbin row absorbs mass m and the dustbin column mass n, with the whole
    plan normalized to total mass 1 (the convention of related image
    matchers).
    """
    if marginals == "uniform":
        return (np.zeros((n_rows, 1), dtype=dtype), np.zeros((1, n_cols), dtype=dtype))
    n, m = n_rows - 1, n_cols - 1
    total = float(n + m)
    row = np.full((n_rows, 1), -np.log(total), dtype=dtype)
    col = np.full((1, n_cols), -np.log(total), dtype=dtype)
    row[-1, 0] = np.log(m / total)
    col[0, -1] = np.log(n / total)
    return row, col


def sinkhorn(augmented: Tensor, iterations: int = 100, mode: str = "alternating",
             marginals: str = "uniform") -> AssignmentMatrix:
    """Iterative log-domain row/column normalization, recorded as one tape node.

    ``augmented`` is one (n+1, m+1) matrix or a (..., n+1, m+1) stack whose
    matrices are normalised independently, each exactly as it would be alone.
    Alternating mode applies the row correction, recomputes, then the column
    correction each iteration and converges to the doubly stochastic target.
    Simultaneous mode subtracts both corrections from the same iterate; it is
    kept for fidelity with the closed-form statement of the update but does
    not converge in general. The backward pass replays the iterations in reverse.
    """
    if iterations < 1:
        raise ArgumentError("sinkhorn needs at least one iteration")
    if mode not in ("alternating", "simultaneous"):
        raise ArgumentError(f"unknown sinkhorn mode {mode!r}")
    if augmented.ndim < 2:
        raise ShapeError("sinkhorn needs a matrix or a stack of matrices")
    if not np.all(np.isfinite(augmented.data)):
        raise NumericError("sinkhorn input contains non-finite values")
    log_mu, log_nu = _log_marginals(*augmented.shape[-2:], marginals, augmented.dtype)
    simultaneous = mode == "simultaneous"
    steps = []  # (row input, its log-sum-exp, column input, its log-sum-exp)
    current = augmented.data
    for _ in range(iterations):
        row_in = current
        row_lse = ad.logsumexp_array(row_in, axis=-1)
        current = row_in - (row_lse - log_mu)
        col_in = row_in if simultaneous else current
        col_lse = ad.logsumexp_array(col_in, axis=-2)
        current = current - (col_lse - log_nu)
        if augmented.requires_grad:
            steps.append((row_in, row_lse, col_in, col_lse))
    out = ad._node(current, (augmented,), "sinkhorn")
    if out.requires_grad:
        def back(grad):
            # each correction x - lse(x) maps g to g - softmax(x) * g.sum(axis)
            g = grad.copy()
            for row_in, row_lse, col_in, col_lse in reversed(steps):
                col_term = np.exp(col_in - col_lse) * g.sum(axis=-2, keepdims=True)
                if not simultaneous:
                    g -= col_term
                g -= np.exp(row_in - row_lse) * g.sum(axis=-1, keepdims=True)
                if simultaneous:
                    g -= col_term
            augmented._accumulate(g)
        out._backward = back
    return AssignmentMatrix(log_p=out, iterations=iterations, mode=mode)


def marginal_deviation(log_p: np.ndarray, log_mu=None, log_nu=None) -> float:
    """Max absolute row/column mass error of exp(log_p) against its targets,
    over one (n+1, m+1) matrix or every matrix of a (..., n+1, m+1) stack."""
    p = np.exp(log_p)
    row_target = 1.0 if log_mu is None else np.exp(log_mu).reshape(-1)
    col_target = 1.0 if log_nu is None else np.exp(log_nu).reshape(-1)
    row_err = np.max(np.abs(p.sum(axis=-1) - row_target))
    col_err = np.max(np.abs(p.sum(axis=-2) - col_target))
    return float(max(row_err, col_err))


def mutual_argmax(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(rows[k], cols[k])`` where each is the other's argmax:
    column j is row i's largest score and row i is column j's. The lowest
    index wins ties; nearest-neighbour callers pass ``-dists``.
    """
    row_best = scores.argmax(axis=1)
    col_best = scores.argmax(axis=0)
    rows = np.flatnonzero(col_best[row_best] == np.arange(len(row_best)))
    return rows, row_best[rows]


def extract_matches(assign: AssignmentMatrix, threshold: float = 0.2) -> MatchSet:
    """Mutual-argmax readout of the soft assignment.

    A pair (i, j) is kept when j is row i's argmax, i is column j's argmax
    (dustbin included in both argmaxes, excluded from pairing) and the
    probability clears the threshold. Everything else is unmatched.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ArgumentError("threshold must be in [0, 1]")
    probs = assign.probabilities
    n, m = probs.shape[0] - 1, probs.shape[1] - 1
    rows, cols = mutual_argmax(probs)
    conf = probs[rows, cols]
    keep = (rows < n) & (cols < m) & (conf >= threshold)
    pairs = zip(rows[keep].tolist(), cols[keep].tolist(), conf[keep].tolist())
    return MatchSet.from_pairs(pairs, n, m)


def write_assignment_csv(path, assign: AssignmentMatrix) -> None:
    """Dense probability grid with index headers; last row/column is the dustbin."""
    probs = assign.probabilities
    n, m = probs.shape[0] - 1, probs.shape[1] - 1
    header = [""] + [str(j) for j in range(m)] + ["dustbin"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n + 1):
            label = str(i) if i < n else "dustbin"
            writer.writerow([label] + [f"{v:.8e}" for v in probs[i]])
