"""Score matrix, dustbin augmentation, Sinkhorn normalization, match readout.

The assignment matrix holds log probabilities. Sinkhorn is one tape node,
and its mode picks its algorithm. Alternating mode, in training and
inference alike, runs the iterations in stabilised scaling form: one float64
kernel per matrix, then matrix-vector products, with the scalings absorbed
into log potentials whenever they leave a safe range. A recording call keeps
the scalings of each iteration and one kernel per absorption, and its
backward replays them as low-rank updates. A matrix the scaling form cannot
handle falls back to the log-domain loop. Simultaneous mode subtracts
log-sum-exp corrections in the log domain, and its backward replays them.
Score, dustbin and Sinkhorn take stacks with leading batch axes, one
independent matrix per leading index, so a batch of same-sized pairs is
normalised as one array.
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
    to each (n, m) matrix of a (..., n, m) stack, as one tape node."""
    if raw.ndim < 2:
        raise ShapeError("raw score matrix must be at least 2-D")
    if dustbin.size != 1:
        raise ShapeError("dustbin score must be a scalar")
    *lead, n, m = raw.shape
    data = np.empty((*lead, n + 1, m + 1), dtype=np.result_type(raw.data, dustbin.data))
    data[..., :n, :m] = raw.data
    data[..., :n, m] = data[..., n, :] = dustbin.data.reshape(())
    out = ad._node(data, (raw, dustbin), "augment_dustbin")
    if out.requires_grad:
        def back(grad):
            if raw.requires_grad:
                raw._accumulate(grad[..., :n, :m])
            if dustbin.requires_grad:
                # float32 sums depend on their order, and a test pins this
                # one: training runs recorded with it repeat bit for bit
                axes = tuple(range(grad.ndim - 1))
                col = np.ascontiguousarray(grad[..., :n, m:]).sum(axis=axes)
                row = np.ascontiguousarray(grad[..., n:, :]).sum(axis=axes).sum(keepdims=True)
                dustbin._accumulate((col + row).reshape(dustbin.shape))
        out._backward = back
    return out


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
    """Iterative row/column normalization, recorded as one tape node.

    ``augmented`` is one (n+1, m+1) matrix or a (..., n+1, m+1) stack whose
    matrices are normalised independently, each exactly as it would be alone,
    bit for bit, in the forward and the backward pass.
    Alternating mode applies the row correction, recomputes, then the column
    correction each iteration and converges to the doubly stochastic target.
    Simultaneous mode subtracts both corrections from the same iterate; it is
    kept for fidelity with the closed-form statement of the update but does
    not converge in general.

    The mode alone picks the algorithm. Alternating mode runs the iterations
    in stabilised scaling form in float64 (:func:`_scaling_sinkhorn`), and
    its backward is the low-rank replay of :func:`_scaling_backward`: the
    gradient of the same truncated iterations, to rounding. A matrix whose
    scalings turn non-finite is redone alone by the log-domain loop, whose
    backward replays its stored steps. Simultaneous mode runs the log-domain
    loop in the input's dtype. Whether a call records a tape decides only
    whether the state for the backward is kept.
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
    recording = ad._recording and augmented.requires_grad
    steps = [] if recording else None
    if simultaneous:
        current = _log_domain_sinkhorn(augmented.data, iterations, True, log_mu, log_nu, steps)
    else:
        segments = [] if recording else None
        current = _scaling_sinkhorn(augmented.data, iterations, marginals, segments)
        failed = ~np.all(np.isfinite(current), axis=(-2, -1))
        if np.any(failed):
            current[failed] = _log_domain_sinkhorn(augmented.data[failed], iterations, False,
                                                   log_mu, log_nu, steps)
    out = ad._node(current, (augmented,), "sinkhorn")
    if out.requires_grad:
        def back(grad):
            if simultaneous:
                g = _log_domain_backward(grad, steps, True)
            else:
                g = _scaling_backward(grad, segments, marginals)
                if np.any(failed):
                    g[failed] = _log_domain_backward(grad[failed], steps, False)
            augmented._accumulate(g)
        out._backward = back
    return AssignmentMatrix(log_p=out)


def _log_domain_sinkhorn(data, iterations, simultaneous, log_mu, log_nu, steps=None):
    """The iterations on log probabilities in ``data``'s dtype; appends (row
    input, its log-sum-exp, column input, its log-sum-exp) per iteration to
    ``steps`` when given, for :func:`_log_domain_backward`."""
    current = data
    for _ in range(iterations):
        row_in = current
        row_lse = ad.logsumexp_array(row_in, axis=-1)
        current = row_in - (row_lse - log_mu)
        col_in = row_in if simultaneous else current
        col_lse = ad.logsumexp_array(col_in, axis=-2)
        current = current - (col_lse - log_nu)
        if steps is not None:
            steps.append((row_in, row_lse, col_in, col_lse))
    return current


def _log_domain_backward(grad, steps, simultaneous):
    """Replays the log-domain ``steps`` in reverse: each correction
    ``x - lse(x)`` maps ``g`` to ``g - softmax(x) * g.sum(axis)``."""
    g = grad.copy()
    for row_in, row_lse, col_in, col_lse in reversed(steps):
        col_term = np.exp(col_in - col_lse) * g.sum(axis=-2, keepdims=True)
        if not simultaneous:
            g -= col_term
        g -= np.exp(row_in - row_lse) * g.sum(axis=-1, keepdims=True)
        if simultaneous:
            g -= col_term
    return g


# The scaling form checks its scalings after iteration 1 and every
# _ABSORB_EVERY iterations after that. A matrix whose scalings leave
# [exp(-_ABSORB_ABOVE), exp(_ABSORB_ABOVE)] has them folded into its log
# potentials and its kernel rebuilt. A recording call starts a new kernel
# segment after every check, whether or not any matrix absorbed, so the
# segments do not depend on the data.
_ABSORB_EVERY = 10
_ABSORB_ABOVE = 50.0


def _scaling_sinkhorn(scores: np.ndarray, iterations: int, marginals: str,
                      segments: list | None = None) -> np.ndarray:
    """Alternating Sinkhorn as ``u = mu / (K v)``, ``v = nu / (K^T u)`` in float64.

    Stabilised scaling form (Schmitzer, SIAM J. Sci. Comput. 2019; Peyre and
    Cuturi, *Computational Optimal Transport*, 4.4): the kernel ``K = exp(S +
    f + g)`` is exponentiated once per matrix, from ``f = -max S``, ``g = 0``,
    and rebuilt only when scalings are absorbed into the potentials ``f`` and
    ``g``; ``v`` then restarts from ones. In real arithmetic this is the
    log-domain loop, iteration for iteration. Returns ``S + f + g + log u +
    log v``, its columns normalised once more in the log domain, in the
    input's shape and dtype; a matrix whose scalings turned non-finite comes
    back non-finite, because absorbing a non-finite scaling poisons its
    kernel.

    When ``segments`` is given, it receives one ``(kernel, iterations)`` entry
    per kernel segment, each iteration as ``(u_t, v_{t-1}, v_t)``, for
    :func:`_scaling_backward`. An absorption copies the kernel, so earlier
    segments keep theirs.
    """
    *_, n_rows, n_cols = scores.shape
    s = scores.reshape(-1, n_rows, n_cols).astype(np.float64)
    log_mu, log_nu = _log_marginals(n_rows, n_cols, marginals, np.float64)
    mu, nu = np.exp(log_mu), np.exp(log_nu).T              # (n+1, 1), (m+1, 1)
    f = np.zeros((len(s), n_rows, 1)) - s.max(axis=(1, 2), keepdims=True)
    g = np.zeros((len(s), 1, n_cols))
    kernel = np.exp(s + f)
    kernel_t = kernel.transpose(0, 2, 1)
    v = np.ones((len(s), n_cols, 1))
    segment = []
    with np.errstate(all="ignore"):
        for it in range(1, iterations + 1):
            v_prev = v
            u = mu / (kernel @ v)
            v = nu / (kernel_t @ u)
            segment.append((u, v_prev, v))
            if (it - 1) % _ABSORB_EVERY or it == iterations:
                continue
            if segments is not None:
                segments.append((kernel, segment))
            segment = []
            log_u, log_v = np.log(u), np.log(v).transpose(0, 2, 1)
            spread = np.maximum(np.abs(log_u).max(axis=(1, 2)), np.abs(log_v).max(axis=(1, 2)))
            absorb = ~(spread <= _ABSORB_ABOVE)  # NaN compares False: absorbed, stays NaN
            if np.any(absorb):
                f[absorb] += log_u[absorb]
                g[absorb] += log_v[absorb]
                kernel = kernel.copy()
                kernel[absorb] = np.exp(s[absorb] + f[absorb] + g[absorb])
                kernel_t = kernel.transpose(0, 2, 1)
                v = np.where(absorb[:, None, None], 1.0, v)
        if segments is not None:
            segments.append((kernel, segment))
        # the potentials first, then the bounded log scalings, then the last
        # column correction again in the log domain: no change in real
        # arithmetic, less rounding than S + (f + log u) + (g + log v)
        out = (s + (f + g)) + (np.log(u) + np.log(v).transpose(0, 2, 1))
        out -= ad.logsumexp_array(out, axis=-2) - log_nu
    return out.reshape(scores.shape).astype(scores.dtype, copy=False)


def _scaling_backward(grad: np.ndarray, segments: list, marginals: str) -> np.ndarray:
    """Gradient through the iterations :func:`_scaling_sinkhorn` recorded.

    This is the log-domain chain rule rewritten with the scalings. With ``c``
    and ``rho`` the column and row sums of the gradient being replayed, each
    iteration ``t``, in reverse, subtracts two rank-one terms masked by the
    kernel: ``K * (u_t w_t^T)`` with ``w_t = c * v_t / nu``, which zeroes
    ``c``, and ``K * (r_t v_{t-1}^T)`` with ``r_t = rho * u_t / mu``, which
    zeroes ``rho``. Only the vectors are formed per iteration (two
    matrix-vector products); each kernel segment adds its terms to the
    gradient in one batched matrix product.
    """
    *_, n_rows, n_cols = grad.shape
    total = grad.reshape(-1, n_rows, n_cols).astype(np.float64)
    log_mu, log_nu = _log_marginals(n_rows, n_cols, marginals, np.float64)
    mu, nu = np.exp(log_mu), np.exp(log_nu).T
    col = total.sum(axis=1)[:, :, None]
    row = total.sum(axis=2)[:, :, None]
    with np.errstate(all="ignore"):
        for kernel, iterations in reversed(segments):
            kernel_t = kernel.transpose(0, 2, 1)
            left, right = [], []
            for u, v_prev, v in reversed(iterations):
                w = col * v / nu
                row = row - u * (kernel @ w)
                r = row * u / mu
                col = -v_prev * (kernel_t @ r)
                row = 0.0
                left += (u, r)
                right += (w, v_prev)
            total -= kernel * (np.concatenate(left, axis=2)
                               @ np.concatenate(right, axis=2).transpose(0, 2, 1))
    return total.reshape(grad.shape).astype(grad.dtype, copy=False)


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


def mutual_nearest(src: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, dists)``: the ``(n, m)`` distances of two 3-D point sets and their
    brute-force mutual nearest neighbours, read by :func:`mutual_argmax` from ``-dists``."""
    # (dx^2 + dy^2) + dz^2, the order in which np.linalg.norm sums three values,
    # so the distances and their ties are exactly the norm's
    dists = np.sqrt(sum(np.square(src[:, None, c] - tgt[None, :, c]) for c in range(3)))
    rows, cols = mutual_argmax(-dists)
    return rows, cols, dists


def _matrix_probabilities(assign: AssignmentMatrix) -> np.ndarray:
    """The probabilities of one ``(n+1, m+1)`` assignment, not of a stack."""
    shape = assign.log_p.shape
    if len(shape) != 2 or 0 in shape:
        raise ShapeError(f"expected one (n+1, m+1) assignment matrix, got shape {shape}")
    return assign.probabilities


def extract_matches(assign: AssignmentMatrix, threshold: float = 0.2) -> MatchSet:
    """Mutual-argmax readout of the soft assignment.

    A pair (i, j) is kept when j is row i's argmax, i is column j's argmax
    (dustbin included in both argmaxes, excluded from pairing) and the
    probability clears the threshold. Everything else is unmatched.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ArgumentError("threshold must be in [0, 1]")
    probs = _matrix_probabilities(assign)
    n, m = probs.shape[0] - 1, probs.shape[1] - 1
    rows, cols = mutual_argmax(probs)
    conf = probs[rows, cols]
    keep = (rows < n) & (cols < m) & (conf >= threshold)
    pairs = zip(rows[keep].tolist(), cols[keep].tolist(), conf[keep].tolist())
    return MatchSet.from_pairs(pairs, n, m)


def write_assignment_csv(path, assign: AssignmentMatrix) -> None:
    """Dense probability grid with index headers; last row/column is the dustbin."""
    probs = _matrix_probabilities(assign)
    n, m = probs.shape[0] - 1, probs.shape[1] - 1
    header = [""] + [str(j) for j in range(m)] + ["dustbin"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n + 1):
            label = str(i) if i < n else "dustbin"
            writer.writerow([label] + [f"{v:.8e}" for v in probs[i]])
