"""Supervised losses, Adam, and the training loop over preprocessed pairs.

All three losses operate on the log-domain Sinkhorn output with standard
cross-entropy signs (subtract the true-cell score, add a log-sum-exp), so
each is bounded below by zero and minimized on a one-hot assignment that
agrees with the labels. Each is a weighted sum of assignment cells plus
weighted row and column log-sum-exps: :func:`loss_weights` builds the
weights of a loss kind and :func:`weighted_assignment_loss` evaluates them, on
a matrix or a Sinkhorn stack, as one tape node with a hand-written backward.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cloud import CorrespondenceLabels
from .container import is_count, is_finite_real
from .errors import ArgumentError, ConfigError, NumericError, ShapeError
from .network import HyperParams, ModelParameters, save_checkpoint
from .pairio import PreprocessedPair
from .pipeline import batch_assignments
from .transport import AssignmentMatrix, MatchSet, extract_matches

LOSS_KINDS = ("nll", "nllp", "dce")


def loss_weights(kind: str, labels: CorrespondenceLabels, n: int, m: int,
                 penalty_excludes_dustbin: bool = False):
    """Weights ``(cells, rows, cols, row_span)`` of loss ``kind`` on an
    ``(n+1, m+1)`` assignment, for :func:`weighted_assignment_loss`.

    The supervised cells are the matched pairs, each unmatched row's dustbin
    column and each unmatched column's dustbin row; ``nll`` weighs them 1.
    ``nllp`` adds 1 on each unmatched row's dustbin cell and row
    log-sum-exp, which spans the real columns alone when
    ``penalty_excludes_dustbin``. ``dce`` weighs matched cells 2, dustbin
    cells 1 and the log-sum-exp of every supervised row and column 1.
    """
    if kind not in LOSS_KINDS:
        raise ArgumentError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if labels.total_cells() == 0:
        raise ArgumentError("labels contain no ground-truth cells")
    pairs = labels.matched_array
    un_rows = np.fromiter(labels.unmatched_rows, dtype=np.intp)
    un_cols = np.fromiter(labels.unmatched_cols, dtype=np.intp)
    row_index = np.concatenate([pairs[:, 0], un_rows])
    col_index = np.concatenate([pairs[:, 1], un_cols])
    if not (np.all((row_index >= 0) & (row_index < n))
            and np.all((col_index >= 0) & (col_index < m))):
        raise ArgumentError("label index outside the assignment matrix")
    cells, rows, cols = np.zeros((n + 1, m + 1)), np.zeros(n + 1), np.zeros(m + 1)
    cells[pairs[:, 0], pairs[:, 1]] = 2.0 if kind == "dce" else 1.0
    cells[un_rows, m] = 2.0 if kind == "nllp" else 1.0
    cells[n, un_cols] = 1.0
    if kind == "nllp":
        rows[un_rows] = 1.0
    elif kind == "dce":
        rows[row_index] = cols[col_index] = 1.0
    return cells, rows, cols, m if kind == "nllp" and penalty_excludes_dustbin else m + 1


def weighted_assignment_loss(log_p: Tensor, cells, rows, cols, row_span: int) -> Tensor:
    """``-(cells * log_p).sum() + (rows * lse_row).sum() + (cols * lse_col).sum()`` per
    matrix of a ``(B, n+1, m+1)`` stack and weights stacked alike, added in stack order, times
    ``1.0 / B``, as one tape node; a matrix is B = 1. ``lse_row`` spans the first ``row_span``
    columns of a row; the gradient is ``(-cells + rows * softmax_row + cols * softmax_col) / B``."""
    cells, rows, cols = (np.asarray(w, dtype=log_p.dtype) for w in (cells, rows, cols))
    data = log_p.data.reshape(cells.shape)
    block = data[..., :row_span]
    row_lse = ad.logsumexp_array(block, axis=-1)
    col_lse = ad.logsumexp_array(data, axis=-2)
    terms = (np.sum(rows * row_lse[..., 0], axis=-1) + np.sum(cols * col_lse[:, 0], axis=-1)
             - np.sum((cells * data).reshape(len(data), -1), axis=-1))
    grad = cols[:, None] * np.exp(data - col_lse) - cells
    grad[..., :row_span] += rows[..., None] * np.exp(block - row_lse)
    mean = 1.0 / len(data)
    out = ad._node(np.asarray(sum(terms[1:], terms[0]) * mean), (log_p,), "assignment_loss")
    if out.requires_grad:
        def back(g):
            log_p._accumulate((g * mean * grad).reshape(log_p.shape))
        out._backward = back
    return out


def compute_loss(kind: str, assign, labels, penalty_excludes_dustbin: bool = False) -> Tensor:
    """Loss ``kind`` (one of :data:`LOSS_KINDS`) of an ``(n+1, m+1)`` ``assign`` against
    ``labels``, or its mean over a ``(B, n+1, m+1)`` stack against B labels. By default the
    ``nllp`` penalty's log-sum spans the whole row, which keeps the loss non-negative and zero
    on a correctly assigned row; ``penalty_excludes_dustbin`` (the literal bound) loses that."""
    log_p = assign.log_p
    if log_p.ndim not in (2, 3):
        raise ShapeError("a loss needs an (n+1, m+1) matrix or a (B, n+1, m+1) stack")
    batch = [labels] if log_p.ndim == 2 else list(labels)
    if log_p.ndim == 3 and len(batch) != log_p.shape[0]:
        raise ArgumentError(f"{len(batch)} labels for a stack of {log_p.shape[0]} matrices")
    n, m = log_p.shape[-2] - 1, log_p.shape[-1] - 1
    weights = (loss_weights(kind, one, n, m, penalty_excludes_dustbin) for one in batch)
    cells, rows, cols, spans = map(np.stack, zip(*weights))
    return weighted_assignment_loss(log_p, cells, rows, cols, spans[0])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def adam_step(named_params: dict[str, Tensor], state: AdamState) -> None:
    """Bias-corrected Adam update in place; raises on non-finite gradients and
    on a step that leaves a parameter non-finite."""
    state.step += 1
    correct1 = 1.0 - state.beta1 ** state.step
    correct2 = 1.0 - state.beta2 ** state.step
    for name, tensor in named_params.items():
        grad = tensor.grad
        if grad is None:
            grad = np.zeros_like(tensor.data)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m, v = state.first_moment.get(name), state.second_moment.get(name)
        if m is None or v is None:  # allocate only on a parameter's first step
            m = state.first_moment.setdefault(name, np.zeros_like(tensor.data))
            v = state.second_moment.setdefault(name, np.zeros_like(tensor.data))
        m += (1.0 - state.beta1) * (grad - m)
        v += (1.0 - state.beta2) * (grad * grad - v)
        m_hat = m / correct1
        v_hat = v / correct2
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            tensor.data = tensor.data - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
        if not np.all(np.isfinite(tensor.data)):
            raise NumericError(f"Adam step made parameter {name!r} non-finite")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def match_metrics(matches: MatchSet, labels: CorrespondenceLabels) -> dict:
    """Precision and accuracy of hard matches against the labels.

    Precision counts correct predicted matches over all judgeable predicted
    matches (pairs touching an ignored index cannot be judged and are left
    out). Accuracy counts correct decisions over every supervised cell,
    dustbin assignments included.
    """
    judged = {
        (i, j)
        for (i, j) in matches.index_pairs
        if i not in labels.ignored_rows and j not in labels.ignored_cols
    }
    correct_pairs = judged & labels.matched
    precision = len(correct_pairs) / len(judged) if judged else 0.0

    unmatched_rows_pred = set(matches.unmatched_rows)
    unmatched_cols_pred = set(matches.unmatched_cols)
    correct_cells = (
        len(correct_pairs)
        + len(labels.unmatched_rows & unmatched_rows_pred)
        + len(labels.unmatched_cols & unmatched_cols_pred)
    )
    total = labels.total_cells()
    accuracy = correct_cells / total if total else 0.0
    return {
        "precision": precision,
        "accuracy": accuracy,
        "predicted": len(matches.pairs),
        "judged": len(judged),
        "correct": len(correct_pairs),
        "gt_matches": len(labels.matched),
    }


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainRun:
    """Configuration for one training run; deterministic given the seed."""

    dataset_id: str = "synthetic"
    epochs: int = 100
    batch_size: int = 16
    seed: int = 0
    loss_kind: str = "nllp"
    learning_rate: float = AdamState.learning_rate
    max_steps: int | None = None
    checkpoint_every: int = 0  # epochs between checkpoints; 0 writes only the final one
    nllp_penalty_excludes_dustbin: bool = False

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ArgumentError(f"unknown loss kind {self.loss_kind!r}")
        if not (isinstance(self.dataset_id, str)
                and isinstance(self.nllp_penalty_excludes_dustbin, bool)):
            raise ArgumentError("dataset_id must be a string, nllp_penalty_excludes_dustbin a bool")
        if not (is_count(self.epochs) and is_count(self.batch_size, 1)):
            raise ArgumentError(f"epochs must be an integer >= 0 and batch_size >= 1: "
                                f"{self.epochs!r}, {self.batch_size!r}")
        if not is_count(self.seed):
            raise ArgumentError(f"seed must be an integer >= 0: {self.seed!r}")
        if not (is_finite_real(self.learning_rate) and self.learning_rate > 0):
            raise ArgumentError(f"learning_rate must be finite and > 0: {self.learning_rate!r}")
        if not (self.max_steps is None or is_count(self.max_steps, 1)):
            raise ArgumentError(f"max_steps must be None or >= 1: {self.max_steps!r}")
        if not is_count(self.checkpoint_every):
            raise ArgumentError(f"checkpoint_every must be >= 0: {self.checkpoint_every!r}")


@dataclass
class TrainResult:
    params: ModelParameters
    history: list
    optimizer: AdamState
    steps: int


def _train_step(batch, run: TrainRun, params: ModelParameters, named, optimizer: AdamState):
    """One optimizer step on ``batch``; returns the mean loss over the batch and
    each pair's match metrics as plain numbers, so the step's tape is freed when
    it returns, before the next step builds its own."""
    assign = batch_assignments(params, batch, train=True)
    loss = compute_loss(run.loss_kind, assign, [pair.labels for pair in batch],
                        run.nllp_penalty_excludes_dustbin)
    params.zero_grad()
    loss.backward()
    adam_step(named, optimizer)
    threshold = params.hyper.match_threshold
    metrics = [match_metrics(extract_matches(AssignmentMatrix(Tensor(log_p)), threshold),
                             pair.labels) for pair, log_p in zip(batch, assign.log_p.data)]
    return loss.item(), metrics


def check_training_pairs(pairs: list[PreprocessedPair]) -> None:
    """Refuse an empty dataset, several key-point counts or a pair of no ground truth."""
    if not pairs:
        raise ArgumentError("training dataset is empty")
    shapes = sorted({(len(pair.src_keypoints), len(pair.tgt_keypoints)) for pair in pairs})
    if len(shapes) > 1:
        raise ArgumentError(f"training pairs must share one key-point count, got {shapes}")
    for pair in pairs:
        if pair.labels.total_cells() == 0:
            raise ArgumentError("a training pair has zero ground-truth cells")


def train(
    pairs: list[PreprocessedPair],
    run: TrainRun,
    hyper: HyperParams,
    params: ModelParameters | None = None,
    optimizer: AdamState | None = None,
    start_epoch: int = 0,
    run_dir=None,
    log=None,
) -> TrainResult:
    """Train over preprocessed pairs of one key-point count; per-epoch shuffling
    derives from ``(seed, epoch)`` so runs resume deterministically from checkpoints.

    Adam steps at ``run.learning_rate``, which replaces a given ``optimizer``'s
    rate. ``run.max_steps`` caps ``optimizer.step``, resumed steps included; each
    epoch's record is computed from its step losses and per-pair match metrics.
    """
    check_training_pairs(pairs)
    if params is None:
        params = ModelParameters.initialize(hyper, seed=run.seed)
    if optimizer is None:
        optimizer = AdamState()
    optimizer.learning_rate = run.learning_rate
    named = params.named_parameters()
    history: list[dict] = []
    run_dir = Path(run_dir) if run_dir is not None else None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)

    cap = run.max_steps or np.inf
    for epoch in range(start_epoch, run.epochs):
        if optimizer.step >= cap:
            break
        order = np.random.default_rng([run.seed, epoch]).permutation(len(pairs))
        losses, metrics = [], []
        for lo in range(0, len(order), run.batch_size):
            batch = [pairs[i] for i in order[lo : lo + run.batch_size]]
            loss, batch_metrics = _train_step(batch, run, params, named, optimizer)
            losses.append(loss)
            metrics += batch_metrics
            if optimizer.step >= cap:
                break
        record = {
            "epoch": epoch,
            "loss": sum(losses) / len(losses),
            "precision": sum(m["precision"] for m in metrics) / len(metrics),
            "accuracy": sum(m["accuracy"] for m in metrics) / len(metrics),
            "steps": optimizer.step,
        }
        history.append(record)
        if log is not None:
            log(record)
        if run_dir is not None:
            with open(run_dir / "history.jsonl", "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            if run.checkpoint_every and (epoch + 1) % run.checkpoint_every == 0:
                write_training_checkpoint(
                    run_dir / f"checkpoint_{epoch:05d}.pmc", params, run, optimizer, epoch + 1
                )
    if run_dir is not None:
        write_training_checkpoint(run_dir / "checkpoint_final.pmc", params, run, optimizer,
                                  history[-1]["epoch"] + 1 if history else start_epoch)
    return TrainResult(params=params, history=history, optimizer=optimizer, steps=optimizer.step)


# the TrainRun fields and the AdamState settings a training checkpoint records; its
# run section also records the network's match threshold, which the hyper section holds
RUN_FIELDS = ("dataset_id", "epochs", "batch_size", "seed", "loss_kind", "learning_rate",
              "nllp_penalty_excludes_dustbin")
ADAM_SETTINGS = ("learning_rate", "beta1", "beta2", "eps", "step")


def write_training_checkpoint(path, params, run: TrainRun, optimizer: AdamState,
                              next_epoch: int) -> None:
    meta = {
        "run": {**{k: getattr(run, k) for k in RUN_FIELDS},
                "match_threshold": params.hyper.match_threshold},
        "next_epoch": next_epoch,
        "optimizer": {k: getattr(optimizer, k) for k in ADAM_SETTINGS},
    }
    arrays = {f"adam.{kind}.{name}": moment
              for kind, moments in (("m", optimizer.first_moment), ("v", optimizer.second_moment))
              for name, moment in moments.items()}
    save_checkpoint(path, params, extra_meta=meta, extra_arrays=arrays)


def load_run(meta: dict) -> tuple[TrainRun, int]:
    """The run saved by :func:`write_training_checkpoint` and the epoch it resumes at;
    ``TrainRun()`` at epoch 0 for a checkpoint with no ``run`` section, such as a
    model saved by ``save_checkpoint``. The section records neither ``max_steps`` nor
    ``checkpoint_every``, so they are ``TrainRun()``'s."""
    start = meta.get("next_epoch", 0)
    if not is_count(start):
        raise ConfigError(f"checkpoint next_epoch must be a count, got {start!r}")
    if "run" not in meta:
        return TrainRun(), start
    section = meta["run"]
    if not (isinstance(section, dict) and section.keys() == {*RUN_FIELDS, "match_threshold"}):
        raise ConfigError(f"checkpoint run section must be an object of keys {RUN_FIELDS} "
                          f"and match_threshold, got {section!r}")
    try:
        return TrainRun(**{k: section[k] for k in RUN_FIELDS}), start
    except ArgumentError as exc:
        raise ConfigError(f"checkpoint run section: {exc}") from None


def load_optimizer(meta: dict, extras: dict, named_params: dict[str, Tensor]) -> AdamState:
    """Adam state saved by :func:`write_training_checkpoint`.

    Once a step has run, every named parameter needs both moments at its own
    shape: a resume from zero-filled moments would not repeat the run. Settings
    or moments no update could take are refused before training writes anything.
    """
    info = meta.get("optimizer", {})
    if not isinstance(info, dict):
        raise ConfigError("checkpoint optimizer section must be a JSON object")
    state = AdamState(**{name: info.get(name, getattr(AdamState, name)) for name in ADAM_SETTINGS})
    rates = (state.learning_rate, state.beta1, state.beta2, state.eps)
    if not (all(map(is_finite_real, rates)) and state.learning_rate > 0 and state.eps > 0
            and 0 <= state.beta1 < 1 and 0 <= state.beta2 < 1):
        raise ConfigError("checkpoint optimizer needs learning_rate > 0, eps > 0 and "
                          f"betas in [0, 1), got {rates}")
    if not is_count(state.step):
        raise ConfigError(f"checkpoint optimizer step must be a count, got {state.step!r}")
    for name, tensor in named_params.items():
        for key, moments in ((f"adam.m.{name}", state.first_moment),
                             (f"adam.v.{name}", state.second_moment)):
            arr = extras.get(key)
            if arr is None and state.step == 0:
                continue
            if arr is None or arr.shape != tensor.shape:
                raise ConfigError(
                    f"checkpoint at optimizer step {state.step} needs {key} of shape "
                    f"{tensor.shape}, found {None if arr is None else arr.shape}"
                )
            if not np.all(np.isfinite(arr)) or (moments is state.second_moment and np.any(arr < 0)):
                raise ConfigError(f"checkpoint {key} must be finite, and >= 0 for a second moment")
            moments[name] = arr.astype(np.float32)
    return state
