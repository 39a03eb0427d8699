import dataclasses
import gc
import weakref
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_labels, toy_hyper, toy_pair
from reference_ops import add, logsumexp, sub, total

from pillarmatch import autodiff as ad
from pillarmatch import learn
from pillarmatch.autodiff import Tensor, grad_check
from pillarmatch.errors import ArgumentError, ConfigError, NumericError
from pillarmatch.learn import (
    AdamState,
    TrainRun,
    adam_step,
    compute_loss,
    load_optimizer,
    load_run,
    match_metrics,
    train,
    write_training_checkpoint,
)
from pillarmatch.network import ModelParameters, load_checkpoint
from pillarmatch.pipeline import batch_assignments
from pillarmatch.transport import AssignmentMatrix, MatchSet, extract_matches


def assign_from_log(log_p, grad=False):
    return AssignmentMatrix(
        log_p=Tensor(np.asarray(log_p, dtype=np.float64), requires_grad=grad),
    )


def one_hot_log(n, m, matched, unmatched_rows=(), unmatched_cols=()):
    """Log-domain assignment putting (almost) all mass on the labeled cells."""
    tiny = -700.0
    log_p = np.full((n + 1, m + 1), tiny)
    for i, j in matched:
        log_p[i, j] = 0.0
    for i in unmatched_rows:
        log_p[i, m] = 0.0
    for j in unmatched_cols:
        log_p[n, j] = 0.0
    return log_p


def uniform_log(n, m):
    return np.full((n + 1, m + 1), -np.log(n + 1.0))


# ---------------------------------------------------------------------------
# NLL
# ---------------------------------------------------------------------------

def test_nll_zero_on_certain_assignment():
    labels = synthetic_labels(3, 3, matched={(0, 0), (1, 1)}, unmatched_rows={2})
    log_p = one_hot_log(3, 3, labels.matched, labels.unmatched_rows)
    loss = compute_loss("nll", assign_from_log(log_p), labels)
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_nll_uniform_closed_form():
    n = 5
    labels = synthetic_labels(n, n, matched={(0, 1), (2, 2), (4, 0)}, unmatched_rows={1})
    g = 4  # three matches plus one dustbin row cell
    loss = compute_loss("nll", assign_from_log(uniform_log(n, n)), labels)
    assert loss.item() == pytest.approx(g * np.log(n + 1.0), rel=1e-12)


def test_nll_ignores_ignored_indices():
    from pillarmatch.cloud import CorrespondenceLabels

    with_ignored = CorrespondenceLabels(
        matched=frozenset({(0, 0)}), unmatched_rows=frozenset({1}),
        unmatched_cols=frozenset(), ignored_rows=frozenset({2, 3}),
        ignored_cols=frozenset({1, 2, 3}),
    )
    without = CorrespondenceLabels(
        matched=frozenset({(0, 0)}), unmatched_rows=frozenset({1}),
        unmatched_cols=frozenset(), ignored_rows=frozenset(),
        ignored_cols=frozenset(),
    )
    log_p = np.log(np.full((5, 5), 0.2))
    a = compute_loss("nll", assign_from_log(log_p), with_ignored).item()
    b = compute_loss("nll", assign_from_log(log_p), without).item()
    assert a == b


def test_nll_empty_labels_error():
    labels = synthetic_labels(2, 2, matched=set())
    with pytest.raises(ArgumentError):
        compute_loss("nll", assign_from_log(uniform_log(2, 2)), labels)


def test_nll_nonnegative_on_sinkhorn_output(rng):
    from pillarmatch.transport import sinkhorn

    labels = synthetic_labels(4, 4, matched={(0, 0), (1, 2)}, unmatched_rows={3})
    assign = sinkhorn(Tensor(rng.normal(size=(5, 5))), iterations=50)
    assert compute_loss("nll", assign, labels).item() >= -1e-6


# ---------------------------------------------------------------------------
# NLLP
# ---------------------------------------------------------------------------

def test_nllp_no_unmatched_equals_nll(rng):
    labels = synthetic_labels(4, 4, matched={(0, 1), (2, 3)})
    log_p = rng.normal(size=(5, 5))
    nll = compute_loss("nll", assign_from_log(log_p), labels).item()
    nllp = compute_loss("nllp", assign_from_log(log_p), labels).item()
    assert nllp == pytest.approx(nll, rel=1e-12)


def test_nllp_zero_penalty_when_row_on_dustbin():
    labels = synthetic_labels(3, 3, matched={(0, 0)}, unmatched_rows={1})
    log_p = one_hot_log(3, 3, labels.matched, labels.unmatched_rows)
    loss = compute_loss("nllp", assign_from_log(log_p), labels)
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_nllp_uniform_row_penalty_brute_force():
    n = 4
    labels = synthetic_labels(n, n, matched={(0, 0)}, unmatched_rows={1, 2})
    log_p = uniform_log(n, n)
    loss = compute_loss("nllp", assign_from_log(log_p), labels).item()

    # independent evaluation of the same formula on the raw arrays
    base = -(log_p[0, 0] + log_p[1, n] + log_p[2, n])
    penalty = sum(
        -log_p[i, n] + np.log(np.exp(log_p[i, :]).sum()) for i in (1, 2)
    )
    assert loss == pytest.approx(base + penalty, rel=1e-12)
    assert loss >= -1e-9


def test_nllp_rows_only_variant_excludes_dustbin():
    n = 4
    labels = synthetic_labels(n, n, matched={(0, 0)}, unmatched_rows={1})
    log_p = uniform_log(n, n)
    loss = compute_loss("nllp", assign_from_log(log_p), labels,
                        penalty_excludes_dustbin=True).item()
    base = -(log_p[0, 0] + log_p[1, n])
    penalty = -log_p[1, n] + np.log(np.exp(log_p[1, :n]).sum())
    assert loss == pytest.approx(base + penalty, rel=1e-12)
    # uniform row: the restricted log-sum evaluates to log(n) - log(n+1) + log(n+1)
    assert penalty == pytest.approx(np.log(n), rel=1e-12)


def test_nllp_at_least_nll_with_default_penalty(rng):
    labels = synthetic_labels(4, 4, matched={(0, 0)}, unmatched_rows={1, 3})
    log_p = rng.normal(size=(5, 5))
    nll = compute_loss("nll", assign_from_log(log_p), labels).item()
    nllp = compute_loss("nllp", assign_from_log(log_p), labels).item()
    assert nllp >= nll - 1e-6


# ---------------------------------------------------------------------------
# DCE
# ---------------------------------------------------------------------------

def test_dce_zero_on_one_hot():
    labels = synthetic_labels(3, 3, matched={(0, 0), (1, 1)}, unmatched_rows={2},
                              unmatched_cols={2})
    log_p = one_hot_log(3, 3, labels.matched, labels.unmatched_rows, labels.unmatched_cols)
    loss = compute_loss("dce", assign_from_log(log_p), labels).item()
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_dce_uniform_closed_form():
    n = 6
    matched = {(0, 0), (1, 3), (4, 2)}
    labels = synthetic_labels(n, n, matched=matched)
    loss = compute_loss("dce", assign_from_log(uniform_log(n, n)), labels).item()
    assert loss == pytest.approx(2 * len(matched) * np.log(n + 1.0), rel=1e-12)


def test_dce_decreases_when_mass_moves_to_gt():
    labels = synthetic_labels(3, 3, matched={(0, 0)})
    worse = uniform_log(3, 3).copy()
    better = worse.copy()
    better[0, 0] += 0.5
    better[0, 1] -= 0.5
    a = compute_loss("dce", assign_from_log(worse), labels).item()
    b = compute_loss("dce", assign_from_log(better), labels).item()
    assert b < a


def test_dce_nonnegative(rng):
    labels = synthetic_labels(4, 4, matched={(0, 1), (2, 0)}, unmatched_rows={3},
                              unmatched_cols={3})
    for _ in range(20):
        log_p = rng.normal(size=(5, 5)) * 3.0
        assert compute_loss("dce", assign_from_log(log_p), labels).item() >= 0.0


# ---------------------------------------------------------------------------
# gather-based reference losses
# ---------------------------------------------------------------------------
# The losses as they were written before the one-node routine: a gather per
# supervised cell class, tape ops for every sum and log-sum-exp. They stay
# here as independent references for values and gradients.

def ref_gather_pairs(x, rows, cols):
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    out = ad._node(x.data[r, c], (x,), "gather_pairs")
    if out.requires_grad:
        def back(grad):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, (r, c), grad)
        out._backward = back
    return out


def ref_first_columns(x, count):
    out = ad._node(x.data[:, :count].copy(), (x,), "narrow")
    if out.requires_grad:
        def back(grad):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[:, :count] += grad
        out._backward = back
    return out


def ref_cells(labels, n, m):
    rows = [i for i, _ in sorted(labels.matched)] + sorted(labels.unmatched_rows)
    cols = [j for _, j in sorted(labels.matched)] + [m] * len(labels.unmatched_rows)
    rows += [n] * len(labels.unmatched_cols)
    cols += sorted(labels.unmatched_cols)
    return np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)


def ref_nll(log_p, labels):
    n, m = log_p.shape[0] - 1, log_p.shape[1] - 1
    return sub(Tensor(0.0), total(ref_gather_pairs(log_p, *ref_cells(labels, n, m))))


def ref_nllp(log_p, labels, penalty_excludes_dustbin):
    base = ref_nll(log_p, labels)
    unmatched = np.asarray(sorted(labels.unmatched_rows), dtype=np.intp)
    if not len(unmatched):
        return base
    m = log_p.shape[1] - 1
    rows = log_p.gather_rows(unmatched)
    if penalty_excludes_dustbin:
        rows = ref_first_columns(rows, m)
    dust = ref_gather_pairs(log_p, unmatched, np.full(len(unmatched), m, dtype=np.intp))
    return add(base, total(sub(logsumexp(rows, axis=1), dust)))


def ref_dce(log_p, labels):
    n, m = log_p.shape[0] - 1, log_p.shape[1] - 1
    matched = labels.matched_array
    un_rows = np.asarray(sorted(labels.unmatched_rows), dtype=np.intp)
    un_cols = np.asarray(sorted(labels.unmatched_cols), dtype=np.intp)
    row_idx = np.concatenate([matched[:, 0], un_rows])
    row_cell_cols = np.concatenate([matched[:, 1], np.full(len(un_rows), m)])
    col_idx = np.concatenate([matched[:, 1], un_cols])
    col_cell_rows = np.concatenate([matched[:, 0], np.full(len(un_cols), n)])
    terms = []
    if len(row_idx):
        terms.append(sub(total(logsumexp(log_p, axis=1).gather_rows(row_idx)),
                         total(ref_gather_pairs(log_p, row_idx, row_cell_cols))))
    if len(col_idx):
        terms.append(sub(total(logsumexp(log_p, axis=0).gather_rows(col_idx)),
                         total(ref_gather_pairs(log_p, col_cell_rows, col_idx))))
    return reduce(add, terms)


REFERENCE_LOSSES = {
    "nll": (ref_nll, partial(compute_loss, "nll")),
    "nllp": (lambda x, labels: ref_nllp(x, labels, False), partial(compute_loss, "nllp")),
    "nllp-rows-only": (lambda x, labels: ref_nllp(x, labels, True),
                       partial(compute_loss, "nllp", penalty_excludes_dustbin=True)),
    "dce": (ref_dce, partial(compute_loss, "dce")),
}


def random_labels(rng, n, m):
    """One-to-one matches plus unmatched and ignored rows and columns; each
    of the three supervised classes is empty about a third of the time."""
    while True:
        rows, cols = rng.permutation(n), rng.permutation(m)
        k = 0 if rng.random() < 1 / 3 else int(rng.integers(1, min(n, m) + 1))
        matched = set(zip(rows[:k].tolist(), cols[:k].tolist()))
        un_rows = set() if rng.random() < 1 / 3 else {
            int(i) for i in rows[k:] if rng.random() < 0.6}
        un_cols = set() if rng.random() < 1 / 3 else {
            int(j) for j in cols[k:] if rng.random() < 0.6}
        labels = synthetic_labels(n, m, matched, un_rows, un_cols)
        if labels.total_cells():
            return labels


@pytest.mark.parametrize("kind", sorted(REFERENCE_LOSSES))
def test_losses_match_gather_references(kind, rng):
    reference, loss = REFERENCE_LOSSES[kind]
    for _ in range(200):
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        labels = random_labels(rng, n, m)
        log_p = rng.normal(size=(n + 1, m + 1)) * 3.0
        expected = Tensor(log_p.copy(), requires_grad=True)
        want = reference(expected, labels)
        want.backward()
        actual = assign_from_log(log_p, grad=True)
        got = loss(actual, labels)
        got.backward()
        assert got.item() == pytest.approx(want.item(), rel=1e-12, abs=1e-12)
        scale = max(np.abs(expected.grad).max(), 1.0)
        np.testing.assert_allclose(actual.log_p.grad, expected.grad, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("kind", learn.LOSS_KINDS)
def test_each_loss_is_one_tape_node(kind, monkeypatch, rng):
    labels = synthetic_labels(4, 4, matched={(0, 1), (2, 3)}, unmatched_rows={1},
                              unmatched_cols={0})
    assign = assign_from_log(rng.normal(size=(5, 5)), grad=True)
    calls = []
    record = ad._node
    monkeypatch.setattr(ad, "_node", lambda *args: calls.append(args[2]) or record(*args))
    compute_loss(kind, assign, labels)
    assert calls == ["assignment_loss"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", sorted(REFERENCE_LOSSES))
def test_stacked_loss_equals_sequential_sum_of_matrix_losses(kind, dtype, monkeypatch, rng):
    # one node for the stack; its value is the per-matrix losses added in
    # stack order in the stack's dtype, times 1 / B, and its gradient their
    # gradients stacked, each times that factor, bit for bit
    loss = REFERENCE_LOSSES[kind][1]
    # 8 and more matrices: numpy's own sum would add those pairwise
    for n, m, batch in ((3, 5, 6), (12, 9, 9), (32, 32, 8)):
        labels = [random_labels(rng, n, m) for _ in range(batch)]
        data = (rng.normal(size=(batch, n + 1, m + 1)) * 3.0).astype(dtype)
        stack = AssignmentMatrix(Tensor(data.copy(), requires_grad=True))
        calls = []
        record = ad._node
        monkeypatch.setattr(ad, "_node", lambda *args: calls.append(args[2]) or record(*args))
        stacked = loss(stack, labels)
        monkeypatch.undo()
        assert calls == ["assignment_loss"]
        stacked.backward()
        singles = [AssignmentMatrix(Tensor(matrix.copy(), requires_grad=True)) for matrix in data]
        values = [loss(single, one) for single, one in zip(singles, labels)]
        expected = values[0].data
        for value in values[1:]:
            expected = expected + value.data
        for value in values:
            value.backward()
        factor = np.ones((), dtype) * (1.0 / batch)
        mean = np.asarray(expected * (1.0 / batch))
        assert mean.dtype == factor.dtype == dtype
        assert stacked.data.dtype == dtype and stacked.data.tobytes() == mean.tobytes()
        assert stack.log_p.grad.dtype == dtype
        np.testing.assert_array_equal(stack.log_p.grad,
                                      [factor * single.log_p.grad for single in singles])


@pytest.mark.parametrize("count", [0, 2, 4])
def test_stacked_loss_needs_one_labels_per_matrix(count):
    labels = synthetic_labels(3, 3, matched={(0, 1)}, unmatched_rows={2})
    stack = AssignmentMatrix(Tensor(np.stack([uniform_log(3, 3)] * 3)))
    with pytest.raises(ArgumentError):
        compute_loss("nll", stack, [labels] * count)


def test_step_equals_per_pair_reference(monkeypatch):
    # the step's loss is the mean of its pairs' losses, up to float32 rounding
    # against adding them pair by pair; the gradients and each pair's metrics
    # stay the pair's own, in input order
    pairs = [toy_pair(seed=40 + i) for i in range(5)]
    params = ModelParameters.initialize(toy_hyper(), seed=6)
    named = params.named_parameters()
    step_grads = {}
    monkeypatch.setattr(learn, "adam_step", lambda named, state: step_grads.update(
        {name: tensor.grad.copy() for name, tensor in named.items()}))
    run = TrainRun(batch_size=len(pairs), loss_kind="nllp")
    loss, metrics = learn._train_step(pairs, run, params, named, AdamState())

    assign = batch_assignments(params, pairs, train=True)
    matrices = [AssignmentMatrix(assign.log_p.gather_rows(b)) for b in range(len(pairs))]
    terms = [compute_loss("nllp", matrix, pair.labels) for matrix, pair in zip(matrices, pairs)]
    total_loss = reduce(add, terms)
    params.zero_grad()
    total_loss.backward(1.0 / len(pairs))
    assert loss == pytest.approx(total_loss.item() / len(pairs), rel=1e-6)
    for name, tensor in named.items():
        scale = np.abs(tensor.grad).max()
        np.testing.assert_allclose(step_grads[name], tensor.grad, rtol=1e-6, atol=1e-6 * scale)
    assert metrics == [
        match_metrics(extract_matches(matrix, params.hyper.match_threshold), pair.labels)
        for pair, matrix in zip(pairs, matrices)]


@pytest.mark.parametrize("labels", [
    synthetic_labels(3, 3, matched=set()),
    synthetic_labels(3, 3, matched={(4, 0)}),
    synthetic_labels(3, 3, matched={(0, 0)}, unmatched_cols={4}),
    synthetic_labels(3, 3, matched={(0, 0)}, unmatched_rows={-1}),
    synthetic_labels(3, 3, matched={(3, 0)}),
    synthetic_labels(3, 3, matched={(0, 0)}, unmatched_cols={3}),
], ids=["empty", "row-outside", "column-outside", "negative-row", "row-at-dustbin",
        "column-at-dustbin"])
@pytest.mark.parametrize("kind", learn.LOSS_KINDS)
def test_loss_label_errors(kind, labels):
    with pytest.raises(ArgumentError):
        compute_loss(kind, assign_from_log(uniform_log(3, 3)), labels)


# ---------------------------------------------------------------------------
# loss gradients through the full pipeline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["nll", "nllp", "dce"])
def test_loss_gradients_through_pipeline(kind):
    hyper = toy_hyper()
    params = ModelParameters.initialize(hyper, seed=7, dtype=np.float64)
    pair = toy_pair(seed=6, hyper=hyper)

    def objective():
        assign = batch_assignments(params, [pair], train=True)
        return compute_loss(kind, assign, [pair.labels])

    named = params.named_parameters()
    subset = [named[k] for k in [
        "pillar.weight", "positional.2.weight", "attention.0.projection",
        "attention.1.output", "project.weight", "dustbin.score",
    ]]
    # h=1e-4: pipeline objectives are larger than single layers, so the
    # cancellation noise of central differences needs the bigger step
    assert grad_check(objective, subset, step=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    state = AdamState(learning_rate=0.1)
    adam_step({"p": p}, state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_constant_gradient_limit():
    # with a constant gradient the bias-corrected update tends to lr * sign(g)
    p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
    state = AdamState(learning_rate=1e-3)
    for _ in range(200):
        p.grad = np.array([2.5])
        adam_step({"p": p}, state)
    assert p.data[0] == pytest.approx(-200 * 1e-3, rel=0.02)


def test_adam_nonfinite_gradient_aborts():
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError):
        adam_step({"p": p}, AdamState())


def test_adam_defaults_match_convention():
    state = AdamState()
    assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)
    assert state.learning_rate == 1e-4


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_match_metrics_perfect_prediction():
    labels = synthetic_labels(4, 4, matched={(0, 0), (1, 1)}, unmatched_rows={2},
                              unmatched_cols={2})
    matches = MatchSet(pairs=((0, 0, 0.9), (1, 1, 0.9)), unmatched_rows=(2, 3),
                       unmatched_cols=(2, 3))
    metrics = match_metrics(matches, labels)
    assert metrics["precision"] == 1.0
    assert metrics["accuracy"] == 1.0


def test_match_metrics_ignored_pairs_not_judged():
    labels = synthetic_labels(4, 4, matched={(0, 0)})
    # (3, 3) involves ignored indices on both sides: not judged
    matches = MatchSet(pairs=((0, 0, 0.9), (3, 3, 0.5)), unmatched_rows=(1, 2),
                       unmatched_cols=(1, 2))
    metrics = match_metrics(matches, labels)
    assert metrics["judged"] == 1
    assert metrics["precision"] == 1.0


def test_match_metrics_empty_prediction():
    labels = synthetic_labels(3, 3, matched={(0, 0)})
    matches = MatchSet(pairs=(), unmatched_rows=(0, 1, 2), unmatched_cols=(0, 1, 2))
    metrics = match_metrics(matches, labels)
    assert metrics["precision"] == 0.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def small_dataset(count=4, seed0=20):
    hyper = toy_hyper()
    return hyper, [toy_pair(seed=seed0 + k, hyper=hyper) for k in range(count)]


def test_train_deterministic_histories():
    hyper, pairs = small_dataset()
    run = TrainRun(epochs=2, batch_size=2, seed=5, loss_kind="nll", learning_rate=1e-3)
    a = train(pairs, run, hyper)
    b = train(pairs, run, hyper)
    assert a.history == b.history
    for name, tensor in a.params.named_parameters().items():
        np.testing.assert_array_equal(tensor.data, b.params.named_parameters()[name].data)


def test_train_loss_decreases_on_small_problem():
    hyper, pairs = small_dataset(count=2)
    run = TrainRun(epochs=8, batch_size=2, seed=1, loss_kind="nllp", learning_rate=2e-3)
    result = train(pairs, run, hyper)
    assert result.history[-1]["loss"] < result.history[0]["loss"]


def test_train_single_step_decreases_batch_loss():
    # tiny learning rate: one Adam step against a fixed batch reduces that batch's loss
    hyper, pairs = small_dataset(count=1)
    params = ModelParameters.initialize(hyper, seed=3, dtype=np.float64)

    def batch_loss():
        assign = batch_assignments(params, pairs, train=True)
        return compute_loss("nll", assign, [pairs[0].labels])

    before = batch_loss()
    params.zero_grad()
    before.backward()
    state = AdamState(learning_rate=1e-6)
    adam_step(params.named_parameters(), state)
    after = batch_loss()
    assert after.item() < before.item()


def test_train_frees_each_step_tape_before_the_next(monkeypatch):
    # at the start of every forward pass, no earlier step's log_p may be alive:
    # otherwise peak memory holds two tapes
    hyper, pairs = small_dataset(count=6)
    refs, alive_at_start = [], []

    def watched(*args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in refs))
        assign = batch_assignments(*args, **kwargs)
        refs.append(weakref.ref(assign.log_p))
        return assign

    monkeypatch.setattr(learn, "batch_assignments", watched)
    run = TrainRun(epochs=1, batch_size=2, seed=4, loss_kind="nllp", learning_rate=1e-3)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        train(pairs, run, hyper)
    finally:
        if was_enabled:
            gc.enable()
    assert alive_at_start == [0, 0, 0] and len(refs) == 3


def test_train_rejects_empty_dataset():
    hyper = toy_hyper()
    with pytest.raises(ArgumentError):
        train([], TrainRun(epochs=1), hyper)


def test_train_refuses_pairs_of_several_key_point_counts_before_writing(tmp_path):
    hyper, pairs = small_dataset(count=2)
    pairs.append(toy_pair(seed=30, hyper=toy_hyper(src_keypoints=5)))
    run_dir = tmp_path / "run"
    with pytest.raises(ArgumentError, match=r"\(4, 4\), \(5, 4\)"):
        train(pairs, TrainRun(epochs=1), hyper, run_dir=run_dir)
    assert not run_dir.exists()


def test_train_max_steps_stops_early():
    hyper, pairs = small_dataset(count=4)
    run = TrainRun(epochs=50, batch_size=2, seed=2, loss_kind="nll", max_steps=3)
    result = train(pairs, run, hyper)
    assert result.steps == 3


def test_train_max_steps_counts_the_steps_of_a_resumed_optimizer(tmp_path):
    hyper, pairs = small_dataset(count=4)
    run = TrainRun(epochs=50, batch_size=2, seed=2, loss_kind="nll", max_steps=2)
    first = train(pairs, run, hyper)
    assert first.steps == 2 and len(first.history) == 1
    weights = {name: t.data.copy() for name, t in first.params.named_parameters().items()}
    # resumed at the cap: no epoch starts, and the final checkpoint resumes where this began
    run_dir = tmp_path / "run"
    resumed = train(pairs, run, hyper, params=first.params, optimizer=first.optimizer,
                    start_epoch=1, run_dir=run_dir)
    assert resumed.steps == resumed.optimizer.step == 2 and resumed.history == []
    assert all(np.array_equal(t.data, weights[name])
               for name, t in resumed.params.named_parameters().items())
    assert not (run_dir / "history.jsonl").exists()
    _, meta, _ = load_checkpoint(run_dir / "checkpoint_final.pmc")
    assert meta["next_epoch"] == 1 and meta["optimizer"]["step"] == 2


def test_train_batch_order_invariant_loss():
    # the batch loss is a mean over pairs: order inside the batch cannot matter
    hyper, pairs = small_dataset(count=3)
    params = ModelParameters.initialize(hyper, seed=11, dtype=np.float64)

    def batch_loss(ordering):
        batch = [pairs[i] for i in ordering]
        assign = batch_assignments(params, batch, train=True)
        return compute_loss("nll", assign, [pair.labels for pair in batch]).item()

    assert batch_loss([0, 1, 2]) == pytest.approx(batch_loss([2, 0, 1]), rel=1e-9)


# ---------------------------------------------------------------------------
# optimizer resume
# ---------------------------------------------------------------------------

def trained_checkpoint(tmp_path):
    hyper, pairs = small_dataset(count=2)
    run = TrainRun(epochs=1, batch_size=2, seed=4, loss_kind="nll", learning_rate=1e-3)
    result = train(pairs, run, hyper)
    path = tmp_path / "checkpoint.pmc"
    write_training_checkpoint(path, result.params, run, result.optimizer, 1)
    return path, result.optimizer


def test_load_optimizer_restores_every_moment(tmp_path):
    path, saved = trained_checkpoint(tmp_path)
    params, meta, extras = load_checkpoint(path)
    state = load_optimizer(meta, extras, params.named_parameters())
    assert state.step == saved.step == 1
    assert state.first_moment.keys() == params.named_parameters().keys()
    for name in saved.first_moment:
        np.testing.assert_array_equal(state.first_moment[name], saved.first_moment[name])
        np.testing.assert_array_equal(state.second_moment[name], saved.second_moment[name])


@pytest.mark.parametrize("defect", ["missing-first", "missing-second", "misshapen"])
def test_load_optimizer_requires_every_moment_after_a_step(tmp_path, defect):
    path, _ = trained_checkpoint(tmp_path)
    params, meta, extras = load_checkpoint(path)
    if defect == "missing-first":
        del extras["adam.m.pillar.weight"]
    elif defect == "missing-second":
        del extras["adam.v.dustbin.score"]
    else:
        extras["adam.v.project.weight"] = extras["adam.v.project.weight"][:2]
    with pytest.raises(ConfigError, match="adam"):
        load_optimizer(meta, extras, params.named_parameters())


def test_load_optimizer_without_steps_needs_no_moments():
    params = ModelParameters.initialize(toy_hyper(), seed=0)
    state = load_optimizer({"optimizer": {"step": 0}}, {}, params.named_parameters())
    assert state.step == 0 and state.first_moment == {} and state.second_moment == {}
    fresh = load_optimizer({}, {}, params.named_parameters())
    assert fresh == AdamState()


# Written by the release that stored query, key and value weights per head
# (commit e92d235): one nll step of toy_hyper() at learning rate 1e-3, seed
# 4, batch 2, on toy pairs 0 and 1. That release resumed it for one more
# epoch to a loss of 9.0579252243042.
PER_HEAD_CHECKPOINT = Path(__file__).parent / "fixtures" / "toy_training_per_head.pmc"


def test_per_head_checkpoint_loads_rewrites_byte_identical_and_resumes(tmp_path):
    params, meta, extras = load_checkpoint(PER_HEAD_CHECKPOINT)
    named = params.named_parameters()
    optimizer = load_optimizer(meta, extras, named)
    assert optimizer.step == 1
    assert optimizer.first_moment.keys() == optimizer.second_moment.keys() == named.keys()
    # the run's match threshold is the network's, recorded in its hyper manifest
    run = TrainRun(**{k: v for k, v in meta["run"].items() if k != "match_threshold"})
    path = tmp_path / "rewritten.pmc"
    write_training_checkpoint(path, params, run, optimizer, meta["next_epoch"])
    assert path.read_bytes() == PER_HEAD_CHECKPOINT.read_bytes()
    assert load_run(meta) == (run, meta["next_epoch"])
    pairs = [toy_pair(seed=s, hyper=params.hyper) for s in (0, 1)]
    resumed = train(pairs, dataclasses.replace(run, epochs=2), params.hyper, params=params,
                    optimizer=optimizer, start_epoch=meta["next_epoch"])
    assert resumed.steps == 2
    assert resumed.history[-1]["loss"] == pytest.approx(9.0579252243042, rel=1e-6)


@pytest.mark.parametrize("optimizer", [
    {"step": "3"}, {"step": -1}, {"step": 1.5}, {"learning_rate": "fast"}, [1],
])
def test_load_optimizer_bad_settings_are_config_errors(optimizer):
    params = ModelParameters.initialize(toy_hyper(), seed=0)
    with pytest.raises(ConfigError):
        load_optimizer({"optimizer": optimizer}, {}, params.named_parameters())


def test_train_steps_at_the_run_learning_rate_and_records_it_once(tmp_path):
    # a given optimizer takes the run's rate: both checkpoint sections record the
    # rate Adam used, and the update is that of a run started at it
    hyper, pairs = small_dataset(count=2)
    run = TrainRun(epochs=1, batch_size=2, seed=4, loss_kind="nll", learning_rate=2e-3)
    given = train(pairs, run, hyper, optimizer=AdamState(learning_rate=1e-3), run_dir=tmp_path)
    fresh = train(pairs, run, hyper)
    _, meta, _ = load_checkpoint(tmp_path / "checkpoint_final.pmc")
    assert meta["run"]["learning_rate"] == meta["optimizer"]["learning_rate"] == 2e-3
    for name, tensor in given.params.named_parameters().items():
        np.testing.assert_array_equal(tensor.data, fresh.params.named_parameters()[name].data)


def test_load_run_reads_the_recorded_run_and_defaults_a_model_checkpoint(tmp_path):
    hyper, pairs = small_dataset(count=2)
    run = TrainRun(dataset_id="toy", epochs=3, batch_size=1, seed=7, loss_kind="dce",
                   learning_rate=5e-4, max_steps=1, nllp_penalty_excludes_dustbin=True)
    train(pairs, run, hyper, run_dir=tmp_path)
    _, meta, _ = load_checkpoint(tmp_path / "checkpoint_final.pmc")
    # max_steps and checkpoint_every are not recorded
    assert load_run(meta) == (dataclasses.replace(run, max_steps=None), 1)
    assert load_run({"hyper": meta["hyper"]}) == (TrainRun(), 0)


@pytest.mark.parametrize("edit", [
    {"run": [1]}, {"run": None}, {"extra": 1}, {"batch_size": "2"}, {"batch_size": 0},
    {"epochs": 1.5}, {"loss_kind": "bogus"}, {"seed": -1}, {"learning_rate": 0},
    {"dataset_id": 3}, {"nllp_penalty_excludes_dustbin": 1},
    {"next_epoch": -1}, {"next_epoch": 1.5},
], ids=lambda edit: "-".join(f"{k}={v!r}" for k, v in edit.items()))
def test_load_run_malformed_is_config_error(edit):
    meta = {"run": {**{k: getattr(TrainRun(), k) for k in learn.RUN_FIELDS},
                    "match_threshold": 0.2}, "next_epoch": 1}
    assert load_run(meta) == (TrainRun(), 1)
    for key, value in edit.items():
        (meta if key in ("run", "next_epoch") else meta["run"])[key] = value
    with pytest.raises(ConfigError):
        load_run(meta)
