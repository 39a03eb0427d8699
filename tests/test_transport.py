import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_pair
from reference_ops import logsumexp, sub

from pillarmatch import autodiff as ad
from pillarmatch.autodiff import Tensor, grad_check
from pillarmatch.cloud import SceneConfig
from pillarmatch.errors import ArgumentError, NumericError, ShapeError
from pillarmatch.network import HyperParams, ModelParameters
from pillarmatch.pipeline import batch_assignments, match_pair
from pillarmatch.transport import (
    AssignmentMatrix,
    _log_marginals,
    _scaling_sinkhorn,
    augment_dustbin,
    extract_matches,
    marginal_deviation,
    mutual_argmax,
    score_matrix,
    sinkhorn,
    write_assignment_csv,
)


def t(values, grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


def brute_sinkhorn_alternating(matrix, iterations):
    """Independent oracle: probability-domain row then column normalization."""
    p = np.exp(np.asarray(matrix, dtype=np.float64))
    for _ in range(iterations):
        p = p / p.sum(axis=1, keepdims=True)
        p = p / p.sum(axis=0, keepdims=True)
    return p


# ---------------------------------------------------------------------------
# score matrix and dustbin
# ---------------------------------------------------------------------------

def test_score_matrix_orthonormal_identity():
    desc = np.eye(3)
    out = score_matrix(t(desc), t(desc))
    np.testing.assert_allclose(out.data, np.eye(3))


def test_score_matrix_zero_row(rng):
    a = rng.normal(size=(3, 4))
    a[1] = 0.0
    out = score_matrix(t(a), t(rng.normal(size=(5, 4))))
    np.testing.assert_array_equal(out.data[1], 0.0)


def test_score_matrix_matches_brute_force(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
    out = score_matrix(t(a), t(b))
    np.testing.assert_allclose(out.data, a @ b.T, atol=1e-10)


def test_score_matrix_depth_mismatch():
    with pytest.raises(ShapeError):
        score_matrix(t(np.zeros((3, 4))), t(np.zeros((3, 5))))


def test_augment_dustbin_tiny():
    out = augment_dustbin(t([[7.0]]), t(0.0))
    np.testing.assert_array_equal(out.data, [[7.0, 0.0], [0.0, 0.0]])


def test_augment_dustbin_full_size(rng):
    raw = rng.normal(size=(100, 100))
    out = augment_dustbin(t(raw), t(1.5))
    assert out.shape == (101, 101)
    np.testing.assert_array_equal(out.data[:100, :100], raw)
    np.testing.assert_array_equal(out.data[100, :], 1.5)
    np.testing.assert_array_equal(out.data[:, 100], 1.5)


def test_dustbin_gradient_sums_over_cells(rng):
    raw = t(rng.normal(size=(4, 5)), grad=True)
    w = t(0.7, grad=True)
    weights = rng.normal(size=(5, 6))
    assert grad_check(lambda: augment_dustbin(raw, w), [w, raw]) < 1e-6
    w.zero_grad()
    augment_dustbin(raw, w).backward(weights)
    dust_weight_sum = weights[-1, :].sum() + weights[:-1, -1].sum()
    assert w.grad == pytest.approx(dust_weight_sum, rel=1e-12)


@pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5)])
def test_augment_dustbin_is_one_node_matching_numpy(rng, shape):
    raw, w = t(rng.normal(size=shape), grad=True), t(-0.4, grad=True)
    out = augment_dustbin(raw, w)
    pad = [(0, 0)] * (len(shape) - 2) + [(0, 1), (0, 1)]
    np.testing.assert_array_equal(out.data, np.pad(raw.data, pad, constant_values=-0.4))
    assert out._parents == (raw, w)
    assert grad_check(lambda: augment_dustbin(raw, w), [raw, w]) < 1e-6


def test_dustbin_gradient_sums_column_then_row_in_a_fixed_order(rng):
    # float32 sums depend on their order: the column cells are summed over
    # every leading axis at once, the row cells over the leading axes and
    # then along the row, and the column part comes first
    n, m = 5, 6
    raw = Tensor(rng.normal(size=(8, n, m)).astype(np.float32), requires_grad=True)
    w = Tensor(np.float32(0.5), requires_grad=True)
    grad = rng.normal(size=(8, n + 1, m + 1)).astype(np.float32)
    augment_dustbin(raw, w).backward(grad)
    col = np.ascontiguousarray(grad[:, :n, m:]).sum(axis=(0, 1))
    row = np.ascontiguousarray(grad[:, n:, :]).sum(axis=(0, 1)).sum(keepdims=True)
    assert w.grad.dtype == np.float32
    assert w.grad.tobytes() == (col + row).reshape(()).tobytes()
    np.testing.assert_array_equal(raw.grad, grad[:, :n, :m])


# ---------------------------------------------------------------------------
# sinkhorn
# ---------------------------------------------------------------------------

def test_sinkhorn_uniform_matrix_fixed_point():
    out = sinkhorn(t(np.zeros((2, 2))), iterations=5)
    np.testing.assert_allclose(out.probabilities, 0.5, atol=1e-12)


def test_sinkhorn_square_constant_fixed_point():
    out = sinkhorn(t(np.full((7, 7), 3.2)), iterations=3)
    np.testing.assert_allclose(out.probabilities, 1.0 / 7.0, atol=1e-12)


def test_sinkhorn_diag_dominant_matches_oracle():
    matrix = np.array([[10.0, 0.0], [0.0, 10.0]])
    out = sinkhorn(t(matrix), iterations=100)
    oracle = brute_sinkhorn_alternating(matrix, 100)
    np.testing.assert_allclose(out.probabilities, oracle, atol=1e-10)
    assert out.probabilities[0, 0] >= 0.99
    assert out.probabilities[1, 1] >= 0.99


def test_sinkhorn_random_matches_oracle(rng):
    matrix = rng.uniform(-4.0, 4.0, size=(6, 6))
    out = sinkhorn(t(matrix), iterations=50)
    oracle = brute_sinkhorn_alternating(matrix, 50)
    np.testing.assert_allclose(out.probabilities, oracle, atol=1e-9)


def test_sinkhorn_doubly_stochastic_101(rng):
    matrix = rng.uniform(-10.0, 10.0, size=(101, 101))
    out = sinkhorn(t(matrix), iterations=100)
    probs = out.probabilities
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
    np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-5)
    assert np.all(out.log_p.data <= 1e-9)


def test_sinkhorn_deviation_non_increasing(rng):
    matrix = rng.uniform(-10.0, 10.0, size=(33, 33))
    deviations = [
        marginal_deviation(sinkhorn(t(matrix), iterations=k).log_p.data)
        for k in range(1, 61)
    ]
    diffs = np.diff(deviations)
    assert np.all(diffs <= 1e-9)


@pytest.mark.parametrize("marginals", ["uniform", "dustbin-weighted"])
def test_marginal_deviation_of_a_stack_is_the_largest_per_matrix(rng, marginals):
    log_p = sinkhorn(t(rng.uniform(-5.0, 5.0, size=(2, 3, 6, 5))), iterations=2,
                     marginals=marginals).log_p.data
    targets = (None, None) if marginals == "uniform" else _log_marginals(6, 5, marginals,
                                                                       np.float64)
    per_matrix = [marginal_deviation(matrix, *targets) for matrix in log_p.reshape(6, 6, 5)]
    assert len(set(per_matrix)) == 6
    assert marginal_deviation(log_p, *targets) == max(per_matrix)


def test_sinkhorn_simultaneous_mode_matches_printed_update(rng):
    matrix = rng.normal(size=(4, 4))
    out = sinkhorn(t(matrix), iterations=1, mode="simultaneous")
    r = np.log(np.exp(matrix).sum(axis=1, keepdims=True))
    c = np.log(np.exp(matrix).sum(axis=0, keepdims=True))
    np.testing.assert_allclose(out.log_p.data, matrix - r - c, atol=1e-12)


def test_sinkhorn_differentiable(rng):
    matrix = t(rng.normal(size=(5, 5)), grad=True)
    assert grad_check(lambda: sinkhorn(matrix, iterations=10).log_p, [matrix]) < 1e-4


def unrolled_sinkhorn(augmented, iterations, mode="alternating", marginals="uniform"):
    """Reference: the iterations as generic tape ops, one node per operation."""
    log_mu, log_nu = _log_marginals(*augmented.shape, marginals, augmented.dtype)
    mu, nu = Tensor(log_mu), Tensor(log_nu)
    current = augmented
    for _ in range(iterations):
        row_fix = sub(logsumexp(current, axis=1, keepdims=True), mu)
        col_source = current
        current = sub(current, row_fix)
        if mode == "alternating":
            col_source = current
        col_fix = sub(logsumexp(col_source, axis=0, keepdims=True), nu)
        current = sub(current, col_fix)
    return current


def value_and_grad(run, matrix, weights):
    """``(log_p, input gradient)`` of ``run`` on ``matrix`` under the
    objective ``sum(log_p * weights)``."""
    augmented = Tensor(matrix.copy(), requires_grad=True)
    log_p = run(augmented)
    log_p.backward(weights)
    return log_p.data, augmented.grad


def fused_and_unrolled(matrix, weights, iterations, **kwargs):
    """``(log_p, input gradient)`` of the op and of the unrolled reference."""
    return [value_and_grad(run, matrix, weights)
            for run in (lambda a: sinkhorn(a, iterations, **kwargs).log_p,
                        lambda a: unrolled_sinkhorn(a, iterations, **kwargs))]


def unrolled_float64(matrix, weights, iterations, **kwargs):
    """``(log_p, input gradient)`` of the unrolled reference run in float64
    on the same input values."""
    return value_and_grad(lambda a: unrolled_sinkhorn(a, iterations, **kwargs),
                          matrix.astype(np.float64), weights.astype(np.float64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,marginals", [((33, 33), "uniform"), ((101, 101), "uniform"),
                                             ((9, 14), "dustbin-weighted")])
def test_sinkhorn_alternating_matches_float64_unrolled(rng, dtype, shape, marginals):
    # the op runs in float64 scaling form: it matches the float64 unrolled
    # tape to rounding, and in float32 it stays within the output's rounding
    matrix = rng.uniform(-10.0, 10.0, size=shape).astype(dtype)
    weights = rng.normal(size=shape).astype(dtype)
    fused, fused_grad = value_and_grad(lambda a: sinkhorn(a, 100, marginals=marginals).log_p,
                                       matrix, weights)
    ref, ref_grad = unrolled_float64(matrix, weights, 100, marginals=marginals)
    assert fused.dtype == fused_grad.dtype == dtype
    if dtype == np.float64:
        assert np.max(np.abs(fused - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(fused_grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
    else:
        assert np.max(np.abs(fused - ref)) <= 4e-6
        assert np.max(np.abs(fused_grad - ref_grad)) <= 1e-6


@pytest.mark.parametrize("marginals", ["uniform", "dustbin-weighted"])
def test_sinkhorn_simultaneous_matches_unrolled(rng, marginals):
    matrix = rng.uniform(-4.0, 4.0, size=(12, 17))
    weights = rng.normal(size=(12, 17))
    (fused, fused_grad), (ref, ref_grad) = fused_and_unrolled(
        matrix, weights, 7, mode="simultaneous", marginals=marginals)
    np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fused_grad, ref_grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode,marginals", [("simultaneous", "uniform"),
                                            ("alternating", "dustbin-weighted"),
                                            ("simultaneous", "dustbin-weighted")])
def test_sinkhorn_grad_check_modes_and_marginals(rng, mode, marginals):
    matrix = t(rng.normal(size=(5, 6)), grad=True)

    def objective():
        return sinkhorn(matrix, iterations=6, mode=mode, marginals=marginals).log_p

    assert grad_check(objective, [matrix]) < 1e-4


def test_sinkhorn_is_one_tape_node(rng):
    augmented = t(rng.normal(size=(4, 5)), grad=True)
    log_p = sinkhorn(augmented, iterations=20).log_p
    assert log_p._parents == (augmented,)
    frozen = sinkhorn(t(rng.normal(size=(4, 5))), iterations=20).log_p
    assert frozen._parents == () and not frozen.requires_grad


def test_sinkhorn_rejects_bad_input():
    with pytest.raises(ArgumentError):
        sinkhorn(t(np.zeros((2, 2))), iterations=0)
    bad = Tensor.__new__(Tensor)
    bad.data = np.array([[np.inf, 0.0], [0.0, 0.0]])
    bad.grad = None
    bad.requires_grad = False
    bad._parents = ()
    bad._backward = None
    bad._back_done = False
    with pytest.raises(NumericError):
        sinkhorn(bad, iterations=1)


def test_sinkhorn_dustbin_weighted_marginals(rng):
    matrix = rng.normal(size=(5, 7))  # 4x6 real + dustbin
    out = sinkhorn(t(matrix), iterations=200, marginals="dustbin-weighted")
    p = out.probabilities
    n, m = 4, 6
    total = n + m
    np.testing.assert_allclose(p.sum(axis=1)[:n], 1.0 / total, atol=1e-6)
    assert p.sum(axis=1)[n] == pytest.approx(m / total, abs=1e-6)
    np.testing.assert_allclose(p.sum(axis=0)[:m], 1.0 / total, atol=1e-6)
    assert p.sum(axis=0)[m] == pytest.approx(n / total, abs=1e-6)


# ---------------------------------------------------------------------------
# batched stacks: one independent matrix per leading index
# ---------------------------------------------------------------------------

def test_score_and_dustbin_batched_grad_check(rng):
    a, b = t(rng.normal(size=(2, 3, 4)), grad=True), t(rng.normal(size=(2, 5, 4)), grad=True)
    w = t(0.3, grad=True)
    assert grad_check(lambda: augment_dustbin(score_matrix(a, b), w), [a, b, w]) < 1e-6
    out = augment_dustbin(score_matrix(a, b), w)
    for k in range(2):
        single = augment_dustbin(score_matrix(t(a.data[k]), t(b.data[k])), w)
        np.testing.assert_array_equal(out.data[k], single.data)
    with pytest.raises(ShapeError):
        score_matrix(a, t(rng.normal(size=(3, 5, 4))))


@pytest.mark.parametrize("mode", ["alternating", "simultaneous"])
@pytest.mark.parametrize("marginals", ["uniform", "dustbin-weighted"])
def test_sinkhorn_batched_grad_check(rng, mode, marginals):
    matrix = t(rng.normal(size=(2, 5, 6)), grad=True)

    def objective():
        return sinkhorn(matrix, iterations=6, mode=mode, marginals=marginals).log_p

    assert grad_check(objective, [matrix]) < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["alternating", "simultaneous"])
@pytest.mark.parametrize("marginals", ["uniform", "dustbin-weighted"])
def test_sinkhorn_batched_bit_identical_to_per_slice(rng, dtype, mode, marginals):
    stack = rng.uniform(-10.0, 10.0, size=(3, 9, 14)).astype(dtype)
    weights = rng.normal(size=stack.shape).astype(dtype)

    def run(matrix, w):
        augmented = Tensor(matrix.copy(), requires_grad=True)
        log_p = sinkhorn(augmented, 50, mode=mode, marginals=marginals).log_p
        log_p.backward(w)
        return log_p.data, augmented.grad

    batched, batched_grad = run(stack, weights)
    assert batched.shape == stack.shape and batched.dtype == batched_grad.dtype == dtype
    for k in range(len(stack)):
        single, single_grad = run(stack[k], weights[k])
        np.testing.assert_array_equal(batched[k], single)
        np.testing.assert_array_equal(batched_grad[k], single_grad)


# ---------------------------------------------------------------------------
# inference: alternating Sinkhorn in stabilised scaling form
# ---------------------------------------------------------------------------

def recorded_log_p(matrix, iterations, marginals="uniform"):
    """``log_p`` of a call that records a tape."""
    return sinkhorn(Tensor(matrix.copy(), requires_grad=True), iterations,
                    marginals=marginals).log_p.data


def clear_mutual_pairs(log_p, ref, margin):
    """``mutual_argmax`` pairs of ``log_p`` in the rows and columns where the
    best entry of ``ref`` leads its runner-up by more than ``margin``."""
    top_rows = np.sort(ref, axis=1)[:, -2:]
    top_cols = np.sort(ref, axis=0)[-2:]
    rows_clear = top_rows[:, 1] - top_rows[:, 0] > margin
    cols_clear = top_cols[1] - top_cols[0] > margin
    rows, cols = mutual_argmax(log_p)
    keep = rows_clear[rows] & cols_clear[cols]
    return set(zip(rows[keep].tolist(), cols[keep].tolist()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(min_value=-1.0, max_value=3.0), st.sampled_from(["uniform", "dustbin-weighted"]),
       st.sampled_from([np.float32, np.float64]), st.sampled_from([(9, 14), (3, 9, 14), (101, 101)]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_inference_sinkhorn_agrees_with_recording_path_or_falls_back(log_spread, marginals, dtype,
                                                                     shape, seed):
    matrix = np.random.default_rng(seed).uniform(-0.5, 0.5, size=shape) * 10.0 ** log_spread
    matrix = matrix.astype(dtype)
    ref = recorded_log_p(matrix, 100, marginals)
    out = sinkhorn(Tensor(matrix), 100, marginals=marginals).log_p.data
    scaled = _scaling_sinkhorn(matrix, 100, marginals)
    assert out.dtype == ref.dtype == dtype
    for k in np.ndindex(shape[:-2]):
        if not np.all(np.isfinite(scaled[k])):
            np.testing.assert_array_equal(out[k], ref[k])  # the log-domain fallback
            continue
        np.testing.assert_array_equal(out[k], scaled[k])
        tol = 1e-5 * np.max(np.abs(ref[k]))
        assert np.max(np.abs(out[k].astype(np.float64) - ref[k])) <= tol
        # saturated plans tie at log_p = 0 to rounding; a tie may break either way
        assert clear_mutual_pairs(out[k], ref[k], 2 * tol) == clear_mutual_pairs(ref[k], ref[k],
                                                                                2 * tol)


def test_inference_sinkhorn_matches_mutual_argmax_on_well_separated_scores(rng):
    # a planted permutation with a clear lead: no ties, so the readouts are equal
    scores = rng.uniform(-2.0, 2.0, size=(101, 101))
    scores[np.arange(100), rng.permutation(100)] += 8.0
    for dtype in (np.float32, np.float64):
        matrix = scores.astype(dtype)
        out = sinkhorn(Tensor(matrix), 100).log_p.data
        ref = recorded_log_p(matrix, 100)
        for a, b in zip(mutual_argmax(out), mutual_argmax(ref)):
            np.testing.assert_array_equal(a, b)


def test_inference_sinkhorn_absorbs_drifting_scalings(rng):
    # rows and columns carry masses 4 and 41 under uniform marginals, so u and
    # v drift apart by a factor of about 41/4 per iteration while the plan
    # stays bounded: after 400 iterations they are far outside float64 unless
    # absorbed into the potentials
    matrix = rng.normal(size=(4, 41))
    scaled = _scaling_sinkhorn(matrix, 400, "uniform")
    ref = recorded_log_p(matrix, 400)
    assert np.all(np.isfinite(scaled))
    assert np.max(np.abs(scaled - ref)) <= 1e-12 * np.max(np.abs(ref))


def underflowing_matrix(rng, shape=(9, 14)):
    """Scores whose row 3 lies 1000 below the rest: ``exp(S - max S)`` loses
    that row entirely, so the scaling form cannot normalise it."""
    matrix = rng.normal(size=shape)
    matrix[..., 3, :] -= 1000.0
    return matrix


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inference_sinkhorn_fallback_is_the_log_domain_loop(rng, dtype):
    matrix = underflowing_matrix(rng).astype(dtype)
    assert not np.any(np.isfinite(_scaling_sinkhorn(matrix, 50, "uniform")))
    out = sinkhorn(Tensor(matrix), 50).log_p.data
    assert np.all(np.isfinite(out))
    np.testing.assert_array_equal(out, recorded_log_p(matrix, 50))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("marginals", ["uniform", "dustbin-weighted"])
def test_inference_sinkhorn_batched_bit_identical_to_per_slice(rng, dtype, marginals):
    stack = rng.uniform(-10.0, 10.0, size=(4, 9, 14)).astype(dtype)
    stack[2] = underflowing_matrix(rng)  # one matrix falls back, the others do not
    with ad.no_grad():
        batched = sinkhorn(Tensor(stack, requires_grad=True), 50, marginals=marginals).log_p
        singles = [sinkhorn(Tensor(matrix), 50, marginals=marginals).log_p.data
                   for matrix in stack]
    assert not batched.requires_grad and batched.data.dtype == dtype
    for k, single in enumerate(singles):
        np.testing.assert_array_equal(batched.data[k], single)
    np.testing.assert_array_equal(batched.data[2], recorded_log_p(stack[2], 50, marginals))


def kernel_count(matrix, iterations, marginals="uniform"):
    """Distinct kernels a recording call on ``matrix`` keeps: 1 + absorptions."""
    segments = []
    _scaling_sinkhorn(matrix, iterations, marginals, segments)
    return len({id(kernel) for kernel, _ in segments})


@pytest.mark.parametrize("shape,scale,iterations", [((4, 41), 1.0, 400), ((3, 9, 14), 60.0, 100)])
def test_sinkhorn_recording_absorbs_and_matches_float64_unrolled(rng, shape, scale, iterations):
    # (4, 41): masses 4 and 41 make the scalings drift apart every iteration;
    # x60: the plan saturates and the scalings leave e^50 within ten iterations
    matrix = rng.normal(size=shape) * scale
    weights = rng.normal(size=shape)
    assert kernel_count(matrix, iterations) > 2
    fused, fused_grad = value_and_grad(lambda a: sinkhorn(a, iterations).log_p, matrix, weights)
    for k in np.ndindex(shape[:-2]):
        ref, ref_grad = unrolled_float64(matrix[k], weights[k], iterations)
        assert np.max(np.abs(fused[k] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(fused_grad[k] - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("marginals", ["uniform", "dustbin-weighted"])
def test_sinkhorn_recording_fallback_batched_bit_identical_to_per_slice(rng, dtype, marginals):
    stack = rng.uniform(-10.0, 10.0, size=(4, 9, 14)).astype(dtype)
    stack[2] = underflowing_matrix(rng)  # one matrix falls back, the others do not
    stack[3] *= 60.0                     # and one absorbs
    weights = rng.normal(size=stack.shape).astype(dtype)

    def run(matrix, w):
        return value_and_grad(lambda a: sinkhorn(a, 50, marginals=marginals).log_p, matrix, w)

    batched, batched_grad = run(stack, weights)
    assert batched.dtype == batched_grad.dtype == dtype
    assert np.all(np.isfinite(batched)) and np.all(np.isfinite(batched_grad))
    for k in range(len(stack)):
        single, single_grad = run(stack[k], weights[k])
        np.testing.assert_array_equal(batched[k], single)
        np.testing.assert_array_equal(batched_grad[k], single_grad)
    # the fallback and its backward are the log-domain loop, in the input's dtype
    ref, ref_grad = value_and_grad(lambda a: unrolled_sinkhorn(a, 50, marginals=marginals),
                                   stack[2], weights[2])
    np.testing.assert_array_equal(batched[2], ref)
    np.testing.assert_array_equal(batched_grad[2], ref_grad)


def test_match_pair_equals_recording_batch_assignments_on_a_desk_pair():
    hyper = HyperParams(src_keypoints=32, tgt_keypoints=32, pillar_points=32, feature_depth=32,
                        attention_heads=8, attention_layers=6, sinkhorn_iterations=100)
    scene = SceneConfig(point_count=1500, overlap=0.9, rotation_bound=0.02,
                        translation_bound=0.15, noise_sigma=0.002, window=10.0,
                        width=6.0, pole_count=10)
    pair = toy_pair(seed=100, hyper=hyper, scene=scene)
    params = ModelParameters.initialize(hyper, seed=0)
    batch = batch_assignments(params, [pair])
    assert batch.log_p.requires_grad
    np.testing.assert_array_equal(match_pair(params, pair).assignment.log_p.data,
                                  batch.log_p.data[0])


def test_inference_sinkhorn_rejects_non_finite_input():
    for value in (np.inf, np.nan):
        bad = Tensor.__new__(Tensor)
        bad.data = np.array([[value, 0.0], [0.0, 0.0]])
        bad.grad = None
        bad.requires_grad = True
        bad._parents = ()
        bad._backward = None
        bad._back_done = False
        with ad.no_grad(), pytest.raises(NumericError):
            sinkhorn(bad, iterations=1)


# ---------------------------------------------------------------------------
# match extraction
# ---------------------------------------------------------------------------

def assign_from_probs(probs):
    probs = np.asarray(probs, dtype=np.float64)
    return AssignmentMatrix(log_p=t(np.log(probs + 1e-300)))


def test_extract_identity_permutation():
    probs = np.full((4, 4), 0.01)
    for i in range(3):
        probs[i, i] = 0.9
    matches = extract_matches(assign_from_probs(probs), threshold=0.2)
    assert matches.index_pairs == {(0, 0), (1, 1), (2, 2)}


def test_extract_dustbin_row_unmatched():
    probs = np.array(
        [[0.1, 0.1, 0.8],
         [0.8, 0.1, 0.1],
         [0.1, 0.8, 0.1]]
    )
    matches = extract_matches(assign_from_probs(probs), threshold=0.2)
    assert 0 in matches.unmatched_rows
    assert (1, 0) in matches.index_pairs


def test_extract_mutual_argmax_one_to_one(rng):
    for _ in range(50):
        probs = rng.uniform(size=(5, 5))
        matches = extract_matches(assign_from_probs(probs), threshold=0.0)
        rows = [i for i, _, _ in matches.pairs]
        cols = [j for _, j, _ in matches.pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        # brute-force definition of mutual argmax over the full matrix
        expected = set()
        for i in range(4):
            j = int(np.argmax(probs[i]))
            if j < 4 and int(np.argmax(probs[:, j])) == i:
                expected.add((i, j))
        assert matches.index_pairs == expected
    # equal probabilities: the lowest index wins in row and column argmaxes
    tie = np.array([[0.4, 0.4, 0.2], [0.4, 0.4, 0.2], [0.1, 0.1, 0.1]])
    matches = extract_matches(assign_from_probs(tie), threshold=0.0)
    assert matches.index_pairs == {(0, 0)}
    assert matches.unmatched_rows == (1,) and matches.unmatched_cols == (1,)


def test_extract_shift_invariant_structure(rng):
    log_p = rng.normal(size=(6, 6))
    base = extract_matches(AssignmentMatrix(log_p=t(log_p)), threshold=0.0)
    shifted = extract_matches(AssignmentMatrix(log_p=t(log_p - 3.7)), threshold=0.0)
    assert base.index_pairs == shifted.index_pairs
    assert base.unmatched_rows == shifted.unmatched_rows


def test_extract_threshold_validated():
    with pytest.raises(ArgumentError):
        extract_matches(assign_from_probs(np.ones((2, 2)) / 4), threshold=1.5)


def test_assignment_csv_export(tmp_path):
    probs = np.full((3, 3), 0.25)
    path = tmp_path / "assign.csv"
    write_assignment_csv(path, assign_from_probs(probs))
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["", "0", "1", "dustbin"]
    assert len(lines) == 4
    assert lines[-1].startswith("dustbin")


def _batch_of_two():
    """The ``(2, n+1, m+1)`` assignment stack ``batch_assignments`` returns."""
    hyper = HyperParams(src_keypoints=4, tgt_keypoints=4, pillar_points=4, feature_depth=8,
                        attention_heads=2, attention_layers=1, sinkhorn_iterations=5,
                        positional_hidden=(8,))
    pairs = [toy_pair(seed=k, hyper=hyper) for k in range(2)]
    with ad.no_grad():
        return batch_assignments(ModelParameters.initialize(hyper, seed=0), pairs)


@pytest.mark.parametrize("assign", [
    _batch_of_two, lambda: assign_from_probs(np.full(4, 0.25)),
    lambda: assign_from_probs(np.zeros((0, 3))),
], ids=["batch-stack", "vector", "no-rows"])
@pytest.mark.parametrize("read", [
    lambda assign, path: extract_matches(assign),
    lambda assign, path: write_assignment_csv(path, assign),
], ids=["extract_matches", "write_assignment_csv"])
def test_readouts_refuse_anything_but_one_assignment_matrix(tmp_path, assign, read):
    assign = assign()
    path = tmp_path / "assign.csv"
    with pytest.raises(ShapeError, match=re.escape(str(assign.log_p.shape))):
        read(assign, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# property: doubly stochastic for random sizes
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=32, max_value=128), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sinkhorn_square_always_doubly_stochastic(size, seed):
    # convergence rate depends on the matrix; the 1e-5 bound holds for the
    # working sizes (tiny matrices with extreme entries can need more passes)
    matrix = np.random.default_rng(seed).uniform(-10.0, 10.0, size=(size, size))
    out = sinkhorn(t(matrix), iterations=100)
    assert marginal_deviation(out.log_p.data) < 1e-5
