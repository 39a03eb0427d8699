import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import add

from pillarmatch import autodiff as ad
from pillarmatch.autodiff import BatchNormState, Tensor, grad_check, linear, linear_batchnorm_relu
from pillarmatch.errors import ArgumentError, NumericError, ShapeError
from pillarmatch.network import attention
from pillarmatch.transport import sinkhorn


def t(values, grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_identity_passthrough():
    x = t([[1.0, 2.0], [3.0, -4.0]])
    out = linear(x, t(np.eye(2)))
    np.testing.assert_array_equal(out.data, x.data)


def test_linear_hand_value():
    # rows of the weight are output units: [1*1+1*2, 1*1-1*2] = [3, -1]
    out = linear(t([1.0, 2.0]), t([[1.0, 1.0], [1.0, -1.0]]))
    np.testing.assert_allclose(out.data, [3.0, -1.0])


def test_linear_shape_mismatch():
    with pytest.raises(ShapeError):
        linear(t(np.zeros((5, 3))), t(np.zeros((2, 4))))


def test_linear_batched_grad_check_and_rows(rng):
    x = t(rng.normal(size=(2, 3, 5)))
    w = t(rng.normal(size=(4, 5)))
    assert grad_check(lambda: linear(x, w), [x, w]) < 1e-6
    # each leading index is the 2-D op on its own rows
    out = linear(x, w)
    for b in range(2):
        np.testing.assert_allclose(out.data[b], linear(t(x.data[b]), w).data,
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_residual_equals_linear_then_add_bit_for_bit(rng, dtype):
    # the fused residual against the two-node reference, in value and in
    # the gradient of each of x, weight and residual
    x, w, r = (Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
               for shape in [(2, 3, 5), (4, 5), (2, 3, 4)])
    cotangent = rng.normal(size=(2, 3, 4)).astype(dtype)
    results = []
    for f in (lambda: linear(x, w, r), lambda: add(r, linear(x, w))):
        for p in (x, w, r):
            p.zero_grad()
        out = f()
        out.backward(cotangent)
        assert {out.dtype, x.grad.dtype, w.grad.dtype, r.grad.dtype} == {np.dtype(dtype)}
        results.append([a.tobytes() for a in (out.data, x.grad, w.grad, r.grad)])
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# softmax, as computed inside network.attention
# ---------------------------------------------------------------------------

def softmax_rows(x: Tensor) -> Tensor:
    """Row softmax of a 2-D ``x`` read out of ``attention``: the queries'
    projection is ``[x | 0 | 0]``, and identity keys and values in the
    sources' make the scores ``x`` itself and return the weights."""
    m = x.shape[1]
    eye, zero = np.eye(m), np.zeros((m, m))
    queries = linear(x, t(np.vstack([eye, zero, zero]), grad=False))
    return attention(queries, t(np.hstack([zero, eye, eye]), grad=False), depth=1)


def test_softmax_symmetry():
    out = softmax_rows(t([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data[0], [0.5, 0.5])


def test_softmax_overflow_stability():
    out = softmax_rows(t([[1000.0, 0.0]]))
    np.testing.assert_allclose(out.data[0], [1.0, 0.0])


def test_softmax_matches_direct_formula(rng):
    x = rng.normal(size=5)
    expected = np.exp(x) / np.exp(x).sum()
    out = softmax_rows(t(x[None, :]))
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2, max_size=8),
)
def test_softmax_rows_sum_to_one(values):
    out = softmax_rows(Tensor(np.array([values], dtype=np.float64)))
    assert abs(out.data.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# encoder block: linear, batch-norm, ReLU
# ---------------------------------------------------------------------------

def batchnorm_relu(x, state, train):
    """The block with an identity weight: batch-norm then ReLU of ``x``."""
    return linear_batchnorm_relu(x, t(np.eye(x.shape[1]), grad=False), state, train)


def test_batchnorm_constant_channel_gives_shift():
    state = BatchNormState.create(2, dtype=np.float64)
    state.beta.data = np.array([0.5, -0.5])
    x = t(np.ones((4, 2)) * 3.0)
    out = batchnorm_relu(x, state, train=True)
    # normalized constants are zero, so the output is relu(beta)
    np.testing.assert_allclose(out.data, np.tile([0.5, 0.0], (4, 1)))


def test_batchnorm_eval_identity_stats():
    state = BatchNormState.create(3, dtype=np.float64)
    x = t(np.array([[1.0, -2.0, 0.5], [-1.0, 3.0, 0.0]]))
    out = batchnorm_relu(x, state, train=False)
    # off by the 1/sqrt(1 + eps) normalization factor only
    np.testing.assert_allclose(out.data, np.maximum(x.data, 0.0), rtol=1e-5)


def test_batchnorm_train_moments(rng):
    state = BatchNormState.create(4, dtype=np.float64)
    # a standardized value of 64 samples lies within sqrt(63) < 10 of zero,
    # so a shift of 10 keeps the ReLU from clipping
    state.beta.data = np.full(4, 10.0)
    x = t(rng.normal(2.0, 3.0, size=(64, 4)))
    out = batchnorm_relu(x, state, train=True)
    np.testing.assert_allclose(out.data.mean(axis=0), 10.0, atol=1e-6)
    np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-4)


def test_batchnorm_train_needs_batch():
    state = BatchNormState.create(2, dtype=np.float64)
    with pytest.raises(ArgumentError):
        batchnorm_relu(t(np.ones((1, 2))), state, train=True)


def test_batchnorm_running_stats_update():
    state = BatchNormState.create(1, dtype=np.float64)
    x = t(np.array([[0.0], [10.0]]))
    batchnorm_relu(x, state, train=True)
    np.testing.assert_allclose(state.running_mean, [0.5])  # 0.9*0 + 0.1*5
    batch_var = 25.0
    np.testing.assert_allclose(state.running_var, [0.9 + 0.1 * batch_var])


@pytest.mark.parametrize("train", [True, False])
def test_block_matches_numpy_relu_batchnorm_linear(rng, train):
    x, w = t(rng.normal(size=(7, 5))), t(rng.normal(size=(3, 5)))
    state = BatchNormState.create(3, dtype=np.float64)
    state.gamma.data, state.beta.data = rng.normal(1.0, 0.2, size=3), rng.normal(size=3)
    state.running_mean, state.running_var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    running = state.running_mean.copy(), state.running_var.copy()
    out = linear_batchnorm_relu(x, w, state, train)

    y = x.data @ w.data.T
    mean, var = (y.mean(axis=0), y.var(axis=0)) if train else running
    expected = np.maximum((y - mean) / np.sqrt(var + 1e-5) * state.gamma.data
                          + state.beta.data, 0.0)
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
    assert out._parents == (x, w, state.gamma, state.beta)
    if not train:
        np.testing.assert_array_equal(state.running_mean, running[0])
        np.testing.assert_array_equal(state.running_var, running[1])


def test_block_shapes_checked():
    state = BatchNormState.create(3, dtype=np.float64)
    with pytest.raises(ShapeError):
        linear_batchnorm_relu(t(np.zeros((2, 4, 5))), t(np.zeros((3, 5))), state, True)
    with pytest.raises(ShapeError):
        linear_batchnorm_relu(t(np.zeros((4, 5))), t(np.zeros((2, 5))), state, True)
    with pytest.raises(ShapeError):
        linear_batchnorm_relu(t(np.zeros((4, 5))), t(np.zeros((3, 4))), state, True)


def test_block_refuses_non_finite_values_before_the_relu_and_stats():
    # a NumericError, not a numpy overflow warning
    state = BatchNormState.create(1, dtype=np.float64)
    with pytest.raises(NumericError):
        # an overflowing product is -inf before the ReLU, which would make it 0
        linear_batchnorm_relu(t([[-1e200], [1.0]]), t([[1e200]]), state, train=False)
    with pytest.raises(NumericError):
        # an overflowing variance normalizes to zeros, but must not reach the stats
        linear_batchnorm_relu(t([[1e200], [-1e200]]), t([[1.0]]), state, train=True)
    np.testing.assert_array_equal(state.running_mean, [0.0])
    np.testing.assert_array_equal(state.running_var, [1.0])
    state.running_var = np.array([-1.0])
    with pytest.raises(NumericError):
        linear_batchnorm_relu(t([[1.0], [2.0]]), t([[1.0]]), state, train=False)


# ---------------------------------------------------------------------------
# grad_check on every layer type
# ---------------------------------------------------------------------------

def test_grad_check_square():
    x = t([[3.0]])
    err = grad_check(lambda: linear(x, x), [x])
    assert err < 1e-10


def test_grad_check_constant():
    # x < 0: the ReLU output is constant in x, and c does not depend on x at all
    x = t([-1.0, -2.0])
    c = t([5.0, 6.0], grad=False)
    identity = t(np.eye(2), grad=False)
    assert grad_check(lambda: linear(x.relu(), identity, c), [x]) < 1e-10
    assert grad_check(lambda: c, [x]) < 1e-10
    assert x.grad is None
    x.relu().backward()
    np.testing.assert_array_equal(x.grad, 0.0)


def mirrored_backward(x):
    """An identity op whose backward sends each output's gradient to the
    element mirrored along the last axis: wrong unless that gradient is."""
    out = ad._node(x.data.copy(), (x,), "mirrored")
    if out.requires_grad:
        out._backward = lambda grad: x._accumulate(grad[..., ::-1])
    return out


def test_grad_check_sees_a_misrouted_gradient_that_a_sum_hides(rng):
    x = t(rng.normal(size=(3, 4)))
    # a random cotangent tells the mirrored gradient from the true one
    assert grad_check(lambda: mirrored_backward(x), [x]) > 0.5
    # an all-ones cotangent, the gradient of a plain sum, is symmetric
    x.zero_grad()
    mirrored_backward(x).backward()
    np.testing.assert_array_equal(x.grad, 1.0)


def scalar_grad_check(f, params, step=1e-5):
    """Reference for a size-1 output: ``backward()`` with its default seed
    against central differences of ``f()`` itself, with no cotangent."""
    for p in params:
        p.zero_grad()
    f().backward()
    worst = 0.0
    for p in params:
        flat, grad = p.data.reshape(-1), p.grad.reshape(-1).copy()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(f().data)
            flat[i] = orig - step
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            worst = max(worst, abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8))
    return worst


def test_grad_check_of_a_scalar_output_is_the_scalar_objective_error():
    # a size-1 output takes an all-ones cotangent, which leaves the scalar
    # objective's error unchanged bit for bit
    m = t([[0.3, -1.2, 2.5], [1.7, 0.4, -0.9]])

    def cell():
        return sinkhorn(m, iterations=5).log_p.gather_rows(1).gather_rows(2)

    expected = scalar_grad_check(cell, [m])
    assert expected > 0.0
    assert grad_check(cell, [m]) == expected


@pytest.mark.parametrize("op_name", [
    "linear", "linear_residual", "relu", "softmax", "gather", "batchnorm_train", "batchnorm_eval",
])
def test_grad_check_layers(op_name, rng):
    a = t(rng.normal(size=(4, 5)))
    w = t(rng.normal(size=(6, 5)))
    r = t(rng.normal(size=(4, 6)))
    v = t(rng.normal(size=(5, 5)))
    state = BatchNormState.create(5, dtype=np.float64)
    state.gamma.data = rng.normal(1.0, 0.1, size=5)
    state.beta.data = rng.normal(size=5)

    cases = {
        "linear": (lambda: linear(a, w), [a, w]),
        "linear_residual": (lambda: linear(a, w, r), [a, w, r]),
        "relu": (lambda: a.relu(), [a]),
        "softmax": (lambda: softmax_rows(a), [a]),
        "gather": (lambda: a.gather_rows([2, 0, 2]), [a]),
        "batchnorm_train": (lambda: linear_batchnorm_relu(a, v, state, train=True),
                            [a, v, state.gamma, state.beta]),
        "batchnorm_eval": (lambda: linear_batchnorm_relu(a, v, state, train=False),
                           [a, v, state.gamma, state.beta]),
    }
    fn, params = cases[op_name]
    assert grad_check(fn, params) < 1e-4


# ---------------------------------------------------------------------------
# tape contract and guards
# ---------------------------------------------------------------------------

def squared_norm(x):
    """``linear(x, x)`` of a one-row ``x``: the (1, 1) sum of its squares."""
    return linear(x, x)


def test_backward_twice_rejected():
    x = t([[1.0, 2.0]])
    out = squared_norm(x)
    out.backward()
    with pytest.raises(RuntimeError):
        out.backward()


def test_gradients_accumulate_across_separate_tapes():
    x = t([[1.0, 2.0]])
    squared_norm(x).backward()
    first = x.grad.copy()
    squared_norm(x).backward()
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_first_gradient_is_a_copy_in_the_tensors_dtype():
    # linear hands its output's gradient array on to the residual, which
    # may alias neither that array nor the seed
    x, r = (Tensor(np.zeros((1, 3), dtype=np.float32), requires_grad=True) for _ in range(2))
    out = linear(x, Tensor(np.eye(3, dtype=np.float32)), r)
    seed = np.ones((1, 3), dtype=np.float32)
    out.backward(seed)
    assert out.grad.dtype == r.grad.dtype == np.float32
    assert not np.shares_memory(r.grad, out.grad) and not np.shares_memory(r.grad, seed)
    r.grad += 1.0
    np.testing.assert_array_equal(out.grad, 1.0)
    np.testing.assert_array_equal(seed, 1.0)
    incoming = np.full(3, 2.0)
    c = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    c._accumulate(incoming)
    assert c.grad.dtype == np.float32 and not np.shares_memory(c.grad, incoming)


def test_nonfinite_output_raises():
    x = t([[1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        linear(x, t([[1.0]]), x)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_a_tensor_of_size_one_whatever_its_shape(shape):
    assert Tensor(np.full(shape, 2.5, dtype=np.float32)).item() == 2.5


@pytest.mark.parametrize("shape", [(0,), (2,), (1, 3)])
def test_item_of_a_tensor_of_another_size_is_a_shape_error_naming_the_shape(shape):
    with pytest.raises(ShapeError, match=re.escape(str(shape))):
        Tensor(np.zeros(shape)).item()


def test_shape_mismatch_add():
    # linear's residual must have the output's shape; nothing broadcasts
    with pytest.raises(ShapeError, match="residual"):
        linear(t(np.zeros((2, 2))), t(np.eye(2)), t(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match="residual"):
        linear(t(np.zeros((2, 2))), t(np.eye(2)), t(np.zeros(2)))


def test_grad_check_requires_float64():
    x = Tensor(np.zeros((1, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ArgumentError):
        grad_check(lambda: linear(x, x), [x])


def test_no_grad_records_no_tape():
    x = t([[1.0, 2.0]])
    with ad.no_grad():
        out = squared_norm(x)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    np.testing.assert_array_equal(out.data, [[5.0]])


def test_no_grad_recording_resumes_after_block_and_exception():
    x = t([[1.0, 2.0]])
    with ad.no_grad():
        pass
    assert linear(x, x)._parents == (x, x)
    with pytest.raises(ValueError), ad.no_grad():
        raise ValueError("inside the block")
    out = squared_norm(x)
    out.backward()
    np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])


def test_deep_chain_backward_is_iterative():
    # longer than the default recursion limit would allow recursively
    x = t([[1.0]])
    one = t([[1.0]], grad=False)
    out = x
    for _ in range(3000):
        out = linear(one, one, out)
    out.backward()
    np.testing.assert_array_equal(out.data, [[3001.0]])
    np.testing.assert_array_equal(x.grad, [[1.0]])
