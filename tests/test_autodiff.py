import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarmatch import autodiff as ad
from pillarmatch.autodiff import BatchNormState, Tensor, batchnorm, batchnorm_relu, grad_check, linear
from pillarmatch.errors import ArgumentError, NumericError, ShapeError
from pillarmatch.network import attention


def t(values, grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_identity_passthrough():
    x = t([[1.0, 2.0], [3.0, -4.0]])
    w = t(np.eye(2))
    b = t([0.0, 0.0])
    out = linear(x, w, b)
    np.testing.assert_array_equal(out.data, x.data)


def test_linear_hand_value():
    # rows of the weight are output units: [1*1+1*2, 1*1-1*2] = [3, -1]
    out = linear(t([1.0, 2.0]), t([[1.0, 1.0], [1.0, -1.0]]), t([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [3.0, -1.0])


def test_linear_shape_mismatch():
    with pytest.raises(ShapeError):
        linear(t(np.zeros((5, 3))), t(np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# softmax, as computed inside network.attention
# ---------------------------------------------------------------------------

def softmax_rows(x: Tensor) -> Tensor:
    """Row softmax of a 2-D ``x`` read out of ``attention``: identity keys
    make the scores ``x`` itself, identity values return the weights."""
    eye = t(np.eye(x.shape[1]), grad=False)
    return attention(x, eye, eye, depth=1)


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
# batchnorm
# ---------------------------------------------------------------------------

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
    x = t(rng.normal(2.0, 3.0, size=(64, 4)))
    out = batchnorm(x, state, train=True)
    np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-4)


def test_batchnorm_train_needs_batch():
    state = BatchNormState.create(2, dtype=np.float64)
    with pytest.raises(ArgumentError):
        batchnorm(t(np.ones((1, 2))), state, train=True)


def test_batchnorm_running_stats_update():
    state = BatchNormState.create(1, dtype=np.float64)
    x = t(np.array([[0.0], [10.0]]))
    batchnorm(x, state, train=True)
    np.testing.assert_allclose(state.running_mean, [0.5])  # 0.9*0 + 0.1*5
    batch_var = 25.0
    np.testing.assert_allclose(state.running_var, [0.9 + 0.1 * batch_var])


# ---------------------------------------------------------------------------
# grad_check on every layer type
# ---------------------------------------------------------------------------

def test_grad_check_square():
    x = t(3.0)
    err = grad_check(lambda: x * x, [x])
    assert err < 1e-10


def test_grad_check_constant():
    x = t([1.0, 2.0])
    c = t([5.0], grad=False)
    err = grad_check(lambda: c.sum() + (x * 0.0).sum(), [x])
    assert err < 1e-10
    x.zero_grad()
    out = (x * 0.0).sum()
    out.backward()
    np.testing.assert_allclose(x.grad, 0.0, atol=1e-10)


@pytest.mark.parametrize("op_name", [
    "add", "sub", "mul", "matmul", "linear", "relu", "softmax",
    "logsumexp", "concat", "broadcast", "gather", "batchnorm_train",
    "batchnorm_eval", "narrow", "transpose",
])
def test_grad_check_layers(op_name, rng):
    a = t(rng.normal(size=(4, 5)))
    b = t(rng.normal(size=(4, 5)))
    c = t(rng.normal(size=(5, 3)))
    w = t(rng.normal(size=(6, 5)))
    bias = t(rng.normal(size=6))
    state = BatchNormState.create(5, dtype=np.float64)
    state.gamma.data = rng.normal(1.0, 0.1, size=5)
    state.beta.data = rng.normal(size=5)
    weights = t(rng.normal(size=(4, 5)), grad=False)

    def scalarize(x):
        return (x * weights.narrow(0, 0, x.shape[0]).narrow(1, 0, x.shape[1])).sum()

    cases = {
        "add": (lambda: scalarize(a + b), [a, b]),
        "sub": (lambda: scalarize(a - b), [a, b]),
        "mul": (lambda: scalarize(a * b), [a, b]),
        "matmul": (lambda: (a @ c).sum(), [a, c]),
        "linear": (lambda: linear(a, w, bias).sum(), [a, w, bias]),
        "relu": (lambda: scalarize(a.relu()), [a]),
        "softmax": (lambda: scalarize(softmax_rows(a)), [a]),
        "logsumexp": (lambda: a.logsumexp(axis=1).sum() + a.logsumexp(axis=0).sum(), [a]),
        "concat": (lambda: ad.concat([a, b], axis=0).logsumexp(axis=0).sum(), [a, b]),
        "broadcast": (lambda: (a - a.logsumexp(axis=1, keepdims=True).broadcast_to(a.shape)).sum(), [a]),
        "gather": (
            lambda: a.gather_rows([2, 0, 2]).sum() + a.gather_pairs([0, 3, 3], [1, 2, 2]).sum(),
            [a],
        ),
        "batchnorm_train": (lambda: scalarize(batchnorm(a, state, train=True)), [a, state.gamma, state.beta]),
        "batchnorm_eval": (lambda: scalarize(batchnorm(a, state, train=False)), [a, state.gamma, state.beta]),
        "narrow": (lambda: a.narrow(0, 1, 2).sum() + a.narrow(1, 0, 3).sum(), [a]),
        "transpose": (lambda: (a.T @ b).sum(), [a, b]),
    }
    fn, params = cases[op_name]
    assert grad_check(fn, params) < 1e-4


# ---------------------------------------------------------------------------
# tape contract and guards
# ---------------------------------------------------------------------------

def test_backward_twice_rejected():
    x = t([1.0, 2.0])
    out = (x * x).sum()
    out.backward()
    with pytest.raises(RuntimeError):
        out.backward()


def test_gradients_accumulate_across_separate_tapes():
    x = t([1.0, 2.0])
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_nonfinite_output_raises():
    x = t([1e308, 1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        x + x


def test_shape_mismatch_add():
    with pytest.raises(ShapeError):
        t(np.zeros((2, 2))) + t(np.zeros((3, 2)))


def test_grad_check_requires_float64():
    x = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ArgumentError):
        grad_check(lambda: (x * x).sum(), [x])


def test_no_grad_records_no_tape():
    x = t([1.0, 2.0])
    with ad.no_grad():
        out = (x * x).sum()
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    np.testing.assert_array_equal(out.data, 5.0)


def test_no_grad_recording_resumes_after_block_and_exception():
    x = t([1.0, 2.0])
    with ad.no_grad():
        pass
    assert (x * x)._parents == (x, x)
    with pytest.raises(ValueError), ad.no_grad():
        raise ValueError("inside the block")
    out = (x * x).sum()
    out.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_deep_chain_backward_is_iterative():
    # longer than the default recursion limit would allow recursively
    x = t([1.0])
    out = x
    for _ in range(3000):
        out = out * 1.0005
    out = out.sum()
    out.backward()
    assert x.grad is not None and np.isfinite(x.grad).all()
