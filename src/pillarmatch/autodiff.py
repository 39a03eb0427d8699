"""Reverse-mode automatic differentiation on numpy arrays.

The tape holds only the ops the program records: ``+``, ``@``, ``.T``,
``relu``, ``gather_rows``, :func:`linear` and :func:`linear_batchnorm_relu`
here, and the attention, dustbin, Sinkhorn and loss nodes of the modules that
build on :func:`_node`. Each op returns a new :class:`Tensor` carrying a
closure that routes the output gradient to the op's inputs. ``backward()``
replays the closures in reverse topological order exactly once, passing each
its node's gradient; a second call on the same root tensor raises. No closure
refers to the tensor it belongs to, so the tape holds no reference cycle and
is freed by reference counting as soon as its last tensor goes. Inside
:func:`no_grad` ops record nothing at all. No op broadcasts: ``+`` needs equal
shapes, which keeps the tape auditable. ``@``, ``.T`` and ``linear`` work on
stacks: leading axes index independent matrices (one per pair of a batch), so
a whole batch records one node per op. An encoder block, linear then
batch-norm then ReLU, is the one node of :func:`linear_batchnorm_relu`.

Training and inference run in 32-bit; gradient checking requires 64-bit
tensors because central differences are unreliable in single precision.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError

# False inside ``no_grad``: op outputs then get no parents and no backward.
_recording = True

# Seed of grad_check's cotangent, fixed so that a check is repeatable.
_COTANGENT_SEED = 0


# Validated on every op output, always; non-finite intermediate values are
# treated as internal errors rather than being allowed to propagate.
def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by {op}")


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_back_done",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._back_done = False

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        """The value of a size-1 tensor, whatever its shape."""
        if self.data.size != 1:
            raise ShapeError(f"item() needs a tensor of size 1, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- tape plumbing --------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # a copy: backward closures hand one array to several parents
            if type(grad) is np.ndarray and grad.shape == self.data.shape:
                self.grad = grad.astype(self.data.dtype, copy=True)
            else:
                self.grad = np.array(np.broadcast_to(grad, self.data.shape), dtype=self.data.dtype)
        else:
            self.grad += grad

    def backward(self, seed=None) -> None:
        """Propagate gradients from this tensor to every reachable leaf.

        Gradients accumulate into ``.grad``. Calling ``backward`` twice on the
        same tensor raises (that is this tape's chosen contract).
        """
        if self._back_done:
            raise RuntimeError("backward() already ran from this tensor")
        if seed is None:
            seed = np.ones_like(self.data)
        self._accumulate(np.asarray(seed, dtype=self.data.dtype))

        # iterative DFS: a tape's depth grows with the work recorded on it
        # (a loss summed over many pairs, a deep stack of layers), and
        # recursion would hit Python's recursion limit
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
        self._back_done = True

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "Tensor") -> "Tensor":
        _same_shape(self, other, "add")
        out = _node(self.data + other.data, (self, other), "add")
        if out.requires_grad:
            def back(grad):
                if self.requires_grad:
                    self._accumulate(grad)
                if other.requires_grad:
                    other._accumulate(grad)
            out._backward = back
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        """Matrix product over the last two axes; any leading axes must match."""
        if (self.ndim < 2 or self.ndim != other.ndim or self.shape[:-2] != other.shape[:-2]
                or self.shape[-1] != other.shape[-2]):
            raise ShapeError(f"matmul shapes {self.shape} and {other.shape} incompatible")
        out = _node(self.data @ other.data, (self, other), "matmul")
        if out.requires_grad:
            def back(grad):
                if self.requires_grad:
                    self._accumulate(grad @ _swap_last(other.data))
                if other.requires_grad:
                    other._accumulate(_swap_last(self.data) @ grad)
            out._backward = back
        return out

    @property
    def T(self) -> "Tensor":
        """Transpose of the last two axes (of each matrix in a stack)."""
        if self.ndim < 2:
            raise ShapeError("transpose needs at least 2 axes")
        out = _node(_swap_last(self.data), (self,), "transpose")
        if out.requires_grad:
            def back(grad):
                self._accumulate(_swap_last(grad))
            out._backward = back
        return out

    # -- ReLU and row gather ---------------------------------------------------
    def relu(self) -> "Tensor":
        out = _node(np.maximum(self.data, 0.0), (self,), "relu")
        if out.requires_grad:
            mask = self.data > 0.0
            def back(grad):
                self._accumulate(grad * mask)
            out._backward = back
        return out

    def gather_rows(self, indices) -> "Tensor":
        """``data[indices]`` along the leading axis: an index array of shape
        ``s`` gives ``s + shape[1:]``, a single index drops the axis."""
        idx = np.asarray(indices, dtype=np.intp)
        out = _node(self.data[idx], (self,), "gather_rows")
        if out.requires_grad:
            def back(grad):
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                np.add.at(self.grad, idx, grad)
            out._backward = back
        return out


def logsumexp_array(data: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``, keeping that axis."""
    high = np.max(data, axis=axis, keepdims=True)
    return high + np.log(np.sum(np.exp(data - high), axis=axis, keepdims=True))


@contextmanager
def no_grad():
    """Run ops without recording a tape, for forward passes that never run backward."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


# Output tensor of one op. An op that records attaches ``out._backward =
# back``, where ``back(grad)`` routes ``grad`` to the parents. ``back`` must
# not refer to ``out``: that would make every tape a reference cycle.
def _node(data: np.ndarray, parents: tuple, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    out._parents = parents if out.requires_grad else ()
    out._backward = None
    out._back_done = False
    return out


def _swap_last(data: np.ndarray) -> np.ndarray:
    return np.swapaxes(data, -1, -2)


def _rows(data: np.ndarray) -> np.ndarray:
    """``data`` as a 2-D (rows, last axis) array; a view for contiguous input."""
    return data.reshape(-1, data.shape[-1])


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def as_tensor(value, requires_grad: bool = False, dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return Tensor(arr, requires_grad=requires_grad)


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """``x @ weight.T`` over the last axis of ``x``; weight is (out, in).

    Leading axes of ``x`` are flattened into rows, so a ``(B, n, in)`` stack
    runs as one ``(B * n, in)`` product.
    """
    _check_linear(x, weight)
    out_shape = x.shape[:-1] + weight.shape[:1]
    out = _node((_rows(x.data) @ weight.data.T).reshape(out_shape), (x, weight), "linear")
    if out.requires_grad:
        out._backward = lambda g: _linear_backward(x, weight, g)
    return out


def _check_linear(x: Tensor, weight: Tensor) -> None:
    if weight.ndim != 2:
        raise ShapeError("linear weight must be 2-D (out, in)")
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: input depth {x.shape[-1]} != weight depth {weight.shape[1]}")


def _linear_backward(x: Tensor, weight: Tensor, g: np.ndarray) -> None:
    rows = _rows(g)
    if x.requires_grad:
        x._accumulate((rows @ weight.data).reshape(x.shape))
    if weight.requires_grad:
        weight._accumulate(rows.T @ _rows(x.data))


# the weight of the old running statistics in each train-mode update, and the
# variance offset of every normalization
BATCHNORM_MOMENTUM = 0.9
BATCHNORM_EPS = 1e-5


@dataclass
class BatchNormState:
    """Per-channel affine batch normalization with running statistics.

    ``gamma``/``beta`` are learnable; running mean/variance track train-mode
    batch statistics with momentum :data:`BATCHNORM_MOMENTUM` and are used
    verbatim in eval mode. Variance is the biased (1/N) estimator throughout.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels: int, dtype=np.float32) -> "BatchNormState":
        return cls(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )


def linear_batchnorm_relu(x: Tensor, weight: Tensor, state: BatchNormState,
                          train: bool) -> Tensor:
    """``relu(batchnorm(x @ weight.T))`` over a (batch, in) ``x`` as one node,
    batch-norm as :class:`BatchNormState` says. The backward applies the ReLU
    mask, then the batch-norm gradient, then :func:`linear`'s two products."""
    _check_linear(x, weight)
    gamma, beta = state.gamma, state.beta
    if x.ndim != 2 or weight.shape[0] != gamma.shape[0]:
        raise ShapeError(f"linear_batchnorm_relu needs a (batch, {weight.shape[1]}) input and "
                         f"{gamma.shape[0]} weight rows, got {x.shape} and {weight.shape}")
    if train and x.shape[0] < 2:
        raise ArgumentError("batch-norm train mode needs batch >= 2")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        y = x.data @ weight.data.T
        if train:
            mean, var = y.mean(axis=0), y.var(axis=0)
            inv = 1.0 / np.sqrt(var + BATCHNORM_EPS)
        else:
            mean = state.running_mean.astype(y.dtype)
            inv = 1.0 / np.sqrt(state.running_var.astype(y.dtype) + BATCHNORM_EPS)
        xhat = (y - mean) * inv
        normed = xhat * gamma.data + beta.data
    _check_finite(normed, "linear_batchnorm_relu")  # before the ReLU turns -inf into 0
    if train:
        _check_finite(var, "batch-norm statistics")  # non-finite whenever the mean is
        m, running_mean, running_var = BATCHNORM_MOMENTUM, state.running_mean, state.running_var
        state.running_mean = (m * running_mean + (1.0 - m) * mean).astype(running_mean.dtype)
        state.running_var = (m * running_var + (1.0 - m) * var).astype(running_var.dtype)
    out = _node(np.maximum(normed, 0.0), (x, weight, gamma, beta), "linear_batchnorm_relu")
    if out.requires_grad:
        mask = normed > 0.0
        n = x.shape[0]
        def back(g):
            g = g * mask
            if gamma.requires_grad:
                gamma._accumulate((g * xhat).sum(axis=0))
            if beta.requires_grad:
                beta._accumulate(g.sum(axis=0))
            gxhat = g * gamma.data
            if train:
                g = inv / n * (n * gxhat - gxhat.sum(axis=0) - xhat * (gxhat * xhat).sum(axis=0))
            else:
                g = gxhat * inv
            _linear_backward(x, weight, g)
        out._backward = back
    return out


def grad_check(f, params, step: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference
    vector-Jacobian products.

    ``f`` must be a deterministic zero-argument callable returning a Tensor
    of any shape built from ``params``; it is re-evaluated twice per
    parameter element. A cotangent ``w`` of the output's shape is drawn from
    a fixed seed (all ones for a size-1 output), ``f().backward(w)`` gives
    the analytic gradient of ``sum(w * f())``, and central differences of
    that sum give the numeric one. A random ``w`` sees a backward that sends
    an output's gradient to the wrong element, which a plain sum cannot.
    Relative error uses max(|analytic|, |numeric|, 1e-8) as the denominator.
    Parameters must be 64-bit.
    """
    params = list(params)
    for p in params:
        if p.dtype != np.float64:
            raise ArgumentError("grad_check requires float64 parameters")
        p.zero_grad()
    out = f()
    if out.size == 1:
        cotangent = np.ones_like(out.data)
    else:
        cotangent = np.random.default_rng(_COTANGENT_SEED).normal(size=out.shape)
    out.backward(cotangent)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def objective() -> float:
        return float(np.sum(cotangent * f().data))

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = objective()
            flat[i] = orig - step
            f_minus = objective()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
