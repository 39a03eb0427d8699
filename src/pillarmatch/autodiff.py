"""Reverse-mode automatic differentiation on numpy arrays.

Every operation returns a new :class:`Tensor` carrying a closure that routes
the output gradient to the operation's inputs. ``backward()`` replays the
closures in reverse topological order exactly once, passing each its node's
gradient; a second call on the same root tensor raises. No closure refers to
the tensor it belongs to, so the tape holds no reference cycle and is freed
by reference counting as soon as its last tensor goes. Inside
:func:`no_grad` ops record nothing at all. There is no broadcasting beyond
the few explicit ops that need it (``broadcast_to``, bias addition inside
``linear``), which keeps the tape auditable.

Training and inference run in 32-bit; gradient checking requires 64-bit
tensors because central differences are unreliable in single precision.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError

# Validated on every op output; non-finite intermediate values are treated as
# internal errors rather than being allowed to propagate.
CHECK_FINITE = True

# False inside ``no_grad``: op outputs then get no parents and no backward.
_recording = True


def _check_finite(data: np.ndarray, op: str) -> None:
    if CHECK_FINITE and not np.all(np.isfinite(data)):
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
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- tape plumbing --------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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

    def __sub__(self, other: "Tensor") -> "Tensor":
        _same_shape(self, other, "sub")
        out = _node(self.data - other.data, (self, other), "sub")
        if out.requires_grad:
            def back(grad):
                if self.requires_grad:
                    self._accumulate(grad)
                if other.requires_grad:
                    other._accumulate(-grad)
            out._backward = back
        return out

    def __neg__(self) -> "Tensor":
        out = _node(-self.data, (self,), "neg")
        if out.requires_grad:
            def back(grad):
                self._accumulate(-grad)
            out._backward = back
        return out

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "mul")
            out = _node(self.data * other.data, (self, other), "mul")
            if out.requires_grad:
                def back(grad):
                    if self.requires_grad:
                        self._accumulate(grad * other.data)
                    if other.requires_grad:
                        other._accumulate(grad * self.data)
                out._backward = back
            return out
        scalar = float(other)
        out = _node(self.data * scalar, (self,), "scale")
        if out.requires_grad:
            def back(grad):
                self._accumulate(grad * scalar)
            out._backward = back
        return out

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self.ndim != 2 or other.ndim != 2 or self.shape[1] != other.shape[0]:
            raise ShapeError(f"matmul shapes {self.shape} and {other.shape} incompatible")
        out = _node(self.data @ other.data, (self, other), "matmul")
        if out.requires_grad:
            def back(grad):
                if self.requires_grad:
                    self._accumulate(grad @ other.data.T)
                if other.requires_grad:
                    other._accumulate(self.data.T @ grad)
            out._backward = back
        return out

    @property
    def T(self) -> "Tensor":
        out = _node(self.data.T, (self,), "transpose")
        if out.requires_grad:
            def back(grad):
                self._accumulate(grad.T)
            out._backward = back
        return out

    # -- nonlinearities and reductions -----------------------------------------
    def relu(self) -> "Tensor":
        out = _node(np.maximum(self.data, 0.0), (self,), "relu")
        if out.requires_grad:
            mask = self.data > 0.0
            def back(grad):
                self._accumulate(grad * mask)
            out._backward = back
        return out

    def logsumexp(self, axis: int, keepdims: bool = False) -> "Tensor":
        axis = _check_axis(axis, self.ndim, "logsumexp")
        value = logsumexp_array(self.data, axis)
        out_data = value if keepdims else np.squeeze(value, axis=axis)
        out = _node(out_data, (self,), "logsumexp")
        if out.requires_grad:
            weights = np.exp(self.data - value)  # softmax along axis
            def back(grad):
                g = grad if keepdims else np.expand_dims(grad, axis)
                self._accumulate(weights * g)
            out._backward = back
        return out

    def sum(self, axis=None) -> "Tensor":
        out = _node(np.sum(self.data, axis=axis), (self,), "sum")
        if out.requires_grad:
            def back(grad):
                if axis is None:
                    self._accumulate(np.full_like(self.data, grad))
                else:
                    self._accumulate(np.broadcast_to(np.expand_dims(grad, axis), self.shape).copy())
            out._backward = back
        return out

    # -- shape ops --------------------------------------------------------------
    def broadcast_to(self, shape) -> "Tensor":
        shape = tuple(shape)
        try:
            data = np.broadcast_to(self.data, shape)
        except ValueError:
            raise ShapeError(f"cannot broadcast {self.shape} to {shape}") from None
        out = _node(np.ascontiguousarray(data), (self,), "broadcast")
        if out.requires_grad:
            in_shape = self.shape
            def back(g):
                extra = g.ndim - len(in_shape)
                if extra:
                    g = g.sum(axis=tuple(range(extra)))
                axes = tuple(i for i, d in enumerate(in_shape) if d == 1 and g.shape[i] > 1)
                if axes:
                    g = g.sum(axis=axes, keepdims=True)
                self._accumulate(g)
            out._backward = back
        return out

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        axis = _check_axis(axis, self.ndim, "narrow")
        index = [slice(None)] * self.ndim
        index[axis] = slice(start, start + length)
        index = tuple(index)
        out = _node(self.data[index].copy(), (self,), "narrow")
        if out.requires_grad:
            def back(grad):
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[index] += grad
            out._backward = back
        return out

    def gather_rows(self, indices) -> "Tensor":
        idx = np.asarray(indices, dtype=np.intp)
        out = _node(self.data[idx], (self,), "gather_rows")
        if out.requires_grad:
            def back(grad):
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                np.add.at(self.grad, idx, grad)
            out._backward = back
        return out

    def gather_pairs(self, rows, cols) -> "Tensor":
        if self.ndim != 2:
            raise ShapeError("gather_pairs requires a 2-D tensor")
        r = np.asarray(rows, dtype=np.intp)
        c = np.asarray(cols, dtype=np.intp)
        out = _node(self.data[r, c], (self,), "gather_pairs")
        if out.requires_grad:
            def back(grad):
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                np.add.at(self.grad, (r, c), grad)
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


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _check_axis(axis: int, ndim: int, op: str) -> int:
    if axis < 0:
        axis += ndim
    if not 0 <= axis < ndim:
        raise ShapeError(f"{op}: axis out of range for {ndim}-d tensor")
    return axis


def as_tensor(value, requires_grad: bool = False, dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return Tensor(arr, requires_grad=requires_grad)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ArgumentError("concat of zero tensors")
    axis = _check_axis(axis, tensors[0].ndim, "concat")
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def back(grad):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(lo, hi)
                    t._accumulate(grad[tuple(index)])
        out._backward = back
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` for 1-D or 2-D ``x``; weight is (out, in)."""
    if weight.ndim != 2:
        raise ShapeError("linear weight must be 2-D (out, in)")
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: input depth {x.shape[-1]} != weight depth {weight.shape[1]}")
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError("linear: bias shape must be (out,)")
    data = x.data @ weight.data.T
    if bias is not None:
        data = data + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _node(data, parents, "linear")
    if out.requires_grad:
        def back(g):
            if x.requires_grad:
                x._accumulate(g @ weight.data)
            if weight.requires_grad:
                if x.ndim == 1:
                    weight._accumulate(np.outer(g, x.data))
                else:
                    weight._accumulate(g.T @ x.data)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g if g.ndim == 1 else g.sum(axis=0))
        out._backward = back
    return out


@dataclass
class BatchNormState:
    """Per-channel affine batch normalization with running statistics.

    ``gamma``/``beta`` are learnable; running mean/variance track train-mode
    batch statistics with the configured momentum and are used verbatim in
    eval mode. Variance is the biased (1/N) estimator throughout.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int, dtype=np.float32, momentum: float = 0.9) -> "BatchNormState":
        return cls(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
            momentum=momentum,
        )


def batchnorm(x: Tensor, state: BatchNormState, train: bool) -> Tensor:
    """Normalize (batch, channels) per channel; see :class:`BatchNormState`."""
    if x.ndim != 2:
        raise ShapeError("batchnorm expects a (batch, channels) tensor")
    if x.shape[1] != state.gamma.shape[0]:
        raise ShapeError(f"batchnorm: {x.shape[1]} channels vs state {state.gamma.shape[0]}")
    gamma, beta = state.gamma, state.beta
    if train:
        if x.shape[0] < 2:
            raise ArgumentError("batchnorm train mode needs batch >= 2")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        inv = 1.0 / np.sqrt(var + state.eps)
        m = state.momentum
        state.running_mean = (m * state.running_mean + (1.0 - m) * mean).astype(
            state.running_mean.dtype
        )
        state.running_var = (m * state.running_var + (1.0 - m) * var).astype(
            state.running_var.dtype
        )
    else:
        mean = state.running_mean.astype(x.dtype)
        inv = 1.0 / np.sqrt(state.running_var.astype(x.dtype) + state.eps)
    xhat = (x.data - mean) * inv
    out = _node(xhat * gamma.data + beta.data, (x, gamma, beta), "batchnorm")
    if out.requires_grad:
        n = x.shape[0]
        def back(g):
            if gamma.requires_grad:
                gamma._accumulate((g * xhat).sum(axis=0))
            if beta.requires_grad:
                beta._accumulate(g.sum(axis=0))
            if x.requires_grad:
                gxhat = g * gamma.data
                if train:
                    x._accumulate(
                        inv / n * (n * gxhat - gxhat.sum(axis=0) - xhat * (gxhat * xhat).sum(axis=0))
                    )
                else:
                    x._accumulate(gxhat * inv)
        out._backward = back
    return out


def batchnorm_relu(x: Tensor, state: BatchNormState, train: bool) -> Tensor:
    return batchnorm(x, state, train).relu()


def grad_check(f, params, step: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` must be a deterministic zero-argument callable returning a scalar
    Tensor built from ``params``; it is re-evaluated twice per parameter
    element. Relative error uses max(|analytic|, |numeric|, 1e-8) as the
    denominator. Parameters must be 64-bit.
    """
    params = list(params)
    for p in params:
        if p.dtype != np.float64:
            raise ArgumentError("grad_check requires float64 parameters")
        p.zero_grad()
    out = f()
    if out.size != 1:
        raise ArgumentError("grad_check needs a scalar objective")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(f().data)
            flat[i] = orig - step
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
