"""Tape ops that only the tests' references use.

The reference losses and the unrolled Sinkhorn are written with generic tape
ops, one node per operation, so that they share no code with the fused nodes
they check. The program records none of these ops, so they live here. Each
records one node through ``autodiff._node``, as the program's own ops do.
"""
import numpy as np

from pillarmatch import autodiff as ad


def logsumexp(x, axis, keepdims=False):
    """Max-shifted log-sum-exp of ``x`` along ``axis``."""
    value = ad.logsumexp_array(x.data, axis)
    out = ad._node(value if keepdims else np.squeeze(value, axis=axis), (x,), "logsumexp")
    if out.requires_grad:
        weights = np.exp(x.data - value)  # softmax along axis

        def back(grad):
            x._accumulate(weights * (grad if keepdims else np.expand_dims(grad, axis)))
        out._backward = back
    return out


def total(x):
    """The sum of every element of ``x``, as a 0-d tensor."""
    out = ad._node(np.sum(x.data), (x,), "sum")
    if out.requires_grad:
        out._backward = lambda grad: x._accumulate(np.full_like(x.data, grad))
    return out


def sub(a, b):
    """``a - b``, where ``b`` may have size 1 along axes that ``a`` does not;
    ``b``'s gradient is summed over those axes."""
    out = ad._node(a.data - b.data, (a, b), "sub")
    if out.requires_grad:
        axes = tuple(i for i, size in enumerate(b.shape) if size == 1 and a.shape[i] > 1)

        def back(grad):
            if a.requires_grad:
                a._accumulate(grad)
            if b.requires_grad:
                b._accumulate(-(grad.sum(axis=axes, keepdims=True) if axes else grad))
        out._backward = back
    return out
