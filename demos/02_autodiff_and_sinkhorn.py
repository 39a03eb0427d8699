"""The reverse-mode tape and the optimal-transport normalization.

Shows gradients flowing through a small expression, checks its
vector-Jacobian products against central differences, and runs Sinkhorn
until the plan is doubly stochastic (in stabilised scaling form, as every
alternating-mode call runs).
"""
import numpy as np

from pillarmatch import Tensor, grad_check, linear, sinkhorn
from pillarmatch.transport import marginal_deviation

# relu(x @ w.T), a (2, 2) function of two tensors; backward takes a
# cotangent of its shape and gives the gradient of sum(cotangent * output)
w = Tensor(np.array([[0.45, -0.4], [0.1, 0.3]]), requires_grad=True)
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
out = linear(x, w).relu()
out.backward(np.array([[1.0, -0.5], [0.25, 2.0]]))
print("output:\n", out.data)
print("d sum(cotangent * output) / dw:\n", w.grad)
# grad_check draws its own cotangent and differentiates the same way
err = grad_check(lambda: linear(x, w).relu(), [w, x])
print(f"max relative error vs central differences: {err:.2e}")

# Sinkhorn drives a random score matrix to a doubly stochastic plan
rng = np.random.default_rng(0)
scores = Tensor(rng.uniform(-10, 10, size=(8, 8)))
for iters in (1, 5, 25, 100):
    plan = sinkhorn(scores, iterations=iters)
    print(f"iters {iters:3d}: max row/col mass error {marginal_deviation(plan.log_p.data):.2e}")

probs = sinkhorn(scores, iterations=100).probabilities
print("rows sum to", probs.sum(axis=1).round(6))
