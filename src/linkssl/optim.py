"""Parameters, the Adam optimizer with decoupled weight decay, and the EMA
update that moves a frozen target copy toward its online parameters."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Parameter:
    """A trainable tensor with Adam moment accumulators.

    The wrapped tensor requires gradients and starts with a zero grad so
    that untouched parameters report an all-zero gradient after backward.
    Its values keep float32 (anything else becomes float64, as every
    Tensor's do), and its grad and moments take the values' dtype.
    """

    __slots__ = ("tensor", "adam_m", "adam_v", "step_count", "name")

    def __init__(self, values, name=""):
        self.tensor = Tensor(values, requires_grad=True)
        self.tensor.grad = np.zeros_like(self.tensor.values)
        self.adam_m = np.zeros_like(self.tensor.values)
        self.adam_v = np.zeros_like(self.tensor.values)
        self.step_count = 0
        self.name = name

    @property
    def values(self):
        return self.tensor.values

    @property
    def grad(self):
        return self.tensor.grad

    @property
    def shape(self):
        return self.tensor.shape

    def zero_grad(self):
        self.tensor.grad = np.zeros_like(self.tensor.values)

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.shape})"


def zero_grads(params):
    for p in params:
        p.zero_grad()


def adam_step(params, lr, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8):
    """One optimizer step over `params`.

    Decoupled weight decay is applied first (p <- p - lr * wd * p), then the
    bias-corrected Adam update using each parameter's accumulated gradient.
    Each parameter uses one work array and one denominator array.
    """
    beta1, beta2 = betas
    for p in params:
        if weight_decay:
            p.tensor.values *= 1.0 - lr * weight_decay
        g = p.tensor.grad
        if g is None:
            g = np.zeros_like(p.values)
        p.step_count += 1
        work = np.multiply(g, 1.0 - beta1)
        p.adam_m *= beta1
        p.adam_m += work
        np.multiply(g, g, out=work)
        work *= 1.0 - beta2
        p.adam_v *= beta2
        p.adam_v += work
        # lr * m_hat / (sqrt(v_hat) + eps)
        denom = np.divide(p.adam_v, 1.0 - beta2 ** p.step_count)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(p.adam_m, 1.0 - beta1 ** p.step_count, out=work)
        work *= lr
        work /= denom
        p.tensor.values -= work


def ema_update(target, online, decay):
    """target <- decay * target + (1 - decay) * online, in place.

    `target` is the frozen copy of the online parameter `online`; its tensor
    never requires grad, so no gradient reaches the target side.
    """
    if not 0.0 <= decay <= 1.0:
        raise ValueError("decay must lie in [0, 1]")
    values = target.tensor.values
    values *= decay
    values += (1.0 - decay) * online.values
