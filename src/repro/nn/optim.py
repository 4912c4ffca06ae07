"""Optimizers."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.module import Parameter


class Adam:
    """Adam optimizer (Kingma & Ba).

    Args:
        parameters: the parameters to update.
        lr: learning rate.
        betas: exponential decay rates for the moment estimates.
        eps: numerical stabiliser.
        weight_decay: L2 penalty coefficient.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1.0e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1.0e-8,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            grad = parameter.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * parameter.value
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()
