"""Module and Parameter base types."""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Attributes:
        value: the parameter array.
        grad: accumulated gradient (same shape), zeroed by the optimizer.
        name: optional diagnostic name.
    """

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name or 'unnamed'}, shape={self.value.shape})"


class Module:
    """Base class for layers.

    Subclasses implement ``forward`` (caching what ``backward`` needs) and
    ``backward`` (accumulating parameter gradients, returning the input
    gradient).  ``training`` toggles train/eval behaviour (dropout).
    """

    def __init__(self) -> None:
        self.training = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module (and children)."""
        return []

    def train(self) -> "Module":
        """Enter training mode (recursively)."""
        self._set_training(True)
        return self

    def eval(self) -> "Module":
        """Enter evaluation mode (recursively)."""
        self._set_training(False)
        return self

    def _set_training(self, flag: bool) -> None:
        self.training = flag
        for child in self.children():
            child._set_training(flag)

    def children(self) -> list["Module"]:
        """Direct sub-modules (override in containers)."""
        return []

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
