"""Dense and activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.module import Module, Parameter


class Dense(Module):
    """Fully connected layer ``y = x @ W + b``.

    Args:
        in_features: input width.
        out_features: output width.
        rng: generator for Xavier initialisation.
        name: diagnostic name.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        name: str = "",
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(
            xavier_uniform((in_features, out_features), rng), name=f"{name}.W"
        )
        self.bias = Parameter(np.zeros(out_features), name=f"{name}.b")
        self._input: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} features, got {x.shape[1]}")
        self._input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward before forward")
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=float))
        self.weight.grad += self._input.T @ grad_output
        self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value.T


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return np.where(self._mask, grad_output, 0.0)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        if negative_slope < 0:
            raise ValueError("negative_slope must be non-negative")
        self.negative_slope = float(negative_slope)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(np.asarray(x, dtype=float))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward before forward")
        return grad_output * (1.0 - self._output**2)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._output = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward before forward")
        return grad_output * self._output * (1.0 - self._output)
