"""Software MC-Dropout predictor (the algorithmic reference).

Runs T stochastic forward passes with dropout active at inference time (Gal
& Ghahramani); the sample mean is the prediction and the sample variance is
the model (epistemic) uncertainty.  Masks can be pinned externally so the
hardware engine and this reference produce comparable iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayesian.masks import MaskStream
from repro.nn.sequential import Sequential


@dataclass(frozen=True)
class MCPrediction:
    """Result of an MC-Dropout inference.

    Attributes:
        mean: (B, out) predictive mean.
        variance: (B, out) per-output predictive variance.
        samples: (T, B, out) raw iteration outputs.
    """

    mean: np.ndarray
    variance: np.ndarray
    samples: np.ndarray

    @property
    def n_iterations(self) -> int:
        return self.samples.shape[0]


class MCDropoutPredictor:
    """MC-Dropout wrapper around a :class:`~repro.nn.sequential.Sequential`.

    Args:
        model: a trained network containing Dropout layers.
        n_iterations: Monte-Carlo sample count (paper sweeps ~30).
        rng: generator for internally sampled masks.
    """

    def __init__(
        self,
        model: Sequential,
        n_iterations: int = 30,
        rng: np.random.Generator | None = None,
    ):
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        self.model = model
        self.n_iterations = int(n_iterations)
        self._rng = rng or np.random.default_rng(0)
        self.dropouts = model.dropout_layers()
        if not self.dropouts:
            raise ValueError("model has no Dropout layers; MC-Dropout is inert")

    def predict(
        self,
        x: np.ndarray,
        mask_streams: list[MaskStream] | None = None,
    ) -> MCPrediction:
        """Run T stochastic passes.

        Args:
            x: (B, in) inputs.
            mask_streams: optional per-dropout-layer streams (hardware
                masks); default is internal Bernoulli sampling.

        Returns:
            The MC prediction (mean / variance / samples).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if mask_streams is not None and len(mask_streams) != len(self.dropouts):
            raise ValueError(
                f"need {len(self.dropouts)} mask streams, got {len(mask_streams)}"
            )
        self.model.eval()
        for layer in self.dropouts:
            layer.mc_mode = True
        try:
            samples = []
            for t in range(self.n_iterations):
                if mask_streams is not None:
                    for layer, stream in zip(self.dropouts, mask_streams):
                        layer.pin_mask(stream.masks[t])
                samples.append(self.model.forward(x))
            stacked = np.stack(samples, axis=0)
        finally:
            for layer in self.dropouts:
                layer.pin_mask(None)
                layer.mc_mode = False
        return MCPrediction(
            mean=stacked.mean(axis=0),
            variance=stacked.var(axis=0),
            samples=stacked,
        )

    def deterministic(self, x: np.ndarray) -> np.ndarray:
        """The plain (dropout-off) forward pass for comparison."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self.model.eval()
        return self.model.forward(x)

    def ops_per_iteration(self, batch: int = 1) -> int:
        """Nominal dense MACs one MC iteration performs on ``batch`` inputs.

        The software path executes every weight each pass (no reuse, no
        mask gating), so this is the exact work count -- the digital
        reference against which the CIM engine's executed-op fraction is
        reported.
        """
        if batch < 1:
            raise ValueError("batch must be positive")
        weights = 0
        for layer in self.model.dense_layers():
            fan_in, fan_out = layer.weight.value.shape
            weights += fan_in * fan_out
        return batch * weights
