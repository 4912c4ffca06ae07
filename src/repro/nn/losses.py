"""Loss functions: each returns (loss, gradient w.r.t. predictions)."""

from __future__ import annotations

import numpy as np


class MSELoss:
    """Mean squared error over all elements."""

    def __call__(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        predictions = np.asarray(predictions, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if predictions.shape != targets.shape:
            raise ValueError("prediction / target shape mismatch")
        diff = predictions - targets
        loss = float(np.mean(diff**2))
        grad = 2.0 * diff / diff.size
        return loss, grad
