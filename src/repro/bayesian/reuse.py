"""Compute reuse across MC-Dropout iterations (paper Sec. III-C).

Consecutive iterations share input neurons, so the matrix-vector product of
iteration i can be built from iteration i-1::

    P_i = P_{i-1} + W x I_A_i - W x I_D_i

where I_A are inputs active now but not before and I_D the converse.  The
:class:`DeltaReuseEngine` generalises this to *value* deltas -- it replays a
sequence of (masked) input vectors, updating the product only through
columns whose input actually changed -- which stays exact for hidden layers
where surviving neurons may still change value.  Executed work is counted
per column touched, the quantity the CIM macro's energy scales with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ReuseStats:
    """Work accounting for a reuse run.

    Attributes:
        ops_executed: MACs actually performed.
        ops_naive: MACs a mask-oblivious engine would perform
            (T x in x out).
        ops_active_only: MACs of an engine that skips dropped inputs but
            does not reuse across iterations.
        columns_touched: input-column updates actually evaluated.
    """

    ops_executed: int
    ops_naive: int
    ops_active_only: int
    columns_touched: int


class DeltaReuseEngine:
    """Incremental matrix-vector products over an iteration sequence.

    Args:
        weight: (in_features, out_features) weight matrix.
        tolerance: absolute input-change threshold below which a column is
            considered unchanged (0 = exact).
    """

    def __init__(self, weight: np.ndarray, tolerance: float = 0.0):
        weight = np.asarray(weight, dtype=float)
        if weight.ndim != 2:
            raise ValueError("weight must be 2D (in, out)")
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.weight = weight
        self.tolerance = float(tolerance)

    def run(self, inputs: np.ndarray) -> tuple[np.ndarray, ReuseStats]:
        """Replay a (T, in) sequence of masked input vectors.

        Returns:
            (products, stats): products is (T, out) with
            ``products[t] == inputs[t] @ weight`` (up to tolerance-induced
            drift), stats counts the executed work.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        n_iter, n_in = inputs.shape
        if n_in != self.weight.shape[0]:
            raise ValueError("input width does not match weight")
        n_out = self.weight.shape[1]
        products = np.empty((n_iter, n_out))
        columns_touched = 0
        ops_active = 0

        # Iteration 0: full evaluation over its active columns.
        active0 = np.abs(inputs[0]) > self.tolerance
        columns_touched += int(active0.sum())
        ops_active += int(active0.sum())
        current = inputs[0].copy()
        products[0] = current @ self.weight
        for t in range(1, n_iter):
            delta = inputs[t] - current
            changed = np.abs(delta) > self.tolerance
            columns_touched += int(changed.sum())
            ops_active += int((np.abs(inputs[t]) > self.tolerance).sum())
            if changed.any():
                products[t] = products[t - 1] + delta[changed] @ self.weight[changed]
            else:
                products[t] = products[t - 1]
            current = inputs[t].copy()
        stats = ReuseStats(
            ops_executed=columns_touched * n_out,
            ops_naive=n_iter * n_in * n_out,
            ops_active_only=ops_active * n_out,
            columns_touched=columns_touched,
        )
        return products, stats


def masked_input_sequence(x: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Apply (T, in) keep-masks to a single (in,) input vector.

    The result is the (T, in) sequence the first network layer sees across
    MC iterations (inverted-dropout scaling excluded -- scaling commutes
    with the product and is applied downstream).
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    masks = np.asarray(masks, dtype=float)
    if masks.shape[1] != x.shape[1]:
        raise ValueError("mask width does not match input")
    return masks * x
