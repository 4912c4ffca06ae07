"""E9 -- Sec. III-C: compute-reuse and sample-ordering workload ablation.

Measures the executed-MAC fraction of the first-layer MC-Dropout workload
under four engines: naive (mask-oblivious), active-only (CL gating, no
reuse), reuse (delta evaluation), and reuse + optimal ordering -- the
paper's full recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.bayesian.masks import MaskStream
from repro.bayesian.ordering import (
    mask_hamming_path_length,
    optimal_mask_order,
)
from repro.bayesian.reuse import DeltaReuseEngine, masked_input_sequence


@dataclass(frozen=True)
class ReuseAblationConfig:
    seed: int = 0
    n_inputs: int = 256
    n_outputs: int = 128
    n_iterations: int = 30
    keep_probability: float = 0.5
    n_trials: int = 5


@experiment(
    "E9",
    title="Sec III-C: reuse ablation",
    config=ReuseAblationConfig,
)
def reuse_ablation(cfg: ReuseAblationConfig) -> dict:
    """Executed-MAC fraction under reuse / ordering engine variants.

    Returns:
        Dict with mean executed-op fractions (relative to naive) and the
        Hamming path-length reduction achieved by ordering.
    """
    n_inputs, keep_probability = cfg.n_inputs, cfg.keep_probability
    rng = np.random.default_rng(cfg.seed)
    # Every trial's weight, input and masks come first, in trial order;
    # then one batched search orders every trial's masks.
    trials = []
    for _ in range(cfg.n_trials):
        weight = rng.normal(size=(n_inputs, cfg.n_outputs))
        x = rng.normal(size=n_inputs)
        stream = MaskStream.bernoulli(
            cfg.n_iterations, n_inputs, keep_probability, rng
        )
        trials.append((weight, x, stream))
    orders = optimal_mask_order(
        np.array([stream.masks for _, _, stream in trials]).reshape(
            cfg.n_trials, cfg.n_iterations, n_inputs
        )
    )
    fractions = {"naive": [], "active_only": [], "reuse": [], "reuse_ordered": []}
    path_reduction = []
    for (weight, x, stream), order in zip(trials, orders):
        engine = DeltaReuseEngine(weight)

        inputs = masked_input_sequence(x, stream.masks)
        reference = inputs @ weight
        products, stats = engine.run(inputs)
        if not np.allclose(products, reference, atol=1e-9):
            raise AssertionError("reuse engine drifted from direct evaluation")
        fractions["naive"].append(1.0)
        fractions["active_only"].append(stats.ops_active_only / stats.ops_naive)
        fractions["reuse"].append(stats.ops_executed / stats.ops_naive)

        ordered = stream.reordered(order)
        products_o, stats_o = engine.run(masked_input_sequence(x, ordered.masks))
        if not np.allclose(products_o, ordered.masks * x[None, :] @ weight, atol=1e-9):
            raise AssertionError("ordered reuse engine drifted")
        fractions["reuse_ordered"].append(stats_o.ops_executed / stats_o.ops_naive)
        path_reduction.append(
            1.0
            - mask_hamming_path_length(stream.masks, order)
            / max(mask_hamming_path_length(stream.masks), 1)
        )
    return {
        "executed_fraction": {k: float(np.mean(v)) for k, v in fractions.items()},
        "ordering_path_reduction": float(np.mean(path_reduction)),
        "keep_probability": keep_probability,
        "n_iterations": cfg.n_iterations,
    }
