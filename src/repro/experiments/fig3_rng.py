"""E5 -- Fig. 3(b): SRAM-immersed RNG statistics.

Shows the two effects the paper exploits -- summation filters V_T mismatch
while amplifying temporal noise -- plus the calibration that removes the
residual bias, across a sweep of column counts and many hardware
instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.circuits.technology import NODE_16NM
from repro.sram.rng import CrossCoupledInverterRNG


@dataclass(frozen=True)
class RNGStatsConfig:
    seed: int = 0
    column_sweep: tuple[int, ...] = (2, 4, 8, 16, 32)
    n_instances: int = 12
    bits_per_instance: int = 4096


@experiment(
    "E5",
    title="Fig 3b: SRAM RNG statistics",
    config=RNGStatsConfig,
)
def rng_statistics(cfg: RNGStatsConfig) -> dict:
    """Bias / noise statistics of the SRAM-immersed RNG.

    Returns:
        Dict with, per column count, over the hardware instances: mean |P(1) - 0.5| before and after
        calibration, the mismatch-to-noise voltage ratio, and lag-1
        autocorrelation after calibration.
    """
    seed, bits_per_instance = cfg.seed, cfg.bits_per_instance
    rows = []
    for n_columns in cfg.column_sweep:
        bias_before, bias_after, ratios, autocorrs = [], [], [], []
        for instance in range(cfg.n_instances):
            cell = CrossCoupledInverterRNG(
                NODE_16NM,
                n_columns_per_side=n_columns,
                rng=np.random.default_rng(seed + 1000 * instance + n_columns),
            )
            run_rng = np.random.default_rng(seed + 500 + instance)
            decomposition = cell.bias_decomposition()
            ratios.append(
                abs(decomposition["mismatch_volts"])
                / decomposition["noise_sigma_volts"]
            )
            calibration = cell.calibrate(run_rng, window=bits_per_instance)
            bias_before.append(abs(calibration.ones_rate_before - 0.5))
            bias_after.append(abs(calibration.ones_rate_after - 0.5))
            bits = cell.generate(bits_per_instance, run_rng).astype(float)
            if bits.std() > 0:
                autocorrs.append(
                    float(np.corrcoef(bits[:-1], bits[1:])[0, 1])
                )
        rows.append(
            {
                "columns_per_side": n_columns,
                "bias_before": float(np.mean(bias_before)),
                "bias_after": float(np.mean(bias_after)),
                "mismatch_to_noise": float(np.mean(ratios)),
                "abs_autocorr_lag1": float(np.mean(np.abs(autocorrs)))
                if autocorrs
                else float("nan"),
            }
        )
    return {"rows": rows}
