"""SRAM-immersed RNG bring-up (paper Fig. 3b).

Instantiates cross-coupled-inverter RNGs across process corners, shows the
raw (often stuck) bits, runs the bias-trim calibration, and sweeps the
column count to demonstrate mismatch filtering vs noise amplification.

Run:  python examples/rng_calibration.py
"""

import numpy as np

from repro.circuits.technology import NODE_16NM
from repro.experiments.fig3_rng import RNGStatsConfig, rng_statistics
from repro.sram.dropout_gen import DropoutBitGenerator
from repro.sram.rng import CrossCoupledInverterRNG


def single_instance_story() -> None:
    print("=" * 66)
    print("One RNG instance: bias budget and calibration")
    print("=" * 66)
    cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(5))
    budget = cell.bias_decomposition()
    for name, value in budget.items():
        print(f"  {name:28}: {value * 1e3:+.3f} mV")
    run = np.random.default_rng(6)
    raw = cell.generate(2000, run)
    print(f"  raw ones-rate (uncalibrated): {raw.mean():.3f}")
    calibration = cell.calibrate(run)
    print(
        f"  calibration: {calibration.ones_rate_before:.3f} -> "
        f"{calibration.ones_rate_after:.3f} with trim "
        f"{calibration.trim_volts * 1e3:+.3f} mV"
    )
    bits = cell.generate(20000, run).astype(float)
    print(f"  post-calibration mean {bits.mean():.4f}, "
          f"lag-1 autocorr {np.corrcoef(bits[:-1], bits[1:])[0, 1]:+.4f}")


def column_sweep() -> None:
    print("\n" + "=" * 66)
    print("Column sweep: mismatch filtering / noise amplification")
    print("=" * 66)
    stats = rng_statistics(
        RNGStatsConfig(column_sweep=(2, 4, 8, 16, 32), n_instances=10)
    )
    print(f"{'columns':>8} {'bias before':>12} {'bias after':>12} {'mm/noise':>10}")
    for row in stats["rows"]:
        print(
            f"{row['columns_per_side']:>8} {row['bias_before']:>12.3f} "
            f"{row['bias_after']:>12.4f} {row['mismatch_to_noise']:>10.3f}"
        )


def dropout_stream_demo() -> None:
    print("\n" + "=" * 66)
    print("Dropout bitstream generation")
    print("=" * 66)
    cell = CrossCoupledInverterRNG(NODE_16NM, rng=np.random.default_rng(9))
    cell.calibrate(np.random.default_rng(10))
    for keep in (0.5, 0.7):
        generator = DropoutBitGenerator(cell, keep_probability=keep)
        mask = generator.mask(8000, np.random.default_rng(11))
        print(
            f"  keep_p={keep}: empirical rate {mask.mean():.3f}, "
            f"cycles/bit {generator.cycles_used / 8000:.1f}"
        )


if __name__ == "__main__":
    single_instance_story()
    column_sweep()
    dropout_stream_demo()
