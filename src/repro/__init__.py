"""repro: uncertainty-aware compute-in-memory autonomy for edge robotics.

Reproduction of Darabi et al., "Navigating the Unknown: Uncertainty-Aware
Compute-in-Memory Autonomy of Edge Robotics" (DATE 2024, arXiv:2401.17481).

The package is organised as a stack of substrates with a co-design layer on
top:

- :mod:`repro.circuits`  -- analog device/circuit behavioural models (EKV
  MOSFET, floating-gate 6T inverters, inverter arrays, ADC/DAC, noise,
  process variability, per-op energy).
- :mod:`repro.sram`      -- 8T-SRAM compute-in-memory macro, bit lines, the
  SRAM-immersed cross-coupled-inverter RNG and dropout bit generation.
- :mod:`repro.maps`      -- point clouds, Gaussian mixture maps and the
  hardware-native Harmonic-Mean-of-Gaussian (HMG) mixture maps.
- :mod:`repro.filtering` -- particle filtering (SIR), motion/measurement
  models and resampling schemes.
- :mod:`repro.scene`     -- SE(3) math, procedural tabletop scenes, pinhole
  depth camera, sphere-tracing renderer, synthetic RGB-D dataset.
- :mod:`repro.nn`        -- a from-scratch numpy neural-network framework
  (dense layers, backprop, Adam, dropout with external masks, quantization).
- :mod:`repro.bayesian`  -- MC-Dropout inference, compute-reuse engine,
  sample-ordering optimisation, uncertainty metrics.
- :mod:`repro.vo`        -- visual odometry pipeline (features, model,
  training, trajectory integration, ATE/RPE evaluation).
- :mod:`repro.energy`    -- op counting and energy/TOPS/W models for the
  digital baselines and the CIM substrates.
- :mod:`repro.core`      -- the paper's contribution: co-designed
  CIM particle-filter localization and CIM MC-Dropout visual odometry.
- :mod:`repro.experiments` -- one driver per paper figure/table.
- :mod:`repro.api`       -- the public entry point: named substrate
  registry with uniform inference sessions, the typed experiment registry
  (E1-E11), JSON-round-trippable result schemas, and the
  ``python -m repro`` CLI.
- :mod:`repro.runtime`   -- batch-first execution layer: sweep plans,
  the parallel executor, and the structured on-disk run store.

Most callers should start at :mod:`repro.api`::

    from repro.api import get_substrate, run_experiment
"""

from repro.version import __version__

__all__ = ["__version__", "api", "runtime"]


def __getattr__(name: str):
    # Lazy so `import repro` stays light; `repro.api` / `repro.runtime`
    # pull in the full stack.
    if name == "api":
        import repro.api as api

        return api
    if name == "runtime":
        import repro.runtime as runtime

        return runtime
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
