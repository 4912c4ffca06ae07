"""E8 -- Sec. III-D: macro efficiency (TOPS/W) at 4- and 6-bit precision.

The paper benchmarks 3.04 TOPS/W at 4-bit and ~2 TOPS/W at 6-bit for
30-iteration MC-Dropout at 16 nm / 1 GHz / 0.85 V.  Our macro model is
behavioural, so the absolute scale is set by the calibration constants in
:class:`~repro.sram.macro.MacroConfig`; the experiment reports both the
raw macro-level figure and a system-scaled figure (see
``SYSTEM_ENERGY_OVERHEAD_FACTOR``), and the *ratios* across precision /
reuse configurations are mechanistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.experiments.common import build_vo_world
from repro.sram.macro import MacroConfig

# One documented scale factor maps the behavioural macro energy to the
# paper's system-level operating point (controller, buffers, clocking and
# interconnect the behavioural model omits).  Calibrated once so the 4-bit
# reuse+ordering configuration lands at the paper's 3.04 TOPS/W.
SYSTEM_ENERGY_OVERHEAD_FACTOR = 1400.0

# The (reuse, ordering) engine configurations swept at each precision.
CONFIGURATIONS = ((True, True), (True, False), (False, False))


@dataclass(frozen=True)
class EfficiencyConfig:
    seed: int = 1
    weight_bits: tuple[int, ...] = (4, 6)
    n_iterations: int = 30
    batch: int = 8
    epochs: int = 200


@experiment(
    "E8",
    title="Sec III-D: TOPS/W table",
    config=EfficiencyConfig,
)
def efficiency_table(cfg: EfficiencyConfig) -> dict:
    """Macro efficiency across precision x (reuse, ordering).

    Returns:
        Dict with "rows": one dict per configuration with executed-op
        fraction, macro TOPS/W, and system-scaled TOPS/W.
    """
    seed = cfg.seed
    world = build_vo_world(seed=seed, epochs=cfg.epochs)
    inputs = world.val.features[: cfg.batch]
    rows = []
    for bits in cfg.weight_bits:
        for reuse, ordering in CONFIGURATIONS:
            engine = CIMMCDropoutEngine(
                world.model,
                MacroConfig(weight_bits=bits),
                n_iterations=cfg.n_iterations,
                reuse=reuse,
                ordering=ordering,
                calibration_inputs=world.train.features[:128],
                rng=np.random.default_rng(seed + 5),
            )
            result = engine.predict(inputs)
            macro_tops = result.tops_per_watt()
            rows.append(
                {
                    "weight_bits": bits,
                    "reuse": reuse,
                    "ordering": ordering,
                    "executed_fraction": result.ops_executed / result.ops_naive,
                    "macro_tops_per_watt": macro_tops,
                    "system_tops_per_watt": macro_tops
                    / SYSTEM_ENERGY_OVERHEAD_FACTOR,
                    "energy_j": result.energy.total_energy_j(),
                }
            )
    return {
        "rows": rows,
        "paper": {"4bit_tops_per_watt": 3.04, "6bit_tops_per_watt": 2.0},
    }
