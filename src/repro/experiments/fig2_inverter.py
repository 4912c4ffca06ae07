"""E1/E2 -- Fig. 2(b-d): inverter switching-current transfer functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.circuits.inverter import (
    LikelihoodInverter,
    SwitchingCurrentCell,
    gaussian_equivalent_sigma,
    width_code_sigmas,
)
from repro.circuits.technology import NODE_45NM
from repro.maps.hmg import tail_rectilinearity

# Requested peak positions (V) of the Fig. 2b bells.
CENTERS = (0.35, 0.5, 0.65)


@dataclass(frozen=True)
class InverterConfig:
    seed: int = 0
    n_grid: int = 201


def inverter_transfer_data(cfg: InverterConfig) -> dict:
    """Regenerate the Fig. 2(b-d) data.

    Returns:
        Dict with:
        - "sweep_v": voltage grid;
        - "sweeps": per-center 1D current bells (Fig. 2b);
        - "peak_shift_error": worst |achieved - requested| peak position;
        - "grid_2d": 2D current map of a two-input stack (Fig. 2c/d);
        - "rectilinearity": (hmg_ratio, gaussian_ratio) contour box-ness
          (the quantitative "rectilinear vs elliptical tails" of Fig. 2c);
        - "width_menu_v": effective sigma per width code.
    """
    node, n_grid = NODE_45NM, cfg.n_grid
    v = np.linspace(0.0, node.vdd, n_grid)
    sweeps = {}
    peak_errors = []
    for center in CENTERS:
        cell = SwitchingCurrentCell(node, v_center=center, width_code=1)
        current = cell.current(v)
        sweeps[center] = current
        peak_errors.append(abs(v[int(np.argmax(current))] - cell.achieved_center))
    inverter = LikelihoodInverter.from_centers(
        node, [node.vdd / 2.0, node.vdd / 2.0], width_codes=[1, 1]
    )
    vx, vy = np.meshgrid(v, v, indexing="ij")
    points = np.stack([vx.reshape(-1), vy.reshape(-1)], axis=1)
    grid_2d = inverter.current(points).reshape(n_grid, n_grid)
    hmg_ratio, gauss_ratio = tail_rectilinearity(level=1e-3)
    return {
        "sweep_v": v,
        "sweeps": sweeps,
        "peak_shift_error": float(max(peak_errors)),
        "grid_2d": grid_2d,
        "rectilinearity": (hmg_ratio, gauss_ratio),
        "width_menu_v": width_code_sigmas(node),
        "sigma_code0_v": gaussian_equivalent_sigma(
            SwitchingCurrentCell(node, node.vdd / 2.0, width_code=0)
        ),
    }


@experiment(
    "E1",
    title="Fig 2b-d: inverter transfer functions",
    config=InverterConfig,
)
def run_e1(cfg: InverterConfig) -> dict:
    """Switching-current bells, peak-shift error and tail rectilinearity."""
    data = inverter_transfer_data(cfg)
    return {
        "peak_shift_error_v": data["peak_shift_error"],
        "rectilinearity": data["rectilinearity"],
    }
