"""E10 -- Sec. II-C: HMGM map fit quality vs the conventional GMM."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.circuits.inverter_array import VoltageEncoder
from repro.circuits.technology import NODE_45NM
from repro.core.codesign import hardware_sigma_menu
from repro.core.tiling import tiled_sigma_menu
from repro.experiments.common import build_room_world
from repro.maps.gmm import GaussianMixture
from repro.maps.hmgm import HMGMixture


@dataclass(frozen=True)
class MapFidelityConfig:
    seed: int = 7
    n_components: int = 64
    tiles: tuple[int, int, int] = (2, 2, 2)


@experiment(
    "E10",
    title="Sec II-C: map fidelity",
    config=MapFidelityConfig,
)
def map_fidelity(cfg: MapFidelityConfig) -> dict:
    """Held-out log-likelihood of GMM vs hardware-native HMGM maps.

    Compares: free GMM, width-quantised HMGM (single-array menu), and
    width-quantised HMGM under the tiled menu, on train/held-out split of
    the mapping cloud.

    Returns:
        Dict of per-model mean held-out log-likelihood plus the log-field
        correlation between each HMGM and the GMM (what the particle filter
        actually consumes).
    """
    node, n_components = NODE_45NM, cfg.n_components
    world = build_room_world(seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    cloud = world.cloud
    split = rng.permutation(cloud.shape[0])
    train = cloud[split[: int(0.8 * cloud.shape[0])]]
    held = cloud[split[int(0.8 * cloud.shape[0]) :]]

    lo, hi = cloud.min(axis=0) - 0.2, cloud.max(axis=0) + 0.2
    encoder = VoltageEncoder(lo=lo, hi=hi, vdd=node.vdd, margin=0.08)
    menu_single = hardware_sigma_menu(node, encoder)
    menu_tiled = tiled_sigma_menu(node, lo, hi, cfg.tiles)

    gmm = GaussianMixture.fit(train, n_components, rng, min_sigma=0.08)
    hmgm_single = HMGMixture.fit(train, n_components, rng, sigma_menu=menu_single)
    hmgm_tiled = HMGMixture.fit(train, n_components, rng, sigma_menu=menu_tiled)

    probe = rng.uniform(lo, hi, size=(1500, 3))
    gmm_log = gmm.logpdf(probe)
    return {
        "held_out_loglik": {
            "gmm": gmm.mean_loglik(held),
            "hmgm_single": hmgm_single.mean_loglik(held),
            "hmgm_tiled": hmgm_tiled.mean_loglik(held),
        },
        "field_correlation_vs_gmm": {
            "hmgm_single": float(
                np.corrcoef(gmm_log, hmgm_single.logpdf(probe))[0, 1]
            ),
            "hmgm_tiled": float(
                np.corrcoef(gmm_log, hmgm_tiled.logpdf(probe))[0, 1]
            ),
        },
        "min_width_m": {
            "single": float(menu_single.min()),
            "tiled": float(menu_tiled.min()),
        },
    }
