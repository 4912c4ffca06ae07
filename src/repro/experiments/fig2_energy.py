"""E4 -- Fig. 2(i): likelihood-evaluation energy, CIM vs 8-bit digital.

Paper configuration: 500 inverter columns emulating 100 mixture
components at 45 nm; reported 374 fJ per likelihood evaluation, 25x below
an 8-bit digital GMM processor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.circuits.noise import NoiseModel
from repro.circuits.technology import NODE_45NM
from repro.circuits.variability import MismatchSampler
from repro.circuits.inverter_array import VoltageEncoder
from repro.core.codesign import program_inverter_array, hardware_sigma_menu
from repro.experiments.common import build_room_world
from repro.filtering.measurement import DigitalGMMBackend
from repro.maps.gmm import GaussianMixture
from repro.maps.hmgm import HMGMixture


@dataclass(frozen=True)
class LikelihoodEnergyConfig:
    seed: int = 7
    n_components: int = 100
    total_columns: int = 500
    n_queries: int = 2000
    adc_bits: int = 4
    digital_bits: int = 8


@experiment(
    "E4",
    title="Fig 2i: likelihood energy",
    config=LikelihoodEnergyConfig,
)
def likelihood_energy_comparison(cfg: LikelihoodEnergyConfig) -> dict:
    """Per-query likelihood energy: CIM inverter array vs 8-bit digital.

    Returns:
        Dict with per-query energies (J), the CIM/digital ratio, and the
        component breakdown of the CIM path.
    """
    node = NODE_45NM
    world = build_room_world(seed=cfg.seed)
    cloud = world.cloud
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cloud.min(axis=0) - 0.2, cloud.max(axis=0) + 0.2
    encoder = VoltageEncoder(lo=lo, hi=hi, vdd=node.vdd, margin=0.08)
    menu = hardware_sigma_menu(node, encoder)
    mixture = HMGMixture.fit(cloud, cfg.n_components, rng, sigma_menu=menu)
    array, report = program_inverter_array(
        mixture,
        encoder,
        node,
        total_columns=cfg.total_columns,
        adc_bits=cfg.adc_bits,
        mismatch=MismatchSampler(node),
        noise=NoiseModel(node),
        rng=rng,
    )
    gmm = GaussianMixture.fit(cloud, cfg.n_components, rng, min_sigma=0.08)
    digital = DigitalGMMBackend(gmm, node, bits=cfg.digital_bits)

    queries = rng.uniform(lo, hi, size=(cfg.n_queries, 3))
    array.read_log_likelihood(queries, encoder, rng=rng)
    digital.field_log(queries)

    cim_energy = array.energy_per_query()
    digital_energy = digital.ledger.total_energy_j() / cfg.n_queries
    breakdown = {
        op: array.ledger.energy(op) / cfg.n_queries for op in array.ledger.operations
    }
    return {
        "cim_energy_per_query_j": cim_energy,
        "digital_energy_per_query_j": digital_energy,
        "ratio": digital_energy / cim_energy,
        "cim_breakdown_j": breakdown,
        "physical_columns": int(array.replication.sum()),
        "paper_cim_fj": 374.0,
        "paper_ratio": 25.0,
    }
