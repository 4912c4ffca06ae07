"""E3 -- Fig. 2(e-h): localization accuracy across likelihood substrates.

Flies the same room trajectory through the particle filter once per
likelihood substrate (float and 8-bit digital GMM, the inverter-array
CIM) from one perturbed prior, and reports each run's error rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.api.substrates import SubstrateConfig, get_substrate
from repro.experiments.common import _keyed_rng, build_room_world

# Spawn keys (experiment number, purpose) of E3's two run streams.
_E3_SESSION, _E3_RUN = (3, 0), (3, 1)


@dataclass(frozen=True)
class LocalizationConfig:
    seed: int = 7
    n_steps: int = 25
    n_particles: int = 400
    n_components: int = 64
    n_cloud_points: int = 3000
    image: tuple[int, int] = (40, 30)
    substrates: tuple[str, ...] = ("digital-float", "digital", "cim")
    prior_offset: tuple[float, float, float, float] = (0.4, -0.3, 0.15, 0.2)
    prior_sigma: tuple[float, float, float, float] = (0.5, 0.5, 0.3, 0.3)


@experiment(
    "E3",
    title="Fig 2e-h: localization comparison",
    config=LocalizationConfig,
    substrates=("digital", "digital-float", "cim", "cim-reuse", "cim-ordered"),
)
def localization_comparison(
    cfg: LocalizationConfig, substrate: SubstrateConfig | None = None
) -> dict:
    """Same flight through each likelihood substrate; accuracy rows.

    Runs ``cfg.substrates``, or only ``substrate`` when given.
    Reuse/ordering are MC-Dropout concepts, so the ``cim*`` substrates all
    map to the particle filter's ``"cim"`` likelihood backend; each row
    reports both the requested ``substrate`` and the physical ``backend``.
    """
    world = build_room_world(
        seed=cfg.seed,
        n_steps=cfg.n_steps,
        n_cloud_points=cfg.n_cloud_points,
        image=cfg.image,
    )
    names = (substrate.name,) if substrate else cfg.substrates
    rows = []
    for name in names:
        session = get_substrate(name).localization_session(
            world.cloud,
            world.camera,
            camera_mount=world.mount,
            n_components=cfg.n_components,
            n_particles=cfg.n_particles,
            rng=_keyed_rng(cfg.seed, _E3_SESSION),
        )
        run_rng = _keyed_rng(cfg.seed, _E3_RUN)
        start = world.states[0] + np.asarray(cfg.prior_offset)
        session.initialize_tracking(start, np.asarray(cfg.prior_sigma), run_rng)
        result = session.run(
            (world.controls, world.depths, world.states), rng=run_rng
        )
        row = dict(result.extras["summary"])
        row["substrate"] = name
        row["energy_j"] = result.energy_j
        rows.append(row)
    return {"rows": rows}
