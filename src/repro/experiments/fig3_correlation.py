"""E7 -- Fig. 3(f): correlation between pose error and predictive variance.

Builds a mixed-difficulty test set (clean frames plus frames corrupted by
near-range occluders, the paper's "people moving through the scene"
disturbance) and scatters per-frame pose error against MC-Dropout variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.api.substrates import SubstrateConfig
from repro.bayesian.mc_dropout import MCDropoutPredictor
from repro.bayesian.metrics import (
    area_under_sparsification_error,
    error_uncertainty_correlation,
)
from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.experiments.common import build_vo_world
from repro.sram.macro import MacroConfig
from repro.vo.features import occlude_depth, pose_to_target


@dataclass(frozen=True)
class CorrelationConfig:
    seed: int = 1
    n_iterations: int = 30
    epochs: int = 200
    n_scenes: int = 6
    frames_per_scene: int = 40
    hidden: tuple[int, ...] = (128, 64)
    engine: str = "software"
    occlusion_levels: tuple[float, ...] = (0.0, 0.15, 0.3, 0.5)


def error_uncertainty_experiment(
    cfg: CorrelationConfig, substrate: SubstrateConfig | None = None
) -> dict:
    """Regenerate the Fig. 3(f) scatter and its correlation statistics.

    ``cfg.engine`` is "software" (reference MC-Dropout) or
    "cim-4bit"/"cim-6bit" (the macro engine).  A ``substrate`` replaces
    the engine: its MC-Dropout session makes the predictions, so the
    substrate's reuse policy and precision take effect (engine strings
    would collapse cim-reuse/cim-ordered into one).

    Returns:
        Dict with per-frame errors, uncertainties, severity labels, the
        correlation statistics, and the AUSE ranking metric.
    """
    seed, n_iterations, engine = cfg.seed, cfg.n_iterations, cfg.engine
    world = build_vo_world(
        seed=seed,
        n_scenes=cfg.n_scenes,
        frames_per_scene=cfg.frames_per_scene,
        hidden=cfg.hidden,
        epochs=cfg.epochs,
    )
    pairs = world.dataset.frame_pairs(world.val_scene_index)
    encoder = world.train.encoder
    occ_rng = np.random.default_rng(seed + 42)

    features, targets, severity = [], [], []
    for level in cfg.occlusion_levels:
        for previous, current, relative in pairs:
            depth_prev = occlude_depth(previous.depth, level, occ_rng)
            depth_cur = occlude_depth(current.depth, level, occ_rng)
            features.append(encoder.encode_pair(depth_prev, depth_cur))
            targets.append(pose_to_target(relative))
            severity.append(level)
    features = world.train.feature_scaler.transform(np.stack(features, axis=0))
    targets = np.stack(targets, axis=0)
    severity = np.asarray(severity)

    if substrate is not None:
        session = substrate.mc_dropout_session(
            world.model,
            n_iterations=n_iterations,
            calibration_inputs=world.train.features[:128],
            rng=np.random.default_rng(seed),
        )
        result = session.run(features)
        mean, variance = result.mean, result.variance
    elif engine == "software":
        predictor = MCDropoutPredictor(
            world.model, n_iterations=n_iterations, rng=np.random.default_rng(seed)
        )
        mc = predictor.predict(features)
        mean, variance = mc.mean, mc.variance
    elif engine.startswith("cim-"):
        bits = int(engine.split("-")[1].replace("bit", ""))
        cim = CIMMCDropoutEngine(
            world.model,
            MacroConfig(weight_bits=bits),
            n_iterations=n_iterations,
            calibration_inputs=world.train.features[:128],
            rng=np.random.default_rng(seed),
        )
        result = cim.predict(features)
        mean, variance = result.mean, result.variance
    else:
        raise ValueError(f"unknown engine {engine!r}")

    predicted = world.train.scaler.inverse(mean)
    errors = np.linalg.norm(predicted[:, :3] - targets[:, :3], axis=1)
    uncertainties = variance.mean(axis=1)
    correlation = error_uncertainty_correlation(errors, uncertainties)
    return {
        "errors": errors,
        "uncertainties": uncertainties,
        "severity": severity,
        "correlation": correlation,
        "ause": area_under_sparsification_error(errors, uncertainties),
    }


@experiment(
    "E7",
    title="Fig 3f: error-uncertainty correlation",
    config=CorrelationConfig,
    substrates=("digital", "cim", "cim-reuse", "cim-ordered"),
)
def run_e7(
    cfg: CorrelationConfig, substrate: SubstrateConfig | None = None
) -> dict:
    """Correlation between pose error and MC-Dropout variance."""
    data = error_uncertainty_experiment(cfg, substrate)
    severity = data["severity"]
    rows = [
        {
            "occlusion": float(level),
            "mean_error_m": float(data["errors"][severity == level].mean()),
            "mean_variance": float(
                data["uncertainties"][severity == level].mean()
            ),
        }
        for level in sorted(set(severity))
    ]
    return {
        "engine": cfg.engine if substrate is None else substrate.name,
        "correlation": data["correlation"],
        "ause": data["ause"],
        "rows": rows,
    }
