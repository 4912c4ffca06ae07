"""E6 -- Fig. 3(c-e): MC-Dropout VO trajectories vs deterministic configs.

Integrates predicted frame-to-frame increments over the held-out scene and
compares trajectories in the X-Y / Y-Z / X-Z planes against ground truth,
across inference conditions: deterministic float, deterministic quantised,
and CIM MC-Dropout at 4- and 6-bit weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.api.substrates import SubstrateConfig
from repro.bayesian.mc_dropout import MCDropoutPredictor
from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.experiments.common import _keyed_rng, build_vo_world
from repro.nn.quantization import quantize_model_weights
from repro.sram.macro import MacroConfig
from repro.vo.evaluation import trajectory_report
from repro.vo.odometry import increments_from_predictions, integrate_increments


# Spawn key (experiment number, purpose) of E6's substrate session.
_E6_SESSION = (6, 0)


def _copy_model(world):
    """Clone the trained model (for destructive weight quantisation)."""
    import copy

    return copy.deepcopy(world.model)


@dataclass(frozen=True)
class VOTrajectoryConfig:
    seed: int = 1
    n_iterations: int = 30
    epochs: int = 200
    n_scenes: int = 6
    frames_per_scene: int = 40
    hidden: tuple[int, ...] = (128, 64)
    modes: tuple[str, ...] = (
        "deterministic-float",
        "deterministic-4bit",
        "mc-cim-4bit",
        "mc-cim-6bit",
    )


def _vo_world(cfg: VOTrajectoryConfig):
    return build_vo_world(
        seed=cfg.seed,
        n_scenes=cfg.n_scenes,
        frames_per_scene=cfg.frames_per_scene,
        hidden=cfg.hidden,
        epochs=cfg.epochs,
    )


def _path_length(positions: np.ndarray) -> float:
    """Length (m) of the polyline through ``positions`` (T, 3)."""
    return float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum())


def _positions(poses) -> np.ndarray:
    """(T, 3) translations of a pose sequence."""
    return np.stack([pose.translation for pose in poses], axis=0)


def _held_out_poses(world) -> list:
    """Ground-truth poses of the held-out scene: its trajectory, the
    poses its frames are rendered at (no frame is rendered here)."""
    return list(world.dataset.trajectory(world.val_scene_index))


def _integrate_held_out(world, predictions: np.ndarray) -> tuple[list, dict]:
    """Integrate predicted increments over the held-out scene from its
    first ground-truth pose: ``(estimated poses, trajectory report)``."""
    gt_poses = _held_out_poses(world)
    increments = increments_from_predictions(predictions, world.val.scaler)
    estimated = integrate_increments(gt_poses[0], increments)
    return estimated, trajectory_report(estimated, gt_poses)


def vo_trajectory_experiment(cfg: VOTrajectoryConfig) -> dict:
    """Regenerate the Fig. 3(c-e) trajectory comparison over ``cfg.modes``.

    Returns:
        Dict with "ground_truth" positions (T, 3), per-mode estimated
        positions, per-mode trajectory metrics, and per-mode per-step
        uncertainty (MC modes only).
    """
    seed, n_iterations = cfg.seed, cfg.n_iterations
    world = _vo_world(cfg)
    val = world.val
    results: dict = {
        "ground_truth": _positions(_held_out_poses(world)),
        "modes": {},
    }
    for mode in cfg.modes:
        uncertainty = None
        if mode == "deterministic-float":
            predictor = MCDropoutPredictor(world.model, n_iterations=1)
            predictions = predictor.deterministic(val.features)
        elif mode.startswith("deterministic-"):
            bits = int(mode.split("-")[1].replace("bit", ""))
            model = _copy_model(world)
            quantize_model_weights(model, bits)
            predictor = MCDropoutPredictor(model, n_iterations=1)
            predictions = predictor.deterministic(val.features)
        elif mode.startswith("mc-cim-"):
            bits = int(mode.split("-")[2].replace("bit", ""))
            engine = CIMMCDropoutEngine(
                world.model,
                MacroConfig(weight_bits=bits),
                n_iterations=n_iterations,
                calibration_inputs=world.train.features[:128],
                rng=np.random.default_rng(seed + 77),
            )
            mc = engine.predict(val.features)
            predictions = mc.mean
            uncertainty = mc.variance.mean(axis=1)
        elif mode == "mc-software":
            predictor = MCDropoutPredictor(
                world.model, n_iterations=n_iterations,
                rng=np.random.default_rng(seed + 78),
            )
            mc = predictor.predict(val.features)
            predictions = mc.mean
            uncertainty = mc.variance.mean(axis=1)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        estimated, report = _integrate_held_out(world, predictions)
        results["modes"][mode] = {
            "positions": _positions(estimated),
            "report": report,
            "uncertainty": uncertainty,
        }
    return results


@experiment(
    "E6",
    title="Fig 3c-e: VO trajectories",
    config=VOTrajectoryConfig,
    substrates=("digital", "cim", "cim-reuse", "cim-ordered"),
)
def run_e6(
    cfg: VOTrajectoryConfig, substrate: SubstrateConfig | None = None
) -> dict:
    """ATE of MC-Dropout VO across inference conditions or one substrate."""
    if substrate is None:
        data = vo_trajectory_experiment(cfg)
        return {
            "ate_rmse_m": {
                mode: result["report"]["ate_rmse_m"]
                for mode, result in data["modes"].items()
            },
            "path_length_m": _path_length(data["ground_truth"]),
        }
    # Substrate override: run the held-out scene through one uniform
    # MC-Dropout session and integrate the predicted increments.
    world = _vo_world(cfg)
    session = substrate.mc_dropout_session(
        world.model,
        n_iterations=cfg.n_iterations,
        calibration_inputs=world.train.features[:128],
        rng=_keyed_rng(cfg.seed, _E6_SESSION),
    )
    result = session.run(world.val.features)
    _, report = _integrate_held_out(world, result.mean)
    return {
        "ate_rmse_m": {substrate.name: report["ate_rmse_m"]},
        "path_length_m": _path_length(_positions(_held_out_poses(world))),
        "report": report,
        "ops_executed": result.ops_executed,
        "ops_naive": result.ops_naive,
        "reuse_savings": result.reuse_savings,
        "energy_j": result.energy_j,
        "mean_uncertainty": None
        if result.variance is None
        else float(result.variance.mean()),
    }
