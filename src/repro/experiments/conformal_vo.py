"""E11 (extension) -- Sec. IV future work: Monte-Carlo-free uncertainty.

The paper's conclusion proposes conformal inference as the edge-friendly
alternative to MC-Dropout.  This experiment wraps the *deterministic* VO
network with split-conformal intervals (one forward pass instead of 30)
and compares calibration quality and compute cost against MC-Dropout,
including an adaptive-conformal run under distribution shift (occluders).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import experiment
from repro.bayesian.conformal import (
    AdaptiveConformalInference,
    SplitConformalRegressor,
)
from repro.bayesian.mc_dropout import MCDropoutPredictor
from repro.experiments.common import build_vo_world
from repro.vo.features import occlude_depth, pose_to_target


@dataclass(frozen=True)
class ConformalConfig:
    seed: int = 1
    alpha: float = 0.1
    n_mc_iterations: int = 30
    epochs: int = 200


@experiment(
    "E11",
    title="Sec IV: conformal extension",
    config=ConformalConfig,
)
def conformal_vo_experiment(cfg: ConformalConfig) -> dict:
    """Split/adaptive conformal vs MC-Dropout coverage and cost.

    Returns:
        Dict with coverage/width/compute rows for both methods, plus the
        adaptive-conformal trace under occlusion shift.
    """
    seed, alpha, n_mc_iterations = cfg.seed, cfg.alpha, cfg.n_mc_iterations
    world = build_vo_world(seed=seed, epochs=cfg.epochs)
    model = world.model

    def deterministic_predict(x: np.ndarray) -> np.ndarray:
        model.eval()
        return model.forward(np.atleast_2d(x))

    # Split-conformal protocol: calibration and test must be exchangeable,
    # so both come from the held-out scene (odd/even frame pairs).  The
    # *training* scenes feed the adaptive-shift study below instead --
    # calibrating there and testing on a new scene breaks exchangeability,
    # which is exactly the regime adaptive conformal exists for.
    x_val, y_val = world.val.features, world.val.targets
    x_cal, y_cal = x_val[0::2], y_val[0::2]
    x_test, y_test = x_val[1::2], y_val[1::2]

    conformal = SplitConformalRegressor(deterministic_predict, alpha=alpha)
    conformal.calibrate(x_cal, y_cal)
    conformal_coverage = conformal.coverage(x_test, y_test)
    conformal_width = conformal.mean_interval_width(x_test)

    predictor = MCDropoutPredictor(
        model, n_iterations=n_mc_iterations, rng=np.random.default_rng(seed)
    )
    mc = predictor.predict(x_test)
    mc_stds = np.sqrt(mc.variance)
    mc_coverage = float(
        np.mean(
            (y_test >= mc.mean - 2.0 * mc_stds) & (y_test <= mc.mean + 2.0 * mc_stds)
        )
    )
    mc_width = float((4.0 * mc_stds).mean())

    # Adaptive conformal under shift: stream of occluded frames.
    pairs = world.dataset.frame_pairs(world.val_scene_index)
    occ_rng = np.random.default_rng(seed + 9)
    stream_x, stream_y = [], []
    for level in (0.0, 0.3, 0.5):
        for previous, current, relative in pairs:
            depth_prev = occlude_depth(previous.depth, level, occ_rng)
            depth_cur = occlude_depth(current.depth, level, occ_rng)
            stream_x.append(
                world.train.encoder.encode_pair(depth_prev, depth_cur)
            )
            stream_y.append(pose_to_target(relative))
    stream_x = world.train.feature_scaler.transform(np.stack(stream_x))
    stream_y = world.train.scaler.transform(np.stack(stream_y))

    static = SplitConformalRegressor(deterministic_predict, alpha=alpha)
    static.calibrate(x_cal, y_cal)
    static_coverage = static.coverage(stream_x, stream_y)

    adaptive = AdaptiveConformalInference.from_calibration(
        deterministic_predict, x_cal, y_cal, alpha=alpha, gamma=0.03
    )
    for k in range(stream_x.shape[0]):
        adaptive.step(stream_x[k], stream_y[k])
    adaptive_coverage = adaptive.realised_coverage()

    return {
        "alpha": alpha,
        "rows": [
            {
                "method": f"MC-Dropout (T={n_mc_iterations}), +-2 sigma",
                "coverage": mc_coverage,
                "mean_width": mc_width,
                "forward_passes": n_mc_iterations,
            },
            {
                "method": "split conformal",
                "coverage": conformal_coverage,
                "mean_width": conformal_width,
                "forward_passes": 1,
            },
        ],
        "shift": {
            "static_conformal_coverage": static_coverage,
            "adaptive_conformal_coverage": adaptive_coverage,
            "target_coverage": 1.0 - alpha,
        },
    }
