"""Uncertainty-aware visual odometry (paper Fig. 3c-f).

Trains the MC-Dropout VO network on synthetic RGB-D sequences, integrates
trajectories under several inference conditions, and demonstrates that the
predictive variance flags disturbed (occluded) frames.

Run:  python examples/uncertainty_aware_vo.py
"""

import numpy as np

from repro.experiments.fig3_correlation import (
    CorrelationConfig,
    error_uncertainty_experiment,
)
from repro.experiments.fig3_trajectory import (
    VOTrajectoryConfig,
    vo_trajectory_experiment,
)


def trajectories() -> None:
    print("=" * 70)
    print("VO trajectories across inference conditions, Fig. 3(c-e)")
    print("=" * 70)
    data = vo_trajectory_experiment(
        VOTrajectoryConfig(
            modes=(
                "deterministic-float",
                "deterministic-4bit",
                "mc-software",
                "mc-cim-4bit",
                "mc-cim-6bit",
            )
        )
    )
    gt = data["ground_truth"]
    print(f"ground-truth path: {len(gt)} poses, "
          f"{np.linalg.norm(np.diff(gt, axis=0), axis=1).sum():.2f} m long")
    print(f"\n{'mode':>22} {'ATE rmse':>10} {'RPE trans':>10} {'final err':>10}")
    for mode, result in data["modes"].items():
        report = result["report"]
        print(
            f"{mode:>22} {report['ate_rmse_m']:>10.3f} "
            f"{report['rpe_trans_mean_m']:>10.3f} "
            f"{report['final_position_error_m']:>10.3f}"
        )
    # Print the X-Y projection the paper plots (first/last few points).
    mc = data["modes"]["mc-cim-4bit"]["positions"]
    print("\nX-Y trajectory samples (gt -> mc-cim-4bit):")
    for k in np.linspace(0, len(gt) - 1, 6).astype(int):
        print(
            f"  t={k:2d}  gt=({gt[k, 0]:+.2f}, {gt[k, 1]:+.2f})   "
            f"est=({mc[k, 0]:+.2f}, {mc[k, 1]:+.2f})"
        )


def uncertainty_correlation() -> None:
    print("\n" + "=" * 70)
    print("Error vs predictive uncertainty, Fig. 3(f)")
    print("=" * 70)
    for engine in ("software", "cim-4bit"):
        data = error_uncertainty_experiment(CorrelationConfig(engine=engine))
        corr = data["correlation"]
        print(
            f"{engine:>10}: pearson r = {corr['pearson']:.3f}, "
            f"spearman rho = {corr['spearman']:.3f}, AUSE = {data['ause']:.3f}"
        )
        for level in sorted(set(data["severity"])):
            mask = data["severity"] == level
            print(
                f"    occlusion {level:.2f}: error {data['errors'][mask].mean():.3f} m, "
                f"variance {data['uncertainties'][mask].mean():.3f}"
            )


if __name__ == "__main__":
    trajectories()
    uncertainty_correlation()
