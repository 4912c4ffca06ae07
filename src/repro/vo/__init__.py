"""Deep visual odometry on synthetic RGB-D sequences (paper Sec. III).

A compact end-to-end stack: depth-frame pairs are encoded into feature
vectors, a dropout-equipped regression network predicts the 6-DoF frame-to-
frame motion, increments are chained into a trajectory, and ATE/RPE metrics
score it against ground truth.  The same trained network runs in three
modes: deterministic float, deterministic quantised, and MC-Dropout on the
CIM macro (via :mod:`repro.core.cim_mc_dropout`).
"""

from repro.vo.features import FrameEncoder, TargetScaler
from repro.vo.model import build_vo_mlp
from repro.vo.trainer import VODataset, VOTrainer
from repro.vo.odometry import integrate_increments, increments_from_predictions
from repro.vo.evaluation import ate_rmse, relative_pose_errors, trajectory_report

__all__ = [
    "FrameEncoder",
    "TargetScaler",
    "build_vo_mlp",
    "VODataset",
    "VOTrainer",
    "integrate_increments",
    "increments_from_predictions",
    "ate_rmse",
    "relative_pose_errors",
    "trajectory_report",
]
