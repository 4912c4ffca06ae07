"""Depth-frame feature encoding and regression-target scaling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scene.se3 import Pose, matrix_to_euler


def occlude_depth(
    depth: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
    occluder_depth: float = 0.45,
) -> np.ndarray:
    """Paint a near-range occluder rectangle over a depth frame.

    Models the paper's motivating disturbance -- people moving through the
    scene -- by overwriting a random rectangle covering ``fraction`` of the
    image with a close depth.  Used by the Fig. 3f experiment to create
    frames of varying difficulty.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    depth = np.asarray(depth, dtype=float).copy()
    if fraction == 0.0:
        return depth
    height, width = depth.shape
    area = fraction * height * width
    h = max(2, int(np.sqrt(area * rng.uniform(0.5, 2.0))))
    w = max(2, int(area / h))
    h, w = min(h, height), min(w, width)
    row = int(rng.integers(0, height - h + 1))
    col = int(rng.integers(0, width - w + 1))
    depth[row : row + h, col : col + w] = occluder_depth * (
        1.0 + 0.05 * rng.normal(size=(h, w))
    )
    return depth


class FrameEncoder:
    """Encodes a pair of depth frames into a network input vector.

    Each frame is block-averaged onto a coarse grid (NaNs treated as max
    range), normalised, and the pair plus their difference are concatenated
    -- a fixed-function front end standing in for the conv feature
    extractors of PoseNet-style models, sized for laptop-scale training.

    Args:
        grid: (rows, cols) of the coarse grid.
        max_range: depth used for invalid pixels and normalisation.
    """

    def __init__(
        self,
        grid: tuple[int, int] = (9, 12),
        max_range: float = 6.0,
    ):
        if grid[0] < 1 or grid[1] < 1:
            raise ValueError("grid must be positive")
        if max_range <= 0:
            raise ValueError("max_range must be positive")
        self.grid = (int(grid[0]), int(grid[1]))
        self.max_range = float(max_range)

    def encode_depth(self, depth: np.ndarray) -> np.ndarray:
        """One frame's normalised coarse-grid features, shape (cells,)."""
        depth = np.asarray(depth, dtype=float)
        filled = np.where(np.isfinite(depth), depth, self.max_range)
        rows, cols = self.grid
        h, w = filled.shape
        trim = filled[: (h // rows) * rows, : (w // cols) * cols]
        blocks = trim.reshape(rows, h // rows, cols, w // cols)
        grid = blocks.mean(axis=(1, 3))
        return (np.clip(grid, 0.0, self.max_range) / self.max_range).reshape(-1)

    def encode_pair(
        self, depth_prev: np.ndarray, depth_cur: np.ndarray
    ) -> np.ndarray:
        """Feature vector for a consecutive frame pair."""
        f_prev = self.encode_depth(depth_prev)
        f_cur = self.encode_depth(depth_cur)
        return np.concatenate([f_prev, f_cur, f_cur - f_prev])


def pose_to_target(relative: Pose) -> np.ndarray:
    """6-vector regression target (dx, dy, dz, droll, dpitch, dyaw)."""
    roll, pitch, yaw = matrix_to_euler(relative.rotation)
    return np.concatenate([relative.translation, [roll, pitch, yaw]])


def target_to_pose(target: np.ndarray) -> Pose:
    """Inverse of :func:`pose_to_target`."""
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.size != 6:
        raise ValueError("target must have 6 elements")
    return Pose.from_euler(target[:3], roll=target[3], pitch=target[4], yaw=target[5])


@dataclass
class Standardizer:
    """Per-dimension z-score normalisation (features and targets).

    Attributes:
        mean: (D,) dimension means.
        std: (D,) dimension standard deviations (floored away from zero).
        clip: optional symmetric bound (in sigmas) applied by
            :meth:`transform`.  Feature front-ends on edge devices are
            range-bounded; without a clip, out-of-distribution inputs on
            near-constant feature dimensions produce unbounded z-scores
            that no fixed-point datapath could represent.
    """

    mean: np.ndarray
    std: np.ndarray
    clip: float | None = None

    @staticmethod
    def fit(
        values: np.ndarray, min_std: float = 1e-4, clip: float | None = None
    ) -> "Standardizer":
        values = np.atleast_2d(np.asarray(values, dtype=float))
        return Standardizer(
            mean=values.mean(axis=0),
            std=np.maximum(values.std(axis=0), min_std),
            clip=clip,
        )

    def transform(self, values: np.ndarray) -> np.ndarray:
        scaled = (np.asarray(values, dtype=float) - self.mean) / self.std
        if self.clip is not None:
            scaled = np.clip(scaled, -self.clip, self.clip)
        return scaled

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(scaled, dtype=float) * self.std + self.mean


# Regression targets use the same z-score machinery.
TargetScaler = Standardizer
