"""Point-cloud container and utilities."""

from __future__ import annotations

import numpy as np


class PointCloud:
    """An (N, 3) set of 3D points with simple geometry utilities."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        if points.shape[0] == 0:
            raise ValueError("point cloud is empty")
        self._points = points

    @property
    def points(self) -> np.ndarray:
        return self._points

    def __len__(self) -> int:
        return self._points.shape[0]

    def subsampled(self, n: int, rng: np.random.Generator) -> "PointCloud":
        """A uniformly subsampled copy with at most ``n`` points."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n >= len(self):
            return PointCloud(self._points.copy())
        idx = rng.choice(len(self), size=n, replace=False)
        return PointCloud(self._points[idx])

    def bounds(self, padding: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (lo, hi) bounds, optionally padded."""
        lo = self._points.min(axis=0) - padding
        hi = self._points.max(axis=0) + padding
        return lo, hi

    def centroid(self) -> np.ndarray:
        return self._points.mean(axis=0)
