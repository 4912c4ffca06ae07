"""Pinhole depth camera model.

Camera frame convention (standard computer vision): +Z forward along the
optical axis, +X right, +Y down.  A camera :class:`~repro.scene.se3.Pose`
maps camera-frame points to world-frame points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.scene.se3 import Pose


def body_camera_mount(pitch_down: float = 0.0) -> Pose:
    """Camera-to-body mount for a forward-looking camera.

    Maps the CV camera frame (+Z optical axis, +X right, +Y down) onto a
    robot body frame (+X forward, +Y left, +Z up): the optical axis points
    along the body heading, optionally pitched down by ``pitch_down``
    radians (typical for a drone watching the ground ahead).
    """
    # Columns are the camera axes (right, down, forward) in the body frame.
    base = np.array(
        [
            [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
        ]
    )
    # Pitching down is a negative rotation about the camera's X (right)
    # axis: it tilts the optical axis toward the camera's +Y (down) side.
    c, s = np.cos(-pitch_down), np.sin(-pitch_down)
    pitch = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return Pose(base @ pitch, np.zeros(3))


@dataclass(frozen=True)
class PinholeCamera:
    """Pinhole intrinsics.

    Attributes:
        width: image width in pixels.
        height: image height in pixels.
        fx, fy: focal lengths in pixels.
        cx, cy: principal point in pixels.
    """

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @staticmethod
    def from_fov(width: int, height: int, fov_x_deg: float = 60.0) -> "PinholeCamera":
        """Build intrinsics from a horizontal field of view.

        The vertical focal length matches the horizontal one (square pixels)
        and the principal point is the image center.
        """
        fov_x = np.deg2rad(fov_x_deg)
        fx = (width / 2.0) / np.tan(fov_x / 2.0)
        return PinholeCamera(
            width=width,
            height=height,
            fx=fx,
            fy=fx,
            cx=(width - 1) / 2.0,
            cy=(height - 1) / 2.0,
        )

    def pixel_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of pixel coordinates (u, v), each of shape (H, W).

        Built once per camera and returned read-only: every
        :meth:`backproject` needs it.
        """
        return self._pixel_grid

    @functools.cached_property
    def _pixel_grid(self) -> tuple[np.ndarray, np.ndarray]:
        u, v = np.meshgrid(
            np.arange(self.width, dtype=float), np.arange(self.height, dtype=float)
        )
        u.flags.writeable = False
        v.flags.writeable = False
        return u, v

    def ray_directions(self) -> np.ndarray:
        """Unit ray directions in the camera frame, shape (H, W, 3)."""
        u, v = self.pixel_grid()
        x = (u - self.cx) / self.fx
        y = (v - self.cy) / self.fy
        z = np.ones_like(x)
        rays = np.stack([x, y, z], axis=-1)
        rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
        return rays

    def backproject(self, depth: np.ndarray, stride: int = 1) -> np.ndarray:
        """Lift a depth image to camera-frame 3D points.

        Args:
            depth: (H, W) array of *z-depths* (distance along the optical
                axis).  Non-finite or non-positive entries are skipped.
            stride: subsample the pixel grid by this factor.

        Returns:
            (N, 3) array of camera-frame points for valid pixels.
        """
        depth = np.asarray(depth, dtype=float)
        if depth.shape != (self.height, self.width):
            raise ValueError(
                f"depth shape {depth.shape} != camera ({self.height}, {self.width})"
            )
        u, v = self.pixel_grid()
        u = u[::stride, ::stride]
        v = v[::stride, ::stride]
        d = depth[::stride, ::stride]
        valid = np.isfinite(d) & (d > 0)
        d = d[valid]
        x = (u[valid] - self.cx) / self.fx * d
        y = (v[valid] - self.cy) / self.fy * d
        return np.stack([x, y, d], axis=-1)

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project camera-frame points to pixel coordinates.

        Args:
            points: (N, 3) camera-frame points.

        Returns:
            (pixels, valid): (N, 2) array of (u, v) and a boolean mask of
            points that land inside the image with positive depth.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        z = points[:, 2]
        safe_z = np.where(z > 0, z, np.nan)
        u = self.fx * points[:, 0] / safe_z + self.cx
        v = self.fy * points[:, 1] / safe_z + self.cy
        pixels = np.stack([u, v], axis=-1)
        # Half-pixel convention: a point projecting anywhere within the
        # area of a border pixel is in view.
        valid = (
            (z > 0)
            & (u >= -0.5)
            & (u <= self.width - 0.5)
            & (v >= -0.5)
            & (v <= self.height - 0.5)
        )
        return pixels, valid
