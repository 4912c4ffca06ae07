"""Rigid-body (SE(3)) pose math.

All rotations are represented as 3x3 orthonormal matrices internally; helpers
convert to/from XYZ Euler angles.  A :class:`Pose` maps
points from its local frame to the world frame: ``p_world = R @ p_local + t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def rotation_x(angle: float) -> np.ndarray:
    """Rotation matrix about the +X axis by ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle: float) -> np.ndarray:
    """Rotation matrix about the +Y axis by ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle: float) -> np.ndarray:
    """Rotation matrix about the +Z axis by ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_to_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Compose an XYZ (roll-pitch-yaw) Euler triple into a rotation matrix.

    Convention: ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)`` (intrinsic x-y-z).
    """
    return rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll)


def matrix_to_euler(rotation: np.ndarray) -> tuple[float, float, float]:
    """Recover (roll, pitch, yaw) from a rotation matrix.

    Inverse of :func:`euler_to_matrix`.  At the gimbal-lock singularity
    (|pitch| = pi/2) the roll is arbitrarily set to zero.
    """
    rotation = np.asarray(rotation, dtype=float)
    sin_pitch = -rotation[2, 0]
    sin_pitch = np.clip(sin_pitch, -1.0, 1.0)
    pitch = float(np.arcsin(sin_pitch))
    if abs(sin_pitch) < 1.0 - 1e-9:
        roll = float(np.arctan2(rotation[2, 1], rotation[2, 2]))
        yaw = float(np.arctan2(rotation[1, 0], rotation[0, 0]))
    else:
        roll = 0.0
        yaw = float(np.arctan2(-rotation[0, 1], rotation[1, 1]))
    return roll, pitch, yaw


def rotation_angle(rotation: np.ndarray) -> float:
    """Geodesic angle (radians, in [0, pi]) of a rotation matrix."""
    m = np.asarray(rotation, dtype=float)
    # atan2(|skew part|, trace-derived cos): arccos((tr-1)/2) alone loses
    # all precision near identity (cos(1e-8) rounds to 1.0 -> angle 0).
    sin_term = 0.5 * np.sqrt(
        (m[2, 1] - m[1, 2]) ** 2
        + (m[0, 2] - m[2, 0]) ** 2
        + (m[1, 0] - m[0, 1]) ** 2
    )
    cos_term = 0.5 * (float(np.trace(m)) - 1.0)
    return float(np.arctan2(sin_term, cos_term))


def _project_to_so3(matrix: np.ndarray) -> np.ndarray:
    """Project a near-rotation matrix onto SO(3) via SVD."""
    u, _, vt = np.linalg.svd(matrix)
    rotation = u @ vt
    if np.linalg.det(rotation) < 0:
        u[:, -1] = -u[:, -1]
        rotation = u @ vt
    return rotation


@dataclass(frozen=True)
class Pose:
    """A rigid transform mapping local coordinates to world coordinates.

    Attributes:
        rotation: 3x3 orthonormal matrix.
        translation: length-3 vector (the local origin in world frame).
    """

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        translation = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @staticmethod
    def identity() -> "Pose":
        """The identity transform."""
        return Pose()

    @staticmethod
    def from_euler(
        position: np.ndarray, roll: float = 0.0, pitch: float = 0.0, yaw: float = 0.0
    ) -> "Pose":
        """Build a pose from a position and XYZ Euler angles."""
        return Pose(euler_to_matrix(roll, pitch, yaw), np.asarray(position, dtype=float))

    def compose(self, other: "Pose") -> "Pose":
        """Compose with another pose: ``self @ other`` (apply other first)."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        """The inverse transform."""
        rotation_t = self.rotation.T
        return Pose(rotation_t, -rotation_t @ self.translation)

    def relative_to(self, reference: "Pose") -> "Pose":
        """Express this pose in the frame of ``reference``.

        ``reference @ result == self``; the usual frame-to-frame odometry
        increment between consecutive camera poses.
        """
        return reference.inverse().compose(self)

    def transform_points(self, points: np.ndarray) -> np.ndarray:
        """Map an (N, 3) array of local points into the world frame."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def rotate_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate (N, 3) direction vectors into the world frame (no shift)."""
        return np.asarray(vectors, dtype=float) @ self.rotation.T

    def orthonormalized(self) -> "Pose":
        """Return a copy with the rotation re-projected onto SO(3).

        Useful after long chains of composed increments where floating-point
        drift accumulates.
        """
        return Pose(_project_to_so3(self.rotation), self.translation)
