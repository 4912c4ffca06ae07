"""Signed-distance-field (SDF) primitives for procedural scenes.

Each primitive exposes:

- ``distance(points)``: vectorised signed distance from (N, 3) points to the
  surface (negative inside), used by the sphere-tracing renderer.
- ``sample_surface(n, rng)``: n points sampled on the surface, used to build
  synthetic "Kinect" point clouds for map fitting.
"""

from __future__ import annotations

import abc

import numpy as np


class Primitive(abc.ABC):
    """Base class for SDF primitives."""

    @abc.abstractmethod
    def distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance from (N, 3) points to the primitive surface."""

    @abc.abstractmethod
    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample n points uniformly-ish on the surface, shape (n, 3)."""

    @abc.abstractmethod
    def bounding_radius(self) -> float:
        """Radius of a sphere (around :meth:`center`) containing the surface."""

    @abc.abstractmethod
    def center(self) -> np.ndarray:
        """A representative center point of the primitive."""


class Sphere(Primitive):
    """A sphere given by center and radius."""

    def __init__(self, center: np.ndarray, radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self._center = np.asarray(center, dtype=float).reshape(3)
        self._radius = float(radius)

    @property
    def radius(self) -> float:
        return self._radius

    def distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(points - self._center, axis=-1) - self._radius

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        return self._center + self._radius * directions

    def bounding_radius(self) -> float:
        return self._radius

    def center(self) -> np.ndarray:
        return self._center.copy()


class Box(Primitive):
    """An axis-aligned box given by center and full extents (ex, ey, ez)."""

    def __init__(self, center: np.ndarray, extents: np.ndarray):
        self._center = np.asarray(center, dtype=float).reshape(3)
        self._half = np.asarray(extents, dtype=float).reshape(3) / 2.0
        if np.any(self._half <= 0):
            raise ValueError(f"extents must be positive, got {extents}")

    def distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.abs(points - self._center) - self._half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ex, ey, ez = 2.0 * self._half
        # Face areas for +-x, +-y, +-z pairs.
        areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
        face = rng.choice(6, size=n, p=areas / areas.sum())
        u = rng.uniform(-1.0, 1.0, size=(n, 3)) * self._half
        points = u.copy()
        axis = face // 2
        sign = np.where(face % 2 == 0, 1.0, -1.0)
        points[np.arange(n), axis] = sign * self._half[axis]
        return points + self._center

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self._half))

    def center(self) -> np.ndarray:
        return self._center.copy()


class Cylinder(Primitive):
    """A vertical (Z-aligned) capped cylinder: center, radius, height."""

    def __init__(self, center: np.ndarray, radius: float, height: float):
        if radius <= 0 or height <= 0:
            raise ValueError("radius and height must be positive")
        self._center = np.asarray(center, dtype=float).reshape(3)
        self._radius = float(radius)
        self._half_height = float(height) / 2.0

    @property
    def radius(self) -> float:
        return self._radius

    @property
    def height(self) -> float:
        return 2.0 * self._half_height

    def distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        local = points - self._center
        radial = np.linalg.norm(local[:, :2], axis=-1) - self._radius
        axial = np.abs(local[:, 2]) - self._half_height
        q = np.stack([radial, axial], axis=-1)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        side_area = 2.0 * np.pi * self._radius * 2.0 * self._half_height
        cap_area = np.pi * self._radius**2
        probs = np.array([side_area, cap_area, cap_area])
        probs = probs / probs.sum()
        which = rng.choice(3, size=n, p=probs)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        points = np.zeros((n, 3))
        side = which == 0
        points[side, 0] = self._radius * np.cos(theta[side])
        points[side, 1] = self._radius * np.sin(theta[side])
        points[side, 2] = rng.uniform(-self._half_height, self._half_height, size=side.sum())
        for cap_index, z_sign in ((1, 1.0), (2, -1.0)):
            cap = which == cap_index
            r = self._radius * np.sqrt(rng.uniform(0.0, 1.0, size=cap.sum()))
            points[cap, 0] = r * np.cos(theta[cap])
            points[cap, 1] = r * np.sin(theta[cap])
            points[cap, 2] = z_sign * self._half_height
        return points + self._center

    def bounding_radius(self) -> float:
        return float(np.hypot(self._radius, self._half_height))

    def center(self) -> np.ndarray:
        return self._center.copy()


class Plane(Primitive):
    """An infinite plane ``normal . p = offset`` (SDF positive on normal side).

    ``sample_surface`` draws from a disc of ``patch_radius`` around the point
    of the plane closest to ``patch_center``.
    """

    def __init__(
        self,
        normal: np.ndarray,
        offset: float,
        patch_center: np.ndarray | None = None,
        patch_radius: float = 2.0,
    ):
        normal = np.asarray(normal, dtype=float).reshape(3)
        norm = np.linalg.norm(normal)
        if norm == 0:
            raise ValueError("plane normal must be non-zero")
        self._normal = normal / norm
        self._offset = float(offset) / norm
        if patch_center is None:
            patch_center = self._offset * self._normal
        self._patch_center = self._project(np.asarray(patch_center, dtype=float))
        self._patch_radius = float(patch_radius)

    def _project(self, point: np.ndarray) -> np.ndarray:
        return point - (point @ self._normal - self._offset) * self._normal

    def distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points @ self._normal - self._offset

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Build an orthonormal basis (u, v) of the plane.
        helper = np.array([1.0, 0.0, 0.0])
        if abs(self._normal @ helper) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        u = np.cross(self._normal, helper)
        u /= np.linalg.norm(u)
        v = np.cross(self._normal, u)
        radii = self._patch_radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return (
            self._patch_center
            + radii[:, None] * np.cos(theta)[:, None] * u
            + radii[:, None] * np.sin(theta)[:, None] * v
        )

    def bounding_radius(self) -> float:
        return self._patch_radius

    def center(self) -> np.ndarray:
        return self._patch_center.copy()
