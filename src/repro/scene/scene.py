"""Composable 3D scenes built from SDF primitives.

A :class:`Scene` is a union of primitives; its SDF is the pointwise minimum.
``make_tabletop_scene`` procedurally generates scenes with the flavour of the
RGB-D Scenes Dataset v2 used by the paper: a table top carrying a handful of
household-object-sized primitives above a floor plane.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.scene.primitives import Box, Cylinder, Plane, Primitive, Sphere


class Scene:
    """A union of SDF primitives with point-cloud sampling utilities."""

    def __init__(self, primitives: Sequence[Primitive], name: str = "scene"):
        if not primitives:
            raise ValueError("a scene needs at least one primitive")
        self._primitives = list(primitives)
        self.name = name

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Scene SDF: minimum over primitive SDFs, shape (N,)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        distances = np.stack([p.distance(points) for p in self._primitives], axis=0)
        return distances.min(axis=0)

    def normals(self, points: np.ndarray, eps: float = 1e-4) -> np.ndarray:
        """Estimate outward surface normals via central finite differences."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        grad = np.zeros_like(points)
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = eps
            grad[:, axis] = self.distance(points + offset) - self.distance(points - offset)
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return grad / norms

    def sample_point_cloud(
        self,
        n_points: int,
        rng: np.random.Generator,
        noise_std: float = 0.0,
        weights: Sequence[float] | None = None,
    ) -> np.ndarray:
        """Sample a synthetic scanner point cloud from all primitive surfaces.

        Args:
            n_points: total number of points.
            rng: random generator.
            noise_std: isotropic Gaussian sensor noise added to each point.
            weights: relative sampling weight per primitive (default: by
                bounding radius, a cheap area proxy).

        Returns:
            (n_points, 3) array of surface samples.
        """
        if weights is None:
            weights = [p.bounding_radius() ** 2 for p in self._primitives]
        weights = np.asarray(weights, dtype=float)
        weights = weights / weights.sum()
        counts = rng.multinomial(n_points, weights)
        parts = [
            prim.sample_surface(int(count), rng)
            for prim, count in zip(self._primitives, counts)
            if count > 0
        ]
        cloud = np.concatenate(parts, axis=0)
        if noise_std > 0:
            cloud = cloud + rng.normal(scale=noise_std, size=cloud.shape)
        return cloud

    def centroid(self) -> np.ndarray:
        """Mean of primitive centers; a convenient camera look-at target."""
        centers = np.stack([p.center() for p in self._primitives], axis=0)
        return centers.mean(axis=0)


def make_room_scene(
    rng: np.random.Generator,
    room_size: float = 4.0,
    room_height: float = 2.6,
    n_furniture: int = 5,
    name: str | None = None,
) -> Scene:
    """Procedurally generate a room-scale indoor scene for drone localization.

    The insect-scale drone of the paper flies through indoor rooms; the map
    structures at this scale (walls, furniture) are 0.3-2 m across, matching
    the widths the inverter-array kernels can realise.

    Args:
        rng: random generator controlling the layout.
        room_size: side length of the (square) room in meters.
        room_height: ceiling height.
        n_furniture: number of furniture-sized boxes/cylinders.
        name: optional scene name.

    Returns:
        A :class:`Scene` with floor, two walls and furniture.
    """
    if n_furniture < 0:
        raise ValueError("n_furniture must be non-negative")
    half = room_size / 2.0
    primitives: list[Primitive] = [
        Plane([0.0, 0.0, 1.0], 0.0, patch_center=[0.0, 0.0, 0.0], patch_radius=half),
        # Two walls (finite boxes keep the SDF bounded for sphere tracing).
        Box(center=[-half, 0.0, room_height / 2], extents=[0.1, room_size, room_height]),
        Box(center=[0.0, -half, room_height / 2], extents=[room_size, 0.1, room_height]),
    ]
    for _ in range(n_furniture):
        xy = rng.uniform(-half + 0.5, half - 0.5, size=2)
        kind = rng.choice(["box", "tall_box", "cylinder"])
        if kind == "box":
            extents = rng.uniform([0.4, 0.4, 0.3], [1.2, 1.2, 0.9])
            primitives.append(Box([xy[0], xy[1], extents[2] / 2.0], extents))
        elif kind == "tall_box":
            extents = rng.uniform([0.3, 0.3, 1.2], [0.8, 0.8, 2.0])
            primitives.append(Box([xy[0], xy[1], extents[2] / 2.0], extents))
        else:
            radius = float(rng.uniform(0.15, 0.4))
            height = float(rng.uniform(0.5, 1.4))
            primitives.append(Cylinder([xy[0], xy[1], height / 2.0], radius, height))
    return Scene(primitives, name=name or f"room-{n_furniture}items")


def make_tabletop_scene(
    rng: np.random.Generator,
    n_objects: int = 4,
    table_size: float = 1.2,
    table_height: float = 0.7,
    with_floor: bool = True,
    name: str | None = None,
) -> Scene:
    """Procedurally generate a tabletop scene (RGB-D Scenes v2 flavour).

    The scene has a box table whose top surface sits at ``table_height``,
    ``n_objects`` small primitives (boxes / spheres / cylinders of household
    object scale) resting on the table, and optionally a floor plane.

    Args:
        rng: random generator controlling the layout.
        n_objects: number of objects placed on the table.
        table_size: side length of the (square) table top in meters.
        table_height: height of the table-top surface above the floor.
        with_floor: include a floor plane at z = 0.
        name: optional scene name.

    Returns:
        A :class:`Scene`.
    """
    if n_objects < 0:
        raise ValueError("n_objects must be non-negative")
    primitives: list[Primitive] = []
    top_thickness = 0.05
    table_top_z = table_height
    primitives.append(
        Box(
            center=[0.0, 0.0, table_top_z - top_thickness / 2.0],
            extents=[table_size, table_size, top_thickness],
        )
    )
    # A single box pedestal keeps the SDF cheap while looking table-like.
    primitives.append(
        Box(
            center=[0.0, 0.0, (table_top_z - top_thickness) / 2.0],
            extents=[0.15, 0.15, table_top_z - top_thickness],
        )
    )
    placement_half = table_size / 2.0 - 0.15
    for _ in range(n_objects):
        xy = rng.uniform(-placement_half, placement_half, size=2)
        kind = rng.choice(["box", "sphere", "cylinder"])
        if kind == "box":
            extents = rng.uniform(0.06, 0.18, size=3)
            center = [xy[0], xy[1], table_top_z + extents[2] / 2.0]
            primitives.append(Box(center, extents))
        elif kind == "sphere":
            radius = float(rng.uniform(0.04, 0.09))
            primitives.append(Sphere([xy[0], xy[1], table_top_z + radius], radius))
        else:
            radius = float(rng.uniform(0.03, 0.06))
            height = float(rng.uniform(0.08, 0.22))
            primitives.append(Cylinder([xy[0], xy[1], table_top_z + height / 2.0], radius, height))
    if with_floor:
        primitives.append(
            Plane(
                normal=[0.0, 0.0, 1.0],
                offset=0.0,
                patch_center=[0.0, 0.0, 0.0],
                patch_radius=2.5,
            )
        )
    return Scene(primitives, name=name or f"tabletop-{n_objects}obj")
