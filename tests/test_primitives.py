"""Tests for repro.scene.primitives and scene SDF composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scene.primitives import Box, Cylinder, Plane, Sphere
from repro.scene.scene import Scene, make_room_scene, make_tabletop_scene

finite_coords = st.floats(-5.0, 5.0)


class TestSphere:
    def test_distance_signs(self):
        sphere = Sphere([0, 0, 0], 1.0)
        assert sphere.distance([[2, 0, 0]])[0] == pytest.approx(1.0)
        assert sphere.distance([[0.5, 0, 0]])[0] == pytest.approx(-0.5)
        assert sphere.distance([[1, 0, 0]])[0] == pytest.approx(0.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            Sphere([0, 0, 0], -1.0)

    def test_surface_samples_on_surface(self, rng):
        sphere = Sphere([1, 2, 3], 0.7)
        pts = sphere.sample_surface(200, rng)
        assert np.allclose(np.abs(sphere.distance(pts)), 0.0, atol=1e-9)


class TestBox:
    def test_distance_outside_face(self):
        box = Box([0, 0, 0], [2, 2, 2])
        assert box.distance([[2, 0, 0]])[0] == pytest.approx(1.0)

    def test_distance_corner(self):
        box = Box([0, 0, 0], [2, 2, 2])
        assert box.distance([[2, 2, 2]])[0] == pytest.approx(np.sqrt(3.0))

    def test_distance_inside_negative(self):
        box = Box([0, 0, 0], [2, 2, 2])
        assert box.distance([[0, 0, 0]])[0] == pytest.approx(-1.0)

    def test_surface_samples_on_surface(self, rng):
        box = Box([0.5, -1, 2], [1.0, 2.0, 0.5])
        pts = box.sample_surface(300, rng)
        assert np.max(np.abs(box.distance(pts))) < 1e-9

    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            Box([0, 0, 0], [1, -1, 1])


class TestCylinder:
    def test_distance_radial(self):
        cyl = Cylinder([0, 0, 0], radius=1.0, height=2.0)
        assert cyl.distance([[2, 0, 0]])[0] == pytest.approx(1.0)

    def test_distance_axial(self):
        cyl = Cylinder([0, 0, 0], radius=1.0, height=2.0)
        assert cyl.distance([[0, 0, 2]])[0] == pytest.approx(1.0)

    def test_inside_negative(self):
        cyl = Cylinder([0, 0, 0], radius=1.0, height=2.0)
        assert cyl.distance([[0, 0, 0]])[0] < 0

    def test_surface_samples_on_surface(self, rng):
        cyl = Cylinder([1, 0, 0.5], radius=0.3, height=0.8)
        pts = cyl.sample_surface(300, rng)
        assert np.max(np.abs(cyl.distance(pts))) < 1e-9


class TestPlane:
    def test_signed_distance(self):
        plane = Plane([0, 0, 1], 0.0)
        assert plane.distance([[0, 0, 2]])[0] == pytest.approx(2.0)
        assert plane.distance([[0, 0, -1]])[0] == pytest.approx(-1.0)

    def test_normalises_normal(self):
        plane = Plane([0, 0, 2], 4.0)
        assert plane.distance([[0, 0, 2]])[0] == pytest.approx(0.0)

    def test_samples_lie_on_plane(self, rng):
        plane = Plane([0, 1, 1], 1.0, patch_radius=3.0)
        pts = plane.sample_surface(100, rng)
        assert np.max(np.abs(plane.distance(pts))) < 1e-9

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Plane([0, 0, 0], 1.0)


class TestScene:
    def test_union_is_min(self, rng):
        a = Sphere([0, 0, 0], 1.0)
        b = Sphere([3, 0, 0], 1.0)
        scene = Scene([a, b])
        pts = rng.uniform(-2, 5, size=(50, 3))
        expected = np.minimum(a.distance(pts), b.distance(pts))
        assert np.allclose(scene.distance(pts), expected)

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            Scene([])

    def test_normals_point_outward_on_sphere(self):
        scene = Scene([Sphere([0, 0, 0], 1.0)])
        pts = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        normals = scene.normals(pts)
        assert np.allclose(normals, pts, atol=1e-3)

    def test_point_cloud_near_surfaces(self, rng):
        scene = make_tabletop_scene(rng, n_objects=3)
        cloud = scene.sample_point_cloud(500, rng)
        assert np.max(np.abs(scene.distance(cloud))) < 1e-6

    def test_point_cloud_noise(self, rng):
        scene = Scene([Sphere([0, 0, 0], 1.0)])
        cloud = scene.sample_point_cloud(500, rng, noise_std=0.01)
        spread = np.abs(scene.distance(cloud))
        assert 0.001 < spread.mean() < 0.05

    def test_centroid_is_mean_of_primitive_centers(self):
        scene = Scene([Sphere([0, 0, 0], 1.0), Box([2, 4, 6], [1, 1, 1])])
        assert np.allclose(scene.centroid(), [1, 2, 3])

    @given(st.integers(0, 6))
    @settings(max_examples=8, deadline=None)
    def test_tabletop_object_count(self, n_objects):
        rng = np.random.default_rng(0)
        scene = make_tabletop_scene(rng, n_objects=n_objects, with_floor=False)
        # table top + pedestal + objects
        assert len(scene._primitives) == 2 + n_objects

    def test_room_scene_has_floor_and_walls(self, rng):
        scene = make_room_scene(rng, n_furniture=0)
        assert len(scene._primitives) == 3
