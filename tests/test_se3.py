"""Tests for repro.scene.se3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scene.se3 import (
    Pose,
    euler_to_matrix,
    matrix_to_euler,
    rotation_angle,
    rotation_x,
    rotation_y,
    rotation_z,
)

angles = st.floats(-np.pi + 1e-3, np.pi - 1e-3)
small_angles = st.floats(-1.4, 1.4)
coords = st.floats(-10.0, 10.0)


def _matrix(pose: Pose) -> np.ndarray:
    """The 4x4 homogeneous transform of a pose."""
    matrix = np.eye(4)
    matrix[:3, :3] = pose.rotation
    matrix[:3, 3] = pose.translation
    return matrix


class TestRotations:
    def test_rotation_x_maps_y_to_z(self):
        assert np.allclose(rotation_x(np.pi / 2) @ [0, 1, 0], [0, 0, 1], atol=1e-12)

    def test_rotation_y_maps_z_to_x(self):
        assert np.allclose(rotation_y(np.pi / 2) @ [0, 0, 1], [1, 0, 0], atol=1e-12)

    def test_rotation_z_maps_x_to_y(self):
        assert np.allclose(rotation_z(np.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    @given(angles)
    @settings(max_examples=30)
    def test_rotations_are_orthonormal(self, angle):
        for rot in (rotation_x(angle), rotation_y(angle), rotation_z(angle)):
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0)

    @given(angles, small_angles, angles)
    @settings(max_examples=50)
    def test_euler_round_trip(self, roll, pitch, yaw):
        rotation = euler_to_matrix(roll, pitch, yaw)
        recovered = euler_to_matrix(*matrix_to_euler(rotation))
        assert np.allclose(rotation, recovered, atol=1e-9)

    @given(angles, angles, angles)
    @settings(max_examples=50)
    def test_euler_matrix_is_rotation(self, roll, pitch, yaw):
        rotation = euler_to_matrix(roll, pitch, yaw)
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rotation) == pytest.approx(1.0)

    @given(angles, small_angles, angles)
    @settings(max_examples=30)
    def test_rotation_angle_invariant_under_inverse(self, roll, pitch, yaw):
        rotation = euler_to_matrix(roll, pitch, yaw)
        assert rotation_angle(rotation.T) == pytest.approx(
            rotation_angle(rotation), abs=1e-9
        )

    def test_euler_gimbal_lock_is_valid_rotation(self):
        rotation = euler_to_matrix(0.3, np.pi / 2, -0.2)
        recovered = euler_to_matrix(*matrix_to_euler(rotation))
        assert np.allclose(rotation, recovered, atol=1e-6)

    def test_rotation_angle_identity_is_zero(self):
        assert rotation_angle(np.eye(3)) == pytest.approx(0.0)

    @given(angles)
    @settings(max_examples=30)
    def test_rotation_angle_matches_axis_angle(self, angle):
        assert rotation_angle(rotation_z(angle)) == pytest.approx(abs(angle), abs=1e-9)


class TestPose:
    def test_identity(self):
        pose = Pose.identity()
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(pose.transform_points(pts), pts)

    @given(angles, coords, coords, coords)
    @settings(max_examples=40)
    def test_inverse_composes_to_identity(self, yaw, x, y, z):
        pose = Pose.from_euler([x, y, z], yaw=yaw)
        identity = pose.compose(pose.inverse())
        assert np.allclose(identity.rotation, np.eye(3), atol=1e-10)
        assert np.allclose(identity.translation, 0.0, atol=1e-9)

    @given(angles, angles, coords, coords)
    @settings(max_examples=40)
    def test_compose_matches_matrix_product(self, yaw1, yaw2, x, y):
        a = Pose.from_euler([x, y, 0.0], yaw=yaw1)
        b = Pose.from_euler([y, x, 1.0], yaw=yaw2)
        composed = a.compose(b)
        assert np.allclose(_matrix(composed), _matrix(a) @ _matrix(b), atol=1e-10)

    def test_matmul_operator(self):
        a = Pose.from_euler([1, 0, 0], yaw=0.3)
        b = Pose.from_euler([0, 1, 0], yaw=-0.1)
        assert np.allclose(_matrix(a @ b), _matrix(a.compose(b)))

    def test_relative_to_round_trip(self):
        a = Pose.from_euler([1, 2, 3], roll=0.1, pitch=0.2, yaw=0.3)
        b = Pose.from_euler([-1, 0, 2], roll=-0.2, pitch=0.1, yaw=1.0)
        rel = b.relative_to(a)
        assert np.allclose(_matrix(a.compose(rel)), _matrix(b), atol=1e-10)

    def test_transform_points_inverse(self, rng):
        pose = Pose.from_euler([0.5, -1.0, 2.0], roll=0.2, pitch=-0.3, yaw=1.1)
        pts = rng.normal(size=(20, 3))
        world = pose.transform_points(pts)
        assert np.allclose(pose.inverse().transform_points(world), pts, atol=1e-10)

    def test_orthonormalized_restores_validity(self):
        pose = Pose(np.eye(3) + 1e-4 * np.ones((3, 3)), np.zeros(3))
        rotation = pose.orthonormalized().rotation
        assert not np.allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-6)
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-8)
        assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-8)

    def test_rotate_vectors_no_translation(self):
        pose = Pose.from_euler([5, 5, 5], yaw=np.pi / 2)
        assert np.allclose(pose.rotate_vectors([[1, 0, 0]]), [[0, 1, 0]], atol=1e-12)

    def test_from_euler_round_trip(self):
        pose = Pose.from_euler([0, 0, 0], roll=0.1, pitch=0.2, yaw=0.3)
        assert matrix_to_euler(pose.rotation) == pytest.approx((0.1, 0.2, 0.3))
