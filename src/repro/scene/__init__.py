"""Synthetic 3D scene substrate.

Stands in for the RGB-D Scenes Dataset v2 used in the paper: procedural
tabletop scenes built from signed-distance-field primitives, a pinhole depth
camera, a sphere-tracing depth renderer, smooth orbit trajectories, and a
dataset wrapper that yields (depth frame, ground-truth pose) sequences.
"""

from repro.scene.se3 import (
    Pose,
    euler_to_matrix,
    matrix_to_euler,
    rotation_angle,
    rotation_x,
    rotation_y,
    rotation_z,
)
from repro.scene.primitives import (
    Box,
    Cylinder,
    Plane,
    Primitive,
    Sphere,
)
from repro.scene.scene import Scene, make_room_scene, make_tabletop_scene
from repro.scene.camera import PinholeCamera
from repro.scene.render import DepthRenderer
from repro.scene.trajectory import (
    Trajectory,
    orbit_trajectory,
)
from repro.scene.dataset import RGBDFrame, SyntheticRGBDScenes

__all__ = [
    "Pose",
    "euler_to_matrix",
    "matrix_to_euler",
    "rotation_angle",
    "rotation_x",
    "rotation_y",
    "rotation_z",
    "Primitive",
    "Box",
    "Sphere",
    "Cylinder",
    "Plane",
    "Scene",
    "make_room_scene",
    "make_tabletop_scene",
    "PinholeCamera",
    "DepthRenderer",
    "Trajectory",
    "orbit_trajectory",
    "RGBDFrame",
    "SyntheticRGBDScenes",
]
