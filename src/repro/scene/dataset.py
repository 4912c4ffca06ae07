"""Synthetic RGB-D scene dataset (stand-in for RGB-D Scenes Dataset v2).

The real dataset provides 14 tabletop scenes recorded with a Kinect, with
per-frame ground-truth camera poses.  :class:`SyntheticRGBDScenes` generates
the same artefacts procedurally: per-scene point clouds (for map fitting) and
pose-annotated depth/intensity frame sequences from an orbiting camera.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scene.camera import PinholeCamera
from repro.scene.render import DepthRenderer
from repro.scene.scene import Scene, make_tabletop_scene
from repro.scene.se3 import Pose
from repro.scene.trajectory import Trajectory, orbit_trajectory


@dataclass(frozen=True)
class RGBDFrame:
    """A single dataset frame.

    Attributes:
        depth: (H, W) z-depth image, NaN at invalid pixels.
        intensity: (H, W) monochrome shading image in [0, 1].
        pose: ground-truth camera pose (camera -> world).
        timestamp: frame time in seconds.
        index: frame index within the sequence.
    """

    depth: np.ndarray
    intensity: np.ndarray
    pose: Pose
    timestamp: float
    index: int


class SyntheticRGBDScenes:
    """Procedural RGB-D scene dataset.

    Args:
        n_scenes: number of distinct tabletop scenes.
        camera: pinhole intrinsics (default 48x36, 60 deg FOV -- small images
            keep rendering and network training laptop-fast while preserving
            the geometry of the problem).
        frames_per_scene: sequence length per scene.
        seed: base seed; per-scene/per-purpose generators derive from it
            via ``np.random.SeedSequence`` spawn keys, so datasets with
            different base seeds never share streams (the old
            ``seed + 1000 * scene_index`` offsets collided whenever two
            base seeds differed by a multiple of 1000).
        depth_noise_std: relative depth noise (sigma = std * depth).
        orbit_radius / orbit_height: camera orbit parameters.
    """

    def __init__(
        self,
        n_scenes: int = 3,
        camera: PinholeCamera | None = None,
        frames_per_scene: int = 40,
        seed: int = 0,
        depth_noise_std: float = 0.0,
        orbit_radius: float = 1.8,
        orbit_height: float = 0.9,
        n_objects: int = 4,
        speed_jitter: float = 0.35,
    ):
        if n_scenes < 1:
            raise ValueError("n_scenes must be >= 1")
        self.speed_jitter = float(speed_jitter)
        self.camera = camera or PinholeCamera.from_fov(48, 36, fov_x_deg=60.0)
        self.n_scenes = int(n_scenes)
        self.frames_per_scene = int(frames_per_scene)
        self.seed = int(seed)
        self.depth_noise_std = float(depth_noise_std)
        self.orbit_radius = float(orbit_radius)
        self.orbit_height = float(orbit_height)
        self.n_objects = int(n_objects)
        self._scenes: dict[int, Scene] = {}
        self._trajectories: dict[int, Trajectory] = {}

    # Purposes of the per-scene generators (spawn-key components).  Keyed
    # derivation is collision-free across base seeds AND independent of
    # the order the lazily-cached artefacts are first built in.  The
    # values are part of the pinned streams, so none may be renumbered.
    _RNG_SCENE = 0
    _RNG_TRAJECTORY = 1
    _RNG_FRAMES = 3

    def _rng(self, scene_index: int, purpose: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(scene_index, purpose))
        )

    def scene(self, scene_index: int) -> Scene:
        """The (cached) procedural scene for ``scene_index``."""
        self._check_index(scene_index)
        if scene_index not in self._scenes:
            rng = self._rng(scene_index, self._RNG_SCENE)
            self._scenes[scene_index] = make_tabletop_scene(
                rng, n_objects=self.n_objects, name=f"synthetic-{scene_index:02d}"
            )
        return self._scenes[scene_index]

    def trajectory(self, scene_index: int) -> Trajectory:
        """The ground-truth camera trajectory for ``scene_index``."""
        self._check_index(scene_index)
        if scene_index not in self._trajectories:
            scene = self.scene(scene_index)
            rng = self._rng(scene_index, self._RNG_TRAJECTORY)
            target = scene.centroid()
            # Look slightly above the table centroid so objects fill the frame.
            target = target + np.array([0.0, 0.0, 0.15])
            self._trajectories[scene_index] = orbit_trajectory(
                target=target,
                radius=self.orbit_radius * float(rng.uniform(0.9, 1.1)),
                height=self.orbit_height * float(rng.uniform(0.9, 1.1)),
                n_poses=self.frames_per_scene,
                sweep_rad=float(rng.uniform(1.5 * np.pi, 2.0 * np.pi)),
                height_wobble=0.08,
                radius_wobble=0.08,
                start_angle=float(rng.uniform(0.0, 2.0 * np.pi)),
                speed_jitter=self.speed_jitter,
                rng=rng,
            )
        return self._trajectories[scene_index]

    def frames(self, scene_index: int) -> list[RGBDFrame]:
        """Render the full pose-annotated frame sequence for a scene."""
        scene = self.scene(scene_index)
        trajectory = self.trajectory(scene_index)
        renderer = DepthRenderer(scene, self.camera)
        rng = self._rng(scene_index, self._RNG_FRAMES)
        frames = []
        for index, (pose, timestamp) in enumerate(zip(trajectory, trajectory.timestamps)):
            depth, intensity = renderer.render_with_normals(pose)
            if self.depth_noise_std > 0:
                noise = rng.normal(size=depth.shape) * self.depth_noise_std
                depth = depth * (1.0 + noise)
            frames.append(
                RGBDFrame(
                    depth=depth,
                    intensity=intensity,
                    pose=pose,
                    timestamp=float(timestamp),
                    index=index,
                )
            )
        return frames

    def frame_pairs(
        self, scene_index: int
    ) -> list[tuple[RGBDFrame, RGBDFrame, Pose]]:
        """Consecutive frame pairs with their ground-truth relative pose.

        The relative pose maps frame t coordinates into frame t-1 coordinates
        (the standard VO regression target).
        """
        frames = self.frames(scene_index)
        pairs = []
        for previous, current in zip(frames[:-1], frames[1:]):
            relative = current.pose.relative_to(previous.pose)
            pairs.append((previous, current, relative))
        return pairs

    def _check_index(self, scene_index: int) -> None:
        if not 0 <= scene_index < self.n_scenes:
            raise IndexError(
                f"scene index {scene_index} out of range [0, {self.n_scenes})"
            )
