"""Smooth camera trajectories for synthetic RGB-D sequences.

The paper's dataset (RGB-D Scenes v2) consists of a handheld sensor orbiting
tabletop scenes; :func:`orbit_trajectory` reproduces that flavour.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.scene.se3 import Pose


def look_at(eye: np.ndarray, target: np.ndarray, world_up: np.ndarray | None = None) -> Pose:
    """Camera pose at ``eye`` looking toward ``target``.

    Uses the CV camera convention (+Z forward, +X right, +Y down).

    Args:
        eye: camera position in world frame.
        target: world point the optical axis passes through.
        world_up: world up direction (default +Z).

    Returns:
        A :class:`Pose` mapping camera frame to world frame.
    """
    eye = np.asarray(eye, dtype=float)
    target = np.asarray(target, dtype=float)
    if world_up is None:
        world_up = np.array([0.0, 0.0, 1.0])
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    right = np.cross(forward, world_up)
    right_norm = np.linalg.norm(right)
    if right_norm < 1e-9:
        # Looking straight up/down: pick an arbitrary right vector.
        right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
        right_norm = np.linalg.norm(right)
    right = right / right_norm
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=1)
    return Pose(rotation, eye)


class Trajectory:
    """A discrete sequence of camera poses with timestamps."""

    def __init__(self, poses: Sequence[Pose], timestamps: Sequence[float] | None = None):
        if not poses:
            raise ValueError("trajectory needs at least one pose")
        self._poses = list(poses)
        if timestamps is None:
            timestamps = np.arange(len(poses), dtype=float)
        self._timestamps = np.asarray(timestamps, dtype=float)
        if self._timestamps.ndim != 1 or len(self._timestamps) != len(self._poses):
            raise ValueError(
                f"timestamps must be a 1-D sequence matching the "
                f"{len(self._poses)} pose(s), got shape "
                f"{self._timestamps.shape}"
            )
        if not np.all(np.isfinite(self._timestamps)):
            raise ValueError("timestamps must be finite (no NaN/Inf)")
        if np.any(np.diff(self._timestamps) <= 0):
            raise ValueError(
                "timestamps must be strictly increasing, got "
                f"{self._timestamps.tolist()}"
            )

    def __len__(self) -> int:
        return len(self._poses)

    def __getitem__(self, index: int) -> Pose:
        return self._poses[index]

    def __iter__(self):
        return iter(self._poses)

    @property
    def timestamps(self) -> np.ndarray:
        return self._timestamps.copy()


def orbit_trajectory(
    target: np.ndarray,
    radius: float,
    height: float,
    n_poses: int,
    sweep_rad: float = 2.0 * np.pi,
    height_wobble: float = 0.0,
    radius_wobble: float = 0.0,
    start_angle: float = 0.0,
    dt: float = 1.0 / 30.0,
    speed_jitter: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Camera orbit around ``target`` (RGB-D Scenes style handheld sweep).

    Args:
        target: look-at point (e.g. scene centroid).
        radius: nominal orbit radius in the XY plane.
        height: camera height above the target.
        n_poses: number of poses.
        sweep_rad: total swept angle.
        height_wobble: sinusoidal height variation amplitude.
        radius_wobble: sinusoidal radius variation amplitude.
        start_angle: initial azimuth.
        dt: time between frames (seconds).
        speed_jitter: relative per-step variation of the angular speed
            (handheld-motion irregularity -- gives VO nets something to
            regress beyond a constant increment).
        rng: generator for the speed jitter (required if jitter > 0).
    """
    if n_poses < 1:
        raise ValueError("n_poses must be >= 1")
    if speed_jitter > 0 and rng is None:
        raise ValueError("rng required when speed_jitter > 0")
    target = np.asarray(target, dtype=float)
    if speed_jitter > 0 and n_poses > 1:
        steps = np.full(n_poses - 1, sweep_rad / (n_poses - 1))
        steps = steps * np.clip(
            1.0 + rng.normal(scale=speed_jitter, size=steps.size), 0.1, None
        )
        steps = steps * (sweep_rad / steps.sum())
        angles = start_angle + np.concatenate([[0.0], np.cumsum(steps)])
    else:
        angles = start_angle + np.linspace(0.0, sweep_rad, n_poses)
    poses = []
    for k, angle in enumerate(angles):
        phase = 2.0 * np.pi * k / max(n_poses - 1, 1)
        r = radius + radius_wobble * np.sin(3.0 * phase)
        h = height + height_wobble * np.sin(2.0 * phase)
        eye = target + np.array([r * np.cos(angle), r * np.sin(angle), h])
        poses.append(look_at(eye, target))
    timestamps = dt * np.arange(n_poses)
    return Trajectory(poses, timestamps)


def drone_orbit_states(
    center: np.ndarray,
    radius: float,
    height: float,
    n_steps: int,
    sweep_rad: float = 2.0 * np.pi,
    height_wobble: float = 0.15,
    start_angle: float = 0.0,
) -> np.ndarray:
    """Drone flight as (T, 4) ``(x, y, z, yaw)`` states for localization.

    The drone circles ``center`` with its heading tangent to the path (yaw
    follows the direction of travel), the state parameterisation used by
    the particle filter.  Convert to camera poses with
    :func:`repro.filtering.measurement.state_to_pose` plus a fixed camera
    mount.

    Args:
        center: orbit center (3,).
        radius: orbit radius (m).
        height: mean flight height (m).
        n_steps: number of states.
        sweep_rad: total swept angle.
        height_wobble: sinusoidal height variation amplitude (m).
        start_angle: initial azimuth (rad).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    center = np.asarray(center, dtype=float)
    angles = start_angle + np.linspace(0.0, sweep_rad, n_steps)
    states = np.empty((n_steps, 4))
    states[:, 0] = center[0] + radius * np.cos(angles)
    states[:, 1] = center[1] + radius * np.sin(angles)
    phase = np.linspace(0.0, 2.0 * np.pi, n_steps)
    states[:, 2] = center[2] + height + height_wobble * np.sin(2.0 * phase)
    # Heading tangent to the circle (counter-clockwise travel).
    states[:, 3] = np.mod(angles + np.pi / 2.0 + np.pi, 2.0 * np.pi) - np.pi
    return states


def states_to_controls(states: np.ndarray) -> np.ndarray:
    """Body-frame odometry controls between consecutive (T, 4) states.

    Returns (T-1, 4) rows ``(d_forward, d_lateral, d_up, d_yaw)`` -- the
    noiseless controls a motion model perturbs.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[0] < 2:
        raise ValueError("need at least two states")
    controls = np.empty((states.shape[0] - 1, 4))
    for t in range(1, states.shape[0]):
        yaw = states[t - 1, 3]
        delta_world = states[t, :3] - states[t - 1, :3]
        cos_y, sin_y = np.cos(yaw), np.sin(yaw)
        controls[t - 1, 0] = cos_y * delta_world[0] + sin_y * delta_world[1]
        controls[t - 1, 1] = -sin_y * delta_world[0] + cos_y * delta_world[1]
        controls[t - 1, 2] = delta_world[2]
        dyaw = states[t, 3] - states[t - 1, 3]
        controls[t - 1, 3] = np.mod(dyaw + np.pi, 2.0 * np.pi) - np.pi
    return controls
