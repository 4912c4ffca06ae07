"""Probabilistic motion models P(x_t | u_t, x_{t-1}).

States are ``(x, y, z, yaw)``; controls are body-frame increments
``(d_forward, d_lateral, d_up, d_yaw)``.  Noise is injected per particle so
the predicted set represents motion uncertainty (paper Eq. 1a).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.filtering.particles import YAW_INDEX


def wrap_angle(angle: np.ndarray) -> np.ndarray:
    """Wrap angle(s) to (-pi, pi]."""
    return np.mod(np.asarray(angle) + np.pi, 2.0 * np.pi) - np.pi


class MotionModel(abc.ABC):
    """Base motion model."""

    @abc.abstractmethod
    def propagate(
        self,
        states: np.ndarray,
        controls: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Sample x_t ~ P(. | u_t, x_{t-1}) for every particle of W sets:
        states (W, N, D) under controls (W, 4), set w drawing from
        ``rngs[w]``.  Returns new states; the input is untouched."""


class OdometryMotionModel(MotionModel):
    """Body-frame odometry increments with additive Gaussian noise.

    Args:
        translation_noise: 1-sigma noise per translation axis (m), applied
            on top of a noise floor proportional to the commanded motion.
        yaw_noise: 1-sigma heading noise (rad).
        proportional_noise: extra noise as a fraction of the increment
            magnitude (wheel-slip / airflow analogue).
    """

    def __init__(
        self,
        translation_noise: float = 0.02,
        yaw_noise: float = 0.01,
        proportional_noise: float = 0.1,
    ):
        if translation_noise < 0 or yaw_noise < 0 or proportional_noise < 0:
            raise ValueError("noise parameters must be non-negative")
        self.translation_noise = float(translation_noise)
        self.yaw_noise = float(yaw_noise)
        self.proportional_noise = float(proportional_noise)

    def propagate(
        self,
        states: np.ndarray,
        controls: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        controls = np.asarray(controls, dtype=float)
        if controls.shape[-1] != 4:
            raise ValueError("control must be (d_forward, d_lateral, d_up, d_yaw)")
        n = states.shape[1]
        # Each set's draws, in the order one set alone takes them.
        body_normals = np.empty((len(rngs), n, 3))
        yaw_normals = np.empty((len(rngs), n))
        for w, rng in enumerate(rngs):
            body_normals[w] = rng.normal(size=(n, 3))
            yaw_normals[w] = rng.normal(size=n)
        states = states.copy()
        d_body = controls[:, None, :3]
        translation_sigma = (
            self.translation_noise + self.proportional_noise * np.abs(d_body)
        )
        yaw_sigma = self.yaw_noise + self.proportional_noise * np.abs(
            controls[:, None, 3]
        )
        noisy_body = d_body + body_normals * translation_sigma
        noisy_dyaw = controls[:, None, 3] + yaw_normals * yaw_sigma
        yaw = states[..., YAW_INDEX]
        cos_y, sin_y = np.cos(yaw), np.sin(yaw)
        # Rotate the body-frame increment into the world frame per particle.
        states[..., 0] += cos_y * noisy_body[..., 0] - sin_y * noisy_body[..., 1]
        states[..., 1] += sin_y * noisy_body[..., 0] + cos_y * noisy_body[..., 1]
        states[..., 2] += noisy_body[..., 2]
        states[..., YAW_INDEX] = wrap_angle(yaw + noisy_dyaw)
        return states
