"""Sequential importance resampling (SIR) particle filter.

Implements the recursive Bayes update of paper Eq. (1a)/(1b): propagate the
particle set through the motion model, reweight by measurement likelihood,
and resample when the effective sample size collapses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.filtering.measurement import DepthScanMeasurementModel
from repro.filtering.motion import MotionModel
from repro.filtering.particles import (
    ParticleSet,
    effective_sample_size,
    logsumexp,
    normalized_weights,
    posterior_estimates,
)
from repro.filtering.resampling import systematic_resample

# Resample (systematically) when the ESS falls below this share of N.
RESAMPLE_THRESHOLD = 0.5


@dataclass
class StepDiagnostics:
    """Per-step filter diagnostics.

    Attributes:
        estimate: posterior mean state.
        ess: effective sample size after the weight update.
        resampled: whether resampling was triggered.
        log_evidence: incremental measurement evidence.
        spread: RMS position spread of the posterior.
    """

    estimate: np.ndarray
    ess: float
    resampled: bool
    log_evidence: float
    spread: float


class ParticleFilter:
    """SIR Monte-Carlo localization filter.

    Args:
        motion_model: the prediction-step model.
        measurement_model: the correction-step model.
        roughening: per-axis post-resampling jitter sigmas (D,), fighting
            sample impoverishment.
    """

    def __init__(
        self,
        motion_model: MotionModel,
        measurement_model: DepthScanMeasurementModel,
        roughening: np.ndarray,
    ):
        self.motion_model = motion_model
        self.measurement_model = measurement_model
        self.roughening = np.asarray(roughening, dtype=float)
        self.particles: ParticleSet | None = None
        self.history: list[StepDiagnostics] = []

    def initialize(self, particles: ParticleSet) -> None:
        """Install the initial particle set (uniform or prior-based)."""
        self.particles = particles
        self.history = []

    def step(
        self,
        control: np.ndarray,
        scan_points_cam: np.ndarray,
        rng: np.random.Generator,
    ) -> StepDiagnostics:
        """One predict-update-resample cycle: the wave of one.

        :meth:`predict`, the measurement likelihoods, then :meth:`update`.

        Args:
            control: body-frame odometry increment (4,).
            scan_points_cam: (M, 3) valid scan points in the camera frame.
            rng: random generator.

        Returns:
            Step diagnostics (posterior estimate, ESS, ...).
        """
        if self.particles is None:
            raise RuntimeError("call initialize() before step()")
        log_weights = self.particles.log_weights
        predicted = self.predict(
            self.particles.states[None],
            np.asarray(control, dtype=float).reshape(1, -1),
            [rng],
        )
        log_lik = self.measurement_model.log_likelihoods(
            ParticleSet(predicted[0], log_weights), scan_points_cam, rng
        )
        states, log_weights, [diagnostics] = self.update(
            predicted, log_weights[None], log_lik[None], [rng]
        )
        self.particles = ParticleSet(states[0], log_weights[0])
        self.history.append(diagnostics)
        return diagnostics

    def predict(
        self,
        states: np.ndarray,
        controls: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """The prediction half for W particle sets: propagate states
        (W, N, D) under controls (W, 4) through the motion model."""
        return self.motion_model.propagate(states, controls, rngs)

    def update(
        self,
        states: np.ndarray,
        log_weights: np.ndarray,
        log_lik: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray, list[StepDiagnostics]]:
        """The correction half for W predicted particle sets: reweight
        states (W, N, D) with log-weights (W, N) by the per-particle
        log-likelihoods (W, N), and resample (with roughening) each set
        whose ESS collapses, drawing from its own generator.  Returns the
        posterior states and log-weights and one diagnostics per set;
        the inputs and the filter's own state are untouched."""
        n = states.shape[1]
        log_weights = log_weights + (
            log_lik - log_lik.max(axis=-1, keepdims=True)
        )
        weights = normalized_weights(log_weights)
        ess = effective_sample_size(weights)
        resampled = ess < RESAMPLE_THRESHOLD * n
        log_evidence = logsumexp(log_weights) - np.log(n)
        rows = np.flatnonzero(resampled)
        if rows.size:
            parents = np.empty((rows.size, n), dtype=np.int64)
            jitter = np.empty((rows.size, *states.shape[1:]))
            for i, row in enumerate(rows.tolist()):
                parents[i] = systematic_resample(weights[row], rngs[row])
                jitter[i] = rngs[row].normal(size=states.shape[1:])
            resampled_states = states[rows[:, None], parents]
            states = states.copy()
            states[rows] = resampled_states + jitter * self.roughening
            log_weights[rows] = -np.log(n)
            # What normalized_weights gives for uniform log-weights:
            # exp(0) = 1 per particle over a total of exactly n.
            weights[rows] = 1.0 / n
        estimates, spreads = posterior_estimates(states, weights)
        diagnostics = [
            StepDiagnostics(
                estimate=estimate,
                ess=float(set_ess),
                resampled=bool(set_resampled),
                log_evidence=float(set_evidence),
                spread=float(spread),
            )
            for estimate, set_ess, set_resampled, set_evidence, spread in zip(
                estimates, ess, resampled, log_evidence, spreads
            )
        ]
        return states, log_weights, diagnostics

    def estimate(self) -> np.ndarray:
        """Current posterior-mean state."""
        if self.particles is None:
            raise RuntimeError("filter not initialised")
        estimates, _ = posterior_estimates(
            self.particles.states[None],
            normalized_weights(self.particles.log_weights[None]),
        )
        return estimates[0]

    def position_errors(self, ground_truth: np.ndarray) -> np.ndarray:
        """Per-step position error against a (T, >=3) ground-truth array."""
        ground_truth = np.atleast_2d(np.asarray(ground_truth, dtype=float))
        if len(self.history) != ground_truth.shape[0]:
            raise ValueError("history length != ground truth length")
        estimates = np.stack([h.estimate[:3] for h in self.history], axis=0)
        return np.linalg.norm(estimates - ground_truth[:, :3], axis=1)
