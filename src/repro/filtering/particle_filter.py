"""Sequential importance resampling (SIR) particle filter.

Implements the recursive Bayes update of paper Eq. (1a)/(1b): propagate the
particle set through the motion model, reweight by measurement likelihood,
and resample when the effective sample size collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.filtering.measurement import DepthScanMeasurementModel
from repro.filtering.motion import MotionModel
from repro.filtering.particles import ParticleSet
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
        """One predict-update-resample cycle.

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
        predicted = self.predict(self.particles, control, rng)
        log_lik = self.measurement_model.log_likelihoods(
            predicted, scan_points_cam, rng
        )
        self.particles, diagnostics = self.update(predicted, log_lik, rng)
        self.history.append(diagnostics)
        return diagnostics

    def predict(
        self,
        particles: ParticleSet,
        control: np.ndarray,
        rng: np.random.Generator,
    ) -> ParticleSet:
        """The prediction half: propagate ``particles`` through the
        motion model."""
        return self.motion_model.propagate(particles, control, rng)

    def update(
        self,
        predicted: ParticleSet,
        log_lik: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[ParticleSet, StepDiagnostics]:
        """The correction half: reweight ``predicted`` by the per-particle
        log-likelihoods, resample (with roughening) when the ESS
        collapses.  Returns the posterior set and its diagnostics; the
        filter's own state is untouched."""
        updated = predicted.reweighted(log_lik - log_lik.max())
        ess = updated.effective_sample_size()
        resampled = ess < RESAMPLE_THRESHOLD * updated.n_particles
        log_evidence = updated.log_evidence()
        if resampled:
            indices = systematic_resample(updated.normalized_weights(), rng)
            updated = updated.resampled(indices)
            jitter = rng.normal(size=updated.states.shape) * self.roughening
            updated = ParticleSet(
                updated.states + jitter, updated.log_weights.copy()
            )
        diagnostics = StepDiagnostics(
            estimate=updated.mean_estimate(),
            ess=ess,
            resampled=resampled,
            log_evidence=log_evidence,
            spread=updated.position_spread(),
        )
        return updated, diagnostics

    def estimate(self) -> np.ndarray:
        """Current posterior-mean state."""
        if self.particles is None:
            raise RuntimeError("filter not initialised")
        return self.particles.mean_estimate()

    def position_errors(self, ground_truth: np.ndarray) -> np.ndarray:
        """Per-step position error against a (T, >=3) ground-truth array."""
        ground_truth = np.atleast_2d(np.asarray(ground_truth, dtype=float))
        if len(self.history) != ground_truth.shape[0]:
            raise ValueError("history length != ground truth length")
        estimates = np.stack([h.estimate[:3] for h in self.history], axis=0)
        return np.linalg.norm(estimates - ground_truth[:, :3], axis=1)
