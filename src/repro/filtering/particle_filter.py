"""Sequential importance resampling (SIR) particle filter.

Implements the recursive Bayes update of paper Eq. (1a)/(1b): propagate the
particle set through the motion model, reweight by measurement likelihood,
and resample when the effective sample size collapses.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.circuits.energy import EnergyLedger
from repro.filtering.measurement import DepthScanMeasurementModel
from repro.filtering.motion import MotionModel
from repro.filtering.particles import (
    ParticleSet,
    effective_sample_size,
    normalized_weights,
    posterior_estimates,
)
from repro.filtering.resampling import systematic_resample
from repro.maps.gaussian import logsumexp

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


# One set's step: its posterior (states, log-weights, diagnostics) or the
# exception the step raised.
StepOutcome = tuple[np.ndarray, np.ndarray, StepDiagnostics] | Exception


def _isolated(
    run: Callable[..., list[StepOutcome]],
    rngs: Sequence[np.random.Generator],
    *stacked: Sequence,
) -> list[StepOutcome]:
    """``run(*stacked)``, one outcome per set.  If it raises, a set
    alone fails with the exception; a wave rewinds every generator and
    runs each set's slice of ``stacked`` alone, so only the sets that
    raise again fail."""
    entry = [rng.bit_generator.state for rng in rngs] if len(rngs) > 1 else []
    try:
        return run(*stacked)
    except Exception as error:
        if len(rngs) == 1:
            return [error]
        for rng, state in zip(rngs, entry):
            rng.bit_generator.state = state
        alone = [[part[row : row + 1] for part in stacked] for row in range(len(rngs))]
        return [_isolated(run, [rng], *parts)[0] for rng, parts in zip(rngs, alone)]


class ParticleFilter:
    """SIR Monte-Carlo localization filter.

    A step is :meth:`step_many` over W particle sets: :meth:`predict`,
    the measurement model's stacked
    :meth:`~DepthScanMeasurementModel.log_likelihoods`, each set's field
    read metered into its own ledger, then :meth:`update`.  Each set
    draws from its own generator in one fixed order -- motion normals,
    scan subsample, per-tile read noise, resampling -- so its outcome is
    bit-for-bit the same whether it steps alone or in a wave.
    :meth:`step` steps the filter's own particle set: ``step_many`` of
    one, metered into the backend's ledger.

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

    def initialize(self, particles: ParticleSet) -> None:
        """Install the initial particle set (uniform or prior-based)."""
        self.particles = particles

    def step(
        self,
        control: np.ndarray,
        scan_points_cam: np.ndarray,
        rng: np.random.Generator,
    ) -> StepDiagnostics:
        """One predict-update-resample cycle of the filter's particle set
        under a control (4,) and a camera-frame scan (M, 3):
        :meth:`step_many` of one, metered into the backend's ledger.
        Raises the step's exception; the particles move only on success.
        """
        if self.particles is None:
            raise RuntimeError("call initialize() before step()")
        [outcome] = self.step_many(
            self.particles.states[None],
            self.particles.log_weights[None],
            np.asarray(control, dtype=float).reshape(1, -1),
            [scan_points_cam],
            [rng],
            [self.measurement_model.backend.ledger],
        )
        if isinstance(outcome, Exception):
            raise outcome
        states, log_weights, diagnostics = outcome
        self.particles = ParticleSet(states, log_weights)
        return diagnostics

    def step_many(
        self,
        states: np.ndarray,
        log_weights: np.ndarray,
        controls: np.ndarray,
        scans: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
        ledgers: Sequence[EnergyLedger],
    ) -> list[StepOutcome]:
        """One predict-update-resample cycle for W particle sets: states
        (W, N, D) with log-weights (W, N) under controls (W, 4), each with
        its camera-frame scan (M, 3; the subsamples must be equal in
        size), its generator (every draw of its step) and its ledger (its
        field read).

        Returns, per set, its posterior ``(states, log_weights,
        diagnostics)`` or the exception its step raised.  A raise fails
        only its own set, and every other set stays bit-equal to its
        step alone: a raise before metering rewinds every generator and
        re-runs each set alone; a raise while metering fails that set; a
        raise in :meth:`update` rewinds to the pre-update generator
        states and updates each metered set alone.  A set that fails
        after metering keeps its read in its ledger.
        """
        return _isolated(
            self._step, rngs, states, log_weights, controls, scans, rngs, ledgers
        )

    def _step(
        self,
        states: np.ndarray,
        log_weights: np.ndarray,
        controls: np.ndarray,
        scans: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
        ledgers: Sequence[EnergyLedger],
    ) -> list[StepOutcome]:
        """:meth:`step_many` without isolating a raise before metering."""
        predicted = self.predict(states, controls, rngs)
        log_lik, readings = self.measurement_model.log_likelihoods(
            predicted, scans, rngs
        )
        outcomes: dict[int, StepOutcome] = {}
        for row, (reading, ledger) in enumerate(zip(readings, ledgers)):
            try:
                reading.account(ledger)
            except Exception as error:
                outcomes[row] = error
        metered = [row for row in range(len(rngs)) if row not in outcomes]
        if metered:
            metered_rngs = [rngs[row] for row in metered]
            updated = _isolated(
                lambda *halves: list(zip(*self.update(*halves))),
                metered_rngs,
                predicted[metered],
                log_weights[metered],
                log_lik[metered],
                metered_rngs,
            )
            outcomes.update(zip(metered, updated))
        return [outcomes[row] for row in range(len(rngs))]

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
