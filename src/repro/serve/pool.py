"""One pre-warmed session per (substrate, model) pair.

Building a CIM session is expensive -- weight programming with frozen
mismatch, ADC/DAC calibration, hardware-RNG bias trimming -- so each
shard builds its session for a pair **once** at warm-up and serves
every micro-batch of that pair with it.

Determinism requires the warm-up to be reproducible, so a pool always

- constructs its session with ``np.random.default_rng(session_seed)``
  (fixing the hardware instance: mismatch draws, comparator offsets,
  RNG trim), and
- **calibrates** it.  Without calibration a macro pins its input-DAC
  grid lazily from the first input it serves, which would make results
  depend on request history; calibration pins every grid up front, so
  ``run()`` is stateless with respect to results.  When the caller has
  no representative inputs, deterministic standard-normal ones are
  synthesized from ``session_seed``.

:func:`build_reference_session` builds the same session from scratch
-- the object the parity tests and the CI smoke step compare
service responses against.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.api.substrates import MCDropoutSession, SubstrateConfig, get_substrate
from repro.nn.sequential import Sequential

DEFAULT_CALIBRATION_SAMPLES = 32


def default_calibration_inputs(
    model: Sequential, session_seed: int = 0
) -> np.ndarray:
    """Deterministic standard-normal calibration batch for ``model``."""
    width = model.dense_layers()[0].weight.value.shape[0]
    return np.random.default_rng(session_seed).normal(
        size=(DEFAULT_CALIBRATION_SAMPLES, width)
    )


def build_reference_session(
    substrate: str | SubstrateConfig,
    model: Sequential,
    n_iterations: int = 30,
    calibration_inputs: np.ndarray | None = None,
    session_seed: int = 0,
) -> MCDropoutSession:
    """One session built exactly as a pool with these arguments would.

    The cheap path to a parity oracle: cold callers (the CI smoke
    script, the serving bench) get the reference without paying for a
    throwaway pool's warm-up on top of it.
    """
    if calibration_inputs is None:
        calibration_inputs = default_calibration_inputs(model, session_seed)
    return get_substrate(substrate).mc_dropout_session(
        model,
        n_iterations=int(n_iterations),
        calibration_inputs=np.atleast_2d(
            np.asarray(calibration_inputs, dtype=float)
        ),
        rng=np.random.default_rng(int(session_seed)),
    )


class SessionPool:
    """The one pre-warmed session a shard serves a pair with.

    A shard executes strictly one op at a time, so one session per
    (substrate, model) pair is all it can use; concurrency comes from
    the number of shards.

    Args:
        substrate: registered substrate (name or config).
        model: the served network.
        n_iterations: MC-Dropout depth of the session.
        calibration_inputs: representative activations for ADC/DAC
            pinning; defaults to :func:`default_calibration_inputs`.
        session_seed: construction generator seed (hardware instance).
    """

    def __init__(
        self,
        substrate: str | SubstrateConfig,
        model: Sequential,
        n_iterations: int = 30,
        calibration_inputs: np.ndarray | None = None,
        session_seed: int = 0,
    ):
        self.substrate = get_substrate(substrate)
        self.n_iterations = int(n_iterations)
        self.in_features = model.dense_layers()[0].weight.value.shape[0]
        self._session = build_reference_session(
            self.substrate,
            model,
            n_iterations=self.n_iterations,
            calibration_inputs=calibration_inputs,
            session_seed=session_seed,
        )

    def acquire(self) -> MCDropoutSession:
        """The pair's warm session (a shard runs one op at a time, so
        it is never busy and is never handed back)."""
        return self._session

    def describe(self) -> dict[str, Any]:
        return {
            "substrate": self.substrate.name,
            "n_iterations": self.n_iterations,
            "in_features": self.in_features,
        }


__all__ = [
    "SessionPool",
    "build_reference_session",
    "default_calibration_inputs",
    "DEFAULT_CALIBRATION_SAMPLES",
]
