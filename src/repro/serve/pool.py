"""Pre-warmed session pools, one per (substrate, model) pair.

Building a CIM session is expensive -- weight programming with frozen
mismatch, ADC/DAC calibration, hardware-RNG bias trimming -- so the
service builds each session **once** at warm-up and fills the rest of
the pool with :meth:`~repro.api.substrates.MCDropoutSession.clone`
copies.  Clones share no mutable state, so micro-batches on different
pool members can run concurrently, and every member produces bit-for-bit
identical results for identical requests.

Determinism requires the warm-up to be reproducible, so a pool always

- constructs its primary session with ``np.random.default_rng(session_seed)``
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

import asyncio
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
    """``size`` interchangeable pre-warmed sessions for one pair.

    Args:
        substrate: registered substrate (name or config).
        model: the served network.
        n_iterations: MC-Dropout depth of every session.
        size: pool width (concurrent micro-batches for this pair).
        calibration_inputs: representative activations for ADC/DAC
            pinning; defaults to :func:`default_calibration_inputs`.
        session_seed: construction generator seed (hardware instance).
    """

    def __init__(
        self,
        substrate: str | SubstrateConfig,
        model: Sequential,
        n_iterations: int = 30,
        size: int = 1,
        calibration_inputs: np.ndarray | None = None,
        session_seed: int = 0,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.substrate = get_substrate(substrate)
        self.model = model
        self.n_iterations = int(n_iterations)
        self.size = int(size)
        self.session_seed = int(session_seed)
        self.calibration_inputs = (
            default_calibration_inputs(model, session_seed)
            if calibration_inputs is None
            else np.atleast_2d(np.asarray(calibration_inputs, dtype=float))
        )
        self.in_features = model.dense_layers()[0].weight.value.shape[0]
        primary = build_reference_session(
            self.substrate,
            model,
            n_iterations=self.n_iterations,
            calibration_inputs=self.calibration_inputs,
            session_seed=self.session_seed,
        )
        self._sessions = [primary] + [
            primary.clone() for _ in range(self.size - 1)
        ]
        self._idle: asyncio.Queue[MCDropoutSession] = asyncio.Queue()
        for session in self._sessions:
            self._idle.put_nowait(session)

    async def acquire(self) -> MCDropoutSession:
        """Borrow an idle session (waits if every member is busy)."""
        return await self._idle.get()

    def acquire_nowait(self) -> MCDropoutSession:
        """Borrow an idle session without an event loop.

        Shards (:class:`~repro.serve.execution.ShardState`) run one op
        at a time off any event loop, so they borrow synchronously;
        raises if every member is busy rather than blocking.
        """
        try:
            return self._idle.get_nowait()
        except asyncio.QueueEmpty:
            raise RuntimeError(
                f"no idle session in pool of {self.size} "
                f"({self.substrate.name})"
            ) from None

    def release(self, session: MCDropoutSession) -> None:
        """Return a borrowed session to the pool."""
        self._idle.put_nowait(session)

    @property
    def idle(self) -> int:
        return self._idle.qsize()

    def describe(self) -> dict[str, Any]:
        return {
            "substrate": self.substrate.name,
            "n_iterations": self.n_iterations,
            "size": self.size,
            "idle": self.idle,
            "in_features": self.in_features,
        }


__all__ = [
    "SessionPool",
    "build_reference_session",
    "default_calibration_inputs",
    "DEFAULT_CALIBRATION_SAMPLES",
]
