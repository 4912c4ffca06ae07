"""Seeded inputs the load generators send: track streams and requests.

The served programs receive only what these helpers generate from the
workload seed:

- :class:`Orbit` -- the demo world's drone orbit (``demo_track_measurements``)
  closed into a loop of :data:`ORBIT_STEPS` frames, so a long-lived track
  can step it back-to-back for as long as a run lasts.  Step ``j`` of a
  track that starts at orbit frame ``phase`` sees frame
  ``(phase + j) % ORBIT_STEPS``; its first step holds station (zero
  control), like the demo stream.
- :func:`track_spec` -- one track's seed, start frame and perturbed
  tracking init, from a keyed stream.
- :func:`infer_request` -- one ``/infer`` payload (distinct seed, fresh
  4-row input batch), from a keyed stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve import TrackInit
from repro.serve.demo import DEMO_INPUTS, demo_track_measurements
from servebench.common import draw_seed

ORBIT_STEPS = 48  # frames per lap: 7.5 degrees of orbit per step
INFER_ROWS = 4
INIT_OFFSET_SIGMA = np.array([0.05, 0.05, 0.05, 0.03])
INIT_SIGMA = np.array([0.1, 0.1, 0.1, 0.05])


class Orbit:
    """The demo orbit as a closed loop of measurements."""

    def __init__(self) -> None:
        # ORBIT_STEPS + 1 states: the last one closes the loop onto the
        # first, so controls[ORBIT_STEPS] is the wrap-around control.
        self.controls, self.depths, self.truths = demo_track_measurements(
            n_steps=ORBIT_STEPS + 1
        )

    def frame(self, phase: int, j: int) -> int:
        return (phase + j) % ORBIT_STEPS

    def measurement(
        self, phase: int, j: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(control, depth, truth)`` of step ``j`` of a track."""
        i = self.frame(phase, j)
        if j == 0:
            control = np.zeros(self.controls.shape[1])
        else:
            control = self.controls[i if i > 0 else ORBIT_STEPS]
        return control, self.depths[i], self.truths[i]

    def sequence(
        self, phase: int, n_steps: int
    ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """The first ``n_steps`` measurements, as ``session.run`` takes them."""
        steps = [self.measurement(phase, j) for j in range(n_steps)]
        return (
            np.stack([s[0] for s in steps]),
            [s[1] for s in steps],
            np.stack([s[2] for s in steps]),
        )


@dataclass(frozen=True)
class TrackSpec:
    seed: int
    phase: int
    init: TrackInit


def track_spec(rng: np.random.Generator, orbit: Orbit) -> TrackSpec:
    """One track: seed, start frame, init perturbed around the truth."""
    seed = draw_seed(rng)
    phase = int(rng.integers(0, ORBIT_STEPS))
    offset = rng.normal(size=4) * INIT_OFFSET_SIGMA
    init = TrackInit(
        mode="tracking",
        state=orbit.truths[phase] + offset,
        sigma=INIT_SIGMA,
    )
    return TrackSpec(seed=seed, phase=phase, init=init)


def infer_request(rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """One ``/infer`` payload: a distinct seed and a fresh input batch."""
    seed = draw_seed(rng)
    return seed, rng.normal(size=(INFER_ROWS, DEMO_INPUTS))
