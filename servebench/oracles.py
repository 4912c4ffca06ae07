"""Bit-for-bit output checks against the repo's own determinism oracles.

- Tracks: a streamed track's estimates and cumulative metering
  (``energy_j`` / ``ops_executed`` / ``energy_breakdown_j`` after its last
  step) must equal :func:`repro.serve.reference_track_run` -- a one-shot
  ``LocalizationSession.run()`` over the same measurements on a freshly
  built session.
- ``/infer``: a response's mean, variance, ``energy_j`` and
  ``ops_executed`` must equal :func:`repro.serve.reference_run` on a
  freshly built :func:`repro.serve.build_reference_session`.

Each check returns one message per mismatch (empty when all match).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.serve import build_reference_session, reference_run, reference_track_run
from repro.serve.demo import demo_model, demo_track_world
from servebench.inputs import Orbit, TrackSpec


def check_tracks(
    records: Sequence[tuple[str, TrackSpec, list[Any]]],
    orbit: Orbit,
    substrate: str,
) -> list[str]:
    """``records``: ``(track id, spec, step responses in order)``."""
    world = demo_track_world()
    problems = []
    for track_id, spec, responses in records:
        if not responses:
            problems.append(f"track {track_id}: no step was served")
            continue
        reference = reference_track_run(
            world,
            substrate,
            spec.init,
            spec.seed,
            orbit.sequence(spec.phase, len(responses)),
        )
        final = responses[-1]
        checks = {
            "estimates": np.array_equal(
                np.stack([r.estimate for r in responses]), reference.mean
            ),
            "energy_j": final.energy_j == reference.energy_j,
            "ops_executed": final.ops_executed == reference.ops_executed,
            "energy_breakdown_j": (
                final.energy_breakdown_j == reference.energy_breakdown_j
            ),
            "step_index": final.step_index == len(responses),
            "recovery": not any(
                r.state_lost or r.replayed_steps for r in responses
            ),
        }
        problems.extend(
            f"track {track_id} ({len(responses)} steps): {name} differs "
            "from reference_track_run"
            for name, ok in checks.items()
            if not ok
        )
    return problems


def check_infers(
    records: Sequence[tuple[str, int, np.ndarray, Any]],
    substrate: str,
    n_iterations: int,
) -> list[str]:
    """``records``: ``(request id, seed, inputs, InferenceResponse)``."""
    problems = []
    for request_id, seed, inputs, response in records:
        session = build_reference_session(
            substrate, demo_model(), n_iterations=n_iterations
        )
        reference = reference_run(session, inputs, seed)
        result = response.result
        checks = {
            "mean": np.array_equal(result.mean, reference.mean),
            "variance": np.array_equal(result.variance, reference.variance),
            "energy_j": result.energy_j == reference.energy_j,
            "ops_executed": result.ops_executed == reference.ops_executed,
        }
        problems.extend(
            f"request {request_id}: {name} differs from reference_run"
            for name, ok in checks.items()
            if not ok
        )
    return problems
