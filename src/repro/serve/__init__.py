"""Request-level inference serving over the substrate sessions.

This package lifts the paper's circuit-level batching trade-off to the
serving level: independent concurrent requests are coalesced into
``session.run_batch`` micro-batches over pools of pre-warmed sessions,
with results that stay bit-for-bit equal to a standalone pinned-mask
``session.run()`` for the same seed no matter how requests were batched.

- :mod:`repro.serve.types` -- :class:`InferenceRequest` /
  :class:`InferenceResponse` schemas (JSON round-trip, strict NaN-safe
  wire encoding) and :class:`ServiceOverloaded`.
- :mod:`repro.serve.pool` -- :class:`SessionPool`: the one pre-warmed,
  calibrated session a shard holds per (substrate, model) pair.
- :mod:`repro.serve.execution` -- the one execution path: what every
  shard runs (:class:`~repro.serve.execution.ShardState` op dispatch,
  one outcome codec); :func:`reference_run` is the determinism oracle
  and :func:`result_mismatches` its comparator.
- :mod:`repro.serve.service` -- :class:`InferenceService` /
  :class:`Batcher`: asyncio submission, work-conserving
  ``(max_batch, max_wait_ms)`` coalescing, bounded-queue backpressure,
  per-request scoped metering.
- :mod:`repro.serve.workers` -- the shard transports behind one
  surface: :class:`InProcessShard` (the default: one shard on one
  executor thread) or :class:`WorkerPool` (``ShardPolicy(workers=N)``:
  N spawned shard processes, least-loaded routing,
  crash detection with 503 + respawn), both built from a
  :class:`WorkerSpec`.
- :mod:`repro.serve.tracks` -- :class:`TrackManager` / :class:`TrackStore`:
  stateful streaming localization tracks (sticky shard routing, bounded
  admission + idle-TTL eviction via
  :class:`~repro.runtime.policy.TrackPolicy`, crash recovery by
  measurement-log replay or explicit ``state_lost`` re-init), with
  :func:`reference_track_run` as the stream-determinism oracle and
  :func:`stream_mismatches` its comparator.
- :mod:`repro.serve.http` -- stdlib HTTP endpoint (``/infer``,
  ``/track/open`` / ``/track/step`` / ``/track/close``, ``/healthz``,
  ``/stats``) behind ``repro serve [--workers N] [--tracks]``.
- :mod:`repro.serve.demo` -- the deterministic quickstart model and
  demo track world.

Quick start::

    import asyncio

    from repro.serve import InferenceRequest, InferenceService
    from repro.serve.demo import demo_model

    service = InferenceService(demo_model(), substrates=["cim-ordered"])

    async def main():
        async with service:
            return await service.submit(
                InferenceRequest(x, substrate="cim-ordered", seed=7)
            )

    response = asyncio.run(main())
    response.result.mean, response.result.energy_j
"""

from repro.runtime.policy import BatchPolicy, QueuePolicy, ShardPolicy, TrackPolicy
from repro.serve.pool import (
    SessionPool,
    build_reference_session,
    default_calibration_inputs,
)
from repro.serve.service import (
    Batcher,
    InferenceService,
    ServiceStats,
    reference_run,
)
from repro.serve.execution import result_mismatches
from repro.serve.tracks import (
    TrackHandle,
    TrackManager,
    TrackStore,
    TrackWorld,
    reference_track_run,
    stream_mismatches,
)
from repro.serve.types import (
    DEFAULT_MODEL,
    InferenceRequest,
    InferenceResponse,
    RequestExecutionError,
    ServiceOverloaded,
    TrackError,
    TrackInit,
    TrackOpenRequest,
    TrackStepRequest,
    TrackStepResponse,
    WorkerCrashed,
)
from repro.serve.workers import InProcessShard, WorkerPool, WorkerSpec

__all__ = [
    "BatchPolicy",
    "Batcher",
    "DEFAULT_MODEL",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceService",
    "InProcessShard",
    "QueuePolicy",
    "RequestExecutionError",
    "ServiceOverloaded",
    "ServiceStats",
    "SessionPool",
    "ShardPolicy",
    "TrackError",
    "TrackHandle",
    "TrackInit",
    "TrackManager",
    "TrackOpenRequest",
    "TrackPolicy",
    "TrackStepRequest",
    "TrackStepResponse",
    "TrackStore",
    "TrackWorld",
    "WorkerCrashed",
    "WorkerPool",
    "WorkerSpec",
    "build_reference_session",
    "default_calibration_inputs",
    "reference_run",
    "reference_track_run",
    "result_mismatches",
    "stream_mismatches",
]
