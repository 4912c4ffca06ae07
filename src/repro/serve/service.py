"""Request-level asyncio inference service with dynamic micro-batching.

The public entry points of the stack used to be caller-owned blocking
sessions; this module redesigns the API around **stateless concurrent
requests**:

- :class:`InferenceService` serves the (substrate, model) pairs it was
  built with and admits requests through a bounded queue
  (:class:`~repro.runtime.QueuePolicy`) -- beyond the bound, ``submit``
  raises :class:`~repro.serve.types.ServiceOverloaded`
  instead of queueing without limit.
- A :class:`Batcher` per pair coalesces concurrent ``submit`` calls into
  ``session.run_batch`` micro-batches, amortising dropout-mask drawing
  and the O(T^2) ordering search across every same-seed request in the
  batch, and searching every seed group's order in one batched call.
  Batching is work-conserving: a batcher with no batch in flight
  dispatches what is queued at once, and only waits for company -- at
  most the :class:`~repro.runtime.BatchPolicy` ``max_wait_ms``, up to
  ``max_batch`` requests -- while one of its batches is executing.
- Execution always goes through shards running one op dispatch
  (:class:`~repro.serve.execution.ShardState`): by default a single
  in-process shard on one executor thread
  (:class:`~repro.serve.workers.InProcessShard`), or ``workers`` spawned
  shard processes (:class:`~repro.serve.workers.WorkerPool`) when the
  :class:`~repro.runtime.policy.ShardPolicy` asks for ``workers >= 1``
  -- same request path, same bits, N cores.  The in-process shard runs
  one op at a time, so ``/infer`` micro-batches and track steps take
  turns on it, exactly as they do inside a spawned shard.
- Results are deterministic **per request**: each response is bit-for-bit
  what :func:`reference_run` produces on a fresh identically-built
  session with the same seed, no matter how the request was batched or
  which shard served it, and each response's ops/energy come from the
  engine's per-request energy tapes (living in whichever process
  executed the batch), so requests sharing a wave never bleed metering
  into each other.

Use it in-process (async)::

    service = InferenceService(model, substrates=["cim-ordered"])
    async with service:
        response = await service.submit(InferenceRequest(x, substrate="cim-ordered"))

or from synchronous code by wrapping that block in a coroutine for
``asyncio.run``, or over HTTP via :mod:`repro.serve.http` /
``repro serve``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Mapping, Sequence

import numpy as np

from repro.api.substrates import available_substrates
from repro.nn.sequential import Sequential
from repro.runtime.policy import (
    BatchPolicy,
    QueuePolicy,
    ShardPolicy,
    TrackPolicy,
)
from repro.serve.execution import PairKey, WorkerSpec, reference_run
from repro.serve.types import (
    DEFAULT_MODEL,
    InferenceRequest,
    InferenceResponse,
    RequestExecutionError,
    ServiceOverloaded,
)


@dataclass
class ServiceStats:
    """Loop-thread counters exposed by ``/stats``.

    Attributes:
        received: requests admitted past the queue bound.
        completed: responses delivered.
        failed: requests whose execution raised.
        rejected: admissions refused with :class:`ServiceOverloaded`.
        batches: micro-batches dispatched.
        batched_requests: requests served in micro-batches of size > 1.
        max_batch_observed: largest micro-batch dispatched so far.
        per_substrate: completed-request count per substrate name.
    """

    received: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_observed: int = 0
    per_substrate: dict[str, int] = field(default_factory=dict)

    def mean_batch_size(self) -> float:
        if self.batches == 0:
            return 0.0
        return (self.completed + self.failed) / self.batches


@dataclass
class _Pending:
    """One admitted request waiting in a batcher queue."""

    request: InferenceRequest
    future: asyncio.Future
    admitted_at: float


_SHUTDOWN = object()


class Batcher:
    """Coalesces one (substrate, model) pair's requests into micro-batches.

    The collection loop is work-conserving.  It takes the first waiting
    request and drains whatever else is already queued, up to
    ``policy.max_batch``.  If none of this batcher's batches is in
    flight, the batch dispatches at once -- a lone request on an idle
    batcher never waits.  Only while a batch is in flight does it wait
    for company, until the first of: the next request, an in-flight
    batch completing, or the first request having waited
    ``policy.max_wait_ms``.  Both policy fields are therefore upper
    bounds.  The assembled batch is dispatched as a task so collection
    continues while ``execute`` runs it (the shard count bounds
    concurrency).  ``execute`` maps the batch's wire items to one
    outcome per item -- a response, or the exception that item failed
    with.
    """

    def __init__(
        self,
        key: PairKey,
        policy: BatchPolicy,
        execute: Callable[[Sequence[Any]], Awaitable[Sequence[Any]]],
        stats: ServiceStats,
    ):
        self.key = key
        self.substrate = key[0]
        self.policy = policy
        self._execute = execute
        self._stats = stats
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        if self._task is None:
            return
        self._queue.put_nowait(_SHUTDOWN)
        await self._task
        self._task = None
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)
        # Fail anything that slipped into the queue behind the shutdown
        # sentinel -- an abandoned future would hang its awaiter forever.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if leftover is _SHUTDOWN or leftover.future.done():
                continue
            self._stats.failed += 1
            leftover.future.set_exception(
                RequestExecutionError("service stopped before execution")
            )

    def put(self, pending: _Pending) -> None:
        self._queue.put_nowait(pending)

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is _SHUTDOWN:
                break
            batch = [first]
            deadline = loop.time() + self.policy.max_wait_s
            flush = False
            while len(batch) < self.policy.max_batch:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    # Work-conserving: an idle batcher never holds a
                    # batch back, and one whose in-flight batch just
                    # finished sends what it has.
                    if flush or not self._dispatches:
                        break
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    item, flush = await self._next_or_completion(timeout)
                    if item is None:
                        continue
                if item is _SHUTDOWN:
                    stopping = True
                    break
                batch.append(item)
            task = loop.create_task(self._dispatch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    async def _next_or_completion(self, timeout: float) -> tuple[Any, bool]:
        """Wait for the next queued item, an in-flight dispatch finishing,
        or ``timeout`` -- whichever comes first.

        Returns ``(item or None, whether a dispatch finished)``.
        """
        getter = asyncio.get_running_loop().create_task(self._queue.get())
        done, _ = await asyncio.wait(
            {getter, *self._dispatches},
            timeout=timeout,
            return_when=asyncio.FIRST_COMPLETED,
        )
        completed = bool(done - {getter})
        if getter in done:
            return getter.result(), completed
        # A get() cancelled after put_nowait() woke it, but before it
        # ran, leaves that item queued for the next get_nowait().
        getter.cancel()
        return None, completed

    async def _dispatch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        started_at = loop.time()
        self._stats.batches += 1
        self._stats.max_batch_observed = max(
            self._stats.max_batch_observed, len(batch)
        )
        if len(batch) > 1:
            self._stats.batched_requests += len(batch)
        # wire_item() keeps the Batcher request-shape agnostic: the same
        # coalescing loop batches stateless /infer requests and track
        # steps (repro.serve.tracks), whose items differ on the wire.
        items = [p.request.wire_item() for p in batch]
        outcomes: Sequence[Any]
        try:
            outcomes = await self._execute(items)
        except ServiceOverloaded as error:
            # Shard death (WorkerCrashed) or exhausted capacity: the
            # whole batch gets the retryable 503, never a hung future.
            outcomes = [error] * len(batch)
        except Exception as error:  # transport-level failure: fail every item
            wrapped = RequestExecutionError(f"{type(error).__name__}: {error}")
            wrapped.__cause__ = error
            outcomes = [wrapped] * len(batch)
        for pending, outcome in zip(batch, outcomes):
            if pending.future.done():
                continue
            if isinstance(outcome, Exception):
                self._stats.failed += 1
                pending.future.set_exception(outcome)
            else:
                self._stats.completed += 1
                self._stats.per_substrate[self.substrate] = (
                    self._stats.per_substrate.get(self.substrate, 0) + 1
                )
                outcome.queue_s = started_at - pending.admitted_at
                outcome.total_s = loop.time() - pending.admitted_at
                pending.future.set_result(outcome)


class InferenceService:
    """Asyncio inference front end over pre-warmed session pools.

    Args:
        models: the served network, or a ``{name: Sequential}`` mapping
            for multi-model serving (a bare model is registered under
            ``"default"``).
        substrates: registered substrate names to open pools for
            (default: every registered substrate).
        n_iterations: MC-Dropout depth of every session.
        batch: micro-batching policy (see :class:`BatchPolicy`).
        queue: admission policy (see :class:`QueuePolicy`).
        shard: scale-out policy (see :class:`~repro.runtime.policy.
            ShardPolicy`); ``workers >= 1`` fans micro-batches out over
            that many spawned shard processes, each owning its own
            calibrated session pools (default: one in-process shard,
            executing one op at a time).
        calibration_inputs: representative activations for session
            calibration (default: deterministic synthetic ones).
        session_seed: hardware-instantiation seed shared by every pool
            session and by :func:`~repro.serve.pool.build_reference_session`
            -- part of the determinism contract.
        track_world: optional :class:`~repro.serve.tracks.TrackWorld`;
            when given, the service also serves stateful streaming
            tracks (``/track/open`` / ``/track/step`` / ``/track/close``
            and :meth:`open_track`) over localization sessions built
            from it.
        tracks: track lifecycle bounds (see :class:`~repro.runtime.
            policy.TrackPolicy`).
        track_substrates: substrates to warm track prototypes for
            (default: the served ``substrates``).
    """

    def __init__(
        self,
        models: Sequential | Mapping[str, Sequential],
        substrates: Sequence[str] | None = None,
        n_iterations: int = 30,
        batch: BatchPolicy | None = None,
        queue: QueuePolicy | None = None,
        shard: ShardPolicy | None = None,
        calibration_inputs: np.ndarray | None = None,
        session_seed: int = 0,
        track_world: Any = None,
        tracks: TrackPolicy | None = None,
        track_substrates: Sequence[str] | None = None,
    ):
        if isinstance(models, Mapping):
            self.models = dict(models)
        else:
            self.models = {DEFAULT_MODEL: models}
        if not self.models:
            raise ValueError("need at least one model to serve")
        from repro.api.substrates import get_substrate

        self.substrates = [
            get_substrate(name).name
            for name in (
                substrates if substrates is not None else available_substrates()
            )
        ]
        if not self.substrates:
            raise ValueError("need at least one substrate to serve")
        self.n_iterations = int(n_iterations)
        self.batch_policy = batch or BatchPolicy()
        self.queue_policy = queue or QueuePolicy()
        self.shard_policy = shard or ShardPolicy()
        self.calibration_inputs = calibration_inputs
        self.session_seed = int(session_seed)
        self.track_world = track_world
        self.track_policy = tracks or TrackPolicy()
        if track_substrates is None:
            self.track_substrates = list(self.substrates)
        else:
            self.track_substrates = [
                get_substrate(name).name for name in track_substrates
            ]
        self._track_manager: Any = None
        self._keys: set[PairKey] = {
            (substrate, model)
            for substrate in self.substrates
            for model in self.models
        }
        self._in_features = {
            name: model.dense_layers()[0].weight.value.shape[0]
            for name, model in self.models.items()
        }
        self._batchers: dict[PairKey, Batcher] = {}
        # The shard surface (InProcessShard or WorkerPool), built on the
        # first start() and kept warm across restarts.
        self._shards: Any = None
        self._pending = 0
        self._started = False
        self._started_at: float | None = None
        self.stats = ServiceStats()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Warm the shards and start the batchers (idempotent).

        In-process mode builds its one shard's session pools (and track
        store) on the calling loop; sharded mode (``shard.workers >= 1``)
        spawns the worker shards and waits until each has warmed its
        own.  Warm state survives ``stop()`` / ``start()``; live tracks
        do not.
        """
        if self._started:
            return
        if self._shards is None:
            from repro.serve.workers import InProcessShard, WorkerPool

            spec = WorkerSpec(
                models=dict(self.models),
                substrates=tuple(self.substrates),
                n_iterations=self.n_iterations,
                calibration_inputs=self.calibration_inputs,
                session_seed=self.session_seed,
                track_world=self.track_world,
                track_substrates=tuple(self.track_substrates),
            )
            if self.shard_policy.workers >= 1:
                self._shards = WorkerPool(spec, self.shard_policy)
            else:
                self._shards = InProcessShard(spec, self.shard_policy)
        shards = self._shards
        await shards.start()
        for key in sorted(self._keys):
            batcher = Batcher(
                key,
                self.batch_policy,
                # Looked up on every call rather than bound here, so a
                # wrapper installed on the shard class later still sees
                # each batch.
                lambda items, key=key: shards.execute(key, items),
                self.stats,
            )
            batcher.start()
            self._batchers[key] = batcher
        if self.track_world is not None:
            from repro.serve.tracks import TrackManager

            self._track_manager = TrackManager(
                shards,
                policy=self.track_policy,
                batch=self.batch_policy,
                substrates=self.track_substrates,
            )
            await self._track_manager.start()
        self._started = True
        # repro: ignore[DET003] uptime metadata, not a result field
        self._started_at = time.time()

    async def stop(self) -> None:
        """Drain the batchers, then stop the shards.

        Worker shards are stopped with the shard policy's join deadline
        (terminate -> kill escalation), so no child process can outlive
        the service.
        """
        if not self._started:
            return
        # Refuse new submissions first: a submit racing this coroutine
        # must see the flag and be rejected, not enqueue into a batcher
        # whose drain has already run (its future would never resolve).
        self._started = False
        if self._track_manager is not None:
            # Live tracks die with the service; the manager closes its
            # per-home step batchers and the sweep task first so no
            # step future is abandoned mid-drain.
            await self._track_manager.stop()
            self._track_manager = None
        for batcher in self._batchers.values():
            await batcher.close()
        self._batchers.clear()
        await self._shards.stop()

    async def __aenter__(self) -> "InferenceService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- request path ------------------------------------------------------

    def _resolve_key(self, request: InferenceRequest) -> PairKey:
        from repro.api.substrates import get_substrate

        substrate = get_substrate(request.substrate).name
        key = (substrate, request.model)
        if key not in self._keys:
            raise KeyError(
                f"no pool for substrate {substrate!r} / model "
                f"{request.model!r}; serving "
                f"{sorted(self._keys)}"
            )
        return key

    async def submit(self, request: InferenceRequest) -> InferenceResponse:
        """Admit one request; resolves when its micro-batch completes.

        Raises:
            ServiceOverloaded: the bounded queue is at ``max_pending``.
            KeyError: unknown substrate or model.
            ValueError: input width does not match the served model.
        """
        if not self._started:
            raise RuntimeError(
                "service is not started (use 'async with service:' or "
                "await service.start())"
            )
        key = self._resolve_key(request)
        in_features = self._in_features[request.model]
        if request.inputs.shape[-1] != in_features:
            raise ValueError(
                f"request inputs have width {request.inputs.shape[-1]}, "
                f"model {request.model!r} expects {in_features}"
            )
        if self._pending >= self.queue_policy.max_pending:
            self.stats.rejected += 1
            raise ServiceOverloaded(
                self._pending, self.queue_policy.max_pending
            )
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request,
            future=loop.create_future(),
            admitted_at=loop.time(),
        )
        self._pending += 1
        self.stats.received += 1
        try:
            self._batchers[key].put(pending)
            return await pending.future
        finally:
            self._pending -= 1

    # -- streaming tracks --------------------------------------------------

    def _manager(self) -> Any:
        if not self._started:
            raise RuntimeError(
                "service is not started (use 'async with service:' or "
                "await service.start())"
            )
        if self._track_manager is None:
            from repro.serve.types import TrackError

            raise TrackError(
                "disabled",
                "track serving is disabled: the service was built "
                "without a track_world",
            )
        return self._track_manager

    async def track_open(self, request: Any) -> dict:
        """Open one streaming track (see :class:`~repro.serve.types.
        TrackOpenRequest`); 503 beyond ``TrackPolicy.max_tracks``."""
        return await self._manager().open(request)

    async def track_step(self, request: Any) -> Any:
        """Serve one measurement of an open track."""
        return await self._manager().step(request)

    async def track_close(self, track_id: str) -> dict:
        """Close a track and release its shard-side state."""
        return await self._manager().close(track_id)

    async def open_track(
        self,
        substrate: str = "cim",
        init: Any = None,
        seed: int = 0,
        track_id: str | None = None,
    ) -> Any:
        """Open a track and return an async :class:`~repro.serve.tracks.
        TrackHandle` (``await handle.step(control, depth)``)."""
        from repro.serve.tracks import TrackHandle
        from repro.serve.types import TrackOpenRequest

        if init is None:
            raise ValueError("open_track needs an init (TrackInit)")
        result = await self.track_open(
            TrackOpenRequest(
                init=init, substrate=substrate, seed=seed, track_id=track_id
            )
        )
        return TrackHandle(
            self._manager(), result["track_id"], result["substrate"]
        )

    # -- introspection -----------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Liveness summary for ``/healthz``.

        ``status`` is ``"degraded"`` -- with the respawning shard ids --
        while any worker shard is dead or warming a replacement, so load
        balancers can drain early instead of eating retryable 503s;
        ``"ok"`` otherwise.
        """
        respawning: list[int] = []
        if self._shards is not None and self._started:
            respawning = self._shards.respawning_shards()
        return {
            "status": "degraded" if respawning else "ok",
            "respawning_shards": respawning,
        }

    def describe(self) -> dict[str, Any]:
        """Static service configuration (for ``/healthz``)."""
        return {
            "substrates": sorted(self.substrates),
            "models": sorted(self.models),
            "n_iterations": self.n_iterations,
            "batch": {
                "max_batch": self.batch_policy.max_batch,
                "max_wait_ms": self.batch_policy.max_wait_ms,
            },
            "queue": {"max_pending": self.queue_policy.max_pending},
            "shard": {
                "workers": self.shard_policy.workers,
                "respawn": self.shard_policy.respawn,
            },
            "session_seed": self.session_seed,
            "started": self._started,
            "tracks": (
                None
                if self._track_manager is None
                else self._track_manager.describe()
            ),
        }

    def stats_snapshot(self) -> dict[str, Any]:
        """Live counters (for ``/stats``): per-pair ``pools`` in-process,
        per-shard ``shards`` rows when sharded."""
        described = {} if self._shards is None else self._shards.describe()
        local = self._shards is None or self._shards.mode == "local"
        return {
            "received": self.stats.received,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "rejected": self.stats.rejected,
            "batches": self.stats.batches,
            "batched_requests": self.stats.batched_requests,
            "max_batch_observed": self.stats.max_batch_observed,
            "mean_batch_size": self.stats.mean_batch_size(),
            "per_substrate": dict(self.stats.per_substrate),
            "pending": self._pending,
            "pools": described if local else {},
            "shards": None if local else described,
            "uptime_s": (
                None
                if self._started_at is None
                # repro: ignore[DET003] uptime metadata, not a result field
                else time.time() - self._started_at
            ),
            "tracks": (
                None
                if self._track_manager is None
                else self._track_manager.stats_snapshot()
            ),
        }


__all__ = [
    "Batcher",
    "InferenceService",
    "ServiceStats",
    "reference_run",
]
