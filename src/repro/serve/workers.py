"""The two shard transports: one in-process shard, or N spawned ones.

Every deployment shape executes through shards running the same
:class:`~repro.serve.execution.ShardState` dispatch and outcome codec;
this module only moves ops to them and outcomes back.  Both transports
expose one surface -- ``start`` / ``stop`` / ``execute`` /
``execute_track`` / ``ready_homes`` / ``respawning_shards`` /
``describe`` -- so the service and the track manager never branch on
the shape:

- :class:`InProcessShard` (``ShardPolicy.workers == 0``) runs the one
  shard of in-process serving on a single executor thread: ops, whether
  ``/infer`` micro-batches or track steps, execute one at a time.
- :class:`WorkerPool` (``workers >= 1``) scales the same contract over
  cores: it spawns ``ShardPolicy.workers`` shard processes
  (``multiprocessing`` *spawn* start method, daemonic so they can never
  outlive the parent), each warming its **own** state from the
  :class:`~repro.serve.execution.WorkerSpec` -- sessions are rebuilt
  from the same ``session_seed``, so every shard is bit-for-bit
  interchangeable with the in-process one and with
  :func:`~repro.serve.execution.reference_run`.

  - Micro-batches are routed to the **least-loaded live shard**,
    tie-broken toward a shard that has already served the batch's
    substrate (``ShardPolicy.affinity``) so calibration state stays
    warm; ops and outcomes cross stdlib pipes as plain picklable
    payloads.
  - **Worker death is detected** (pipe EOF from a dedicated reader
    thread per shard): every in-flight op on the dead shard fails with
    :class:`~repro.serve.types.WorkerCrashed` -- a retryable 503, never
    a hung future -- the shard is respawned, and subsequent requests
    keep matching the reference bit-for-bit.
  - Shutdown sends every shard a stop message, then joins with the
    ``ShardPolicy.join_timeout_s`` deadline, escalating terminate ->
    kill; an ``atexit`` guard runs the same teardown if the owner never
    calls :meth:`WorkerPool.stop`, so Ctrl-C cannot leak orphaned
    children.  A shard that loses its parent pipe exits on its own
    (EOF), covering even hard parent kills.

Metering stays exact because the scoped ledgers live in the shard that
executed the op; responses carry per-request energy/ops back like any
other result field.
"""

from __future__ import annotations

import asyncio
import atexit
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro.runtime.policy import ShardPolicy
from repro.serve.execution import (
    PairKey,
    RequestItem,
    ShardState,
    WorkerSpec,
    decode_outcomes,
)
from repro.serve.tracks import LOCAL_HOME
from repro.serve.types import RequestExecutionError, WorkerCrashed

_STARTUP_FAILURE_MESSAGE = (
    "worker shards keep dying during warm-up; giving up on respawns. "
    "Common cause: the parent process's __main__ is not importable "
    "(interactive/stdin scripts cannot use the multiprocessing 'spawn' "
    "start method) -- run from a file, `python -m repro serve`, or use "
    "workers=0 for in-process serving."
)


def _worker_main(spec: WorkerSpec, conn: Any) -> None:
    """Shard process entry point: build the shard state, serve ops forever.

    Protocol (parent -> shard): ``("run", job_id, op, payload)`` with an
    op of :meth:`~repro.serve.execution.ShardState.run`, ``("stop",)``,
    ``("exit", code)`` (chaos/test hook: die instantly).  Shard ->
    parent: ``("ready", pid)`` once warmed, then one ``("result",
    job_id, encoded_outcomes)`` per op, in the outcome codec of
    :mod:`repro.serve.execution`.
    """
    state = ShardState(spec)
    conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent died: exit rather than linger as an orphan
        kind = message[0]
        if kind == "stop":
            break
        if kind == "exit":  # chaos/test hook: die without cleanup
            conn.close()
            os._exit(int(message[1]))
        if kind != "run":
            continue
        _, job_id, op, payload = message
        try:
            conn.send(("result", job_id, state.run(op, payload)))
        except (OSError, ValueError, BrokenPipeError):
            break
    conn.close()


class InProcessShard:
    """The one shard of in-process serving (``ShardPolicy(workers=0)``).

    Runs the same :class:`~repro.serve.execution.ShardState` dispatch and
    outcome codec as a spawned shard; only the transport differs -- one
    executor thread instead of a pipe -- so ops execute strictly one at
    a time, as inside a spawned shard.  Exposes the :class:`WorkerPool`
    surface the service and the track manager use, with a single
    always-ready home, :data:`~repro.serve.tracks.LOCAL_HOME`.

    The state is built once, on the first :meth:`start`, and stays warm
    across ``stop()`` / ``start()``; live tracks do not survive a stop.
    """

    mode = "local"

    def __init__(self, spec: WorkerSpec, policy: ShardPolicy):
        self.spec = spec
        self.policy = policy
        self._state: ShardState | None = None
        self._executor: ThreadPoolExecutor | None = None

    async def start(self) -> None:
        if self._executor is not None:
            return
        if self._state is None:
            # Built on the calling thread, like a spawned shard builds
            # before reporting ready: a hand-off to a worker thread
            # would only add latency to start().
            self._state = ShardState(self.spec)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-shard"
        )

    def stop(self) -> None:
        if self._executor is None:
            return
        self._executor.shutdown(wait=True)
        self._executor = None
        if self._state is not None and self._state.tracks is not None:
            self._state.tracks.clear()

    async def _run(self, op: str, payload: Any) -> list[Any]:
        if self._executor is None or self._state is None:
            raise RuntimeError("in-process shard is not started")
        encoded = await asyncio.get_running_loop().run_in_executor(
            self._executor, self._state.run, op, payload
        )
        return decode_outcomes(encoded)

    async def execute(
        self, key: PairKey, items: Sequence[RequestItem]
    ) -> list[Any]:
        return await self._run("batch", (tuple(key), list(items)))

    async def execute_track(
        self,
        index: int,
        generation: int,
        op: str,
        payload: Any,
        n_items: int = 1,
    ) -> list[Any]:
        return await self._run(op, payload)

    def ready_homes(self) -> list[tuple[int, int]]:
        return [LOCAL_HOME]

    def respawning_shards(self) -> list[int]:
        return []

    def describe(self) -> dict[str, Any]:
        """Per-pair pool stats (the ``/stats`` ``pools`` map)."""
        pools = {} if self._state is None else self._state.pools
        return {
            f"{substrate}/{model}": pool.describe()
            for (substrate, model), pool in pools.items()
        }


@dataclass
class _Inflight:
    """One dispatched micro-batch awaiting its shard's result."""

    loop: asyncio.AbstractEventLoop
    future: asyncio.Future
    n_requests: int
    sent_at: float


class WorkerHandle:
    """Parent-side view of one shard: process, pipe, live counters."""

    def __init__(self, index: int, process: Any, conn: Any, generation: int = 0):
        self.index = index
        # Spawn-unique id: a respawned shard gets a new generation, so
        # state pinned to the dead one (live tracks) can never be
        # silently served by its fresh-state replacement.
        self.generation = generation
        self.process = process
        self.conn = conn
        self.ready = False
        self.alive = True
        self.inflight: dict[int, _Inflight] = {}
        self.dispatched_batches = 0
        self.completed_batches = 0
        self.failed_batches = 0
        self.substrates: set[str] = set()
        self.started_at = time.monotonic()
        self.last_dispatch_at: float | None = None

    @property
    def inflight_batches(self) -> int:
        return len(self.inflight)

    @property
    def inflight_requests(self) -> int:
        return sum(entry.n_requests for entry in self.inflight.values())

    def describe(self, now: float | None = None) -> dict[str, Any]:
        """Per-shard stats row for ``/stats``: queue depth and ages."""
        now = time.monotonic() if now is None else now
        oldest = min(
            (entry.sent_at for entry in self.inflight.values()), default=None
        )
        return {
            "index": self.index,
            "generation": self.generation,
            "pid": self.process.pid,
            "alive": bool(self.process.is_alive()),
            "ready": self.ready,
            "queue_depth": self.inflight_batches,
            "inflight_requests": self.inflight_requests,
            "dispatched_batches": self.dispatched_batches,
            "completed_batches": self.completed_batches,
            "failed_batches": self.failed_batches,
            "oldest_inflight_age_s": (
                None if oldest is None else now - oldest
            ),
            "last_dispatch_age_s": (
                None
                if self.last_dispatch_at is None
                else now - self.last_dispatch_at
            ),
            "uptime_s": now - self.started_at,
            "substrates": sorted(self.substrates),
        }


class WorkerPool:
    """N spawned shard processes behind an asyncio ``execute`` call.

    One pipe and one reader thread per shard; futures are created on the
    dispatching event loop and resolved with ``call_soon_threadsafe``,
    so the pool survives the service being driven from different event
    loops over its lifetime (each ``infer_many`` call runs its own).
    """

    mode = "sharded"

    def __init__(self, spec: WorkerSpec, policy: ShardPolicy):
        if policy.workers < 1:
            raise ValueError(
                f"WorkerPool needs workers >= 1, got {policy.workers} "
                "(workers=0 means in-process serving; don't build a pool)"
            )
        self.spec = spec
        self.policy = policy
        import multiprocessing

        self._context = multiprocessing.get_context("spawn")
        self._handles: list[WorkerHandle] = []
        self._lock = threading.Lock()
        self._job_ids = itertools.count()
        self._generations = itertools.count()
        self._stopping = False
        self._started = False
        self._startup_failures = 0  # consecutive never-ready shard deaths
        self._failed_permanently = False
        self.respawns = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard and wait until each reports warmed-up."""
        if self._started:
            return
        self._stopping = False
        self._handles = [
            self._spawn(index) for index in range(self.policy.workers)
        ]
        self._started = True
        # Guard against owners that exit without stop(): never leak
        # orphaned children.  (Shards also self-exit on parent-pipe EOF.)
        atexit.register(self.stop)
        await self._wait_ready()

    def _spawn(self, index: int) -> WorkerHandle:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(self.spec, child_conn),
            name=f"repro-serve-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps one end; EOF now propagates
        handle = WorkerHandle(
            index, process, parent_conn, generation=next(self._generations)
        )
        threading.Thread(
            target=self._reader,
            args=(handle,),
            name=f"repro-serve-reader-{index}",
            daemon=True,
        ).start()
        return handle

    async def _wait_ready(self) -> None:
        deadline = time.monotonic() + self.policy.spawn_timeout_s
        while True:
            with self._lock:
                if self._failed_permanently:
                    raise WorkerCrashed(
                        -1,
                        0,
                        message=_STARTUP_FAILURE_MESSAGE,
                    )
                if all(h.ready for h in self._handles if h.alive) and any(
                    h.alive for h in self._handles
                ):
                    return
            if time.monotonic() >= deadline:
                raise WorkerCrashed(
                    -1,
                    0,
                    message=(
                        "no worker shard became ready within "
                        f"{self.policy.spawn_timeout_s:.0f}s"
                    ),
                )
            await asyncio.sleep(0.05)

    def stop(self) -> None:
        """Stop every shard within ``join_timeout_s``; escalate if needed.

        Idempotent and atexit-safe: stop -> deadline join -> terminate ->
        kill, then fail anything still in flight so no awaiter hangs.
        """
        if not self._started:
            return
        self._stopping = True
        self._started = False
        handles, self._handles = self._handles, []
        deadline = time.monotonic() + self.policy.join_timeout_s
        for handle in handles:
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for handle in handles:
            handle.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        for handle in handles:
            with self._lock:
                inflight = dict(handle.inflight)
                handle.inflight.clear()
            for entry in inflight.values():
                self._fail(
                    entry,
                    RequestExecutionError(
                        "service stopped before execution"
                    ),
                )
        atexit.unregister(self.stop)

    # -- dispatch ----------------------------------------------------------

    async def execute(
        self, key: PairKey, items: Sequence[RequestItem]
    ) -> list[Any]:
        """Route one assembled micro-batch to a shard; await its outcomes.

        Raises:
            WorkerCrashed: the chosen shard died before answering (its
                replacement is already spawning), or no shard became
                ready within ``spawn_timeout_s``.
        """
        if not self._started:
            raise RuntimeError("worker pool is not started")
        handle = await self._pick(key[0])
        return await self._submit(
            handle, "batch", (tuple(key), list(items)), len(items)
        )

    async def execute_track(
        self,
        index: int,
        generation: int,
        op: str,
        payload: Any,
        n_items: int = 1,
    ) -> list[Any]:
        """Run one track op on a *specific* shard generation (sticky
        routing: a track's filter state lives on exactly one shard).

        Returns the decoded outcome list (payload dicts / typed
        exceptions, one per item).  Raises :class:`WorkerCrashed` when
        that generation is gone -- dead, respawned, or never ready --
        so the caller (the track manager) can recover explicitly
        instead of silently hitting a fresh-state replacement.
        """
        if not self._started:
            raise RuntimeError("worker pool is not started")
        with self._lock:
            handle = (
                self._handles[index]
                if 0 <= index < len(self._handles)
                else None
            )
            if (
                handle is None
                or handle.generation != generation
                or not handle.ready
            ):
                raise WorkerCrashed(index, n_items)
        return await self._submit(handle, op, payload, n_items)

    async def _submit(
        self, handle: WorkerHandle, op: str, payload: Any, n_items: int
    ) -> list[Any]:
        """Send one op to ``handle`` and await its decoded outcomes."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        with self._lock:
            # Checked under the lock the death handler fails in-flight
            # work under, so an op can never slip in after that sweep.
            if not handle.alive:
                raise WorkerCrashed(handle.index, n_items)
            job_id = next(self._job_ids)
            handle.inflight[job_id] = _Inflight(
                loop=loop,
                future=future,
                n_requests=n_items,
                sent_at=time.monotonic(),
            )
            handle.dispatched_batches += 1
            handle.last_dispatch_at = time.monotonic()
        try:
            handle.conn.send(("run", job_id, op, payload))
        except (OSError, ValueError, BrokenPipeError) as error:
            with self._lock:
                handle.inflight.pop(job_id, None)
            raise WorkerCrashed(handle.index, n_items) from error
        return await future

    def ready_homes(self) -> list[tuple[int, int]]:
        """Live placement targets as (shard index, generation) pairs."""
        with self._lock:
            return [
                (handle.index, handle.generation)
                for handle in self._handles
                if handle.alive and handle.ready
            ]

    def respawning_shards(self) -> list[int]:
        """Shard indices currently dead or warming a replacement (the
        /healthz ``degraded`` signal)."""
        with self._lock:
            return sorted(
                handle.index
                for handle in self._handles
                if not (handle.alive and handle.ready)
            )

    async def _pick(self, substrate: str) -> WorkerHandle:
        """Least-loaded live shard, affinity-tie-broken; waits for warm-up."""
        deadline = time.monotonic() + self.policy.spawn_timeout_s
        while True:
            with self._lock:
                ready = [
                    handle
                    for handle in self._handles
                    if handle.alive and handle.ready
                ]
                if ready:
                    if self.policy.affinity:
                        chosen = min(
                            ready,
                            key=lambda h: (
                                h.inflight_requests,
                                substrate not in h.substrates,
                                h.index,
                            ),
                        )
                    else:
                        chosen = min(
                            ready,
                            key=lambda h: (h.inflight_requests, h.index),
                        )
                    chosen.substrates.add(substrate)
                    return chosen
            with self._lock:
                if self._failed_permanently:
                    raise WorkerCrashed(
                        -1, 0, message=_STARTUP_FAILURE_MESSAGE
                    )
            if time.monotonic() >= deadline:
                raise WorkerCrashed(
                    -1,
                    0,
                    message=(
                        "no live worker shard became ready within "
                        f"{self.policy.spawn_timeout_s:.0f}s; retry"
                    ),
                )
            await asyncio.sleep(0.05)

    # -- reader thread -----------------------------------------------------

    def _reader(self, handle: WorkerHandle) -> None:
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "ready":
                handle.ready = True
            elif kind == "result":
                self._resolve(handle, message[1], message[2])
        self._on_worker_death(handle)

    def _resolve(
        self, handle: WorkerHandle, job_id: int, encoded: list
    ) -> None:
        with self._lock:
            entry = handle.inflight.pop(job_id, None)
            handle.completed_batches += 1
        if entry is None:
            return
        outcomes = decode_outcomes(encoded)

        def apply() -> None:
            if not entry.future.done():
                entry.future.set_result(outcomes)

        self._call_threadsafe(entry.loop, apply)

    def _on_worker_death(self, handle: WorkerHandle) -> None:
        """Pipe EOF: fail in-flight work with a 503 and respawn the shard."""
        was_ready = handle.ready
        handle.alive = False
        handle.ready = False
        with self._lock:
            inflight = dict(handle.inflight)
            handle.inflight.clear()
            handle.failed_batches += len(inflight)
            if was_ready:
                self._startup_failures = 0
            else:
                # A shard that died before finishing warm-up will very
                # likely die again (bad spec, spawn-incompatible
                # __main__): cap the respawn loop instead of thrashing.
                self._startup_failures += 1
                if self._startup_failures > 3 * self.policy.workers:
                    self._failed_permanently = True
        for entry in inflight.values():
            self._fail(
                entry, WorkerCrashed(handle.index, entry.n_requests)
            )
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=1.0)  # reap; the process is gone
        if (
            self._stopping
            or not self.policy.respawn
            or self._failed_permanently
        ):
            return
        replacement: WorkerHandle | None = self._spawn(handle.index)
        with self._lock:
            self.respawns += 1
            if (
                replacement is not None
                and self._started
                and handle.index < len(self._handles)
                and self._handles[handle.index] is handle
            ):
                self._handles[handle.index] = replacement
                replacement = None  # installed
        if replacement is not None:
            # The pool stopped while we were respawning: don't leak it.
            replacement.process.terminate()
            replacement.process.join(timeout=1.0)

    def _fail(self, entry: _Inflight, error: Exception) -> None:
        def apply() -> None:
            if not entry.future.done():
                entry.future.set_exception(error)

        self._call_threadsafe(entry.loop, apply)

    @staticmethod
    def _call_threadsafe(loop: asyncio.AbstractEventLoop, fn: Any) -> None:
        try:
            loop.call_soon_threadsafe(fn)
        except RuntimeError:
            pass  # the dispatching loop is gone; nothing left to notify

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Pool-level stats: one row per shard (queue depth, ages, pids)."""
        now = time.monotonic()
        with self._lock:
            shards = [handle.describe(now) for handle in self._handles]
        return {
            "workers": self.policy.workers,
            "respawns": self.respawns,
            "shards": shards,
        }


__all__ = [
    "InProcessShard",
    "WorkerHandle",
    "WorkerPool",
    "WorkerSpec",
    "_worker_main",
]
