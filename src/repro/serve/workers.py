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
    substrate, then by index; ops and outcomes cross stdlib pipes as
    plain picklable payloads.
  - The parent's end of each shard pipe is an asyncio stream on the
    event loop that started the pool: ops are written in
    :class:`multiprocessing.connection.Connection` framing without
    waiting for the shard to read them, and one reader task per shard
    resolves the awaiting futures as replies arrive.  The loop never
    waits on a shard in either direction, so a shard blocked sending a
    large reply cannot deadlock against the loop sending it a large op.
    Every handle mutation happens on that one thread, so the pool takes
    no lock.
  - **Worker death is detected** (pipe EOF in the reader task): every
    in-flight op on the dead shard fails with
    :class:`~repro.serve.types.WorkerCrashed` -- a retryable 503, never
    a hung future -- the dead process is reaped and its replacement
    started in an executor, and subsequent requests keep matching the
    reference bit-for-bit.
  - Shutdown closes every pipe (each shard exits on the EOF) and fails
    in-flight work on the loop, then joins in an executor with the
    ``ShardPolicy.join_timeout_s`` deadline, escalating terminate ->
    kill; an ``atexit`` guard terminates and kills the shards if the
    owner never calls :meth:`WorkerPool.stop`, so Ctrl-C cannot leak
    orphaned children.  A shard whose parent dies sees the same EOF,
    covering even hard parent kills.

Metering stays exact because the scoped ledgers live in the shard that
executed the op; responses carry per-request energy/ops back like any
other result field.
"""

from __future__ import annotations

import asyncio
import atexit
import itertools
import os
import pickle
import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Sequence

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


def _frame(message: Any) -> bytes:
    """``message`` in :class:`~multiprocessing.connection.Connection`
    wire framing (length header, then the pickle; up to 2 GiB), so a
    shard's blocking ``Connection`` reads what the parent writes."""
    body = ForkingPickler.dumps(message)
    return struct.pack("!i", len(body)) + body


def _worker_main(spec: WorkerSpec, conn: Any) -> None:
    """Shard process entry point: build the shard state, serve ops until
    the parent's end of the pipe closes.

    Protocol (parent -> shard): ``("run", job_id, op, payload)`` with an
    op of :meth:`~repro.serve.execution.ShardState.run`.  Shard ->
    parent: ``("ready", pid)`` once warmed, then one ``("result",
    job_id, encoded_outcomes)`` per op, in the outcome codec of
    :mod:`repro.serve.execution`.  EOF is the only stop signal: the pool
    closes the pipe on stop, and a dead parent's pipe closes with it.
    """
    state = ShardState(spec)
    conn.send(("ready", os.getpid()))
    while True:
        try:
            _, job_id, op, payload = conn.recv()
        except (EOFError, OSError):
            break  # stopped, or the parent died: never linger as an orphan
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

    async def stop(self) -> None:
        if self._executor is None:
            return
        # Join the shard thread off the loop, keeping it responsive.
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown
        )
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

    future: asyncio.Future
    n_requests: int
    sent_at: float


class WorkerHandle:
    """Parent-side view of one shard: process, pipe, live counters."""

    def __init__(self, index: int, process: Any, writer: Any, generation: int = 0):
        self.index = index
        # Spawn-unique id: a respawned shard gets a new generation, so
        # state pinned to the dead one (live tracks) can never be
        # silently served by its fresh-state replacement.
        self.generation = generation
        self.process = process
        self.writer = writer  # the parent's end of the shard pipe
        self.replies: asyncio.Task | None = None  # its reader task
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

    def fail_inflight(self, error_for: Callable[[_Inflight], Exception]) -> int:
        """Fail every in-flight op with ``error_for(entry)``; returns how
        many there were."""
        inflight, self.inflight = self.inflight, {}
        for entry in inflight.values():
            if not entry.future.done():
                entry.future.set_exception(error_for(entry))
        return len(inflight)


def _reap(processes: Sequence[Any], timeout_s: float) -> None:
    """Join ``processes`` within ``timeout_s`` in total, escalating
    terminate -> kill for any that outlive it.  Blocking: run it off
    the event loop."""
    deadline = time.monotonic() + timeout_s
    for process in processes:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)


class WorkerPool:
    """N spawned shard processes behind an asyncio ``execute`` call.

    The pool belongs to the event loop that ran :meth:`start`.  Each
    shard's pipe is an asyncio stream there: writes never wait for the
    shard, and a reader task per shard resolves the awaiting futures and
    handles shard death, all on that loop, so every handle mutation
    happens on one thread.  :meth:`stop` must run on the same loop; a later
    :meth:`start` may run on another (each ``asyncio.run`` of an
    ``async with service`` block runs its own loop).
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
        self._job_ids = itertools.count()
        self._generations = itertools.count()
        self._started = False
        self._startup_failures = 0  # consecutive never-ready shard deaths
        self._failed_permanently = False
        self._respawning: set[asyncio.Task] = set()
        self.respawns = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard and wait until each reports warmed-up."""
        if self._started:
            return
        self._started = True
        # Guard against owners that exit without stop(): never leak
        # orphaned children.  (Shards also self-exit on parent-pipe EOF.)
        atexit.register(self._kill)
        self._handles = []
        for index in range(self.policy.workers):
            self._handles.append(await self._spawn(index))
        await self._poll(
            lambda: all(h.ready for h in self._handles if h.alive)
            and any(h.alive for h in self._handles),
            "no worker shard became ready",
        )

    async def _spawn(self, index: int) -> WorkerHandle:
        """Start shard ``index`` and attach its pipe to the running loop.

        ``Process.start`` runs in an executor: it writes the pickled
        spec into a pipe and, for a spec beyond the pipe buffer, blocks
        until the child's interpreter has booted and read it.
        """
        parent_sock, child_sock = socket.socketpair()
        child_conn = Connection(child_sock.detach())
        process = self._context.Process(
            target=_worker_main,
            args=(self.spec, child_conn),
            name=f"repro-serve-shard-{index}",
            daemon=True,
        )
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, process.start
            )
        finally:
            child_conn.close()  # parent keeps one end; EOF now propagates
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        handle = WorkerHandle(
            index, process, writer, generation=next(self._generations)
        )
        # No await between here and the caller installing the handle,
        # so the handle is the pool's before its reader task first runs.
        handle.replies = asyncio.create_task(self._read(handle, reader))
        return handle

    async def _poll(self, probe: Callable[[], Any], what: str) -> Any:
        """Await a truthy ``probe()`` while shards warm up, within
        ``spawn_timeout_s``."""
        deadline = time.monotonic() + self.policy.spawn_timeout_s
        while not (found := probe()):
            if self._failed_permanently:
                raise WorkerCrashed(-1, 0, message=_STARTUP_FAILURE_MESSAGE)
            if time.monotonic() >= deadline:
                raise WorkerCrashed(-1, 0, message=(
                    f"{what} within {self.policy.spawn_timeout_s:.0f}s"
                ))
            await asyncio.sleep(0.05)
        return found

    async def stop(self) -> None:
        """Stop every shard within ``join_timeout_s``; escalate if needed.

        Idempotent.  On the loop: close every pipe (a shard exits on its
        EOF) and fail anything still in flight, so no awaiter hangs.
        Then, in an executor: deadline join -> terminate -> kill.
        """
        if not self._started:
            return
        self._started = False
        handles, self._handles = self._handles, []
        for handle in handles:
            if handle.alive:
                self._close_pipe(handle)
            handle.fail_inflight(lambda entry: RequestExecutionError(
                "service stopped before execution"
            ))
        await asyncio.get_running_loop().run_in_executor(
            None,
            _reap,
            [handle.process for handle in handles],
            self.policy.join_timeout_s,
        )
        # Reader tasks end on their pipe's EOF; a respawn still starting
        # a replacement sees the pool stopped and reaps it itself.
        tasks = [*self._respawning, *(h.replies for h in handles if h.replies)]
        await asyncio.gather(*tasks, return_exceptions=True)
        atexit.unregister(self._kill)

    def _kill(self) -> None:
        """The ``atexit`` guard for an owner that never called
        :meth:`stop`: terminate, then kill, every shard process."""
        _reap([handle.process for handle in self._handles], 0.0)

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
        handle = (
            self._handles[index] if 0 <= index < len(self._handles) else None
        )
        if handle is None or handle.generation != generation or not handle.ready:
            raise WorkerCrashed(index, n_items)
        return await self._submit(handle, op, payload, n_items)

    async def _submit(
        self, handle: WorkerHandle, op: str, payload: Any, n_items: int
    ) -> list[Any]:
        """Send one op to ``handle`` and await its decoded outcomes."""
        if not handle.alive:
            raise WorkerCrashed(handle.index, n_items)
        job_id = next(self._job_ids)
        handle.writer.write(_frame(("run", job_id, op, payload)))
        # Registered after the write: the reply is read on this thread,
        # so it cannot arrive before this coroutine yields.  A shard
        # that is gone fails the entry once its reader sees EOF.
        future = asyncio.get_running_loop().create_future()
        handle.inflight[job_id] = _Inflight(
            future=future, n_requests=n_items, sent_at=time.monotonic()
        )
        handle.dispatched_batches += 1
        handle.last_dispatch_at = time.monotonic()
        return await future

    def ready_homes(self) -> list[tuple[int, int]]:
        """Live placement targets as (shard index, generation) pairs."""
        return [
            (handle.index, handle.generation)
            for handle in self._handles
            if handle.alive and handle.ready
        ]

    def respawning_shards(self) -> list[int]:
        """Shard indices currently dead or warming a replacement (the
        /healthz ``degraded`` signal)."""
        return sorted(
            handle.index
            for handle in self._handles
            if not (handle.alive and handle.ready)
        )

    async def _pick(self, substrate: str) -> WorkerHandle:
        """Least-loaded live shard, ties to one that has served
        ``substrate``, then to the lowest index; waits for warm-up."""
        ready = await self._poll(
            lambda: [h for h in self._handles if h.alive and h.ready],
            "no live worker shard became ready",
        )
        chosen = min(
            ready,
            key=lambda h: (
                h.inflight_requests, substrate not in h.substrates, h.index
            ),
        )
        chosen.substrates.add(substrate)
        return chosen

    # -- loop-side reader --------------------------------------------------

    async def _read(self, handle: WorkerHandle, reader: asyncio.StreamReader) -> None:
        """Resolve ``handle``'s replies as they arrive; EOF means the
        shard died (unless the pool closed the pipe first)."""
        try:
            while True:
                (size,) = struct.unpack("!i", await reader.readexactly(4))
                if size == -1:  # a reply over 2 GiB: 64-bit length
                    (size,) = struct.unpack("!Q", await reader.readexactly(8))
                message = pickle.loads(await reader.readexactly(size))
                if message[0] == "ready":
                    handle.ready = True
                else:  # ("result", job_id, encoded_outcomes)
                    self._resolve(handle, *message[1:])
        except (asyncio.IncompleteReadError, OSError):
            if handle.alive:
                self._on_worker_death(handle)

    def _resolve(
        self, handle: WorkerHandle, job_id: int, encoded: list
    ) -> None:
        entry = handle.inflight.pop(job_id, None)
        handle.completed_batches += 1
        if entry is not None and not entry.future.done():
            entry.future.set_result(decode_outcomes(encoded))

    def _close_pipe(self, handle: WorkerHandle) -> None:
        """Take ``handle`` out of service and close its pipe."""
        handle.alive = False
        handle.ready = False
        handle.writer.close()

    def _on_worker_death(self, handle: WorkerHandle) -> None:
        """Pipe EOF: fail in-flight work with a 503, reap, then respawn."""
        if handle.ready:
            self._startup_failures = 0
        else:
            # A shard that died before finishing warm-up will very
            # likely die again (bad spec, spawn-incompatible
            # __main__): cap the respawn loop instead of thrashing.
            self._startup_failures += 1
            if self._startup_failures > 3 * self.policy.workers:
                self._failed_permanently = True
        self._close_pipe(handle)
        handle.failed_batches += handle.fail_inflight(
            lambda entry: WorkerCrashed(handle.index, entry.n_requests)
        )
        task = asyncio.get_running_loop().create_task(self._respawn(handle))
        self._respawning.add(task)
        task.add_done_callback(self._respawning.discard)

    def _replaceable(self, handle: WorkerHandle) -> bool:
        """Whether dead ``handle`` is still the pool's (the pool has not
        stopped or restarted meanwhile) and respawning is on."""
        index = handle.index
        current = index < len(self._handles) and self._handles[index] is handle
        return current and self.policy.respawn and not self._failed_permanently

    async def _respawn(self, handle: WorkerHandle) -> None:
        """Reap dead ``handle`` and start its replacement, both off the
        loop; install the replacement if ``handle`` is still replaceable."""
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, handle.process.join, 1.0)
        except RuntimeError:
            return  # interpreter exit: the atexit guard killed the shard
        if not self._replaceable(handle):
            return
        fresh = await self._spawn(handle.index)
        if self._replaceable(handle):
            self._handles[handle.index] = fresh
            self.respawns += 1
        else:  # the pool stopped while the replacement started
            self._close_pipe(fresh)
            await loop.run_in_executor(None, _reap, [fresh.process], 0.0)

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Pool-level stats: one row per shard (queue depth, ages, pids)."""
        now = time.monotonic()
        return {
            "workers": self.policy.workers,
            "respawns": self.respawns,
            "shards": [handle.describe(now) for handle in self._handles],
        }


__all__ = [
    "InProcessShard",
    "WorkerHandle",
    "WorkerPool",
    "WorkerSpec",
    "_worker_main",
]
