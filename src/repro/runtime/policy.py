"""Shared batching / queueing policy types.

The same throughput-vs-latency trade-off shows up at every batching
layer of the stack -- the CIM macro amortises peripherals over column
reads, ``session.run_batch`` amortises mask drawing over items, and the
serving layer (:mod:`repro.serve`) amortises both over concurrent
requests.  These small frozen dataclasses give every layer one vocabulary
for the knobs instead of loose ``max_batch=...`` ints.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BatchPolicy:
    """How aggressively to coalesce work into micro-batches.

    Attributes:
        max_batch: largest micro-batch assembled before dispatch; 1
            disables coalescing (every item dispatches alone).
        max_wait_ms: upper bound on how long an admitted item waits for
            company before its (possibly undersized) batch dispatches
            anyway.  Batching is work-conserving: an idle batcher (no
            batch in flight) dispatches at once, and a waiting batch
            also dispatches as soon as an in-flight one completes.  0
            means dispatch whatever is immediately available.
    """

    max_batch: int = 8
    max_wait_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1000.0


@dataclass(frozen=True)
class QueuePolicy:
    """Bounded admission: how much pending work a consumer may hold.

    Attributes:
        max_pending: admitted-but-unfinished items allowed at once;
            admission beyond this is an explicit rejection
            (:class:`repro.serve.ServiceOverloaded`), never unbounded
            queue growth.
    """

    max_pending: int = 64

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )


@dataclass(frozen=True)
class ShardPolicy:
    """Horizontal scale-out: how work fans out over worker processes.

    The serving layer (:mod:`repro.serve.workers`) spawns ``workers``
    shard processes, each owning its own calibrated session pools, and
    routes every assembled micro-batch to the least-loaded live shard.

    Attributes:
        workers: shard process count; 0 (default) keeps execution
            in-process (the single-process coalescing path).
        respawn: replace a dead shard with a fresh spawn (in-flight
            requests on the dead shard are failed with a retryable 503
            either way).
        join_timeout_s: shutdown deadline -- shards that have not exited
            by then are terminated, then killed, so no worker process
            can outlive the service.
        spawn_timeout_s: how long dispatch waits for a live, warmed
            shard (covers initial warm-up and post-crash respawn) before
            rejecting with a retryable 503.
    """

    workers: int = 0
    respawn: bool = True
    join_timeout_s: float = 5.0
    spawn_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.join_timeout_s <= 0:
            raise ValueError(
                f"join_timeout_s must be > 0, got {self.join_timeout_s}"
            )
        if self.spawn_timeout_s <= 0:
            raise ValueError(
                f"spawn_timeout_s must be > 0, got {self.spawn_timeout_s}"
            )


@dataclass(frozen=True)
class TrackPolicy:
    """Lifecycle bounds for stateful streaming tracks (:mod:`repro.serve.tracks`).

    A live track holds filter state on its home shard plus a replay
    buffer of acked measurements in the manager, so both the track count
    and the per-track memory must be bounded explicitly.

    Attributes:
        max_tracks: live tracks admitted at once; ``/track/open`` beyond
            this is an explicit retryable rejection
            (:class:`repro.serve.ServiceOverloaded`), never unbounded
            state growth.
        idle_ttl_s: a track idle (no step/close) for longer than this is
            evicted by the sweep; its next step gets a clear
            "track expired" error instead of serving stale state.
        sweep_interval_s: how often the eviction sweep runs.
        replay_log_steps: acked measurements buffered per track for
            crash replay; 0 disables replay entirely (shard death then
            re-initializes the filter and flags ``state_lost``).
        max_track_bytes: byte bound on one track's replay buffer
            (controls + depth frames).  A track that outgrows it drops
            the buffer and falls back to ``state_lost`` recovery -- the
            track stays live, only its crash-replay ability is shed.
    """

    max_tracks: int = 1024
    idle_ttl_s: float = 600.0
    sweep_interval_s: float = 5.0
    replay_log_steps: int = 256
    max_track_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_tracks < 1:
            raise ValueError(
                f"max_tracks must be >= 1, got {self.max_tracks}"
            )
        if self.idle_ttl_s <= 0:
            raise ValueError(
                f"idle_ttl_s must be > 0, got {self.idle_ttl_s}"
            )
        if self.sweep_interval_s <= 0:
            raise ValueError(
                f"sweep_interval_s must be > 0, got {self.sweep_interval_s}"
            )
        if self.replay_log_steps < 0:
            raise ValueError(
                f"replay_log_steps must be >= 0, got {self.replay_log_steps}"
            )
        if self.max_track_bytes < 0:
            raise ValueError(
                f"max_track_bytes must be >= 0, got {self.max_track_bytes}"
            )


__all__ = ["BatchPolicy", "QueuePolicy", "ShardPolicy", "TrackPolicy"]
