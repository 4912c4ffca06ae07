"""Stateful streaming track sessions over the localization workload.

The paper's flagship workload -- particle-filter localization on the CIM
substrate -- is a *stream*: a drone sends measurements over time and
carries filter state between steps.  This module adds the service's
first stateful layer on top of the stateless ``/infer`` path:

- :class:`TrackWorld` -- the shared world (map cloud, camera, localizer
  configuration) every track session is built from, picklable so shard
  processes rebuild bit-identical sessions from one spec.
- :class:`TrackStore` -- the per-process track state.  It does NOT
  build one session per track: it keeps one shared prototype
  :class:`~repro.api.substrates.LocalizationSession` per substrate and
  each track's particles, private RNG and energy ledger, and steps a
  micro-batch as waves through the prototype filter's
  :meth:`~repro.filtering.ParticleFilter.step_many`.  Per-track state
  is O(n_particles), which is what makes thousands of live tracks
  feasible in one process.
- :class:`TrackManager` -- lifecycle, placement, eviction and recovery:
  open/step/close with sticky routing of every track to one home shard,
  :class:`~repro.runtime.policy.TrackPolicy` admission (max live tracks,
  503 beyond) and idle-TTL eviction, micro-batching of concurrent steps
  from *different* tracks on the same shard through the existing
  :class:`~repro.serve.service.Batcher`, and crash recovery that either
  replays the track's buffered measurement log on a fresh shard or
  re-initializes the filter and flags ``state_lost`` on the next step
  response.  In-process tracks keep no replay log: their home dies only
  with the service.

The stream determinism contract (:func:`reference_track_run` is the
oracle): a track stepped measurement-by-measurement is bit-for-bit equal
-- estimates and cumulative energy/ops via scoped ledgers -- to a
one-shot ``LocalizationSession.run()`` over the same measurement
sequence on an identically built session.  Two mechanisms carry it:

1. Every source of randomness in a localization step flows through the
   caller-provided generator, so a per-track generator seeded once at
   open and carried across steps reproduces the one-shot run exactly.
2. Each track owns one ledger that starts at zero, and every step
   charges its field read into it with ``reading.account(ledger)``.
   The one-shot run scopes the backend ledger from zero around the same
   sequence of charges, so the track ledger *is* the run's cumulative
   metering -- the same float additions in the same order, never a sum
   of per-step totals, which would not be bit-exact.
"""

from __future__ import annotations

import asyncio
import functools
import time
import uuid
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.api.results import InferenceResult
from repro.api.substrates import LocalizationSession, get_substrate
from repro.circuits.energy import EnergyLedger
from repro.runtime.policy import BatchPolicy, TrackPolicy
from repro.serve.execution import Encoded, encode_error, encode_invalid
from repro.serve.types import (
    RequestExecutionError,
    ServiceOverloaded,
    TrackError,
    TrackInit,
    TrackOpenRequest,
    TrackStepRequest,
    TrackStepResponse,
    WorkerCrashed,
)

# The one home of in-process serving (repro.serve.workers.InProcessShard).
LOCAL_HOME = (-1, -1)

_TOMBSTONE_LIMIT = 4096
# Per-logged-step container overhead added to the array payload bytes.
_LOG_ENTRY_OVERHEAD = 256


@dataclass(frozen=True)
class TrackWorld:
    """Everything needed to rebuild identical localization sessions.

    One world is shared by the whole service (and crosses the spawn
    boundary once inside the :class:`~repro.serve.workers.WorkerSpec`);
    every track on every shard runs against sessions built from it with
    the same ``session_seed``, which is what makes shards bit-for-bit
    interchangeable for streams.
    """

    map_cloud: np.ndarray
    camera: Any
    session_seed: int = 0
    localizer_kwargs: dict = field(default_factory=dict)

    def build_session(self, substrate: str) -> LocalizationSession:
        """A freshly calibrated session for ``substrate`` (the oracle's
        and every prototype's construction path)."""
        return get_substrate(substrate).localization_session(
            self.map_cloud,
            self.camera,
            rng=np.random.default_rng(self.session_seed),
            **self.localizer_kwargs,
        )


def reference_track_run(
    world: TrackWorld,
    substrate: str,
    init: TrackInit,
    seed: int,
    measurements: tuple[np.ndarray, list[np.ndarray], np.ndarray],
) -> InferenceResult:
    """The stream determinism oracle.

    One generator seeded with the track seed drives the init and the
    whole one-shot run -- exactly the generator usage of a served track
    stepped measurement-by-measurement.  ``measurements`` is the
    ``(controls, depths, truth)`` tuple ``LocalizationSession.run``
    takes.
    """
    session = world.build_session(substrate)
    rng = np.random.default_rng(int(seed))
    init.apply(session, rng)
    return session.run(measurements, rng=rng)


def stream_mismatches(
    responses: Sequence[TrackStepResponse], reference: InferenceResult
) -> list[str]:
    """The fields where one track's step responses, in order from its
    open, break the stream contract against its
    :func:`reference_track_run`: per-step estimates and indices, and the
    cumulative metering after the last step.  Empty when they match."""
    final = responses[-1]
    checks = {
        "estimates": np.array_equal(
            np.array([r.estimate for r in responses]), reference.mean
        ),
        "step_index": [r.step_index for r in responses]
        == list(range(1, len(responses) + 1)),
        "energy_j": final.energy_j == reference.energy_j,
        "ops_executed": final.ops_executed == reference.ops_executed,
        "energy_breakdown_j": (
            final.energy_breakdown_j == reference.energy_breakdown_j
        ),
    }
    return [name for name, ok in checks.items() if not ok]


class _StoredTrack:
    """One track's state inside a :class:`TrackStore`."""

    __slots__ = ("substrate", "rng", "states", "log_weights", "ledger", "steps")

    def __init__(self, substrate: str, rng: np.random.Generator):
        self.substrate = substrate
        self.rng = rng
        # The particle set: (N, D) states and (N,) log-weights.
        self.states: Any = None
        self.log_weights: Any = None
        # Everything this track's steps metered since open.
        self.ledger = EnergyLedger(label="track")
        self.steps = 0


class TrackStore:
    """Per-process track execution over shared prototype sessions.

    One prototype :class:`LocalizationSession` per substrate is built
    (and calibrated) once and shared by every track on that substrate;
    each track meters its field reads into its own ledger, so the
    prototype's ledgers never see a track's work.  All methods
    must be called from one thread at a time (the manager serializes
    through a single-thread executor in-process, and shard processes are
    serial by construction).

    A micro-batch of steps executes as *waves* of at most one step per
    track.  The store keeps track state, groups a wave (a draw-free
    ``scan_points`` check per item, then one group per substrate and
    scan size) and builds responses; each group is one
    :meth:`~repro.filtering.ParticleFilter.step_many` over the tracks'
    stacked particle sets, which owns the phases, each track's draw
    order and the failure isolation.  A lone step is ``step_many`` of
    one, so each response is bit-for-bit the lone step's.
    """

    def __init__(self, world: TrackWorld, substrates: Sequence[str]):
        self.world = world
        self._prototypes: dict[str, LocalizationSession] = {}
        for name in substrates:
            resolved = get_substrate(name).name
            if resolved not in self._prototypes:
                self._prototypes[resolved] = world.build_session(resolved)
        self._tracks: dict[str, _StoredTrack] = {}

    @property
    def substrates(self) -> list[str]:
        return sorted(self._prototypes)

    def open(
        self, track_id: str, substrate: str, init: TrackInit, seed: int
    ) -> dict:
        """(Re-)initialize a track's filter state; idempotent on re-open
        so crash recovery can always start from a clean init."""
        resolved = get_substrate(substrate).name
        if resolved not in self._prototypes:
            raise KeyError(
                f"no track prototype for substrate {resolved!r}; "
                f"serving {self.substrates}"
            )
        session = self._prototypes[resolved]
        track = _StoredTrack(resolved, np.random.default_rng(int(seed)))
        init.apply(session, track.rng)
        particles = session.localizer.filter.particles
        track.states, track.log_weights = particles.states, particles.log_weights
        self._tracks[track_id] = track
        return {
            "track_id": track_id,
            "substrate": resolved,
            "n_particles": int(session.localizer.n_particles),
        }

    def step_batch(self, items: Sequence[tuple]) -> list[Encoded]:
        """Execute one micro-batch of ``(track_id, control, depth,
        truth)`` steps, one wire-encoded outcome per item in input order.

        Items may mix tracks and substrates.  A new wave starts whenever
        an item's track already has a step in the current wave, so
        same-track items (a replayed log) execute in list order.  A wave
        steps one group per substrate and scan size: the stacked arrays
        need equal particle and scan-point counts.
        """
        encoded: list[Any] = [None] * len(items)
        # (substrate, scan size) -> (index, track, control, scan, truth)
        wave: dict[tuple[str, int], list[tuple]] = {}
        in_wave: set[str] = set()
        for index, item in enumerate(items):
            track_id = item[0]
            if track_id in in_wave:
                self._run_wave(wave, encoded)
                wave, in_wave = {}, set()
            track = self._tracks.get(track_id)
            if track is None:
                encoded[index] = encode_error(
                    TrackError(
                        "unknown",
                        f"track {track_id!r} is not open on this shard",
                    )
                )
                continue
            localizer = self._prototypes[track.substrate].localizer
            # Draw-free input checks: a frame of the wrong shape or
            # without valid pixels fails its own item, as a client fault,
            # before the track draws anything.
            try:
                _, control, depth, truth = item
                control = np.asarray(control, dtype=float).reshape(-1)
                scan = localizer.scan_points(np.asarray(depth, dtype=float))
            except ValueError as error:
                encoded[index] = encode_invalid(error)
                continue
            except Exception as error:
                encoded[index] = encode_error(error)
                continue
            in_wave.add(track_id)
            size = min(scan.shape[0], localizer.measurement_model.max_pixels)
            wave.setdefault((track.substrate, size), []).append(
                (index, track, control, scan, truth)
            )
        self._run_wave(wave, encoded)
        return encoded

    def _run_wave(
        self, wave: dict[tuple[str, int], list[tuple]], encoded: list[Any]
    ) -> None:
        for (substrate, _), members in wave.items():
            self._step_group(
                self._prototypes[substrate].localizer.filter, members, encoded
            )

    def _step_group(
        self, pf: Any, members: list[tuple], encoded: list[Any]
    ) -> None:
        """One :meth:`~repro.filtering.ParticleFilter.step_many` over
        tracks with equal scan sizes, inside a per-step scope on each
        track's ledger; a track's state moves only when its step
        succeeds."""
        indices, tracks, controls, scans, truths = zip(*members)
        scopes = [track.ledger.begin_scope() for track in tracks]
        try:
            outcomes = pf.step_many(
                np.stack([track.states for track in tracks]),
                np.stack([track.log_weights for track in tracks]),
                np.stack(controls),
                scans,
                [track.rng for track in tracks],
                [track.ledger for track in tracks],
            )
        finally:
            for track, scope in zip(tracks, scopes):
                track.ledger.end_scope(scope)
        for index, track, truth, scope, outcome in zip(
            indices, tracks, truths, scopes, outcomes
        ):
            if isinstance(outcome, Exception):
                encoded[index] = encode_error(outcome)
                continue
            track.states, track.log_weights, diagnostics = outcome
            track.steps += 1
            encoded[index] = ("ok", self._response(track, truth, diagnostics, scope))

    @staticmethod
    def _response(
        track: _StoredTrack, truth: Any, diagnostics: Any, step: EnergyLedger
    ) -> dict:
        ledger = track.ledger
        estimate = np.asarray(diagnostics.estimate, dtype=float)
        error_m = None
        if truth is not None:
            truth_state = np.asarray(truth, dtype=float).reshape(-1)
            error_m = float(
                np.linalg.norm(estimate[:3] - truth_state[:3])
            )
        return {
            "estimate": estimate,
            "ess": float(diagnostics.ess),
            "resampled": bool(diagnostics.resampled),
            "log_evidence": float(diagnostics.log_evidence),
            "spread": float(diagnostics.spread),
            "error_m": error_m,
            "energy_j": ledger.total_energy_j(),
            "ops_executed": ledger.total_count(),
            "energy_breakdown_j": {
                op: ledger.energy(op) for op in ledger.operations
            },
            "step_energy_j": step.total_energy_j(),
            "step_ops": step.total_count(),
            "substrate": track.substrate,
        }

    def close(self, track_id: str) -> dict:
        track = self._tracks.pop(track_id, None)
        if track is None:
            raise TrackError(
                "unknown", f"track {track_id!r} is not open on this shard"
            )
        return {
            "track_id": track_id,
            "substrate": track.substrate,
            "steps": track.steps,
        }

    def clear(self) -> None:
        """Forget every live track (the owning service stopped)."""
        self._tracks.clear()


@dataclass
class TrackStats:
    """Manager-level lifecycle counters exposed via ``/stats``."""

    opened: int = 0
    rejected: int = 0
    closed: int = 0
    expired: int = 0
    steps: int = 0
    recovered_replay: int = 0
    recovered_reinit: int = 0
    replay_dropped: int = 0


class _LiveTrack:
    """Manager-side record of one live track (placement + replay log)."""

    __slots__ = (
        "track_id",
        "substrate",
        "init",
        "seed",
        "home",
        "lock",
        "step_index",
        "log",
        "log_bytes",
        "replayable",
        "last_used",
        "state_lost_pending",
        "replayed_pending",
    )

    def __init__(
        self,
        track_id: str,
        substrate: str,
        init: TrackInit,
        seed: int,
        home: tuple[int, int],
        replayable: bool,
    ):
        self.track_id = track_id
        self.substrate = substrate
        self.init = init
        self.seed = seed
        self.home = home
        self.lock = asyncio.Lock()
        self.step_index = 0
        self.log: list[tuple] = []
        self.log_bytes = 0
        self.replayable = replayable
        self.last_used = time.monotonic()
        self.state_lost_pending = False
        self.replayed_pending = 0


class TrackManager:
    """Lifecycle, placement, eviction and recovery for live tracks.

    Must be driven from a single event loop (the service's).  Steps of
    one track are serialized by its per-track lock -- the determinism
    contract requires in-order execution -- while steps of *different*
    tracks homed on the same shard coalesce into micro-batches through
    one :class:`~repro.serve.service.Batcher` per home.

    ``shards`` is the service's shard surface (an
    :class:`~repro.serve.workers.InProcessShard` or a
    :class:`~repro.serve.workers.WorkerPool`).  Homes are ``(shard index,
    generation)`` pairs: a respawned shard has a new generation, so a
    track homed on the dead one can never be silently served by its
    fresh-state replacement -- dispatch raises
    :class:`~repro.serve.types.WorkerCrashed` and the manager recovers
    explicitly (replay or ``state_lost``).
    """

    def __init__(
        self,
        shards: Any,
        policy: TrackPolicy | None = None,
        batch: BatchPolicy | None = None,
        substrates: Sequence[str] | None = None,
    ):
        from repro.serve.service import ServiceStats

        self._shards = shards
        self.policy = policy or TrackPolicy()
        self.batch_policy = batch or BatchPolicy()
        self._substrates = (
            None
            if substrates is None
            else {get_substrate(name).name for name in substrates}
        )
        self._tracks: dict[str, _LiveTrack] = {}
        self._tombstones: OrderedDict[str, str] = OrderedDict()
        self._batchers: dict[tuple[int, int], Any] = {}
        self._sweeper: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.track_stats = TrackStats()
        # Step-batching counters live in a private ServiceStats so the
        # shared Batcher can account them without touching /infer's.
        self.step_stats = ServiceStats()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self._sweeper is None:
            self._sweeper = self._loop.create_task(self._sweep_loop())

    async def stop(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        for batcher in self._batchers.values():
            await batcher.close()
        self._batchers.clear()
        self._tracks.clear()

    # -- placement ---------------------------------------------------------

    async def _pick_home(self) -> tuple[int, int]:
        """The ready home with the fewest live tracks; waits out shard
        warm-up/respawn up to the shard policy's spawn deadline."""
        assert self._loop is not None
        deadline = self._loop.time() + self._shards.policy.spawn_timeout_s
        while True:
            homes = self._shards.ready_homes()
            if homes:
                counts = Counter(
                    record.home for record in self._tracks.values()
                )
                return min(homes, key=lambda h: (counts.get(h, 0), h))
            if self._loop.time() >= deadline:
                raise WorkerCrashed(
                    -1,
                    0,
                    message=(
                        "no live worker shard available for track "
                        "placement; retry"
                    ),
                )
            await asyncio.sleep(0.05)

    def _batcher(self, home: tuple[int, int]) -> Any:
        batcher = self._batchers.get(home)
        if batcher is None:
            from repro.serve.service import Batcher

            batcher = Batcher(
                ("steps", f"{home[0]}:{home[1]}"),
                self.batch_policy,
                functools.partial(self._execute_steps, home),
                self.step_stats,
            )
            batcher.start()
            self._batchers[home] = batcher
        return batcher

    async def _execute_steps(
        self, home: tuple[int, int], items: Sequence[tuple]
    ) -> list[Any]:
        """Run one micro-batch of ``(track_id, control, depth, truth)``
        step items on ``home``: a :class:`TrackStepResponse` per served
        item (the manager fills in the step index and recovery flags on
        ack), the typed exception per failed one."""
        outcomes = await self._shards.execute_track(
            *home, "steps", list(items), n_items=len(items)
        )
        return [
            outcome
            if isinstance(outcome, Exception)
            else TrackStepResponse(
                track_id=item[0],
                step_index=0,
                batch_size=len(items),
                **outcome,
            )
            for item, outcome in zip(items, outcomes)
        ]

    async def _track_op(
        self, home: tuple[int, int], op: str, payload: Any
    ) -> dict:
        """One ``open`` / ``close`` on ``home``; raises its failure."""
        [outcome] = await self._shards.execute_track(*home, op, payload)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    # -- lookup ------------------------------------------------------------

    def _lookup(self, track_id: str) -> _LiveTrack:
        record = self._tracks.get(track_id)
        if record is not None:
            return record
        reason = self._tombstones.get(track_id)
        if reason == "expired":
            raise TrackError(
                "expired",
                f"track {track_id!r} expired after idling past the "
                f"{self.policy.idle_ttl_s:.0f}s TTL; open a new track",
            )
        if reason == "closed":
            raise TrackError("closed", f"track {track_id!r} is closed")
        raise TrackError("unknown", f"unknown track {track_id!r}")

    def _tombstone(self, track_id: str, reason: str) -> None:
        self._tombstones[track_id] = reason
        self._tombstones.move_to_end(track_id)
        while len(self._tombstones) > _TOMBSTONE_LIMIT:
            self._tombstones.popitem(last=False)

    # -- open / step / close ----------------------------------------------

    async def open(self, request: TrackOpenRequest) -> dict:
        """Admit and place one track; 503 beyond ``max_tracks``."""
        resolved = get_substrate(request.substrate).name
        if self._substrates is not None and resolved not in self._substrates:
            raise KeyError(
                f"no track prototype for substrate {resolved!r}; "
                f"serving tracks on {sorted(self._substrates)}"
            )
        if len(self._tracks) >= self.policy.max_tracks:
            self.track_stats.rejected += 1
            raise ServiceOverloaded(
                len(self._tracks), self.policy.max_tracks
            )
        track_id = request.track_id or f"track-{uuid.uuid4().hex[:12]}"
        if track_id in self._tracks:
            raise ValueError(f"track {track_id!r} is already open")
        home = await self._pick_home()
        record = _LiveTrack(
            track_id,
            request.substrate,
            request.init,
            request.seed,
            home,
            replayable=self._replays(home),
        )
        # Reserve the id (and hold the track lock) across the shard op
        # so a concurrent same-id open or step cannot interleave.
        self._tracks[track_id] = record
        async with record.lock:
            try:
                result = await self._track_op(
                    home,
                    "open",
                    (track_id, request.substrate, request.init, request.seed),
                )
            except BaseException:
                self._tracks.pop(track_id, None)
                raise
        record.substrate = result["substrate"]
        self._tombstones.pop(track_id, None)
        self.track_stats.opened += 1
        return {
            **result,
            "seed": request.seed,
            "home_shard": None if home == LOCAL_HOME else home[0],
            "replay": record.replayable,
        }

    async def step(self, request: TrackStepRequest) -> TrackStepResponse:
        """Serve one measurement; recovers the track first when its home
        shard died (replay the log, or re-init with ``state_lost``)."""
        record = self._lookup(request.track_id)
        async with record.lock:
            if self._tracks.get(request.track_id) is not record:
                self._lookup(request.track_id)  # evicted while waiting
            record.last_used = time.monotonic()
            recoveries = 0
            while True:
                if record.home not in self._shards.ready_homes():
                    await self._recover(record)
                try:
                    response = await self._submit_step(record, request)
                    break
                except WorkerCrashed:
                    # The home died mid-step.  The step was never acked
                    # (so it is not in the replay log): recover and
                    # re-execute it -- deterministic either way.
                    recoveries += 1
                    if recoveries > 3:
                        raise
            record.step_index += 1
            record.last_used = time.monotonic()
            response.step_index = record.step_index
            response.state_lost = record.state_lost_pending
            response.replayed_steps = record.replayed_pending
            record.state_lost_pending = False
            record.replayed_pending = 0
            self._log_step(record, request)
            self.track_stats.steps += 1
            return response

    async def _submit_step(
        self, record: _LiveTrack, request: TrackStepRequest
    ) -> TrackStepResponse:
        from repro.serve.service import _Pending

        assert self._loop is not None
        pending = _Pending(
            request=request,
            future=self._loop.create_future(),
            admitted_at=self._loop.time(),
        )
        self._batcher(record.home).put(pending)
        return await pending.future

    async def _recover(self, record: _LiveTrack) -> None:
        """Re-home a track whose shard died: replay the buffered
        measurement log, or re-initialize and flag ``state_lost``."""
        home = await self._pick_home()
        await self._track_op(
            home,
            "open",
            (record.track_id, record.substrate, record.init, record.seed),
        )
        if record.replayable:
            if record.log:
                outcomes = await self._shards.execute_track(
                    *home, "steps", list(record.log), n_items=len(record.log)
                )
                for outcome in outcomes:
                    if isinstance(outcome, Exception):
                        raise outcome
            record.home = home
            record.replayed_pending = len(record.log)
            self.track_stats.recovered_replay += 1
        else:
            # The log was dropped (or disabled): the filter restarts
            # from the track's init, and the response says so.
            record.home = home
            record.step_index = 0
            record.log = []
            record.log_bytes = 0
            record.replayable = self._replays(home)
            record.state_lost_pending = True
            record.replayed_pending = 0
            self.track_stats.recovered_reinit += 1

    def _replays(self, home: tuple[int, int]) -> bool:
        """Whether a track on ``home`` keeps a crash-replay log: only a
        shard process can die under a live service, so an in-process
        home never replays and keeps no log."""
        return home != LOCAL_HOME and self.policy.replay_log_steps > 0

    def _log_step(self, record: _LiveTrack, request: TrackStepRequest) -> None:
        """Buffer an *acked* step for crash replay, within the policy's
        step and byte bounds; outgrowing them sheds the log (the track
        stays live but falls back to ``state_lost`` recovery)."""
        if not record.replayable:
            return
        entry_bytes = (
            request.control.nbytes
            + request.depth.nbytes
            + (0 if request.truth is None else request.truth.nbytes)
            + _LOG_ENTRY_OVERHEAD
        )
        record.log.append(request.wire_item())
        record.log_bytes += entry_bytes
        if (
            len(record.log) > self.policy.replay_log_steps
            or record.log_bytes > self.policy.max_track_bytes
        ):
            record.log = []
            record.log_bytes = 0
            record.replayable = False
            self.track_stats.replay_dropped += 1

    async def close(self, track_id: str) -> dict:
        record = self._lookup(track_id)
        async with record.lock:
            if self._tracks.get(track_id) is not record:
                self._lookup(track_id)
            if record.home in self._shards.ready_homes():
                try:
                    await self._track_op(record.home, "close", track_id)
                except (TrackError, ServiceOverloaded):
                    pass  # the shard-side state is gone either way
            self._tracks.pop(track_id, None)
            self._tombstone(track_id, "closed")
            self.track_stats.closed += 1
            return {
                "track_id": track_id,
                "substrate": record.substrate,
                "steps": record.step_index,
                "closed": True,
            }

    # -- eviction ----------------------------------------------------------

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.policy.sweep_interval_s)
            await self.sweep_idle()

    async def sweep_idle(self) -> int:
        """Evict tracks idle past the TTL; returns the eviction count."""
        now = time.monotonic()
        expired = [
            track_id
            for track_id, record in self._tracks.items()
            if now - record.last_used > self.policy.idle_ttl_s
        ]
        evicted = 0
        for track_id in expired:
            record = self._tracks.get(track_id)
            if record is None:
                continue
            async with record.lock:
                if self._tracks.get(track_id) is not record:
                    continue
                if (
                    time.monotonic() - record.last_used
                    <= self.policy.idle_ttl_s
                ):
                    continue  # a step slipped in while we waited
                self._tracks.pop(track_id, None)
                self._tombstone(track_id, "expired")
                self.track_stats.expired += 1
                evicted += 1
                if record.home in self._shards.ready_homes():
                    try:
                        await self._track_op(record.home, "close", track_id)
                    except (TrackError, ServiceOverloaded,
                            RequestExecutionError):
                        pass
        return evicted

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict:
        return {
            "max_tracks": self.policy.max_tracks,
            "idle_ttl_s": self.policy.idle_ttl_s,
            "replay_log_steps": self.policy.replay_log_steps,
            "max_track_bytes": self.policy.max_track_bytes,
            "backend": {"mode": self._shards.mode},
        }

    def stats_snapshot(self) -> dict:
        stats = self.track_stats
        return {
            "live": len(self._tracks),
            "opened": stats.opened,
            "closed": stats.closed,
            "expired": stats.expired,
            "rejected": stats.rejected,
            "steps": stats.steps,
            "recovered_replay": stats.recovered_replay,
            "recovered_reinit": stats.recovered_reinit,
            "replay_dropped": stats.replay_dropped,
            "step_batches": self.step_stats.batches,
            "mean_step_batch": self.step_stats.mean_batch_size(),
            "max_step_batch": self.step_stats.max_batch_observed,
            "log_bytes": sum(
                record.log_bytes for record in self._tracks.values()
            ),
        }


class TrackHandle:
    """Caller-side handle for one open track (``Service.open_track``)."""

    def __init__(self, manager: TrackManager, track_id: str, substrate: str):
        self._manager = manager
        self.track_id = track_id
        self.substrate = substrate

    async def step(
        self,
        control: np.ndarray,
        depth: np.ndarray,
        truth: np.ndarray | None = None,
    ) -> TrackStepResponse:
        return await self._manager.step(
            TrackStepRequest(
                track_id=self.track_id,
                control=control,
                depth=depth,
                truth=truth,
            )
        )

    async def close(self) -> dict:
        return await self._manager.close(self.track_id)


__all__ = [
    "LOCAL_HOME",
    "TrackHandle",
    "TrackManager",
    "TrackStats",
    "TrackStore",
    "TrackWorld",
    "reference_track_run",
    "stream_mismatches",
]
