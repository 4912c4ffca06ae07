"""What one shard runs: the op dispatch every deployment shape shares.

The service always executes through shards.  In-process serving is a
single shard on one executor thread; sharded serving spawns N of them
(:mod:`repro.serve.workers`).  Only the transport differs -- every shard
runs :meth:`ShardState.run` and answers in one outcome codec, so a
request executes (and fails) identically whatever the deployment shape,
and the per-request determinism contract cannot depend on it:

- :class:`WorkerSpec` -- everything a shard needs to build its state.
- :class:`ShardState` -- one shard's warm sessions and track store, and
  the dispatch of its ops: ``batch`` (``/infer`` micro-batches),
  ``open`` / ``steps`` / ``close`` (streaming tracks).
- :func:`encode_error` / :func:`encode_invalid` /
  :func:`decode_outcomes` -- the outcome codec: ``("ok", payload)`` /
  ``("track_error", (kind, message))`` / ``("invalid", message)`` /
  ``("error", message)`` tuples, so nothing unpicklable ever crosses a
  shard pipe.
- :func:`reference_run` -- the determinism oracle: what one standalone
  pinned-mask ``session.run`` produces for a request seed.
- :func:`run_grouped` -- executes a micro-batch of wire-level request
  items as one MC-Dropout wave: one mask-plan draw per seed group, a
  generator restored to the exact post-draw state its standalone
  reference run would consume for every item, one ordering search over
  every group's masks, and one layer-major pass over every item's
  iterations, so coalescing (and sharding) changes throughput, never
  bits.

Items travel as plain ``(inputs, seed, request_id)`` tuples rather than
request objects so the same payload can cross a multiprocessing pipe
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.api.results import InferenceResult
from repro.api.substrates import MaskPlan, MCDropoutSession
from repro.nn.sequential import Sequential
from repro.serve.pool import SessionPool
from repro.serve.types import (
    InferenceResponse,
    RequestExecutionError,
    TrackError,
)

PairKey = tuple[str, str]

# One wire-level request inside a micro-batch: (inputs, seed, request_id).
RequestItem = tuple[np.ndarray, int, Optional[str]]

# One wire-encoded outcome: ("ok", payload), ("track_error", (kind,
# message)), ("invalid", message) or ("error", message).
Encoded = tuple[str, Any]

# One seed group of a micro-batch, once drawn: (seed, item indexes, mask
# plan, the generator that drew it, its post-draw state).
_DrawnGroup = tuple[int, list[int], MaskPlan, np.random.Generator, dict]


def reference_run(
    session: MCDropoutSession, inputs: np.ndarray, seed: int
) -> InferenceResult:
    """The per-request determinism oracle.

    One base generator seeded with the request seed draws the mask plan,
    then the *same* generator -- now advanced past the draw -- feeds the
    pinned-mask run, which orders the plan's masks.  The service
    reproduces this exactly for every request by snapshotting the
    post-draw generator state and handing each coalesced item a
    generator restored to it.
    """
    base = np.random.default_rng(seed)
    plan = session.draw_masks(base)
    return session.run(inputs, rng=base, masks=plan)


def result_mismatches(
    actual: InferenceResult, expected: InferenceResult
) -> list[str]:
    """The fields where ``actual`` is not bit-for-bit ``expected``, the
    per-request contract: values (``samples`` only when ``expected``
    carries them) and metering.  Empty when every field matches."""
    checks = {
        "mean": np.array_equal(actual.mean, expected.mean),
        "variance": np.array_equal(actual.variance, expected.variance),
        "samples": expected.samples is None
        or np.array_equal(actual.samples, expected.samples),
        "ops_executed": actual.ops_executed == expected.ops_executed,
        "ops_naive": actual.ops_naive == expected.ops_naive,
        "energy_j": actual.energy_j == expected.energy_j,
        "energy_breakdown_j": (
            actual.energy_breakdown_j == expected.energy_breakdown_j
        ),
    }
    return [name for name, ok in checks.items() if not ok]


def encode_error(error: Exception) -> Encoded:
    """The wire outcome of a failed item: typed for :class:`TrackError`,
    otherwise an execution error carrying the exception's type and
    message."""
    if isinstance(error, TrackError):
        return ("track_error", (error.kind, str(error)))
    return ("error", f"{type(error).__name__}: {error}")


def encode_invalid(error: ValueError) -> Encoded:
    """The wire outcome of an item whose own input failed a draw-free
    check: a client fault, decoded back into a ``ValueError`` with the
    same message."""
    return ("invalid", str(error))


def run_grouped(
    session: MCDropoutSession,
    substrate: str,
    model: str,
    items: Sequence[RequestItem],
) -> list[Encoded]:
    """Run one micro-batch of request items on a borrowed session.

    Items are grouped by seed; each group draws its mask plan once, from
    a generator seeded like :func:`reference_run`'s, and every item gets
    a generator restored to that post-draw state -- exactly what a
    standalone reference run would hand it.  Then every group's items
    run as **one wave**: one ``session.run_batch`` call with a plan per
    item, which orders every group's masks in one batched search (a
    group's order is the one it gets alone), so neither batch
    composition nor the executing shard changes bits.  If the wave
    raises, each group re-runs alone from its drawn plan (nothing is
    drawn twice; its order is searched again) and only the groups that
    raise again fail.

    Returns one encoded outcome per item, in item order: ``("ok",``
    :class:`InferenceResponse` ``)`` on success, or an ``("error",
    message)`` for every item of a group whose draw or execution raised.
    """
    groups: dict[int, list[int]] = {}
    for index, (_, seed, _) in enumerate(items):
        groups.setdefault(int(seed), []).append(index)
    outcomes: list[Optional[Encoded]] = [None] * len(items)
    drawn: list[_DrawnGroup] = []
    for seed, indexes in groups.items():
        try:
            base = np.random.default_rng(seed)
            plan = session.draw_masks(base)
        except Exception as error:
            for index in indexes:
                outcomes[index] = encode_error(error)
            continue
        drawn.append((seed, indexes, plan, base, base.bit_generator.state))

    def run_wave(wave: list[_DrawnGroup]) -> None:
        members, generators = [], []
        for seed, indexes, plan, base, state in wave:
            # The group's first item takes the drawing generator itself,
            # rewound to the post-draw state; every other item a copy.
            base.bit_generator.state = state
            generators.append(base)
            for _ in indexes[1:]:
                generators.append(np.random.default_rng(0))
                generators[-1].bit_generator.state = state
            members += [(seed, index, plan) for index in indexes]
        result = session.run_batch(
            [items[index][0] for _, index, _ in members],
            masks=[plan for _, _, plan in members],
            item_rngs=generators,
        )
        for (seed, index, _), item_result in zip(members, result.results):
            outcomes[index] = (
                "ok",
                InferenceResponse(
                    result=item_result,
                    substrate=substrate,
                    model=model,
                    seed=seed,
                    request_id=items[index][2],
                    batch_size=len(items),
                    group_size=len(groups[seed]),
                ),
            )

    try:
        run_wave(drawn)
    except Exception:
        for group in drawn:
            try:
                run_wave([group])
            except Exception as error:
                for index in group[1]:
                    outcomes[index] = encode_error(error)
    return [outcome for outcome in outcomes if outcome is not None]


def decode_outcomes(encoded: Sequence[Encoded]) -> list[Any]:
    """Decode wire-encoded outcomes into payloads / typed exceptions.

    A ``"track_error"`` becomes a :class:`TrackError` with its kind; an
    ``"invalid"`` becomes a ``ValueError`` (the request's fault, HTTP
    400); an ``"error"`` becomes a :class:`RequestExecutionError` (a
    server-side fault, HTTP 500).
    """
    outcomes: list[Any] = []
    for tag, payload in encoded:
        if tag == "ok":
            outcomes.append(payload)
        elif tag == "track_error":
            kind, message = payload
            outcomes.append(TrackError(kind, message))
        elif tag == "invalid":
            outcomes.append(ValueError(payload))
        else:
            outcomes.append(RequestExecutionError(str(payload)))
    return outcomes


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard needs to rebuild the served sessions.

    A spawned shard receives the spec once, at spawn; the in-process
    shard builds from it directly.  Either way the shard owns private
    session pools built from the same calibration and ``session_seed``,
    which is what makes every shard bit-for-bit interchangeable.
    """

    models: dict[str, Sequential]
    substrates: tuple[str, ...]
    n_iterations: int = 30
    calibration_inputs: np.ndarray | None = None
    session_seed: int = 0
    # Streaming tracks (repro.serve.tracks): when a world is given, the
    # shard also warms one TrackStore over these substrates before
    # reporting ready, so sticky-routed track state can live shard-side.
    track_world: Any = None
    track_substrates: tuple[str, ...] | None = None

    def keys(self) -> list[PairKey]:
        return [
            (substrate, model)
            for substrate in self.substrates
            for model in self.models
        ]


class ShardState:
    """One shard's warm execution state and the dispatch of its ops.

    Holds one :class:`SessionPool` (one warm session) per (substrate,
    model) pair -- a shard executes strictly one op at a time;
    concurrency comes from the number of shards -- and, when the spec
    carries a track world, one :class:`~repro.serve.tracks.TrackStore`.
    """

    def __init__(self, spec: WorkerSpec):
        self.pools = {
            key: SessionPool(
                key[0],
                spec.models[key[1]],
                n_iterations=spec.n_iterations,
                calibration_inputs=spec.calibration_inputs,
                session_seed=spec.session_seed,
            )
            for key in spec.keys()
        }
        self.tracks: Any = None
        if spec.track_world is not None:
            from repro.serve.tracks import TrackStore

            self.tracks = TrackStore(
                spec.track_world,
                spec.track_substrates or spec.substrates,
            )

    def run(self, op: str, payload: Any) -> list[Encoded]:
        """Execute one op; one encoded outcome per item.

        ``batch`` takes ``(key, items)`` and ``steps`` a list of
        ``(track_id, control, depth, truth)`` items, answering per item;
        ``open`` takes ``(track_id, substrate, init, seed)`` and
        ``close`` a track id, answering once.  An op-level failure fails
        every item with the same outcome.
        """
        n_outcomes = (
            len(payload[1]) if op == "batch"
            else len(payload) if op == "steps"
            else 1
        )
        try:
            if op == "batch":
                key, items = payload
                session = self.pools[tuple(key)].acquire()
                # Looked up as this module's global at call time, so a
                # wrapper installed on it sees every shard's calls.
                return run_grouped(session, key[0], key[1], items)
            if self.tracks is None:
                raise RuntimeError("track serving is not enabled on this shard")
            if op == "open":
                return [("ok", self.tracks.open(*payload))]
            if op == "steps":
                return self.tracks.step_batch(payload)
            if op == "close":
                return [("ok", self.tracks.close(payload))]
            raise RuntimeError(f"unknown shard op {op!r}")
        except Exception as error:
            return [encode_error(error)] * n_outcomes


__all__ = [
    "Encoded",
    "PairKey",
    "RequestItem",
    "ShardState",
    "WorkerSpec",
    "decode_outcomes",
    "encode_error",
    "encode_invalid",
    "reference_run",
    "result_mismatches",
    "run_grouped",
]
