"""Span tracer installed around the serving stack's public layer calls.

The tracer lives entirely in the benchmark: :meth:`Tracer.install`
replaces each target in :data:`TARGETS` -- a public method or function of
one layer of ``repro`` -- with a thin wrapper that records one span per
call, and :meth:`Tracer.uninstall` puts every original object back.
Nothing under ``src/`` changes, and :meth:`Tracer.verify_restored` is the
self-test that the originals really are back after a traced run.

A span is ``(id, name, start, end, parent, note)``.  The parent is the
span open in the same thread or asyncio task when the call began
(tracked with a ``ContextVar``; executor threads start with no parent).
``note`` is a per-call count taken at the same boundary -- items in a
batch, points in a query, whether a step resampled -- so ratios are
measured where the work happens.  Spans stay in memory and are written
out by :meth:`Tracer.dump` when the run ends.

Self time of a span is its duration minus the durations of its direct
children (children of one synchronous span never overlap).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

Note = Optional[Callable[[tuple, dict, Any], Any]]


def _rows(position: int) -> Callable[[tuple, dict, Any], int]:
    def note(args: tuple, kwargs: dict, result: Any) -> int:
        return int(np.atleast_2d(np.asarray(args[position])).shape[0])

    return note


def _length(position: int) -> Callable[[tuple, dict, Any], int]:
    def note(args: tuple, kwargs: dict, result: Any) -> int:
        return len(args[position])

    return note


def _resampled(args: tuple, kwargs: dict, result: Any) -> int:
    return int(bool(result.resampled))


def _reuse(args: tuple, kwargs: dict, result: Any) -> list[int]:
    return [int(result.ops_executed), int(result.ops_naive)]


def _groups(args: tuple, kwargs: dict, result: Any) -> int:
    items = args[3]
    return len({int(item[1]) for item in items})


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` + dotted ``path`` inside it.

    ``also`` lists further modules that imported a function by name, so
    their binding is wrapped (and restored) too.
    """

    span: str
    module: str
    path: str
    note: Note = None
    also: tuple[str, ...] = ()


TARGETS: tuple[Target, ...] = (
    # serve.tracks
    Target("tracks.step_batch", "repro.serve.tracks", "TrackStore.step_batch",
           _length(1)),
    Target("tracks.open", "repro.serve.tracks", "TrackStore.open"),
    Target("tracks.close", "repro.serve.tracks", "TrackStore.close"),
    # core.cim_particle_filter + filtering
    Target("localizer.step", "repro.core.cim_particle_filter",
           "CIMParticleFilterLocalizer.step"),
    Target("pf.step", "repro.filtering.particle_filter", "ParticleFilter.step",
           _resampled),
    Target("motion.propagate", "repro.filtering.motion",
           "OdometryMotionModel.propagate"),
    Target("measurement.log_likelihoods", "repro.filtering.measurement",
           "DepthScanMeasurementModel.log_likelihoods"),
    # core.tiling + circuits.inverter_array
    Target("tiling.field_log", "repro.core.tiling",
           "TiledInverterArrayMap.field_log", _rows(1)),
    Target("array.read", "repro.circuits.inverter_array",
           "InverterArray.read_log_likelihood", _rows(1)),
    # serve.pool / serve.execution
    Target("pool.acquire", "repro.serve.pool", "SessionPool.acquire"),
    Target("execution.run_grouped", "repro.serve.execution", "run_grouped",
           _groups, also=("repro.serve.service",)),
    # api.substrates
    Target("substrates.draw_masks", "repro.api.substrates",
           "MCDropoutSession.draw_masks"),
    Target("substrates.run_batch", "repro.api.substrates",
           "MCDropoutSession.run_batch", _length(1)),
    # core.cim_mc_dropout
    Target("mc_dropout.draw_streams", "repro.core.cim_mc_dropout",
           "CIMMCDropoutEngine.draw_mask_streams"),
    Target("mc_dropout.order", "repro.core.cim_mc_dropout",
           "CIMMCDropoutEngine.order_mask_streams"),
    Target("mc_dropout.predict", "repro.core.cim_mc_dropout",
           "CIMMCDropoutEngine.predict", _reuse),
    # sram.macro
    Target("macro.matvec", "repro.sram.macro", "SRAMCIMMacro.matvec"),
    Target("macro.matvec_delta", "repro.sram.macro", "SRAMCIMMacro.matvec_delta"),
    Target("macro.matvec_many", "repro.sram.macro", "SRAMCIMMacro.matvec_many"),
    # serve.workers (parent side of the shard pipe)
    Target("workers.execute", "repro.serve.workers", "WorkerPool.execute"),
    Target("workers.execute_track", "repro.serve.workers",
           "WorkerPool.execute_track"),
    # serve.types wire codec, as the HTTP front end uses it
    Target("wire.decode", "repro.serve.types", "InferenceRequest.from_json"),
    Target("wire.decode", "repro.serve.types", "TrackOpenRequest.from_json"),
    Target("wire.decode", "repro.serve.types", "TrackStepRequest.from_json"),
    Target("wire.decode", "repro.serve.http", "strict_loads"),
    Target("wire.encode", "repro.serve.types", "InferenceResponse.to_dict"),
    Target("wire.encode", "repro.serve.types", "TrackStepResponse.to_dict"),
    Target("wire.reply", "repro.serve.http", "strict_dumps"),
)


class Tracer:
    """Installs span-recording wrappers and puts the originals back."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "servebench_span", default=0
        )
        # (owner, attribute, original object) per patched binding.
        self._patched: list[tuple[Any, str, Any]] = []

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            module = importlib.import_module(target.module)
            *owner_path, attr = target.path.split(".")
            owner: Any = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self._wrap(original, target)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))
            for name in target.also:
                other = importlib.import_module(name)
                if vars(other).get(attr) is original:
                    setattr(other, attr, wrapped)
                    self._patched.append((other, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def verify_restored(self) -> list[str]:
        """Self-test: every patched binding holds its original again."""
        problems = []
        for owner, attr, original in self._patched:
            if vars(owner).get(attr) is not original:
                problems.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return problems

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, original: Any, target: Target) -> Any:
        if isinstance(original, classmethod):
            return classmethod(self._wrap_function(original.__func__, target))
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap_function(original.__func__, target))
        return self._wrap_function(original, target)

    def _wrap_function(self, fn: Callable, target: Target) -> Callable:
        spans, ids, current = self.spans, self._ids, self._current
        name, note = target.span, target.note
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id = next(ids)
                parent = current.get()
                token = current.set(span_id)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                spans.append((span_id, name, start, end, parent, None))
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
            spans.append(
                (
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    None if note is None else note(args, kwargs, result),
                )
            )
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (kept in memory until now)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, note in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "note": note,
                        },
                        allow_nan=False,
                    )
                )
                handle.write("\n")


def load_spans(path: str) -> list[tuple]:
    """Read spans written by :meth:`Tracer.dump`."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            spans.append(
                (row["id"], row["name"], row["start"], row["end"],
                 row["parent"], row["note"])
            )
    return spans


@dataclass
class SpanStats:
    count: int
    durations: list[float]
    self_total: float
    notes: list[Any]

    @property
    def total(self) -> float:
        return float(sum(self.durations))

    def mean_us(self) -> float:
        return 1e6 * self.total / self.count if self.count else 0.0


def aggregate(spans: list[tuple]) -> dict[str, SpanStats]:
    """Per-span-name counts, durations, self time and notes."""
    child_time: dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats: dict[str, SpanStats] = {}
    for span_id, name, start, end, _, note in spans:
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = SpanStats(0, [], 0.0, [])
        duration = end - start
        entry.count += 1
        entry.durations.append(duration)
        entry.self_total += duration - child_time.get(span_id, 0.0)
        if note is not None:
            entry.notes.append(note)
    return stats
