"""What one workload run hands back to ``run.py``, and the traced phase."""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro.serve import InferenceService
from servebench.common import Report, now, out_dir
from servebench.tracer import SpanStats, Tracer, aggregate


@dataclass
class RunResult:
    """Metrics plus accounting of one run.

    ``failed`` counts failed or refused operations and parity mismatches
    against ``attempted``; ``problems`` are correctness failures (parity
    mismatches, leaked processes, wrappers left installed) that make the
    run incorrect; ``errors`` are the individual operation failures.
    """

    report: Report
    attempted: int
    failed: int
    problems: list[str]
    errors: list[str] = field(default_factory=list)


async def timed_setup(
    build: Callable[[], InferenceService],
) -> tuple[InferenceService, float]:
    """Build and start an in-process service; seconds until it can serve.

    Timed from construction until ``start()`` returns (pools calibrated,
    track prototypes built: the first operation can be sent).  A
    collection first keeps garbage of earlier work out of the timing.
    """
    gc.collect()
    start = now()
    service = build()
    await service.start()
    return service, now() - start


async def setup_samples(
    build: Callable[[], InferenceService], count: int
) -> list[float]:
    """``count`` more set-up times of throwaway services.

    Workloads take some before and some after their timed window, so
    one run's median set-up time spans the run rather than one moment
    of a host whose speed drifts.
    """
    times = []
    for _ in range(count):
        service, seconds = await timed_setup(build)
        await service.stop()
        times.append(seconds)
    return times


@dataclass
class Traced:
    result: Any
    stats: dict[str, SpanStats]
    problems: list[str]


async def traced_phase(
    root: str, workload: str, seed: int, phase: Awaitable[Any]
) -> Traced:
    """Await ``phase`` with the tracer installed, then remove it.

    The self-test runs right after removal: every wrapped binding must
    hold its original object again.  Spans are written to
    ``servebench/.out/<workload>-seed<seed>-spans.jsonl``.
    """
    tracer = Tracer()
    tracer.install()
    try:
        result = await phase
    finally:
        tracer.uninstall()
    problems = [
        f"tracer self-test: {name} was not restored"
        for name in tracer.verify_restored()
    ]
    tracer.dump(os.path.join(out_dir(root), f"{workload}-seed{seed}-spans.jsonl"))
    return Traced(result, aggregate(tracer.spans), problems)
