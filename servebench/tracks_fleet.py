"""``tracks-fleet``: 128 long-lived tracks stepping the demo orbit.

Set-up: an in-process :class:`~repro.serve.InferenceService` serving
``demo_track_world()`` tracks on ``cim`` with
``BatchPolicy(max_batch=32, max_wait_ms=2)``.

Load: a closed loop of :data:`N_TRACKS` concurrent tracks driven from one
asyncio loop.  Each track opens once, takes :data:`WARMUP_STEPS` untimed
warm-up steps, then steps the orbit back-to-back until the timed window
closes, and closes.

Why: with full 32-wide step batches the localization path (filter step
-> measurement model -> tiled field -> inverter-array reads) does nearly
all the work while the MC-Dropout engine and HTTP sit idle -- where a
cross-track fused step would show.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.runtime import BatchPolicy, TrackPolicy
from repro.serve import InferenceService
from repro.serve.demo import demo_model, demo_track_world
from servebench.common import (
    PURPOSE_SAMPLE,
    PURPOSE_TRACK,
    WORKLOAD_KEYS,
    OpLog,
    Report,
    add_end_to_end,
    add_failures,
    add_kind_detail,
    keyed_rng,
    now,
    peak_rss_mb,
)
from servebench.inputs import Orbit, TrackSpec, track_spec
from servebench.layers import add_layer_metrics, service_metrics
from servebench.oracles import check_tracks
from servebench.run_result import (
    RunResult,
    setup_samples,
    timed_setup,
    traced_phase,
)

WORKLOAD = "tracks-fleet"
SUBSTRATE = "cim"
N_TRACKS = 128
WARMUP_STEPS = 8
PARITY_TRACKS = 4
SETUP_REPEATS = 9
BATCH = BatchPolicy(max_batch=32, max_wait_ms=2.0)


def build_service() -> InferenceService:
    return InferenceService(
        demo_model(),
        substrates=[SUBSTRATE],
        batch=BATCH,
        track_world=demo_track_world(),
        tracks=TrackPolicy(max_tracks=2 * N_TRACKS),
        track_substrates=[SUBSTRATE],
    )


def rejected(service: InferenceService) -> int:
    return service.stats.rejected + service.stats_snapshot()["tracks"]["rejected"]


@dataclass
class Phase:
    log: OpLog = field(default_factory=OpLog)
    t0: float = 0.0
    t1: float = 0.0
    warm: list[Any] = field(default_factory=list)
    timed: list[Any] = field(default_factory=list)
    sampled: dict[int, tuple[str, TrackSpec, list[Any]]] = field(
        default_factory=dict
    )
    errors: list[str] = field(default_factory=list)


async def drive(
    service: InferenceService,
    orbit: Orbit,
    seed: int,
    phase_key: int,
    seconds: float,
    sample: set[int],
    keep_timed: bool,
) -> Phase:
    """One closed-loop phase: open, warm up, step until the window closes.

    Responses are kept for the warm-up steps, the ``sample`` tracks and,
    with ``keep_timed``, every timed step (the traced phase reads their
    service fields); an untraced phase keeps no more than it checks.
    """
    workload = WORKLOAD_KEYS[WORKLOAD]
    specs = [
        track_spec(keyed_rng(seed, workload, PURPOSE_TRACK, phase_key, k), orbit)
        for k in range(N_TRACKS)
    ]
    phase = Phase()
    log = phase.log
    warmed = 0
    go = asyncio.Event()

    def arrive() -> None:
        nonlocal warmed
        warmed += 1
        if warmed == N_TRACKS:
            phase.t0 = now()
            phase.t1 = phase.t0 + seconds
            go.set()

    async def track(k: int) -> None:
        spec = specs[k]
        track_id = f"fleet-{phase_key}-{k}"
        steps: list[Any] = []
        if k in sample:
            phase.sampled[k] = (track_id, spec, steps)
        handle = None
        start = now()
        try:
            handle = await service.open_track(
                SUBSTRATE, init=spec.init, seed=spec.seed, track_id=track_id
            )
            log.add("open", start, now(), True)
        except Exception as error:
            log.add("open", start, now(), False)
            phase.errors.append(f"{track_id} open: {error!r}")

        async def step(j: int) -> Any:
            control, depth, truth = orbit.measurement(spec.phase, j)
            start = now()
            try:
                response = await handle.step(control, depth, truth)
            except Exception as error:
                log.add("step", start, now(), False)
                phase.errors.append(f"{track_id} step {j}: {error!r}")
                return None
            log.add("step", start, now(), True)
            if k in sample:
                steps.append(response)
            return response

        j = 0
        healthy = handle is not None
        while healthy and j < WARMUP_STEPS:
            response = await step(j)
            healthy = response is not None
            if healthy:
                phase.warm.append(response)
                j += 1
        arrive()
        await go.wait()
        while healthy and now() < phase.t1:
            response = await step(j)
            healthy = response is not None
            if healthy:
                if keep_timed:
                    phase.timed.append(response)
                j += 1
        if handle is not None:
            start = now()
            try:
                await handle.close()
                log.add("close", start, now(), True)
            except Exception as error:
                log.add("close", start, now(), False)
                phase.errors.append(f"{track_id} close: {error!r}")

    await asyncio.gather(*(track(k) for k in range(N_TRACKS)))
    return phase


def run(seed: int, seconds: float, trace: bool, root: str) -> RunResult:
    orbit = Orbit()
    sample = {
        int(k)
        for k in keyed_rng(seed, WORKLOAD_KEYS[WORKLOAD], PURPOSE_SAMPLE).choice(
            N_TRACKS, size=PARITY_TRACKS, replace=False
        )
    }
    window = seconds / 2 if trace else seconds

    # asyncio.run reprs the main task's result (numpy arrays and all), so
    # results leave through this dict rather than the return value.
    out: dict[str, Any] = {}

    async def main() -> None:
        setup_times = await setup_samples(build_service, SETUP_REPEATS // 2)
        service, seconds = await timed_setup(build_service)
        setup_times.append(seconds)
        try:
            rejected_before = rejected(service)
            first = await drive(service, orbit, seed, 0, window, sample, False)
            rss = peak_rss_mb()
            traced = None
            if trace:
                traced = await traced_phase(
                    root,
                    WORKLOAD,
                    seed,
                    drive(service, orbit, seed, 1, window, set(), True),
                )
            rejected_after = rejected(service)
        finally:
            await service.stop()
        setup_times += await setup_samples(build_service, SETUP_REPEATS // 2)
        out.update(
            first=first,
            traced=traced,
            setup_times=setup_times,
            rss=rss,
            rejected=rejected_after - rejected_before,
        )

    asyncio.run(main())
    first, traced = out["first"], out["traced"]
    setup_times, rss, n_rejected = out["setup_times"], out["rss"], out["rejected"]
    phases = [first] + ([traced.result] if traced else [])
    problems = check_tracks(list(first.sampled.values()), orbit, SUBSTRATE)
    attempted = sum(phase.log.attempted for phase in phases)
    failed = sum(phase.log.failed for phase in phases) + len(problems)

    report = Report(WORKLOAD)
    if traced is None:
        add_end_to_end(
            report,
            first.log,
            first.t0,
            first.t1,
            ("step",),
            [r.step_energy_j for r in first.warm],
            setup_times,
            rss,
            "steps",
        )
        add_kind_detail(report, first.log, first.t0, first.t1, "step", "step")
        report.add(
            "pos_error_m",
            float(np.mean([r.error_m for r in first.warm])),
            "m",
            samples=len(first.warm),
            note="simulated, seed-determined warm-up steps",
        )
    else:
        phase = traced.result
        untraced_rate, _ = first.log.window(first.t0, first.t1, ("step",))
        traced_rate, _ = phase.log.window(phase.t0, phase.t1, ("step",))
        responses = phase.timed
        add_layer_metrics(
            report,
            traced.stats,
            {
                **service_metrics(responses),
                "service.rejected": (float(n_rejected), attempted),
                "energy.ops_per_step": (
                    statistics.fmean(r.step_ops for r in responses),
                    len(responses),
                ),
                "trace.overhead_frac": (
                    1.0 - traced_rate / untraced_rate,
                    len(responses),
                ),
            },
            "not exercised by tracks-fleet (see infer-ordered / http-mixed)",
        )
        problems += traced.problems
    add_failures(report, attempted, failed)
    errors = [error for phase in phases for error in phase.errors]
    return RunResult(report, attempted, failed, problems, errors)
