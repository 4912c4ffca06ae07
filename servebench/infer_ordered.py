"""``infer-ordered``: 16 closed-loop ``/infer`` clients on ``cim-ordered``.

Set-up: an in-process :class:`~repro.serve.InferenceService` serving
``demo_model()`` on ``cim-ordered`` (the paper's full reuse + ordering
recipe), MC depth :data:`MC_DEPTH`, ``BatchPolicy(max_batch=16,
max_wait_ms=5)``.

Load: :data:`N_CLIENTS` concurrent clients on one asyncio loop, each
sending back-to-back 4-row requests, :data:`WARMUP_REQUESTS` untimed
first.  Every request carries a distinct seed, so no two requests share
a mask plan (``group_size`` 1): each pays its own mask draw + ordering.

Why: the MC-Dropout path (mask draw + Hamming ordering -> delta-reuse
``predict`` -> SRAM macro) is all of the work and tracks are idle --
where a reuse fast path would show.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass, field
from typing import Any

from repro.runtime import BatchPolicy
from repro.serve import InferenceRequest, InferenceService
from repro.serve.demo import demo_model
from servebench.common import (
    PURPOSE_INFER,
    PURPOSE_SAMPLE,
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
from servebench.inputs import infer_request
from servebench.layers import add_layer_metrics, service_metrics
from servebench.oracles import check_infers
from servebench.run_result import (
    RunResult,
    setup_samples,
    timed_setup,
    traced_phase,
)

WORKLOAD = "infer-ordered"
SUBSTRATE = "cim-ordered"
MC_DEPTH = 32
N_CLIENTS = 16
WARMUP_REQUESTS = 8
PARITY_REQUESTS = 8
PARITY_STRIDE = 16
SETUP_REPEATS = 9
BATCH = BatchPolicy(max_batch=16, max_wait_ms=5.0)


def build_service() -> InferenceService:
    return InferenceService(
        demo_model(),
        substrates=[SUBSTRATE],
        n_iterations=MC_DEPTH,
        batch=BATCH,
    )


@dataclass
class Phase:
    log: OpLog = field(default_factory=OpLog)
    t0: float = 0.0
    t1: float = 0.0
    # (client, index, seed, inputs, response) per served request
    warm: list[tuple] = field(default_factory=list)
    timed: list[tuple] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


async def drive(
    service: InferenceService,
    seed: int,
    phase_key: int,
    seconds: float,
    keep_timed: bool,
) -> Phase:
    """One closed-loop phase: warm up, then send until the window closes.

    Records are kept for every warm-up request and every
    :data:`PARITY_STRIDE`-th timed one (the parity check samples from
    them) or, with ``keep_timed``, for every timed request (the traced
    phase reads their service fields).
    """
    phase = Phase()
    log = phase.log
    warmed = 0
    go = asyncio.Event()

    def arrive() -> None:
        nonlocal warmed
        warmed += 1
        if warmed == N_CLIENTS:
            phase.t0 = now()
            phase.t1 = phase.t0 + seconds
            go.set()

    async def client(c: int) -> None:
        rng = keyed_rng(seed, WORKLOAD_KEYS[WORKLOAD], PURPOSE_INFER, phase_key, c)
        index = 0

        async def send() -> Any:
            nonlocal index
            request_seed, inputs = infer_request(rng)
            request = InferenceRequest(
                inputs,
                substrate=SUBSTRATE,
                seed=request_seed,
                request_id=f"c{c}-{index}",
            )
            record = (c, index, request_seed, inputs)
            index += 1
            start = now()
            try:
                response = await service.submit(request)
            except Exception as error:
                log.add("infer", start, now(), False)
                phase.errors.append(f"{request.request_id}: {error!r}")
                return None
            log.add("infer", start, now(), True)
            return record + (response,)

        for _ in range(WARMUP_REQUESTS):
            served = await send()
            if served is not None:
                phase.warm.append(served)
        arrive()
        await go.wait()
        while now() < phase.t1:
            served = await send()
            if served is not None and (
                keep_timed or served[1] % PARITY_STRIDE == 0
            ):
                phase.timed.append(served)

    await asyncio.gather(*(client(c) for c in range(N_CLIENTS)))
    return phase


def run(seed: int, seconds: float, trace: bool, root: str) -> RunResult:
    window = seconds / 2 if trace else seconds

    # asyncio.run reprs the main task's result (numpy arrays and all), so
    # results leave through this dict rather than the return value.
    out: dict[str, Any] = {}

    async def main() -> None:
        setup_times = await setup_samples(build_service, SETUP_REPEATS // 2)
        service, seconds = await timed_setup(build_service)
        setup_times.append(seconds)
        try:
            rejected_before = service.stats.rejected
            first = await drive(service, seed, 0, window, False)
            rss = peak_rss_mb()
            traced = None
            if trace:
                traced = await traced_phase(
                    root, WORKLOAD, seed, drive(service, seed, 1, window, True)
                )
            rejected = service.stats.rejected - rejected_before
        finally:
            await service.stop()
        setup_times += await setup_samples(build_service, SETUP_REPEATS // 2)
        out.update(
            first=first,
            traced=traced,
            setup_times=setup_times,
            rss=rss,
            rejected=rejected,
        )

    asyncio.run(main())
    first, traced = out["first"], out["traced"]
    setup_times, rss, n_rejected = out["setup_times"], out["rss"], out["rejected"]
    phases = [first] + ([traced.result] if traced else [])

    served = sorted(first.warm + first.timed, key=lambda record: record[:2])
    picks = keyed_rng(seed, WORKLOAD_KEYS[WORKLOAD], PURPOSE_SAMPLE).choice(
        len(served), size=min(PARITY_REQUESTS, len(served)), replace=False
    )
    problems = check_infers(
        [
            (f"c{served[i][0]}-{served[i][1]}",) + served[i][2:]
            for i in sorted(int(p) for p in picks)
        ],
        SUBSTRATE,
        MC_DEPTH,
    )
    attempted = sum(phase.log.attempted for phase in phases)
    failed = sum(phase.log.failed for phase in phases) + len(problems)

    report = Report(WORKLOAD)
    if traced is None:
        add_end_to_end(
            report,
            first.log,
            first.t0,
            first.t1,
            ("infer",),
            [record[4].result.energy_j for record in first.warm],
            setup_times,
            rss,
            "/infer requests",
        )
        add_kind_detail(report, first.log, first.t0, first.t1, "infer", "infer")
    else:
        phase = traced.result
        untraced_rate, _ = first.log.window(first.t0, first.t1, ("infer",))
        traced_rate, _ = phase.log.window(phase.t0, phase.t1, ("infer",))
        responses = [record[4] for record in phase.timed]
        add_layer_metrics(
            report,
            traced.stats,
            {
                **service_metrics(responses),
                "service.group_size_mean": (
                    statistics.fmean(r.group_size for r in responses),
                    len(responses),
                ),
                "service.rejected": (float(n_rejected), attempted),
                "energy.ops_per_infer": (
                    statistics.fmean(r.result.ops_executed for r in responses),
                    len(responses),
                ),
                "trace.overhead_frac": (
                    1.0 - traced_rate / untraced_rate,
                    len(responses),
                ),
            },
            "not exercised by infer-ordered (see tracks-fleet / http-mixed)",
        )
        problems += traced.problems
    add_failures(report, attempted, failed)
    errors = [error for phase in phases for error in phase.errors]
    return RunResult(report, attempted, failed, problems, errors)
