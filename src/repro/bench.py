"""``repro bench``: perf baselines and speedup gates in one harness.

Each case is declared once, in :data:`SUITES`: its key in its suite's
file, how it is measured, its printed line, the gates its entry must
pass and the ratios ``--check`` compares against the committed
baseline.  :func:`_laps` times every body (each case keeps its
statistic: the best lap, or the total over laps), one loop evaluates
the gates, and a suite's file is written only after all of its gates --
``--check`` included -- pass, so a failing run never overwrites a
committed baseline.  ``--check`` reads each baseline from its suite's
output path before anything runs: a missing file exits 2, a ratio
missing from either side fails.  Every ratio is fast vs slow path on
one machine, so a baseline committed from one machine transfers to CI.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.api.registry import get_experiment, run_experiment
from repro.api.results import emit_json
from repro.version import __version__

# (condition the entry must meet, error message formatted with the entry)
Gate = tuple[Callable[[dict], bool], str]


@dataclass
class Case:
    """One bench case: ``key`` places its entry in the suite file (None:
    only under ``"cases"``), ``measure`` times it from the ``bench``
    arguments, ``line`` is its printed summary (formatted with the entry,
    or with each row of a list entry), every gate must hold, and
    ``checks`` names the entry's ratios ``--check`` compares."""

    key: str | None
    measure: Callable[[argparse.Namespace], Any]
    line: str
    gates: tuple[Gate, ...] = ()
    checks: tuple[str, ...] = ()


@dataclass(frozen=True)
class Suite:
    """Cases written to one file: the ``bench`` option ``out`` holds its
    path (default ``path``), ``runs_for`` are the ``--suite`` values that
    select it, and ``listed`` also lists every entry under ``"cases"``."""

    name: str
    out: str
    path: str
    runs_for: tuple[str, ...]
    cases: tuple[Case, ...]
    listed: bool = False

    def ratios(self) -> Iterator[tuple[str, str | None, str]]:
        """``(label, entry key, metric)`` of each ``--check`` ratio; a
        label drops an entry key equal to the suite name."""
        for case in self.cases:
            prefix = self.name if case.key == self.name else f"{self.name}.{case.key}"
            for metric in case.checks:
                yield f"{prefix}.{metric}", case.key, metric


def _laps(repeats: int, body, setup=lambda lap: None) -> tuple[list[float], Any]:
    """The bench timer: ``repeats`` laps of ``body(setup(lap))``, timing
    only ``body``.  Returns the lap times and the last lap's value."""
    seconds, value = [], None
    for lap in range(repeats):
        arg = setup(lap)
        start = time.perf_counter()
        value = body(arg)
        seconds.append(time.perf_counter() - start)
    return seconds, value


def _best_pair(repeats: int, loop, fast, setup=lambda lap: None) -> dict:
    """Best lap of a loop body and of its fast path, and their ratio."""
    loop_s = min(_laps(repeats, loop, setup)[0])
    fast_s = min(_laps(repeats, fast, setup)[0])
    speedup = loop_s / fast_s if fast_s > 0 else None
    return {"repeats": repeats, "loop_s": loop_s, "fast_s": fast_s, "speedup": speedup}


@contextlib.contextmanager
def _started(*services) -> Iterator[Callable]:
    """Start ``services`` on one private event loop and yield the loop's
    ``run_until_complete``; stop them and close the loop on exit."""
    loop = asyncio.new_event_loop()
    try:
        for service in services:
            loop.run_until_complete(service.start())
        yield loop.run_until_complete
    finally:
        for service in services:
            loop.run_until_complete(service.stop())
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


# Quick configs for the perf-trajectory benchmark: the fast, world-free
# experiments (inverter transfer, likelihood energy, RNG statistics).
EXPERIMENT_CONFIGS: dict[str, dict] = {
    "E1": {"n_grid": 101},
    "E4": {"n_queries": 200},
    "E5": {"column_sweep": (2, 4), "n_instances": 2, "bits_per_instance": 512},
}


def _experiments(args: argparse.Namespace) -> list[dict]:
    """Mean/min/max ``runtime_s`` of each experiment over the repeats."""
    ids = args.ids or list(EXPERIMENT_CONFIGS)
    specs = [get_experiment(experiment_id.upper()) for experiment_id in ids]
    entries = []
    for spec in specs:
        overrides = EXPERIMENT_CONFIGS.get(spec.id)
        times = [
            run_experiment(spec.id, seed=0, overrides=overrides).runtime_s
            for _ in range(args.repeats)
        ]
        entries.append(
            {
                "experiment_id": spec.id,
                "title": spec.title,
                "overrides": overrides,
                "repeats": args.repeats,
                "mean_s": sum(times) / len(times),
                "min_s": min(times),
                "max_s": max(times),
            }
        )
    return entries


def _mlp(rng, n_inputs: int, n_hidden: int, n_outputs: int, dropout_p: float):
    """A two-stage dropout MLP whose weights ``rng`` draws."""
    from repro.nn import Dense, Dropout, ReLU, Sequential

    return Sequential(
        [
            Dense(n_inputs, n_hidden, rng),
            ReLU(),
            Dropout(dropout_p, rng=np.random.default_rng(1)),
            Dense(n_hidden, n_outputs, rng),
        ]
    )


def _batch_session(args: argparse.Namespace) -> dict:
    """One lap of the batched-session path against a run() loop."""
    from repro.api.substrates import get_substrate

    n_items, n_iterations = 6, 12
    rng = np.random.default_rng(0)
    model = _mlp(rng, 32, 16, 4, 0.5)
    items = [rng.normal(size=(4, 32)) for _ in range(n_items)]
    session = get_substrate("cim-ordered").mc_dropout_session(
        model, n_iterations=n_iterations, rng=np.random.default_rng(2)
    )
    pair = _best_pair(
        1,
        lambda _: [session.run(item, rng=np.random.default_rng(3)) for item in items],
        lambda _: session.run_batch(items, rng=np.random.default_rng(3)),
    )
    return {
        "substrate": "cim-ordered",
        "n_items": n_items,
        "n_iterations": n_iterations,
        "loop_s": pair["loop_s"],
        "batch_s": pair["fast_s"],
        "speedup": pair["speedup"],
    }


# Reference config for the engine fast-path benchmark (BENCH_engine.json):
# a mid-sized two-stage network, MC depth 24, batch 8, reuse off -- the
# schedule where every iteration is independent and the sample-major path
# replaces the whole T x L Python loop.
_ENGINE_BENCH = {
    "n_inputs": 48,
    "n_hidden": 32,
    "n_outputs": 16,
    "n_iterations": 24,
    "batch": 8,
    "dropout_p": 0.5,
}


def _engine_predict(args: argparse.Namespace, reuse: bool) -> dict:
    """Loop vs sample-major predict on the engine config, with the fast
    path's parity against the loop oracle."""
    from repro.core.cim_mc_dropout import CIMMCDropoutEngine
    from repro.sram.macro import MacroConfig

    cfg = _ENGINE_BENCH
    sizes = (cfg["n_inputs"], cfg["n_hidden"], cfg["n_outputs"], cfg["dropout_p"])
    x = np.random.default_rng(4).normal(size=(cfg["batch"], cfg["n_inputs"]))
    loop_engine, fast_engine = (
        CIMMCDropoutEngine(
            _mlp(np.random.default_rng(0), *sizes),
            MacroConfig(),
            n_iterations=cfg["n_iterations"],
            use_hardware_rng=False,
            reuse=reuse,
            ordering=False,
            fast_path=fast_path,
            rng=np.random.default_rng(7),
        )
        for fast_path in (False, True)
    )
    streams = loop_engine.draw_mask_streams(np.random.default_rng(3))
    order = np.arange(cfg["n_iterations"])

    def run(engine):
        return engine.predict(
            x, rng=np.random.default_rng(5), mask_streams=streams, mask_order=order
        )

    reference, fast = run(loop_engine), run(fast_engine)  # warm-up + parity
    return {
        "case": "engine-predict-reuse-refresh" if reuse else "engine-predict-no-reuse",
        "reuse": reuse,
        **cfg,
        **_best_pair(
            args.repeats, lambda _: run(loop_engine), lambda _: run(fast_engine)
        ),
        "max_abs_diff": float(np.max(np.abs(reference.samples - fast.samples))),
        "parity_exact": bool(
            np.array_equal(reference.samples, fast.samples)
            and reference.ops_executed == fast.ops_executed
        ),
        "ops_executed": fast.ops_executed,
        "ops_naive": fast.ops_naive,
    }


def _macro_matvec(args: argparse.Namespace) -> dict:
    """matvec loop vs fused matvec_many on one macro."""
    from repro.sram.macro import MacroConfig, SRAMCIMMacro

    n_stacked, batch = _ENGINE_BENCH["n_iterations"], _ENGINE_BENCH["batch"]
    weight = np.random.default_rng(0).normal(size=(64, 32))
    macro = SRAMCIMMacro(weight, MacroConfig(), rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(n_stacked, batch, 64))
    macro.matvec(x[0], rng=np.random.default_rng(0))  # pin the DAC spec
    return {
        "case": "macro-matvec_many",
        "in_features": 64,
        "out_features": 32,
        "n_stacked": n_stacked,
        "batch": batch,
        **_best_pair(
            args.repeats,
            lambda rng: [macro.matvec(x[t], rng=rng) for t in range(n_stacked)],
            lambda rng: macro.matvec_many(x, rng=rng),
            setup=lambda lap: np.random.default_rng(5),
        ),
    }


# Reference config for the serving benchmark (BENCH_serve.json): the
# demo model at MC depth 32, where drawing + Hamming-ordering the mask
# streams is roughly half of each request's cost -- the share coalescing
# amortises across every same-seed request in a micro-batch.  The
# sharded case splits the same request set into workers-many micro-
# batches that execute on separate processes (separate cores).
_SERVE_BENCH = {
    "substrate": "cim-ordered",
    "n_requests": 16,
    "n_iterations": 32,
    "request_batch": 4,
    "max_batch": 16,
    "max_wait_ms": 30.0,
    "workers": 2,
    "sharded_max_batch": 8,
}


def _serve(args: argparse.Namespace) -> dict:
    """Best-lap requests/s: sequential session.run() vs the service at
    batch 1, coalescing, and sharded over worker processes."""
    from repro.runtime import BatchPolicy, QueuePolicy, ShardPolicy
    from repro.serve import (
        InferenceRequest,
        InferenceService,
        build_reference_session,
        reference_run,
        result_mismatches,
    )
    from repro.serve.demo import demo_inputs, demo_model

    cfg = _SERVE_BENCH
    model, x = demo_model(), demo_inputs(batch=cfg["request_batch"])
    requests = [
        InferenceRequest(x, substrate=cfg["substrate"], seed=0)
        for _ in range(cfg["n_requests"])
    ]

    # Sequential per-request serving: one warm session, a fresh mask
    # plan drawn and pinned per request (the reference contract).
    session = build_reference_session(
        cfg["substrate"], model, n_iterations=cfg["n_iterations"]
    )
    reference = reference_run(session, x, 0)  # warm-up + parity anchor
    direct_laps, _ = _laps(
        args.repeats,
        lambda _: [reference_run(session, r.inputs, r.seed) for r in requests],
    )
    seconds, served = {"direct": min(direct_laps)}, {}
    # (max_batch, max_wait_ms, workers) of each service mode; the sharded
    # mode splits the same load over worker processes -- smaller
    # micro-batches, but they execute on separate cores.
    modes = {
        "service_batch1": (1, 0.0, 0),
        "service_coalesced": (cfg["max_batch"], cfg["max_wait_ms"], 0),
        "service_sharded": (
            cfg["sharded_max_batch"], cfg["max_wait_ms"], cfg["workers"]
        ),
    }
    for mode, (max_batch, max_wait_ms, workers) in modes.items():
        service = InferenceService(
            model,
            substrates=[cfg["substrate"]],
            n_iterations=cfg["n_iterations"],
            batch=BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait_ms),
            queue=QueuePolicy(max_pending=cfg["n_requests"]),
            shard=ShardPolicy(workers=workers),
        )

        async def submit_all(service=service):
            return await asyncio.gather(*(service.submit(r) for r in requests))

        # Steady-state throughput: warm-up and lifecycle live outside
        # the timed laps, like a long-running server.  The warm-up lap
        # uses the full request set so every shard gets touched.
        with _started(service) as run:
            run(submit_all())
            laps, served[mode] = _laps(args.repeats, lambda _: run(submit_all()))
        seconds[mode] = min(laps)

    # Full-reference parity on every served response: the values *and*
    # the per-request metering must match the pinned-mask oracle exactly
    # -- a metering bleed across coalesced requests is as much a failure
    # as a wrong mean.
    results = [r.result for responses in served.values() for r in responses]
    mismatched = {name for res in results for name in result_mismatches(res, reference)}
    coalesced, sharded = served["service_coalesced"], served["service_sharded"]
    return {
        "case": "serve-coalescing",
        **cfg,
        "repeats": args.repeats,
        **{f"{mode}_s": s for mode, s in seconds.items()},
        **{f"{mode}_rps": cfg["n_requests"] / s for mode, s in seconds.items()},
        "speedup_vs_direct": seconds["direct"] / seconds["service_coalesced"],
        "speedup_vs_batch1": seconds["service_batch1"] / seconds["service_coalesced"],
        "speedup_sharded_vs_coalesced": (
            seconds["service_coalesced"] / seconds["service_sharded"]
        ),
        "mean_batch_size_coalesced": len(coalesced) and (
            sum(r.batch_size for r in coalesced) / len(coalesced)
        ),
        "mean_batch_size_sharded": len(sharded) and (
            sum(r.batch_size for r in sharded) / len(sharded)
        ),
        "parity_max_abs_diff": max(
            float(np.max(np.abs(res.mean - reference.mean))) for res in results
        ),
        "parity_metering_exact": not mismatched - {"mean"},
    }


def _direct_step_s(session, init, measurements, runs: int) -> float:
    """Seconds per step over ``runs`` one-shot ``session.run()`` calls
    (seeds 0..runs-1), each run's init outside the timer like a track
    open: total elapsed over total steps."""

    def initialized_rng(seed: int) -> np.random.Generator:
        rng = np.random.default_rng(seed)
        init.apply(session, rng)
        return rng

    laps, _ = _laps(
        runs, lambda rng: session.run(measurements, rng=rng), initialized_rng
    )
    return sum(laps) / (runs * len(measurements[1]))


def _fleet(cfg: dict, setups: dict, assignment: list, parity_tracks: int) -> dict:
    """Steps/s of live tracks stepped through the service vs one-shot
    ``session.run()`` stepping.

    ``setups`` maps a world name to its ``(world, init, (controls,
    depths, truths))`` and ``assignment`` names each track's world
    (track ``i`` gets seed ``i``); every track advances one step per
    ``gather``.  The direct side is each world's :func:`_direct_step_s`
    weighted by its share of the tracks -- with one world, that world's
    direct steps/s.  ``parity_tracks`` evenly spaced tracks of each
    world must equal their ``reference_track_run`` bit-for-bit.
    """
    from repro.runtime import BatchPolicy, TrackPolicy
    from repro.serve import InferenceService, reference_track_run, stream_mismatches
    from repro.serve.demo import demo_model

    substrate, steps = cfg["substrate"], cfg["steps_per_track"]
    steps_total = len(assignment) * steps
    per_step_s = {
        name: _direct_step_s(
            world.build_session(substrate), init, measurements, cfg["direct_runs"]
        )
        for name, (world, init, measurements) in setups.items()
    }
    direct_steps_per_s = steps_total / sum(
        per_step_s[name] * steps for name in assignment
    )

    # A service owns exactly one TrackWorld, so a fleet over several
    # worlds is a fleet of services sharing one event loop -- tracks of
    # different worlds are still concurrent in flight.
    services = {
        name: InferenceService(
            demo_model(),
            substrates=[substrate],
            batch=BatchPolicy(
                max_batch=cfg["max_batch"], max_wait_ms=cfg["max_wait_ms"]
            ),
            track_world=world,
            tracks=TrackPolicy(max_tracks=assignment.count(name) + 16),
            track_substrates=[substrate],
        )
        for name, (world, _, _) in setups.items()
    }
    plans = [setups[name][2] for name in assignment]

    async def open_all():
        return await asyncio.gather(
            *(
                services[name].open_track(
                    substrate=substrate, init=setups[name][1], seed=i
                )
                for i, name in enumerate(assignment)
            )
        )

    async def step_all(handles):
        return [
            await asyncio.gather(
                *(
                    handle.step(controls[k], depths[k], truth=truths[k])
                    for handle, (controls, depths, truths) in zip(handles, plans)
                )
            )
            for k in range(steps)
        ]

    with _started(*services.values()) as run:
        handles = run(open_all())
        (elapsed,), by_step = _laps(1, lambda _: run(step_all(handles)))
        stats = [service.stats_snapshot()["tracks"] for service in services.values()]

    def sampled(name: str) -> list[int]:
        tracks = [i for i, assigned in enumerate(assignment) if assigned == name]
        picks = np.linspace(0, len(tracks) - 1, parity_tracks, dtype=int)
        return [tracks[pick] for pick in picks]

    parity_exact = not any(
        stream_mismatches(
            [step[index] for step in by_step],
            reference_track_run(world, substrate, init, index, measurements),
        )
        for name, (world, init, measurements) in setups.items()
        for index in sampled(name)
    )
    batches = sum(s["step_batches"] for s in stats)
    return {
        "steps_total": steps_total,
        "elapsed_s": elapsed,
        "steps_per_s": steps_total / elapsed,
        "direct_steps_per_s": direct_steps_per_s,
        "throughput_vs_direct": steps_total / elapsed / direct_steps_per_s,
        "mean_step_batch": batches
        and sum(s["mean_step_batch"] * s["step_batches"] for s in stats) / batches,
        "max_step_batch": max(s["max_step_batch"] for s in stats),
        "parity_exact": parity_exact,
    }


# Reference config for the streaming-track benchmark (the "tracking"
# case in BENCH_serve.json): thousands of concurrent live tracks over
# the tiny demo world, each stepped measurement-by-measurement through
# the service's track path (per-track state over one shared prototype
# session, steps coalesced into micro-batches that run as fused waves).
_TRACKING_BENCH = {
    "substrate": "cim",
    "n_tracks": 2000,
    "steps_per_track": 2,
    "parity_tracks": 4,
    "max_batch": 32,
    "max_wait_ms": 2.0,
    "direct_runs": 2000,
}


def _tracking(args: argparse.Namespace) -> dict:
    """The one-world fleet: every track on the demo world."""
    from repro.serve import TrackInit
    from repro.serve.demo import demo_track_measurements, demo_track_world

    cfg = _TRACKING_BENCH
    measurements = demo_track_measurements(n_steps=cfg["steps_per_track"])
    truths = measurements[2]
    init = TrackInit(
        mode="tracking",
        state=truths[0],
        sigma=np.full(truths.shape[1], 0.05),
        z_range=None,
    )
    fleet = _fleet(
        cfg,
        {"demo": (demo_track_world(), init, measurements)},
        ["demo"] * cfg["n_tracks"],
        parity_tracks=cfg["parity_tracks"],
    )
    return {"case": "serve-tracking", **cfg, **fleet}


# Reference config for the scenario-mix benchmark (the "scenario_mix"
# case in BENCH_serve.json): concurrent live tracks drawn from a weighted
# mix of scenario-library worlds (serving-sized via ScenarioSpec.tiny) --
# different maps, dropout regimes and precisions instead of one world.
_SCENARIO_MIX_BENCH = {
    "substrate": "cim",
    "mix": (
        ("room-baseline", 0.5),
        ("sensor-dropout-burst", 0.3),
        ("adc-low-precision", 0.2),
    ),
    "n_tracks": 96,
    "steps_per_track": 2,
    "max_batch": 32,
    "max_wait_ms": 2.0,
    "direct_runs": 48,
}


def _scenario_mix(args: argparse.Namespace) -> dict:
    """The scenario-mix fleet, checked on the first track of each world."""
    from repro.scenarios import (
        ScenarioMix,
        get_scenario,
        scenario_track_setup,
        serving_profile,
    )

    cfg = _SCENARIO_MIX_BENCH
    mix = ScenarioMix(entries=cfg["mix"])
    setups = {
        name: scenario_track_setup(
            serving_profile(get_scenario(name), n_steps=cfg["steps_per_track"])
        )
        for name, _ in cfg["mix"]
    }
    fleet = _fleet(cfg, setups, mix.assign(cfg["n_tracks"], seed=0), parity_tracks=1)
    return {
        "case": "serve-scenario-mix",
        **cfg,
        "mix": dict(cfg["mix"]),
        "counts": mix.counts(cfg["n_tracks"]),
        **fleet,
    }


_FAST_LINE = "  {case}: loop={loop_s:.4f}s fast={fast_s:.4f}s speedup={speedup:.2f}x"
_FLEET_LINE = (
    "  {case}: {n_tracks} live tracks, {steps_per_s:.0f} steps/s (direct "
    "{direct_steps_per_s:.0f} steps/s, {throughput_vs_direct:.2f}x, "
    "parity exact: {parity_exact})"
)
_SERVE_LINE = (
    "  {case}: direct={direct_rps:.1f} req/s batch1={service_batch1_rps:.1f} "
    "req/s coalesced={service_coalesced_rps:.1f} req/s sharded(x{workers})="
    "{service_sharded_rps:.1f} req/s ({speedup_vs_direct:.2f}x vs direct, "
    "{speedup_sharded_vs_coalesced:.2f}x sharded vs coalesced)"
)

_ENGINE_PARITY: Gate = (
    lambda e: e["parity_exact"],
    "{case}: the fast path differs from the loop in samples or "
    "ops_executed (max |sample diff| {max_abs_diff})",
)
_ENGINE_NOT_SLOWER: Gate = (
    lambda e: e["speedup"] is None or e["speedup"] >= 1.0,
    "engine fast path slower than the loop path at the reference config "
    "({speedup:.2f}x)",
)
_SERVE_PARITY: Gate = (
    lambda e: e["parity_max_abs_diff"] == 0.0 and e["parity_metering_exact"],
    "served responses diverged from the pinned-mask reference (max |mean "
    "diff| {parity_max_abs_diff}, metering exact: {parity_metering_exact})",
)
_COALESCED_FASTER: Gate = (
    lambda e: e["speedup_vs_direct"] > 1.0,
    "coalesced serving is not faster than sequential session.run() "
    "serving ({speedup_vs_direct:.2f}x)",
)
_SHARDED_FASTER: Gate = (
    lambda e: e["speedup_sharded_vs_coalesced"] > 1.0,
    "sharded serving (workers={workers}) is not faster than single-process "
    "coalesced serving ({speedup_sharded_vs_coalesced:.2f}x)",
)
_STREAM_PARITY: Gate = (
    lambda e: e["parity_exact"],
    "{case}: streamed track steps diverged from their one-shot "
    "reference_track_run oracles (stream-determinism contract broken)",
)

SUITES: tuple[Suite, ...] = (
    Suite("runtime", "out", "BENCH_runtime.json", ("core", "all"), (
        Case(
            "benchmarks", _experiments,
            "  {experiment_id:4} mean={mean_s:.4f}s min={min_s:.4f}s (x{repeats})",
        ),
        Case(
            "batch_session", _batch_session,
            "  run_batch: loop={loop_s:.4f}s batch={batch_s:.4f}s "
            "speedup={speedup:.2f}x",
        ),
    )),
    Suite("engine", "engine_out", "BENCH_engine.json", ("core", "all"), (
        Case(
            "reference", functools.partial(_engine_predict, reuse=False), _FAST_LINE,
            gates=(_ENGINE_PARITY, _ENGINE_NOT_SLOWER), checks=("speedup",),
        ),
        Case(
            "reuse", functools.partial(_engine_predict, reuse=True), _FAST_LINE,
            gates=(_ENGINE_PARITY,), checks=("speedup",),
        ),
        Case(None, _macro_matvec, _FAST_LINE),
    ), listed=True),
    Suite("serve", "serve_out", "BENCH_serve.json", ("serve", "all"), (
        Case(
            "serve", _serve, _SERVE_LINE,
            gates=(_SERVE_PARITY, _COALESCED_FASTER, _SHARDED_FASTER),
            checks=("speedup_vs_direct", "speedup_sharded_vs_coalesced"),
        ),
        Case(
            "tracking", _tracking, _FLEET_LINE,
            gates=(_STREAM_PARITY,), checks=("throughput_vs_direct",),
        ),
        Case(
            "scenario_mix", _scenario_mix, _FLEET_LINE,
            gates=(_STREAM_PARITY,), checks=("throughput_vs_direct",),
        ),
    )),
)


def _regressions(
    suite: Suite, fresh: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Print the suite's ``--check`` table and return its failures; a
    ratio missing from the fresh run or the baseline fails."""
    print(f"\n{suite.name} regression check (tolerance {tolerance:.0%}):")
    failures = []
    for label, key, metric in suite.ratios():
        fresh_value, base_value = (
            entry.get(metric) if isinstance(entry, dict) else None
            for entry in (fresh.get(key), baseline.get(key))
        )
        if not (
            isinstance(fresh_value, (int, float))
            and isinstance(base_value, (int, float))
            and base_value > 0
        ):
            print(f"  {label}: fresh={fresh_value} baseline={base_value} MISSING")
            failures.append(f"{label} is missing from the fresh run or baseline")
            continue
        floor = base_value * (1.0 - tolerance)
        regressed = fresh_value < floor
        print(
            f"  {label}: fresh={fresh_value:.2f} baseline={base_value:.2f} "
            f"floor={floor:.2f} {'FAIL' if regressed else 'ok'}"
        )
        if regressed:
            failures.append(
                f"{label}: throughput regression >{tolerance:.0%} vs the baseline"
            )
    return failures


def _run_suite(suite: Suite, args: argparse.Namespace, baseline) -> int:
    """Measure and gate every case; write the suite's file only if every
    gate (and ``--check``) passed."""
    payload: dict[str, Any] = {"version": __version__}
    entries, failures = [], []
    for case in suite.cases:
        entry = case.measure(args)
        rows = entry if isinstance(entry, list) else [entry]
        print("\n".join(case.line.format(**row) for row in rows))
        entries.append(entry)
        if case.key is not None:
            payload[case.key] = entry
        failures += [
            message.format(**entry) for holds, message in case.gates if not holds(entry)
        ]
    if suite.listed:
        payload["cases"] = entries
    if baseline is not None:
        failures += _regressions(suite, payload, baseline, args.tolerance)
    out = Path(getattr(args, suite.out))
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        print(f"error: {out} left untouched by a failing run", file=sys.stderr)
        return 1
    emit_json(payload, out)
    print(f"wrote {out}")
    return 0


def run_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run the suites ``args.suite`` selects; 1 if any
    gate failed."""
    suites = [suite for suite in SUITES if args.suite in suite.runs_for]
    # Every baseline is read before anything runs or is written; a
    # missing one is a setup error (exit 2 via the CLI), never a pass.
    baselines = {}
    for suite in suites:
        path = Path(getattr(args, suite.out))
        if args.check and any(suite.ratios()):
            if not path.exists():
                raise FileNotFoundError(
                    f"bench --check needs a committed baseline at {path} "
                    "(run `repro bench` once and commit the output)"
                )
            baselines[suite.name] = json.loads(path.read_text())
    return max([_run_suite(suite, args, baselines.get(suite.name)) for suite in suites])
