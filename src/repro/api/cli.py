"""``python -m repro`` -- the structured experiment CLI.

Subcommands::

    python -m repro list [--json]
    python -m repro run E4 [E6 ...|all] [--seed N] [--substrate NAME]
                           [--set key=value ...] [--json] [--out DIR]
    python -m repro sweep E3 [--substrates digital,cim] [--seeds 0,1,2]
                             [--set key=value ...] [--workers N]
                             [--store DIR] [--json] [--out DIR]
    python -m repro report STORE [--json]
    python -m repro scenarios list [--tag TAG] [--json]
    python -m repro scenarios run NAME [NAME ...|all]
                          [--substrates digital,cim] [--seeds 0,1]
                          [--set path.to.field=value ...] [--tiny]
                          [--workers N] [--store DIR] [--json]
    python -m repro scenarios report STORE [--json]
    python -m repro lint [PATHS ...] [--json] [--rules]
                         [--baseline PATH] [--no-baseline]
                         [--update-baseline]
    python -m repro bench [--suite core|serve|all] [--ids E1 E5 ...]
                          [--repeats N] [--out PATH]
                          [--check] [--tolerance FRAC]
    python -m repro serve [--port 8000] [--substrates cim,digital]
                          [--max-batch N] [--max-wait-ms MS] [--max-pending N]
                          [--workers N]

``run`` executes experiments through :mod:`repro.api.registry` and prints
metrics (or a machine-readable ``ExperimentResult`` with ``--json``);
failures of individual experiments are isolated -- the traceback is
printed, the remaining experiments still run, and the command exits 1.
``sweep`` compiles the grid into a :class:`~repro.runtime.Plan` and runs
it through the batch runtime -- ``--workers N`` fans the jobs out over a
process pool (results identical to serial), ``--store DIR`` streams a
structured run directory (``manifest.json`` + ``results.jsonl``), and a
failing cell records an error row instead of aborting the grid.
``lint`` runs the project's AST determinism linter
(:mod:`repro.analysis`, rules DET001-DET008) over ``src/repro`` and
compares against the committed ``lint_baseline.json`` -- exit 1 on any
non-baselined finding *or* stale baseline entry, so the violation count
only ever ratchets down; ``report`` summarises a stored run;
``scenarios`` lists, sweeps and
summarises the named scenario library (:mod:`repro.scenarios`) on the
same batch runtime, with dotted ``--set`` spec overrides and friendly
exit-2 errors for unknown names/paths; ``bench`` times the quick experiment
configs plus the batched-session path (``BENCH_runtime.json``) and the
CIM engine's loop-vs-sample-major fast path plus the macro's fused
``matvec_many`` (``BENCH_engine.json``), exiting non-zero if the fast
path is slower than the loop at the reference config; ``bench --suite
serve`` times request serving (``BENCH_serve.json``) -- sequential vs
coalesced vs sharded (worker processes) -- exiting non-zero if coalesced
serving is not faster than sequential per-request serving or sharded
serving is not faster than coalesced.  ``bench --check`` additionally
compares the fresh speedup ratios against the committed baseline files
and exits non-zero on a >``--tolerance`` throughput regression.
``serve`` stands up the :mod:`repro.serve` HTTP service on the built-in
demo model; ``--workers N`` shards execution over N spawned worker
processes with the same bit-for-bit response contract.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api.registry import (
    get_experiment,
    list_experiments,
    run_experiment,
    save_results,
)
from repro.api.results import ExperimentResult
from repro.api.substrates import available_substrates
from repro.version import __version__


def _parse_overrides(pairs: list[str] | None) -> dict[str, str] | None:
    if not pairs:
        return None
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(
            f"--seeds expects comma-separated integers, got {text!r}"
        ) from None


def _print_metrics(result: ExperimentResult) -> None:
    print(f"\n### {result.experiment_id} -- {result.title}")
    print(
        f"    seed={result.seed}"
        + (f" substrate={result.substrate}" if result.substrate else "")
        + f" runtime={result.runtime_s:.2f}s"
    )
    for key, value in result.metrics.items():
        print(f"  {key}: {value}")


def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_experiments()
    if args.json:
        payload = {
            "experiments": [
                {
                    "id": spec.id,
                    "title": spec.title,
                    "description": spec.description,
                    "substrates": list(spec.substrates),
                }
                for spec in specs
            ],
            "substrates": available_substrates(),
            "version": __version__,
        }
        print(json.dumps(payload, indent=2))
        return 0
    for spec in specs:
        marker = f"  [--substrate {','.join(spec.substrates)}]" if spec.substrates else ""
        print(f"  {spec.id:4} {spec.title}{marker}")
    print(f"\nsubstrates: {', '.join(available_substrates())}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.registry import resolve_substrate

    ids = args.ids
    if ids == ["all"]:
        ids = [spec.id for spec in list_experiments()]
    overrides = _parse_overrides(args.set)
    # Resolve ids / substrate / config up front so user errors stay
    # friendly exit-2 rejections; only *execution* failures are isolated.
    specs = [get_experiment(experiment_id) for experiment_id in ids]
    for spec in specs:
        resolve_substrate(spec, args.substrate)
        spec.make_config(overrides, args.seed)
    results = []
    failed: list[str] = []
    for spec in specs:
        try:
            results.append(
                run_experiment(
                    spec.id,
                    seed=args.seed,
                    substrate=args.substrate,
                    overrides=overrides,
                    out_dir=args.out,
                )
            )
        except Exception:
            # One failing experiment must not abort the rest of the
            # batch: print its traceback, keep running, fail at the end.
            import traceback

            traceback.print_exc(file=sys.stderr)
            print(
                f"error: experiment {spec.id} failed; continuing with the "
                "remaining experiment(s)",
                file=sys.stderr,
            )
            failed.append(spec.id)
    if args.json:
        payload = [r.to_dict() for r in results]
        # Shape follows the *request*: one requested experiment prints a
        # bare object, several always print a list, even when failures
        # thinned the results -- consumers see a stable schema.
        print(
            json.dumps(
                payload[0] if len(specs) == 1 and payload else payload,
                indent=2,
            )
        )
    else:
        for result in results:
            _print_metrics(result)
    if failed:
        print(
            f"error: {len(failed)} of {len(specs)} experiment(s) failed: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runtime import ParallelExecutor, Plan, RunStore

    substrates = args.substrates.split(",") if args.substrates else None
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    overrides = _parse_overrides(args.set)
    plan = Plan.compile(
        args.id, substrates=substrates, seeds=seeds, overrides=overrides
    )
    store = None
    if args.store:
        command = f"repro sweep {args.id}"
        if args.substrates:
            command += f" --substrates {args.substrates}"
        if args.seeds:
            command += f" --seeds {args.seeds}"
        for pair in args.set or []:
            command += f" --set {pair}"
        command += f" --workers {args.workers}"
        store = RunStore.create(args.store, plan=plan, command=command)
    report = ParallelExecutor(workers=args.workers).execute(plan, store=store)
    if args.out:
        save_results(report.results, args.out, overrides)
    if args.json:
        print(
            json.dumps(
                [record.to_jsonable() for record in report.records], indent=2
            )
        )
    else:
        for record in report.records:
            if record.ok:
                _print_metrics(record.result)
            else:
                last_line = record.error.strip().splitlines()[-1]
                print(f"\n### {record.job.job_id} -- FAILED: {last_line}")
        summary = report.summary()
        print(
            f"\nsweep: {summary['n_jobs']} job(s), {summary['n_ok']} ok, "
            f"{summary['n_failed']} failed in {summary['wall_time_s']:.2f}s "
            f"(workers={summary['workers']})"
        )
        if store is not None:
            print(f"store: {store.path}")
    return 0 if report.n_failed == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.runtime import RunStore

    store = RunStore.load(args.store)
    if args.json:
        payload = {
            "summary": store.summary(),
            "records": [record.to_jsonable() for record in store.records()],
        }
        print(json.dumps(payload, indent=2))
        return 0
    summary = store.summary()
    print(f"run store: {summary['path']}")
    print(
        f"  status={summary['status']} planned={summary['n_jobs_planned']} "
        f"recorded={summary['n_recorded']} ok={summary['n_ok']} "
        f"failed={summary['n_failed']}"
    )
    if summary.get("wall_time_s") is not None:
        print(
            f"  wall_time={summary['wall_time_s']:.2f}s "
            f"workers={summary.get('workers')}"
        )
    for record in store.records():
        if record.ok:
            scalars = {
                key: value
                for key, value in record.result.metrics.items()
                if isinstance(value, (int, float, str, bool))
            }
            line = " ".join(f"{k}={v}" for k, v in list(scalars.items())[:4])
            print(f"  ok     {record.job.job_id}  {record.duration_s:.2f}s  {line}")
        else:
            last_line = record.error.strip().splitlines()[-1]
            print(f"  FAILED {record.job.job_id}  {last_line}")
    return 0


def _scenario_summary_table(rows: list[dict]) -> list[str]:
    """Fixed-width per-scenario x substrate summary lines."""
    from repro.scenarios import summarize_rows

    lines = [
        f"  {'scenario':28} {'substrate':13} {'runs':>4} {'final_m':>8} "
        f"{'mean_m':>8} {'steady_m':>9} {'conv':>4} {'energy_j':>10} "
        f"{'ops':>12}"
    ]
    for line in summarize_rows(rows):
        lines.append(
            f"  {line['scenario']:28} {line['substrate']:13} "
            f"{line['runs']:>4d} {line['final_error_m']:>8.3f} "
            f"{line['mean_error_m']:>8.3f} "
            f"{line['steady_state_error_m']:>9.3f} "
            f"{line['converged_runs']:>4d} {line['energy_j']:>10.3e} "
            f"{line['ops_executed']:>12.0f}"
        )
    return lines


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios

    specs = list_scenarios(tag=args.tag)
    if args.json:
        print(
            json.dumps(
                {
                    "scenarios": [spec.to_jsonable() for spec in specs],
                    "version": __version__,
                },
                indent=2,
            )
        )
        return 0
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"  {spec.name:28} [{tags}]")
        print(f"      {spec.description}")
    print(f"\n{len(specs)} scenario(s)" + (f" tagged {args.tag!r}" if args.tag else ""))
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.runtime import ParallelExecutor, RunStore
    from repro.scenarios import compile_scenarios, scenario_names

    names = args.names
    if names == ["all"]:
        names = scenario_names()
    substrates = args.substrates.split(",") if args.substrates else None
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    overrides = _parse_overrides(args.set)
    # Compilation resolves scenario names, applies the dotted --set
    # overrides and validates every spec up front -- user errors surface
    # as friendly exit-2 messages before anything runs.
    plan = compile_scenarios(
        names,
        substrates=substrates,
        seeds=seeds,
        overrides=overrides,
        tiny=args.tiny,
    )
    store = None
    if args.store:
        command = "repro scenarios run " + " ".join(names)
        if args.substrates:
            command += f" --substrates {args.substrates}"
        if args.seeds:
            command += f" --seeds {args.seeds}"
        for pair in args.set or []:
            command += f" --set {pair}"
        if args.tiny:
            command += " --tiny"
        command += f" --workers {args.workers}"
        store = RunStore.create(args.store, plan=plan, command=command)
    report = ParallelExecutor(workers=args.workers).execute(plan, store=store)
    if args.json:
        print(
            json.dumps(
                [record.to_jsonable() for record in report.records], indent=2
            )
        )
        return 0 if report.n_failed == 0 else 1
    rows = []
    for record in report.records:
        if record.ok:
            rows.append(record.result.metrics)
        else:
            last_line = record.error.strip().splitlines()[-1]
            print(f"FAILED {record.job.job_id}: {last_line}")
    if rows:
        print("\n".join(_scenario_summary_table(rows)))
    summary = report.summary()
    print(
        f"\nscenarios: {summary['n_jobs']} run(s), {summary['n_ok']} ok, "
        f"{summary['n_failed']} failed in {summary['wall_time_s']:.2f}s "
        f"(workers={summary['workers']})"
    )
    if store is not None:
        print(f"store: {store.path}")
    return 0 if report.n_failed == 0 else 1


def _cmd_scenarios_report(args: argparse.Namespace) -> int:
    from repro.runtime import RunStore
    from repro.scenarios import summarize_rows

    store = RunStore.load(args.store)
    rows = [
        record.result.metrics
        for record in store.records()
        if record.ok and record.job.experiment_id == "SCN"
    ]
    if args.json:
        print(
            json.dumps(
                {"summary": store.summary(), "scenarios": summarize_rows(rows)},
                indent=2,
            )
        )
        return 0
    summary = store.summary()
    print(f"run store: {summary['path']}")
    print(
        f"  status={summary['status']} planned={summary['n_jobs_planned']} "
        f"recorded={summary['n_recorded']} ok={summary['n_ok']} "
        f"failed={summary['n_failed']}"
    )
    if not rows:
        print("  no successful scenario (SCN) runs in this store")
        return 0
    print("\n".join(_scenario_summary_table(rows)))
    return 0


_LINT_DEFAULT_PATHS = ("src/repro",)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import Baseline, all_rules, compare, lint_paths

    if args.rules:
        if args.json:
            payload = [
                {
                    "code": rule.code,
                    "name": rule.name,
                    "rationale": rule.rationale,
                    "hint": rule.hint,
                }
                for rule in all_rules()
            ]
            print(json.dumps(payload, indent=2, allow_nan=False))
            return 0
        for rule in all_rules():
            print(f"  {rule.code}  {rule.name}")
            print(f"        {rule.rationale}")
        return 0

    paths = args.paths or list(_LINT_DEFAULT_PATHS)
    findings = lint_paths(paths)
    baseline_path = Path(args.baseline)

    if args.update_baseline:
        notes: list[str] = []
        if baseline_path.exists():
            notes = Baseline.load(baseline_path).notes
        Baseline.from_findings(findings, notes=notes).save(baseline_path)
        print(
            f"baseline updated: {baseline_path} "
            f"({len(findings)} grandfathered finding(s))"
        )
        return 0

    new, stale = findings, []
    baselined = 0
    if not args.no_baseline and baseline_path.exists():
        baseline = Baseline.load(baseline_path)
        new, stale = compare(findings, baseline)
        baselined = len(findings) - len(new)

    if args.json:
        payload = {
            "paths": [str(path) for path in paths],
            "baseline": None if args.no_baseline else str(baseline_path),
            "n_findings": len(findings),
            "n_baselined": baselined,
            "new": [finding.to_jsonable() for finding in new],
            "stale": [entry.to_jsonable() for entry in stale],
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
        return 1 if new or stale else 0

    for finding in new:
        print(finding.render())
    for entry in stale:
        print(f"stale baseline entry (no longer fires): {entry.render()}")
    summary = (
        f"lint: {len(findings)} finding(s), {baselined} baselined, "
        f"{len(new)} new, {len(stale)} stale"
    )
    if new or stale:
        print(summary)
        print(
            "error: determinism lint gate failed -- fix the new "
            "finding(s), suppress with '# repro: ignore[CODE] reason', "
            "or (stale entries) run `repro lint --update-baseline`",
            file=sys.stderr,
        )
        return 1
    print(summary + " -- ok")
    return 0


# Quick configs for the perf-trajectory benchmark: the fast, world-free
# experiments (inverter transfer, likelihood energy, RNG statistics).
_BENCH_CONFIGS: dict[str, dict] = {
    "E1": {"n_grid": 101},
    "E4": {"n_queries": 200},
    "E5": {"column_sweep": (2, 4), "n_instances": 2, "bits_per_instance": 512},
}


def _bench_batch_session(n_items: int = 6, n_iterations: int = 12) -> dict:
    """Time the batched-session path against a naive run() loop."""
    import numpy as np

    from repro.api.substrates import get_substrate
    from repro.nn import Dense, Dropout, ReLU, Sequential

    rng = np.random.default_rng(0)
    model = Sequential(
        [
            Dense(32, 16, rng),
            ReLU(),
            Dropout(0.5, rng=np.random.default_rng(1)),
            Dense(16, 4, rng),
        ]
    )
    items = [rng.normal(size=(4, 32)) for _ in range(n_items)]
    session = get_substrate("cim-ordered").mc_dropout_session(
        model, n_iterations=n_iterations, rng=np.random.default_rng(2)
    )
    start = time.perf_counter()
    for item in items:
        session.run(item, rng=np.random.default_rng(3))
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    session.run_batch(items, rng=np.random.default_rng(3))
    batch_s = time.perf_counter() - start
    return {
        "substrate": "cim-ordered",
        "n_items": n_items,
        "n_iterations": n_iterations,
        "loop_s": loop_s,
        "batch_s": batch_s,
        "speedup": loop_s / batch_s if batch_s > 0 else None,
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


def _engine_bench_model():
    import numpy as np

    from repro.nn import Dense, Dropout, ReLU, Sequential

    cfg = _ENGINE_BENCH
    rng = np.random.default_rng(0)
    return Sequential(
        [
            Dense(cfg["n_inputs"], cfg["n_hidden"], rng),
            ReLU(),
            Dropout(cfg["dropout_p"], rng=np.random.default_rng(1)),
            Dense(cfg["n_hidden"], cfg["n_outputs"], rng),
        ]
    )


def _bench_engine_predict(repeats: int, reuse: bool, label: str) -> dict:
    """Loop vs sample-major predict timings on one engine config."""
    import numpy as np

    from repro.core.cim_mc_dropout import CIMMCDropoutEngine
    from repro.sram.macro import MacroConfig

    cfg = _ENGINE_BENCH
    x = np.random.default_rng(4).normal(size=(cfg["batch"], cfg["n_inputs"]))

    def build(fast_path: bool) -> CIMMCDropoutEngine:
        return CIMMCDropoutEngine(
            _engine_bench_model(),
            MacroConfig(),
            n_iterations=cfg["n_iterations"],
            use_hardware_rng=False,
            reuse=reuse,
            ordering=False,
            fast_path=fast_path,
            rng=np.random.default_rng(7),
        )

    loop_engine, fast_engine = build(False), build(True)
    streams = loop_engine.draw_mask_streams(np.random.default_rng(3))
    order = np.arange(cfg["n_iterations"])

    def run(engine):
        return engine.predict(
            x, rng=np.random.default_rng(5), mask_streams=streams, mask_order=order
        )

    reference, fast = run(loop_engine), run(fast_engine)  # warm-up + parity
    max_abs_diff = float(np.max(np.abs(reference.samples - fast.samples)))
    parity_exact = bool(
        np.array_equal(reference.samples, fast.samples)
        and reference.ops_executed == fast.ops_executed
    )
    timings = {}
    for name, engine in (("loop", loop_engine), ("fast", fast_engine)):
        laps = []
        for _ in range(repeats):
            start = time.perf_counter()
            run(engine)
            laps.append(time.perf_counter() - start)
        timings[name] = min(laps)
    return {
        "case": label,
        "reuse": reuse,
        **cfg,
        "repeats": repeats,
        "loop_s": timings["loop"],
        "fast_s": timings["fast"],
        "speedup": timings["loop"] / timings["fast"] if timings["fast"] > 0 else None,
        "max_abs_diff": max_abs_diff,
        "parity_exact": parity_exact,
        "ops_executed": fast.ops_executed,
        "ops_naive": fast.ops_naive,
    }


def _bench_macro_matvec(repeats: int) -> dict:
    """matvec loop vs fused matvec_many on one macro."""
    import numpy as np

    from repro.sram.macro import MacroConfig, SRAMCIMMacro

    cfg = _ENGINE_BENCH
    n_stacked, batch = cfg["n_iterations"], cfg["batch"]
    weight = np.random.default_rng(0).normal(size=(64, 32))
    macro = SRAMCIMMacro(weight, MacroConfig(), rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(n_stacked, batch, 64))
    macro.matvec(x[0], rng=np.random.default_rng(0))  # pin the DAC spec
    timings = {}
    for name in ("loop", "fused"):
        laps = []
        for _ in range(repeats):
            rng = np.random.default_rng(5)
            start = time.perf_counter()
            if name == "loop":
                for t in range(n_stacked):
                    macro.matvec(x[t], rng=rng)
            else:
                macro.matvec_many(x, rng=rng)
            laps.append(time.perf_counter() - start)
        timings[name] = min(laps)
    return {
        "case": "macro-matvec_many",
        "in_features": 64,
        "out_features": 32,
        "n_stacked": n_stacked,
        "batch": batch,
        "repeats": repeats,
        "loop_s": timings["loop"],
        "fast_s": timings["fused"],
        "speedup": timings["loop"] / timings["fused"] if timings["fused"] > 0 else None,
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


def _bench_serve(repeats: int) -> dict:
    """Requests/sec: sequential session.run vs the coalescing service."""
    import numpy as np

    from repro.runtime import BatchPolicy, QueuePolicy
    from repro.serve import (
        InferenceRequest,
        InferenceService,
        build_reference_session,
        reference_run,
    )
    from repro.serve.demo import demo_inputs, demo_model

    cfg = _SERVE_BENCH
    model = demo_model()
    x = demo_inputs(batch=cfg["request_batch"])
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
    direct_laps = []
    for _ in range(repeats):
        start = time.perf_counter()
        for request in requests:
            reference_run(session, request.inputs, request.seed)
        direct_laps.append(time.perf_counter() - start)

    def service_laps(max_batch: int, max_wait_ms: float, workers: int = 0):
        import asyncio

        from repro.runtime import ShardPolicy

        service = InferenceService(
            model,
            substrates=[cfg["substrate"]],
            n_iterations=cfg["n_iterations"],
            batch=BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait_ms),
            queue=QueuePolicy(max_pending=cfg["n_requests"]),
            shard=ShardPolicy(workers=workers),
        )

        async def drive():
            # Steady-state throughput: warm-up and lifecycle live outside
            # the timed laps, like a long-running server.  The warm-up
            # lap uses the full request set so every shard gets touched.
            async with service:
                await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )
                laps, responses = [], None
                for _ in range(repeats):
                    start = time.perf_counter()
                    responses = await asyncio.gather(
                        *(service.submit(r) for r in requests)
                    )
                    laps.append(time.perf_counter() - start)
                return laps, list(responses)

        return asyncio.run(drive())

    batch1_laps, batch1 = service_laps(max_batch=1, max_wait_ms=0.0)
    coalesced_laps, coalesced = service_laps(
        cfg["max_batch"], cfg["max_wait_ms"]
    )
    # Sharded scale-out: the same load split over worker processes --
    # smaller micro-batches, but they execute on separate cores.
    sharded_laps, sharded = service_laps(
        cfg["sharded_max_batch"], cfg["max_wait_ms"], workers=cfg["workers"]
    )
    # Full-reference parity on every served response (both modes): the
    # values *and* the per-request metering must match the pinned-mask
    # oracle exactly -- a metering bleed across coalesced requests is as
    # much a failure as a wrong mean.
    parity = max(
        float(np.max(np.abs(resp.result.mean - reference.mean)))
        for resp in batch1 + coalesced + sharded
    )
    metering_parity = all(
        resp.result.energy_j == reference.energy_j
        and resp.result.ops_executed == reference.ops_executed
        and np.array_equal(resp.result.variance, reference.variance)
        for resp in batch1 + coalesced + sharded
    )
    n = cfg["n_requests"]
    direct_s, batch1_s, coalesced_s, sharded_s = (
        min(direct_laps),
        min(batch1_laps),
        min(coalesced_laps),
        min(sharded_laps),
    )
    return {
        "case": "serve-coalescing",
        **cfg,
        "repeats": repeats,
        "direct_s": direct_s,
        "service_batch1_s": batch1_s,
        "service_coalesced_s": coalesced_s,
        "service_sharded_s": sharded_s,
        "direct_rps": n / direct_s,
        "service_batch1_rps": n / batch1_s,
        "service_coalesced_rps": n / coalesced_s,
        "service_sharded_rps": n / sharded_s,
        "speedup_vs_direct": direct_s / coalesced_s,
        "speedup_vs_batch1": batch1_s / coalesced_s,
        "speedup_sharded_vs_coalesced": coalesced_s / sharded_s,
        "mean_batch_size_coalesced": len(coalesced) and (
            sum(r.batch_size for r in coalesced) / len(coalesced)
        ),
        "mean_batch_size_sharded": len(sharded) and (
            sum(r.batch_size for r in sharded) / len(sharded)
        ),
        "parity_max_abs_diff": parity,
        "parity_metering_exact": metering_parity,
    }


# Reference config for the streaming-track benchmark (the "tracking"
# case in BENCH_serve.json): thousands of concurrent live tracks over
# the tiny demo world, each stepped measurement-by-measurement through
# the service's track path (per-track state over one shared prototype
# session, steps coalesced into micro-batches that run as fused waves).
# The baseline is the same filter stepped by one-shot session.run()s --
# the ratio is machine-relative, so a committed baseline transfers
# across runners.
_TRACKING_BENCH = {
    "substrate": "cim",
    "n_tracks": 2000,
    "steps_per_track": 2,
    "parity_tracks": 4,
    "max_batch": 32,
    "max_wait_ms": 2.0,
    "direct_runs": 2000,
}


def _direct_steps_per_s(session, init, measurements, runs: int) -> float:
    """Steps/s of ``runs`` one-shot ``session.run()`` calls (seeds
    0..runs-1): total steps over total elapsed, the statistic the service
    side reports.  Each run's initialization is outside the timer, like
    the service's track opens."""
    import numpy as np

    elapsed = 0.0
    steps = 0
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        init.apply(session, rng)
        start = time.perf_counter()
        session.run(measurements, rng=rng)
        elapsed += time.perf_counter() - start
        steps += len(measurements[1])
    return steps / elapsed


async def _drive_track_fleet(tracks: list, substrate: str, n_steps: int):
    """Open one track per ``(service, init, (controls, depths, truths))``
    entry (track ``i`` gets seed ``i``), then advance every track one step
    per ``gather`` for ``n_steps`` steps.  Returns the stepping wall time
    and each track's responses.  The services must be started.
    """
    import asyncio

    handles = await asyncio.gather(
        *(
            service.open_track(substrate=substrate, init=init, seed=i)
            for i, (service, init, _) in enumerate(tracks)
        )
    )
    responses = [[] for _ in handles]
    start = time.perf_counter()
    for k in range(n_steps):
        step_responses = await asyncio.gather(
            *(
                handle.step(controls[k], depths[k], truth=truths[k])
                for handle, (_, _, (controls, depths, truths)) in zip(
                    handles, tracks
                )
            )
        )
        for bucket, response in zip(responses, step_responses):
            bucket.append(response)
    return time.perf_counter() - start, responses


def _tracks_match_oracle(responses: list, substrate: str, sample: list) -> bool:
    """Stream-determinism gate: each sampled ``(index, world, init,
    measurements)`` track's streamed estimates and cumulative energy/ops
    must equal its one-shot ``reference_track_run`` oracle bit-for-bit.
    """
    import numpy as np

    from repro.serve import reference_track_run

    for index, world, init, measurements in sample:
        reference = reference_track_run(
            world, substrate, init, index, measurements
        )
        streamed = responses[index]
        final = streamed[-1]
        if not (
            np.array_equal(
                np.array([r.estimate for r in streamed]), reference.mean
            )
            and final.energy_j == reference.energy_j
            and final.ops_executed == reference.ops_executed
            and final.energy_breakdown_j == reference.energy_breakdown_j
        ):
            return False
    return True


def _bench_tracking() -> dict:
    """Steps/sec across thousands of live tracks vs one-shot stepping."""
    import asyncio

    import numpy as np

    from repro.runtime import BatchPolicy, TrackPolicy
    from repro.serve import InferenceService, TrackInit
    from repro.serve.demo import (
        demo_model,
        demo_track_measurements,
        demo_track_world,
    )

    cfg = _TRACKING_BENCH
    world = demo_track_world()
    measurements = demo_track_measurements(n_steps=cfg["steps_per_track"])
    truths = measurements[2]
    init = TrackInit(
        mode="tracking",
        state=truths[0],
        sigma=np.full(truths.shape[1], 0.05),
        z_range=None,
    )

    # Direct baseline: the same filter advanced by one-shot session.run()
    # calls (session build outside the timer).
    direct_steps_per_s = _direct_steps_per_s(
        world.build_session(cfg["substrate"]),
        init,
        measurements,
        cfg["direct_runs"],
    )

    service = InferenceService(
        demo_model(),
        substrates=[cfg["substrate"]],
        batch=BatchPolicy(
            max_batch=cfg["max_batch"], max_wait_ms=cfg["max_wait_ms"]
        ),
        track_world=world,
        tracks=TrackPolicy(max_tracks=cfg["n_tracks"] + 16),
        track_substrates=[cfg["substrate"]],
    )

    async def drive():
        async with service:
            elapsed, responses = await _drive_track_fleet(
                [(service, init, measurements)] * cfg["n_tracks"],
                cfg["substrate"],
                cfg["steps_per_track"],
            )
            stats = service.stats_snapshot()["tracks"]
            return elapsed, responses, stats

    elapsed, responses, track_stats = asyncio.run(drive())
    steps_total = cfg["n_tracks"] * cfg["steps_per_track"]
    steps_per_s = steps_total / elapsed

    sample = np.linspace(
        0, cfg["n_tracks"] - 1, cfg["parity_tracks"], dtype=int
    )
    parity_exact = _tracks_match_oracle(
        responses,
        cfg["substrate"],
        [(int(index), world, init, measurements) for index in sample],
    )
    return {
        "case": "serve-tracking",
        **cfg,
        "steps_total": steps_total,
        "elapsed_s": elapsed,
        "steps_per_s": steps_per_s,
        "direct_steps_per_s": direct_steps_per_s,
        "throughput_vs_direct": steps_per_s / direct_steps_per_s,
        "mean_step_batch": track_stats["mean_step_batch"],
        "max_step_batch": track_stats["max_step_batch"],
        "parity_exact": parity_exact,
    }


# Reference config for the scenario-mix benchmark (the "scenario_mix"
# case in BENCH_serve.json): concurrent live tracks drawn from a weighted
# mix of scenario-library worlds (serving-sized via ScenarioSpec.tiny),
# one service per distinct world, all driven in one event loop.  This is
# the realistic-traffic leg of the serve bench: requests span *different*
# maps, dropout regimes and precisions instead of one demo world.  The
# baseline is per-scenario one-shot session.run() stepping; the ratio is
# machine-relative like every other --check metric.
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


def _bench_scenario_mix() -> dict:
    """Steps/sec across live tracks of a weighted scenario mix."""
    import asyncio

    from repro.runtime import BatchPolicy, TrackPolicy
    from repro.scenarios import (
        ScenarioMix,
        get_scenario,
        scenario_track_setup,
        serving_profile,
    )
    from repro.serve import InferenceService
    from repro.serve.demo import demo_model

    cfg = _SCENARIO_MIX_BENCH
    steps = cfg["steps_per_track"]
    mix = ScenarioMix(entries=cfg["mix"])
    assignment = mix.assign(cfg["n_tracks"], seed=0)

    # One (world, init, measurements, service) per distinct scenario: a
    # service owns exactly one TrackWorld, so a mixed fleet is a fleet of
    # services sharing the event loop -- tracks of different worlds are
    # still concurrent in flight.
    setups: dict[str, tuple] = {}
    for name, _ in cfg["mix"]:
        spec = serving_profile(get_scenario(name), n_steps=steps)
        setups[name] = scenario_track_setup(spec)

    # Direct baseline: per-scenario one-shot session.run() per-step cost,
    # weighted by how many tracks of that scenario the mix assigns.
    per_step_s = {
        name: 1.0
        / _direct_steps_per_s(
            world.build_session(cfg["substrate"]),
            init,
            measurements,
            cfg["direct_runs"],
        )
        for name, (world, init, measurements) in setups.items()
    }
    direct_total_s = sum(per_step_s[name] * steps for name in assignment)
    steps_total = len(assignment) * steps
    direct_steps_per_s = steps_total / direct_total_s

    counts = mix.counts(cfg["n_tracks"])
    services = {
        name: InferenceService(
            demo_model(),
            substrates=[cfg["substrate"]],
            batch=BatchPolicy(
                max_batch=cfg["max_batch"], max_wait_ms=cfg["max_wait_ms"]
            ),
            track_world=setups[name][0],
            tracks=TrackPolicy(max_tracks=counts[name] + 16),
            track_substrates=[cfg["substrate"]],
        )
        for name, _ in cfg["mix"]
    }

    async def drive():
        for service in services.values():
            await service.start()
        try:
            return await _drive_track_fleet(
                [(services[name], *setups[name][1:]) for name in assignment],
                cfg["substrate"],
                steps,
            )
        finally:
            for service in services.values():
                await service.stop()

    elapsed, responses = asyncio.run(drive())
    steps_per_s = steps_total / elapsed

    # One sampled track per scenario: the first track assigned to it.
    parity_exact = _tracks_match_oracle(
        responses,
        cfg["substrate"],
        [(assignment.index(name), *setups[name]) for name in counts],
    )
    return {
        "case": "serve-scenario-mix",
        "substrate": cfg["substrate"],
        "n_tracks": cfg["n_tracks"],
        "steps_per_track": steps,
        "max_batch": cfg["max_batch"],
        "max_wait_ms": cfg["max_wait_ms"],
        "direct_runs": cfg["direct_runs"],
        "mix": {name: weight for name, weight in cfg["mix"]},
        "counts": counts,
        "steps_total": steps_total,
        "elapsed_s": elapsed,
        "steps_per_s": steps_per_s,
        "direct_steps_per_s": direct_steps_per_s,
        "throughput_vs_direct": steps_per_s / direct_steps_per_s,
        "parity_exact": parity_exact,
    }


def _run_serve_bench(args: argparse.Namespace) -> tuple[int, dict]:
    entry = _bench_serve(args.repeats)
    print(
        f"  {entry['case']}: direct={entry['direct_rps']:.1f} req/s "
        f"batch1={entry['service_batch1_rps']:.1f} req/s "
        f"coalesced={entry['service_coalesced_rps']:.1f} req/s "
        f"sharded(x{entry['workers']})={entry['service_sharded_rps']:.1f} "
        f"req/s ({entry['speedup_vs_direct']:.2f}x vs direct, "
        f"{entry['speedup_sharded_vs_coalesced']:.2f}x sharded vs "
        "coalesced)"
    )
    tracking = _bench_tracking()
    print(
        f"  {tracking['case']}: {tracking['n_tracks']} live tracks, "
        f"{tracking['steps_per_s']:.0f} steps/s "
        f"(direct {tracking['direct_steps_per_s']:.0f} steps/s, "
        f"{tracking['throughput_vs_direct']:.2f}x, mean step batch "
        f"{tracking['mean_step_batch']:.1f}, parity "
        f"{'exact' if tracking['parity_exact'] else 'BROKEN'})"
    )
    mix = _bench_scenario_mix()
    print(
        f"  {mix['case']}: {mix['n_tracks']} live tracks over "
        f"{len(mix['mix'])} scenarios, {mix['steps_per_s']:.0f} steps/s "
        f"(direct {mix['direct_steps_per_s']:.0f} steps/s, "
        f"{mix['throughput_vs_direct']:.2f}x, parity "
        f"{'exact' if mix['parity_exact'] else 'BROKEN'})"
    )
    payload = {
        "version": __version__,
        "serve": entry,
        "tracking": tracking,
        "scenario_mix": mix,
    }
    out = Path(args.serve_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    if not tracking["parity_exact"]:
        print(
            "error: streamed track steps diverged from the one-shot "
            "session.run() oracle (stream-determinism contract broken)",
            file=sys.stderr,
        )
        return 1, payload
    if not mix["parity_exact"]:
        print(
            "error: scenario-mix track streams diverged from their "
            "one-shot session.run() oracles (stream-determinism contract "
            "broken)",
            file=sys.stderr,
        )
        return 1, payload
    if entry["parity_max_abs_diff"] != 0.0 or not entry["parity_metering_exact"]:
        print(
            "error: served responses diverged from the pinned-mask "
            f"reference (max |mean diff| {entry['parity_max_abs_diff']}, "
            f"metering exact: {entry['parity_metering_exact']})",
            file=sys.stderr,
        )
        return 1, payload
    if entry["speedup_vs_direct"] <= 1.0:
        print(
            "error: coalesced serving is not faster than sequential "
            f"session.run() serving ({entry['speedup_vs_direct']:.2f}x)",
            file=sys.stderr,
        )
        return 1, payload
    if entry["speedup_sharded_vs_coalesced"] <= 1.0:
        print(
            f"error: sharded serving (workers={entry['workers']}) is not "
            "faster than single-process coalesced serving "
            f"({entry['speedup_sharded_vs_coalesced']:.2f}x)",
            file=sys.stderr,
        )
        return 1, payload
    return 0, payload


# Throughput-proxy metrics compared by `repro bench --check`: machine-
# relative ratios (fast vs slow path on the same box), so a committed
# baseline from one machine transfers to CI runners.  Each entry maps a
# metric label to a path into the fresh/baseline JSON payload.
_CHECK_METRICS: dict[str, tuple[str, ...]] = {
    "engine.reference.speedup": ("engine", "reference", "speedup"),
    "engine.reuse.speedup": ("engine", "reuse", "speedup"),
    "serve.speedup_vs_direct": ("serve", "serve", "speedup_vs_direct"),
    "serve.speedup_sharded_vs_coalesced": (
        "serve", "serve", "speedup_sharded_vs_coalesced",
    ),
    "serve.tracking.throughput_vs_direct": (
        "serve", "tracking", "throughput_vs_direct",
    ),
    "serve.scenario_mix.throughput_vs_direct": (
        "serve", "scenario_mix", "throughput_vs_direct",
    ),
}


def _dig(payload: dict, path: tuple[str, ...]):
    node = payload
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _load_baselines(args: argparse.Namespace) -> dict[str, dict]:
    """Read the committed baseline files *before* the bench overwrites
    them (fresh outputs may use the same paths)."""
    baselines: dict[str, dict] = {}
    wanted = []
    if args.suite in ("core", "all"):
        wanted.append(("engine", args.baseline_engine))
    if args.suite in ("serve", "all"):
        wanted.append(("serve", args.baseline_serve))
    for kind, path in wanted:
        baseline_path = Path(path)
        if not baseline_path.exists():
            raise FileNotFoundError(
                f"bench --check needs a committed baseline at "
                f"{baseline_path} (run `repro bench` once and commit the "
                "output, or point --baseline-engine/--baseline-serve at it)"
            )
        baselines[kind] = json.loads(baseline_path.read_text())
    return baselines


def _check_regression(
    fresh: dict[str, dict], baselines: dict[str, dict], tolerance: float
) -> int:
    """Fail when a fresh throughput ratio regressed past the tolerance."""
    failures = []
    print(f"\nbench regression check (tolerance {tolerance:.0%}):")
    for label, path in _CHECK_METRICS.items():
        fresh_value = _dig(fresh, path)
        base_value = _dig(baselines, path)
        if fresh_value is None or base_value is None or base_value <= 0:
            continue  # metric absent from this suite selection / baseline
        floor = base_value * (1.0 - tolerance)
        regressed = fresh_value < floor
        print(
            f"  {label}: fresh={fresh_value:.2f} baseline={base_value:.2f} "
            f"floor={floor:.2f} {'FAIL' if regressed else 'ok'}"
        )
        if regressed:
            failures.append(label)
    if failures:
        print(
            f"error: throughput regression >{tolerance:.0%} vs committed "
            f"baseline in: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    baselines: dict[str, dict] = {}
    if args.check and not args.write_baseline:
        # Read the committed baselines up front: a missing baseline is a
        # setup error (exit 2 via main), never a silent pass.
        baselines = _load_baselines(args)
    codes = []
    fresh: dict[str, dict] = {}
    if args.suite in ("core", "all"):
        code, fresh["engine"] = _run_core_bench(args)
        codes.append(code)
    if args.suite in ("serve", "all"):
        code, fresh["serve"] = _run_serve_bench(args)
        codes.append(code)
    if args.write_baseline:
        # Regenerate the committed baselines from this run in one step
        # (only suites that ran and passed their internal gates).
        if max(codes) == 0:
            targets = {
                "engine": args.baseline_engine,
                "serve": args.baseline_serve,
            }
            for kind, payload in fresh.items():
                baseline_path = Path(targets[kind])
                baseline_path.parent.mkdir(parents=True, exist_ok=True)
                baseline_path.write_text(
                    json.dumps(payload, indent=2) + "\n"
                )
                print(f"baseline regenerated: {baseline_path}")
        else:
            print(
                "error: refusing to write baselines from a failing bench "
                "run",
                file=sys.stderr,
            )
    elif args.check:
        codes.append(_check_regression(fresh, baselines, args.tolerance))
    return max(codes)


def _run_core_bench(args: argparse.Namespace) -> tuple[int, dict]:
    ids = [eid.upper() for eid in (args.ids or list(_BENCH_CONFIGS))]
    benchmarks = []
    for experiment_id in ids:
        spec = get_experiment(experiment_id)
        overrides = _BENCH_CONFIGS.get(spec.id)
        times = []
        for _ in range(args.repeats):
            result = run_experiment(spec.id, seed=0, overrides=overrides)
            times.append(result.runtime_s)
        entry = {
            "experiment_id": spec.id,
            "title": spec.title,
            "overrides": overrides,
            "repeats": args.repeats,
            "mean_s": sum(times) / len(times),
            "min_s": min(times),
            "max_s": max(times),
        }
        benchmarks.append(entry)
        print(
            f"  {spec.id:4} mean={entry['mean_s']:.4f}s "
            f"min={entry['min_s']:.4f}s (x{args.repeats})"
        )
    batch = _bench_batch_session()
    print(
        f"  run_batch: loop={batch['loop_s']:.4f}s batch={batch['batch_s']:.4f}s "
        f"speedup={batch['speedup']:.2f}x"
    )
    payload = {
        "version": __version__,
        "benchmarks": benchmarks,
        "batch_session": batch,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    reference = _bench_engine_predict(
        args.repeats, reuse=False, label="engine-predict-no-reuse"
    )
    reuse_case = _bench_engine_predict(
        args.repeats, reuse=True, label="engine-predict-reuse-refresh"
    )
    macro = _bench_macro_matvec(args.repeats)
    for entry in (reference, reuse_case, macro):
        print(
            f"  {entry['case']}: loop={entry['loop_s']:.4f}s "
            f"fast={entry['fast_s']:.4f}s speedup={entry['speedup']:.2f}x"
        )
    engine_payload = {
        "version": __version__,
        "reference": reference,
        "reuse": reuse_case,
        "cases": [reference, reuse_case, macro],
    }
    engine_out = Path(args.engine_out)
    engine_out.parent.mkdir(parents=True, exist_ok=True)
    engine_out.write_text(json.dumps(engine_payload, indent=2) + "\n")
    print(f"wrote {engine_out}")
    for entry in (reference, reuse_case):
        if not entry["parity_exact"]:
            print(
                f"error: {entry['case']}: the fast path differs from the "
                "loop in samples or ops_executed (max |sample diff| "
                f"{entry['max_abs_diff']})",
                file=sys.stderr,
            )
            return 1, engine_payload
    if reference["speedup"] is not None and reference["speedup"] < 1.0:
        print(
            "error: engine fast path slower than the loop path at the "
            f"reference config ({reference['speedup']:.2f}x)",
            file=sys.stderr,
        )
        return 1, engine_payload
    return 0, engine_payload


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.runtime import BatchPolicy, QueuePolicy, ShardPolicy, TrackPolicy
    from repro.serve import InferenceService
    from repro.serve.demo import demo_model, demo_track_world
    from repro.serve.http import serve_http

    substrates = args.substrates.split(",") if args.substrates else None
    track_world = demo_track_world() if args.tracks else None
    track_substrates = (
        args.track_substrates.split(",") if args.track_substrates else None
    )
    service = InferenceService(
        demo_model(args.model_seed),
        substrates=substrates,
        n_iterations=args.n_iterations,
        batch=BatchPolicy(
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms
        ),
        queue=QueuePolicy(max_pending=args.max_pending),
        shard=ShardPolicy(workers=args.workers),
        session_seed=args.session_seed,
        track_world=track_world,
        tracks=TrackPolicy(
            max_tracks=args.max_tracks, idle_ttl_s=args.track_ttl_s
        ),
        track_substrates=track_substrates,
    )

    # SIGTERM must unwind through the finally below (the default handler
    # would kill the process without running it): the service owns worker
    # shards that have to be stopped with a deadline, never orphaned.
    # (WorkerPool also registers an atexit guard as a second layer.)
    def _terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    context = serve_http(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    try:
        described = service.describe()
        print(
            f"serving {', '.join(described['substrates'])} on "
            f"http://{args.host}:{context.port} "
            f"(max_batch={args.max_batch}, max_wait_ms={args.max_wait_ms}, "
            f"max_pending={args.max_pending}, "
            f"workers={args.workers})",
            flush=True,
        )
        endpoints = "POST /infer, GET /healthz, GET /stats"
        if args.tracks:
            endpoints += (
                ", POST /track/open, POST /track/step, POST /track/close"
            )
            print(
                f"streaming tracks: demo world, max_tracks={args.max_tracks}, "
                f"idle_ttl_s={args.track_ttl_s}",
                flush=True,
            )
        print(f"endpoints: {endpoints}", flush=True)
        import threading

        threading.Event().wait()  # block until interrupted
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        context.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Structured runner for the paper's experiments (E1-E11).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    list_parser = sub.add_parser("list", help="list experiments and substrates")
    list_parser.add_argument("--json", action="store_true")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("ids", nargs="+", help="experiment ids (or 'all')")
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument(
        "--substrate", default=None, help="registered substrate override"
    )
    run_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="config field override (repeatable)",
    )
    run_parser.add_argument("--json", action="store_true")
    run_parser.add_argument("--out", default=None, metavar="DIR")
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="run one experiment over a substrate x seed grid"
    )
    sweep_parser.add_argument("id", help="experiment id")
    sweep_parser.add_argument(
        "--substrates", default=None, help="comma-separated substrate names"
    )
    sweep_parser.add_argument(
        "--seeds", default=None, help="comma-separated integer seeds"
    )
    sweep_parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="config override"
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="process count (1 = serial; results identical either way)",
    )
    sweep_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="write a structured run store (manifest.json + results.jsonl)",
    )
    sweep_parser.add_argument("--json", action="store_true")
    sweep_parser.add_argument("--out", default=None, metavar="DIR")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    report_parser = sub.add_parser(
        "report", help="summarise a run store written by sweep --store"
    )
    report_parser.add_argument("store", help="run store directory")
    report_parser.add_argument("--json", action="store_true")
    report_parser.set_defaults(handler=_cmd_report)

    scenarios_parser = sub.add_parser(
        "scenarios",
        help="list/run/report the named scenario library "
        "(declarative worlds swept over substrates x seeds)",
    )
    scenarios_sub = scenarios_parser.add_subparsers(dest="scenarios_command")

    scn_list = scenarios_sub.add_parser(
        "list", help="list the stock scenario library"
    )
    scn_list.add_argument("--tag", default=None, help="filter by tag")
    scn_list.add_argument("--json", action="store_true")
    scn_list.set_defaults(handler=_cmd_scenarios_list)

    scn_run = scenarios_sub.add_parser(
        "run", help="sweep scenarios over substrates x seeds"
    )
    scn_run.add_argument(
        "names", nargs="+", help="scenario names (or 'all')"
    )
    scn_run.add_argument(
        "--substrates", default=None, help="comma-separated substrate names"
    )
    scn_run.add_argument(
        "--seeds", default=None, help="comma-separated integer seeds"
    )
    scn_run.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="dotted spec override, e.g. trajectory.n_steps=8 (repeatable)",
    )
    scn_run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="process count (1 = serial; results identical either way)",
    )
    scn_run.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="write a structured run store (manifest.json + results.jsonl)",
    )
    scn_run.add_argument(
        "--tiny",
        action="store_true",
        help="cap every spec to a smoke-test budget before overrides",
    )
    scn_run.add_argument("--json", action="store_true")
    scn_run.set_defaults(handler=_cmd_scenarios_run)

    scn_report = scenarios_sub.add_parser(
        "report", help="summarise a scenario run store"
    )
    scn_report.add_argument("store", help="run store directory")
    scn_report.add_argument("--json", action="store_true")
    scn_report.set_defaults(handler=_cmd_scenarios_report)

    lint_parser = sub.add_parser(
        "lint",
        help="AST determinism linter (rules DET001-DET008): exit 1 on "
        "any finding not grandfathered by lint_baseline.json, or on "
        "stale baseline entries",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files/directories to lint (default: {' '.join(_LINT_DEFAULT_PATHS)})",
    )
    lint_parser.add_argument(
        "--baseline",
        default="lint_baseline.json",
        metavar="PATH",
        help="committed baseline of grandfathered findings",
    )
    lint_parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    lint_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run's findings (the gate "
        "ratchet: run it after fixing violations so stale entries drop)",
    )
    lint_parser.add_argument(
        "--rules",
        action="store_true",
        help="print the rule table (codes, rationales) and exit",
    )
    lint_parser.add_argument("--json", action="store_true")
    lint_parser.set_defaults(handler=_cmd_lint)

    bench_parser = sub.add_parser(
        "bench",
        help="time the quick experiment configs, the batched-session path "
        "(BENCH_runtime.json), the engine loop-vs-fast paths "
        "(BENCH_engine.json) and, with --suite serve, the coalescing "
        "service (BENCH_serve.json)",
    )
    bench_parser.add_argument(
        "--suite",
        choices=("core", "serve", "all"),
        default="core",
        help="core = experiment/engine benches (the historical default); "
        "serve = request-serving throughput (exit 1 if coalescing is "
        "not faster than sequential serving); all = both",
    )
    bench_parser.add_argument(
        "--ids",
        nargs="+",
        default=None,
        metavar="ID",
        help=f"experiments to time (default: {' '.join(_BENCH_CONFIGS)})",
    )
    bench_parser.add_argument("--repeats", type=int, default=3, metavar="N")
    bench_parser.add_argument(
        "--out", default="BENCH_runtime.json", metavar="PATH"
    )
    bench_parser.add_argument(
        "--engine-out",
        default="BENCH_engine.json",
        metavar="PATH",
        help="engine/macro loop-vs-fast timing output "
        "(exit 1 if the fast path is slower at the reference config)",
    )
    bench_parser.add_argument(
        "--serve-out",
        default="BENCH_serve.json",
        metavar="PATH",
        help="serving-throughput output for --suite serve/all "
        "(exit 1 if coalescing is not faster than sequential serving, "
        "or if sharded serving is not faster than coalesced)",
    )
    bench_parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: compare the fresh speedup ratios against "
        "the committed baselines (read before the fresh files are "
        "written) and exit 1 on a regression beyond --tolerance",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        metavar="FRAC",
        help="allowed fractional throughput regression for --check "
        "(default 0.30 = 30%%)",
    )
    bench_parser.add_argument(
        "--baseline-engine",
        default="BENCH_engine.json",
        metavar="PATH",
        help="committed engine baseline compared by --check",
    )
    bench_parser.add_argument(
        "--baseline-serve",
        default="BENCH_serve.json",
        metavar="PATH",
        help="committed serving baseline compared by --check",
    )
    bench_parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the committed baselines (--baseline-engine / "
        "--baseline-serve paths) from this run in one step instead of "
        "comparing against them; refused if the run fails its internal "
        "gates.  Without it, --check still exits 2 on a missing baseline",
    )
    bench_parser.set_defaults(handler=_cmd_bench)

    serve_parser = sub.add_parser(
        "serve",
        help="serve MC-Dropout inference over HTTP "
        "(/infer, /healthz, /stats) with dynamic micro-batching",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8000)
    serve_parser.add_argument(
        "--substrates",
        default=None,
        metavar="CSV",
        help="comma-separated substrate names (default: all registered)",
    )
    serve_parser.add_argument(
        "--n-iterations", type=int, default=16, metavar="T",
        help="MC-Dropout depth of every served session",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=8, metavar="N",
        help="largest micro-batch coalesced per dispatch (1 disables)",
    )
    serve_parser.add_argument(
        "--max-wait-ms", type=float, default=5.0, metavar="MS",
        help="upper bound on how long an admitted request waits for "
        "batch company (an idle server dispatches at once)",
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="bounded admission: beyond this, /infer rejects with 503",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker shard processes; 0 (default) serves on one "
        "in-process shard that runs one op at a time, N >= 1 fans "
        "micro-batches out over N spawned shards, each with its own "
        "calibrated session pools (same bits, more cores)",
    )
    serve_parser.add_argument(
        "--model-seed", type=int, default=0, metavar="N",
        help="seed of the built-in demo model being served",
    )
    serve_parser.add_argument(
        "--session-seed", type=int, default=0, metavar="N",
        help="hardware-instantiation seed (part of the parity contract)",
    )
    serve_parser.add_argument(
        "--tracks", action="store_true",
        help="also serve stateful streaming localization tracks over the "
        "built-in demo world (POST /track/open, /track/step, "
        "/track/close)",
    )
    serve_parser.add_argument(
        "--max-tracks", type=int, default=1024, metavar="N",
        help="bounded track admission: beyond this many live tracks, "
        "/track/open rejects with a retryable 503",
    )
    serve_parser.add_argument(
        "--track-ttl-s", type=float, default=600.0, metavar="S",
        help="idle tracks are evicted after this long without a step "
        "(the next step gets a clear 410, never a hang)",
    )
    serve_parser.add_argument(
        "--track-substrates", default=None, metavar="CSV",
        help="substrates to warm track prototypes for "
        "(default: the served --substrates)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_parser.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 0
    try:
        return args.handler(args)
    except (KeyError, ValueError, FileNotFoundError, FileExistsError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
