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
                          [--repeats N] [--out PATH] [--engine-out PATH]
                          [--serve-out PATH] [--check] [--tolerance FRAC]
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
exit-2 errors for unknown names/paths; ``bench`` runs the
:mod:`repro.bench` suites (``BENCH_runtime.json``, ``BENCH_engine.json``,
``BENCH_serve.json``) and exits 1 when a parity or speedup gate fails,
or with ``--check`` when a ratio regressed past ``--tolerance`` against
the suite's file; a failing suite leaves its file untouched.
``serve`` stands up the :mod:`repro.serve` HTTP service on the built-in
demo model; ``--workers N`` shards execution over N spawned worker
processes with the same bit-for-bit response contract.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api.registry import (
    get_experiment,
    list_experiments,
    run_experiment,
    save_results,
)
from repro.api.results import ExperimentResult, emit_json
from repro.api.substrates import available_substrates
from repro.bench import EXPERIMENT_CONFIGS, SUITES, run_bench
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
        emit_json(payload)
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
        emit_json(payload[0] if len(specs) == 1 and payload else payload)
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
        emit_json([record.to_jsonable() for record in report.records])
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
        emit_json(payload)
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
        emit_json(
            {
                "scenarios": [spec.to_jsonable() for spec in specs],
                "version": __version__,
            }
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
        emit_json([record.to_jsonable() for record in report.records])
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
        emit_json(
            {"summary": store.summary(), "scenarios": summarize_rows(rows)}
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
            emit_json(payload)
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
        emit_json(payload)
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
        help="perf baselines with parity and speedup gates "
        "(BENCH_runtime.json, BENCH_engine.json, BENCH_serve.json)",
    )
    bench_parser.add_argument(
        "--suite",
        choices=("core", "serve", "all"),
        default="core",
        help="core = the runtime and engine suites (default); serve = "
        "request serving and live tracks; all = every suite",
    )
    bench_parser.add_argument(
        "--ids",
        nargs="+",
        default=None,
        metavar="ID",
        help=f"experiments to time (default: {' '.join(EXPERIMENT_CONFIGS)})",
    )
    bench_parser.add_argument("--repeats", type=int, default=3, metavar="N")
    for suite in SUITES:
        bench_parser.add_argument(
            "--" + suite.out.replace("_", "-"),
            default=suite.path,
            metavar="PATH",
            help=f"{suite.name} suite output"
            + (", and its --check baseline" if any(suite.ratios()) else ""),
        )
    bench_parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: exit 1 if a speedup ratio fell more than "
        "--tolerance below the suite's output file, read before the run",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        metavar="FRAC",
        help="allowed fractional throughput regression for --check "
        "(default 0.30 = 30%%)",
    )
    bench_parser.set_defaults(handler=run_bench)

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
