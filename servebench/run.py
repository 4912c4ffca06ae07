"""One benchmark of the served system: ``python3 servebench/run.py``.

Usage (from the repository root)::

    python3 servebench/run.py --workload tracks-fleet --seed 0 --seconds 10 --trace 0

Workloads (see each module's docstring for set-up, load and why):

- ``tracks-fleet`` (:mod:`servebench.tracks_fleet`): 128 concurrent
  long-lived tracks on an in-process service -- the localization path.
- ``infer-ordered`` (:mod:`servebench.infer_ordered`): 16 closed-loop
  ``/infer`` clients on ``cim-ordered``, a distinct seed per request --
  the MC-Dropout path.
- ``http-mixed`` (:mod:`servebench.http_mixed`): ``repro serve --workers
  2 --tracks`` as a child process, 2 HTTP clients cycling track
  open/step/infer/close -- the shipped deployment.

Each run sets the stack up (several times, for a median ``setup_s``),
drives it from this process with inputs generated from ``--seed``,
checks sampled outputs bit-for-bit against the repo's oracles, prints a
table of every metric with its unit and sample count, and ends with one
JSON line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (:data:`~servebench.common.
END_TO_END`); ``--trace 1`` splits the window into an untraced and a
traced half and reports the per-layer metrics (:data:`~servebench.
layers.PER_LAYER`).  Spans and server logs go to ``servebench/.out/``.
The exit code is 0 only for a correct run; a checkout without
``src/repro`` exits 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tracks-fleet", "infer-ordered", "http-mixed")


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"servebench: no repro sources under {src}; run from a full "
            "checkout of the repository"
        )
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(
            f"servebench: imported repro from {repro.__file__}, not {src}"
        )


def _declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """The metric list this mode reports, checked against BENCHMARK.json."""
    from servebench.common import END_TO_END
    from servebench.layers import PER_LAYER

    declared = END_TO_END if not trace else PER_LAYER
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = [
        (entry["name"], entry["unit"])
        for entry in spec["per_layer" if trace else "end_to_end"]
    ]
    if listed != list(declared):
        raise SystemExit(
            "servebench: BENCHMARK.json metric list differs from the code's"
        )
    return list(declared)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _use_checkout_sources()
    declared = _declared_metrics(bool(args.trace))
    if args.workload == "tracks-fleet":
        from servebench.tracks_fleet import run
    elif args.workload == "infer-ordered":
        from servebench.infer_ordered import run
    else:
        from servebench.http_mixed import run

    result = run(args.seed, args.seconds, bool(args.trace), ROOT)
    result.report.print_table()
    for error in result.errors[:20]:
        print(f"  failed op: {error}")
    for problem in result.problems:
        print(f"INCORRECT [{args.workload}]: {problem}", file=sys.stderr)
    metrics = {
        name: {"value": result.report.metrics[name].value, "unit": unit}
        for name, unit in declared
    }
    correct = not result.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            },
            allow_nan=False,
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
