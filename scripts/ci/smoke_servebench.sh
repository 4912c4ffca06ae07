#!/usr/bin/env bash
# Benchmark-harness smoke: run every servebench workload briefly with
# the span tracer on.  Each run must exit 0 and end with a JSON line
# holding `"correct": true` and `"failed": 0`, so a renamed tracer
# target (the tracer raises at install when one is missing), a broken
# oracle or a failing operation fails CI instead of surfacing only in a
# hand-run benchmark.
set -euo pipefail
cd "$(dirname "$0")/../.."

for workload in tracks-fleet infer-ordered http-mixed; do
  log="$(mktemp)"
  if ! python3 servebench/run.py --workload "$workload" --seed 1 \
      --seconds 3 --trace 1 > "$log" 2>&1; then
    cat "$log" >&2
    echo "error: servebench $workload exited non-zero" >&2
    exit 1
  fi
  if ! tail -n 1 "$log" | grep -q '"correct": true'; then
    cat "$log" >&2
    echo "error: servebench $workload did not report a correct run" >&2
    exit 1
  fi
  if ! tail -n 1 "$log" | grep -q '"failed": 0[,}]'; then
    cat "$log" >&2
    echo "error: servebench $workload reported failed operations" >&2
    exit 1
  fi
  rm -f "$log"
  echo "servebench $workload: ok"
done
echo "servebench smoke: ok"
