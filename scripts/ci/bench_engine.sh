#!/usr/bin/env bash
# Engine benchmark gate: `repro bench` exits 1 when the engine fast path
# differs from the loop or times slower than it at the reference config.
# With BENCH_CHECK=1 it also compares the fresh speedup ratios against
# BENCH_engine.json -- the --engine-out path, read as the baseline
# before the run -- and fails on a >30% regression (BENCH_TOLERANCE
# overrides) or a missing ratio.  A failing run leaves the file as it was.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

EXTRA=()
if [ "${BENCH_CHECK:-0}" = "1" ]; then
  EXTRA+=(--check --tolerance "${BENCH_TOLERANCE:-0.30}")
fi
python -m repro bench --ids E1 --repeats "${BENCH_REPEATS:-3}" \
  --out /tmp/BENCH_runtime.json --engine-out BENCH_engine.json \
  "${EXTRA[@]+"${EXTRA[@]}"}"
