#!/usr/bin/env bash
# Serving benchmark gate: `repro bench --suite serve` exits 1 when
# coalesced serving is not faster than sequential per-request serving,
# when sharded serving (workers>=2) is not faster than single-process
# coalesced serving, when any served response diverges from the
# pinned-mask reference (values or energy/ops metering), or when a
# streamed track diverges from its one-shot oracle.  With BENCH_CHECK=1
# it also gates the speedup ratios against BENCH_serve.json -- the
# --serve-out path, read as the baseline before the run (>30% regression
# or a missing ratio fails; BENCH_TOLERANCE overrides).  A failing run
# leaves the file as it was.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

EXTRA=()
if [ "${BENCH_CHECK:-0}" = "1" ]; then
  EXTRA+=(--check --tolerance "${BENCH_TOLERANCE:-0.30}")
fi
python -m repro bench --suite serve --repeats "${BENCH_REPEATS:-3}" \
  --serve-out BENCH_serve.json \
  "${EXTRA[@]+"${EXTRA[@]}"}"
