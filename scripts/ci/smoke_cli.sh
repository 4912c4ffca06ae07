#!/usr/bin/env bash
# CLI smoke: list + run paths that every PR must keep working, plus the
# two fast examples (quickstart ~4 s, rng_calibration ~1 s). The other
# examples take 15-27 s each and are run by hand.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

python -m repro list
# The serve parent's import loads no scipy (tests/test_import_guard.py).
python -c 'import sys, repro.api.cli; bad = [m for m in sys.modules if m.split(".")[0] == "scipy"]; sys.exit(f"cli smoke: import repro.api.cli loaded {bad}" if bad else 0)'
# Every driver module registers on import: the paper experiments and SCN.
ids=$(python -m repro list --json | python -c \
  'import json, sys; print(" ".join(e["id"] for e in json.load(sys.stdin)["experiments"]))')
if [ "$ids" != "E1 E3 E4 E5 E6 E7 E8 E9 E10 E11 SCN" ]; then
  echo "cli smoke: repro list --json lists: $ids" >&2
  exit 1
fi
python -m repro run E1 --json --seed 0 > /dev/null
python -m repro run E9 --json \
  --set n_inputs=32 --set n_outputs=16 \
  --set n_iterations=8 --set n_trials=1 > /dev/null
# A misspelt --set field is a friendly exit-2 error naming the field.
status=0
err=$(python -m repro run E9 --set n_trails=1 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 2 ] || ! grep -q "did you mean 'n_trials'" <<<"$err"; then
  echo "cli smoke: --set n_trails=1 exited $status: $err" >&2
  exit 1
fi
python examples/quickstart.py > /dev/null
python examples/rng_calibration.py > /dev/null
echo "cli smoke: ok"
