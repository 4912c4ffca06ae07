#!/usr/bin/env bash
# Serving smoke: start the HTTP service on the demo model with streaming
# tracks enabled, assert that a malformed track init is a 400,
# per-substrate HTTP bit-parity
# (scripts/ci/serve_parity_check.py) and live-HTTP streaming-track
# bit-parity vs a one-shot run, for one stream and for a concurrent
# burst of tracks that the server steps as waves
# (scripts/ci/track_stream_check.py), then
# shut down with live tracks open and verify the server exits cleanly
# (SIGTERM path must also stop any worker shards -- no orphaned
# children, even mid-stream).
#
# Environment:
#   WORKERS=N      shard count (default 0 = single-process)
#   SERVE_PORT=P   port (default 8731)
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

WORKERS="${WORKERS:-0}"
SERVE_PORT="${SERVE_PORT:-8731}"

python -m repro serve --port "$SERVE_PORT" --n-iterations 8 \
  --workers "$WORKERS" --tracks --track-substrates cim \
  > /tmp/serve.log 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 120); do
  curl -sf "http://127.0.0.1:${SERVE_PORT}/healthz" > /dev/null && break
  sleep 0.5
done
curl -sf "http://127.0.0.1:${SERVE_PORT}/healthz" > /dev/null

# Keep-alive with a client that is not Python: one curl call fetches
# both URLs, and must reuse one connection for them (connect counts sum
# to 1).
CONNECTS=$(curl -sf -o /dev/null -o /dev/null -w '%{num_connects}\n' \
  "http://127.0.0.1:${SERVE_PORT}/healthz" \
  "http://127.0.0.1:${SERVE_PORT}/stats" | awk '{ n += $1 } END { print n }')
if [ "$CONNECTS" != "1" ]; then
  echo "error: curl made $CONNECTS connections for two requests" \
    "(keep-alive wants 1)" >&2
  exit 1
fi

# A malformed track init (3-element state) is refused at admission with
# a 400, and the server keeps answering.
STATUS=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Content-Type: application/json' \
  -d '{"init": {"mode": "tracking", "state": [0, 0, 1], "sigma": [0.1, 0.1, 0.1, 0.1]}, "substrate": "cim"}' \
  "http://127.0.0.1:${SERVE_PORT}/track/open")
if [ "$STATUS" != "400" ]; then
  echo "error: malformed /track/open answered $STATUS (want 400)" >&2
  exit 1
fi
curl -sf "http://127.0.0.1:${SERVE_PORT}/healthz" > /dev/null

# A /track/close without a string track id is a 400 too, not a lookup
# of a track named "None".
STATUS=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'Content-Type: application/json' \
  -d '{"track_id": null}' \
  "http://127.0.0.1:${SERVE_PORT}/track/close")
if [ "$STATUS" != "400" ]; then
  echo "error: malformed /track/close answered $STATUS (want 400)" >&2
  exit 1
fi
curl -sf "http://127.0.0.1:${SERVE_PORT}/healthz" > /dev/null

SERVE_URL="http://127.0.0.1:${SERVE_PORT}" N_ITERATIONS=8 WORKERS="$WORKERS" \
  python scripts/ci/serve_parity_check.py

SERVE_URL="http://127.0.0.1:${SERVE_PORT}" \
  python scripts/ci/track_stream_check.py

# Leave a live (un-closed) track behind, then SIGTERM: shutdown must not
# hang on open streams or orphan worker shards.
python - <<PY
import json, urllib.request
import numpy as np
import sys
sys.path.insert(0, "src")
from repro.api.results import strict_dumps
from repro.serve import TrackInit
from repro.serve.demo import demo_track_measurements

controls, depths, truths = demo_track_measurements(n_steps=1)
init = TrackInit(mode="tracking", state=truths[0],
                 sigma=np.full(truths.shape[1], 0.05), z_range=None)
req = urllib.request.Request(
    "http://127.0.0.1:${SERVE_PORT}/track/open",
    data=strict_dumps({"init": init.to_dict(), "substrate": "cim",
                       "seed": 5}).encode(),
    headers={"Content-Type": "application/json"})
opened = json.loads(urllib.request.urlopen(req).read())
assert opened["track_id"], opened
print("left live track", opened["track_id"], "open for the SIGTERM path")
PY

kill "$SERVE_PID"
for _ in $(seq 1 60); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.5
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "error: serve process did not exit after SIGTERM" >&2
  cat /tmp/serve.log >&2
  exit 1
fi
trap - EXIT
echo "serve smoke: ok (workers=$WORKERS, streaming tracks)"
