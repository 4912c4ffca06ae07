"""Live-HTTP streaming-track check against a running `repro serve --tracks`.

Opens a track, feeds it the demo measurement sequence one step at a
time, closes it, and asserts the streamed responses are bit-for-bit
equal to a one-shot ``LocalizationSession.run()`` over the same sequence
(estimates, step indices AND cumulative energy/ops metering, as
``repro.serve.stream_mismatches`` compares them) -- the stream
determinism contract.  Used by scripts/ci/smoke_serve.sh; works
identically against single-process and sharded (--workers N) servers.

Every POST goes over one persistent HTTP/1.1 connection, with a POST to
an unknown path (body left unread, so the server closes) between two
steps: the stream must carry on exactly, on one reused connection
before and one after.

Then a burst: several tracks, each at its own orbit phase and on its
own connection, step concurrently, so the server coalesces steps of
different tracks into one wave.  One burst track also sends an all-zero
depth frame (no valid pixel) between two valid steps: that POST must
answer 400 (a client fault), and since the check draws nothing, the track's valid steps must
still match its one-shot run over its valid frames.  Every track's
stream must match its own one-shot run, and ``/stats`` must show a step
batch of at least two (a server-side wave really ran).

Environment:
    SERVE_URL   base URL (default http://127.0.0.1:8731)
    N_STEPS     measurement steps to stream (default 3)
"""

import http.client
import json
import os
import threading
import urllib.parse
import urllib.request

import numpy as np

from repro.api.results import strict_dumps, strict_loads
from repro.serve import (
    TrackInit,
    TrackStepResponse,
    reference_track_run,
    stream_mismatches,
)
from repro.serve.demo import demo_track_measurements, demo_track_world


def send(
    conn: http.client.HTTPConnection, path: str, payload: dict
) -> tuple[int, dict]:
    conn.request(
        "POST",
        path,
        body=strict_dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    reply = conn.getresponse()
    return reply.status, strict_loads(reply.read().decode())


def post(conn: http.client.HTTPConnection, path: str, payload: dict) -> dict:
    status, body = send(conn, path, payload)
    assert status == 200, body
    return body


BURST_TRACKS = 8
# The burst track that sends an all-zero depth frame (no valid pixel)
# before its second valid step.
BAD_FRAME_TRACK = BURST_TRACKS // 2


def burst(base_url: str, world, n_steps: int) -> int:
    """Step :data:`BURST_TRACKS` tracks at distinct orbit phases
    concurrently, one connection each, in lockstep rounds; assert each
    stream's parity.  Returns the largest step batch ``/stats`` saw."""
    url = urllib.parse.urlsplit(base_url)
    controls, depths, truths = demo_track_measurements(
        n_steps=n_steps + BURST_TRACKS
    )
    rounds = threading.Barrier(BURST_TRACKS, timeout=120)
    streams: list = [None] * BURST_TRACKS
    errors: list = []

    def run(k: int) -> None:
        # Track k joins the orbit at frame k and holds station first.
        steps = slice(k, k + n_steps)
        sequence = (np.vstack([np.zeros(4), controls[steps][1:]]),
                    depths[steps], truths[steps])
        init = TrackInit(
            mode="tracking",
            state=truths[k],
            sigma=np.full(truths.shape[1], 0.05),
            z_range=None,
        )
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=120)
        try:
            track_id = post(
                conn,
                "/track/open",
                {"init": init.to_dict(), "substrate": "cim", "seed": 100 + k},
            )["track_id"]
            responses = []
            for index, (control, depth, truth) in enumerate(zip(*sequence)):
                rounds.wait()
                if k == BAD_FRAME_TRACK and index == 1:
                    status, body = send(
                        conn,
                        "/track/step",
                        {
                            "track_id": track_id,
                            "control": control.tolist(),
                            "depth": np.zeros_like(depth).tolist(),
                            "truth": truth.tolist(),
                        },
                    )
                    assert status == 400, (status, body)
                    assert "no valid pixels" in body["error"], body
                payload = post(
                    conn,
                    "/track/step",
                    {
                        "track_id": track_id,
                        "control": control.tolist(),
                        "depth": depth.tolist(),
                        "truth": truth.tolist(),
                    },
                )
                responses.append(TrackStepResponse.from_dict(payload))
            post(conn, "/track/close", {"track_id": track_id})
            streams[k] = (init, sequence, responses)
        except Exception as error:
            errors.append(f"track {k}: {error!r}")
            rounds.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(BURST_TRACKS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive(), "a burst track hung"
    assert not errors, errors
    for k, (init, sequence, responses) in enumerate(streams):
        reference = reference_track_run(world, "cim", init, 100 + k, sequence)
        mismatches = stream_mismatches(responses, reference)
        assert not mismatches, f"burst track {k}: {mismatches} differ"
    stats = json.loads(urllib.request.urlopen(f"{base_url}/stats").read())
    return int(stats["tracks"]["max_step_batch"])


def main() -> None:
    base_url = os.environ.get("SERVE_URL", "http://127.0.0.1:8731")
    n_steps = int(os.environ.get("N_STEPS", "3"))
    assert n_steps >= 2, "N_STEPS must be >= 2 (a 404 goes between steps)"
    url = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=120)
    sockets = []

    world = demo_track_world()
    controls, depths, truths = demo_track_measurements(n_steps=n_steps)
    init = TrackInit(
        mode="tracking",
        state=truths[0],
        sigma=np.full(truths.shape[1], 0.05),
        z_range=None,
    )

    opened = post(
        conn,
        "/track/open",
        {"init": init.to_dict(), "substrate": "cim", "seed": 21},
    )
    track_id = opened["track_id"]
    responses = []
    for index, (control, depth, truth) in enumerate(
        zip(controls, depths, truths)
    ):
        if index == 1:
            conn.request("POST", "/nope", body=b'{"track_id": "x"}')
            rejected = conn.getresponse()
            rejected.read()
            assert rejected.status == 404, rejected.status
            assert rejected.getheader("Connection") == "close"
        payload = post(
            conn,
            "/track/step",
            {
                "track_id": track_id,
                "control": control.tolist(),
                "depth": depth.tolist(),
                "truth": truth.tolist(),
            },
        )
        responses.append(TrackStepResponse.from_dict(payload))
        sockets.append(conn.sock)
    closed = post(conn, "/track/close", {"track_id": track_id})
    sockets.append(conn.sock)
    conn.close()
    assert sockets[0] is not sockets[1], "the 404 must end its connection"
    assert all(sock is sockets[1] for sock in sockets[1:]), (
        "steps after the 404 must reuse one persistent connection"
    )
    assert closed["closed"] is True, closed
    assert closed["steps"] == n_steps, closed

    reference = reference_track_run(
        world, "cim", init, 21, (controls, depths, truths)
    )
    mismatches = stream_mismatches(responses, reference)
    assert not mismatches, f"{mismatches} differ from reference_track_run"
    assert not any(r.state_lost for r in responses)
    final = responses[-1]

    stats = json.loads(urllib.request.urlopen(f"{base_url}/stats").read())
    assert stats["tracks"]["opened"] >= 1, stats
    assert stats["tracks"]["steps"] >= n_steps, stats
    print(
        f"track stream: bit-parity ok over {n_steps} live-HTTP steps "
        f"(energy_j={final.energy_j:.3e}, ops={final.ops_executed})"
    )

    max_batch = burst(base_url, world, n_steps)
    assert max_batch >= 2, f"no step batch of two or more ran (max {max_batch})"
    print(
        f"track burst: bit-parity ok for {BURST_TRACKS} concurrent tracks "
        f"at distinct phases, one bad frame refused (max step batch {max_batch})"
    )


if __name__ == "__main__":
    main()
