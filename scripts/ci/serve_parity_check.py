"""HTTP bit-parity check against a running `repro serve` instance.

POSTs one /infer per registered substrate and asserts every response is
bit-for-bit equal to a direct pinned-mask session run with the same
seed (values AND energy/ops metering, every field
``repro.serve.result_mismatches`` compares).  Used by scripts/ci/smoke_serve.sh;
works identically against single-process and sharded (--workers N)
servers, because the determinism contract does not depend on the
deployment shape.

Every POST goes over one persistent HTTP/1.1 connection, and a POST to
an unknown path with a body is sent mid-stream: the server must answer
it 404 with ``Connection: close`` (its body was never read), and the
requests after it must still be answered exactly over one reused
connection.

Then bursts of :data:`BURST` concurrent ``cim-ordered`` requests, each
with its own seed and connection, check the served MC-Dropout wave:
every response must be bit-exact, and at least one response over at
most :data:`MAX_BURSTS` bursts must report ``batch_size > 1`` (it rode
in a wave with other requests).

Environment:
    SERVE_URL      base URL (default http://127.0.0.1:8731)
    N_ITERATIONS   MC depth the server was started with (default 8)
    WORKERS        shard count the server was started with (default 0);
                   when > 0 the /stats shard rows are also asserted.
"""

import http.client
import json
import os
import threading
import urllib.parse
import urllib.request

from repro.api import available_substrates
from repro.serve import (
    InferenceRequest,
    InferenceResponse,
    build_reference_session,
    reference_run,
    result_mismatches,
)
from repro.serve.demo import demo_inputs, demo_model

BURST = 8
MAX_BURSTS = 3


def post(
    conn: http.client.HTTPConnection, path: str, body: bytes
) -> http.client.HTTPResponse:
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    return conn.getresponse()


def burst(url: urllib.parse.SplitResult, seeds: list[int]) -> list:
    """POST one ``cim-ordered`` /infer per seed, all at once, one
    connection each; the decoded responses in seed order."""
    ready = threading.Barrier(len(seeds))
    responses: list = [None] * len(seeds)

    def client(index: int) -> None:
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=120)
        request = InferenceRequest(
            demo_inputs(seeds[index]), substrate="cim-ordered", seed=seeds[index]
        )
        ready.wait()
        reply = post(conn, "/infer", request.to_json().encode())
        raw = reply.read().decode()
        conn.close()
        assert reply.status == 200, raw
        responses[index] = InferenceResponse.from_json(raw)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(seeds))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(response is not None for response in responses), "a client failed"
    return responses


def check_waves(url: urllib.parse.SplitResult, n_iterations: int) -> None:
    session = build_reference_session(
        "cim-ordered", demo_model(), n_iterations=n_iterations
    )
    widest = 0
    for round_index in range(MAX_BURSTS):
        seeds = [100 + round_index * BURST + i for i in range(BURST)]
        for seed, response in zip(seeds, burst(url, seeds)):
            mismatches = result_mismatches(
                response.result, reference_run(session, demo_inputs(seed), seed)
            )
            assert not mismatches, f"seed {seed}: {mismatches} differ"
            widest = max(widest, response.batch_size)
        if widest > 1:
            break
    assert widest > 1, (
        f"{MAX_BURSTS} bursts of {BURST} concurrent requests never shared "
        "a micro-batch"
    )
    print(f"wave ok (bit-exact bursts, widest batch {widest})")


def main() -> None:
    base_url = os.environ.get("SERVE_URL", "http://127.0.0.1:8731")
    n_iterations = int(os.environ.get("N_ITERATIONS", "8"))
    workers = int(os.environ.get("WORKERS", "0"))

    url = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=120)
    sockets = []
    model, x = demo_model(), demo_inputs()
    for index, substrate in enumerate(available_substrates()):
        if index == 1:
            rejected = post(conn, "/nope", b'{"inputs": [[0.0]]}')
            rejected.read()
            assert rejected.status == 404, rejected.status
            assert rejected.getheader("Connection") == "close", (
                "a reply that leaves the body unread must close"
            )
        request = InferenceRequest(x, substrate=substrate, seed=3)
        reply = post(conn, "/infer", request.to_json().encode())
        raw = reply.read().decode()
        assert reply.status == 200, raw
        sockets.append(conn.sock)
        response = InferenceResponse.from_json(raw)
        session = build_reference_session(
            substrate, model, n_iterations=n_iterations
        )
        mismatches = result_mismatches(
            response.result, reference_run(session, x, 3)
        )
        assert not mismatches, f"{substrate}: {mismatches} differ"
        print(
            f"{substrate}: bit-parity ok "
            f"(energy_j={response.result.energy_j:.3e})"
        )

    conn.close()
    assert sockets[0] is not sockets[1], "the 404 must end its connection"
    assert all(sock is sockets[1] for sock in sockets[1:]), (
        "requests after the 404 must reuse one persistent connection"
    )
    print(f"keep-alive ok ({len(sockets) - 1} requests on one connection)")

    stats = json.loads(urllib.request.urlopen(f"{base_url}/stats").read())
    assert stats["completed"] == len(available_substrates()), stats
    if workers > 0:
        shards = stats["shards"]
        assert shards["workers"] == workers, shards
        assert len(shards["shards"]) == workers, shards
        assert all(row["alive"] for row in shards["shards"]), shards
        print(f"shard stats ok ({workers} worker(s))")

    check_waves(url, n_iterations)


if __name__ == "__main__":
    main()
