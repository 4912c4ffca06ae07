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

Environment:
    SERVE_URL      base URL (default http://127.0.0.1:8731)
    N_ITERATIONS   MC depth the server was started with (default 8)
    WORKERS        shard count the server was started with (default 0);
                   when > 0 the /stats shard rows are also asserted.
"""

import http.client
import json
import os
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


def post(
    conn: http.client.HTTPConnection, path: str, body: bytes
) -> http.client.HTTPResponse:
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    return conn.getresponse()


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


if __name__ == "__main__":
    main()
