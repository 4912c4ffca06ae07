"""repro.serve: request-level service, micro-batching, parity, HTTP."""

import asyncio
import copy
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import available_substrates
from repro.api.results import (
    InferenceResult,
    restore_nonfinite,
    sanitize_nonfinite,
    strict_dumps,
    strict_loads,
)
from repro.runtime import BatchPolicy, QueuePolicy
from repro.serve import (
    InferenceRequest,
    InferenceResponse,
    InferenceService,
    ServiceOverloaded,
    SessionPool,
    build_reference_session,
    reference_run,
    result_mismatches,
)
from repro.serve.demo import demo_inputs, demo_model
from repro.serve.http import (
    IDLE_TIMEOUT_S,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    serve_http,
)

N_ITER = 6


@pytest.fixture(scope="module")
def model():
    return demo_model()

@pytest.fixture(scope="module")
def inputs():
    return demo_inputs()


def make_service(model, substrates, **kwargs):
    kwargs.setdefault("n_iterations", N_ITER)
    return InferenceService(model, substrates=substrates, **kwargs)


def reference_session(substrate):
    """The parity oracle for ``substrate`` on a ``make_service`` service."""
    return build_reference_session(substrate, demo_model(), n_iterations=N_ITER)


def serve_all(service, requests):
    """Start ``service``, serve ``requests`` concurrently, stop it."""

    async def drive():
        async with service:
            return await asyncio.gather(*map(service.submit, requests))

    return asyncio.run(drive())


class TestResultMismatches:
    """The per-request comparator names every field that differs."""

    @staticmethod
    def result(**fields):
        base = dict(
            substrate="cim",
            workload="mc-dropout",
            mean=np.zeros((2, 3)),
            variance=np.ones((2, 3)),
            samples=np.zeros((4, 2, 3)),
            ops_executed=10,
            ops_naive=12,
            energy_j=1e-9,
            energy_breakdown_j={"mac": 1e-9},
        )
        return InferenceResult(**{**base, **fields})

    def test_equal_results_match(self):
        assert result_mismatches(self.result(), self.result()) == []
        no_variance = self.result(variance=None)
        assert result_mismatches(no_variance, no_variance) == []

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean", np.full((2, 3), 1e-300)),
            ("variance", None),
            ("samples", np.ones((4, 2, 3))),
            ("ops_executed", 11),
            ("ops_naive", None),
            ("energy_j", 1.0000000000000002e-9),
            ("energy_breakdown_j", {"mac": 1e-9, "adc": 0.0}),
        ],
    )
    def test_each_field_is_compared(self, field, value):
        actual = self.result(**{field: value})
        assert result_mismatches(actual, self.result()) == [field]

    def test_samples_compared_only_when_expected_has_them(self):
        expected = self.result(samples=None)
        assert result_mismatches(self.result(), expected) == []


class TestPolicies:
    def test_batch_policy_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            BatchPolicy(max_wait_ms=-1)
        assert BatchPolicy(max_wait_ms=250.0).max_wait_s == 0.25

    def test_queue_policy_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            QueuePolicy(max_pending=0)


class TestRequestResponseTypes:
    def test_request_round_trip(self, inputs):
        request = InferenceRequest(
            inputs, substrate="cim-reuse", seed=7, request_id="r-1"
        )
        back = InferenceRequest.from_json(request.to_json())
        assert np.array_equal(back.inputs, request.inputs)
        assert back.substrate == "cim-reuse"
        assert back.seed == 7
        assert back.request_id == "r-1"

    def test_request_accepts_plain_lists(self):
        request = InferenceRequest.from_dict(
            {"inputs": [[1.0, 2.0], [3.0, 4.0]], "seed": 3}
        )
        assert request.inputs.shape == (2, 2)
        assert request.seed == 3

    def test_request_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request field"):
            InferenceRequest.from_dict({"inputs": [[1.0]], "bogus": 1})

    def test_request_requires_inputs(self):
        with pytest.raises(ValueError, match="inputs"):
            InferenceRequest.from_dict({"seed": 1})

    def test_request_promotes_1d_inputs(self):
        assert InferenceRequest([1.0, 2.0]).inputs.shape == (1, 2)

    def test_overloaded_exception_carries_counts(self):
        error = ServiceOverloaded(5, 4)
        assert error.pending == 5 and error.max_pending == 4
        assert "overloaded" in str(error)


class TestStrictEncoding:
    """Wire format: non-finite floats must survive as *valid* JSON."""

    def test_sanitize_restore_round_trip(self):
        tree = {
            "a": float("nan"),
            "b": [float("inf"), float("-inf"), 1.5],
            "c": {"nested": float("nan")},
        }
        sanitized = sanitize_nonfinite(tree)
        text = json.dumps(sanitized, allow_nan=False)  # must not raise
        back = restore_nonfinite(json.loads(text))
        assert np.isnan(back["a"])
        assert back["b"][0] == float("inf")
        assert back["b"][1] == float("-inf")
        assert back["b"][2] == 1.5
        assert np.isnan(back["c"]["nested"])

    def test_strict_dumps_emits_no_bare_nan_tokens(self):
        text = strict_dumps({"x": np.array([np.nan, np.inf, 1.0])})

        def reject(token):
            raise AssertionError(f"bare non-finite token {token!r} on the wire")

        payload = json.loads(text, parse_constant=reject)
        restored = restore_nonfinite(payload)
        values = restored["x"]["__ndarray__"]
        assert np.isnan(values[0]) and np.isinf(values[1])

    def test_strict_loads_restores_arrays_via_from_jsonable(self):
        from repro.api.results import from_jsonable

        array = np.array([[np.nan, 2.0], [np.inf, -np.inf]])
        restored = from_jsonable(strict_loads(strict_dumps(array)))
        assert restored.shape == array.shape
        assert np.array_equal(restored, array, equal_nan=True)

    def test_unknown_nonfinite_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown non-finite tag"):
            restore_nonfinite({"__nonfinite__": "huge"})


class TestSessionPool:
    def test_deepcopy_is_bit_identical(self, inputs):
        """The track-wave oracles copy sessions; a copy must serve the
        same bits as its original."""
        original = reference_session("cim-ordered")
        copied = copy.deepcopy(original)
        first = reference_run(original, inputs, 5)
        second = reference_run(copied, inputs, 5)
        assert not result_mismatches(second, first)

    def test_pool_describes_its_pair(self, model):
        pool = SessionPool("cim", model, n_iterations=N_ITER)
        assert pool.describe() == {
            "substrate": "cim",
            "n_iterations": N_ITER,
            "in_features": model.dense_layers()[0].weight.value.shape[0],
        }

    def test_acquire_returns_the_one_warm_session(self, model):
        pool = SessionPool("cim", model, n_iterations=N_ITER)
        assert pool.acquire() is pool.acquire()

    def test_reference_session_matches_pool_member(self, model, inputs):
        pool = SessionPool("cim-reuse", model, n_iterations=N_ITER)
        member = pool.acquire()
        reference = reference_session("cim-reuse")
        assert not result_mismatches(
            reference_run(member, inputs, 2), reference_run(reference, inputs, 2)
        )


class TestServiceParity:
    """Acceptance: every response == direct pinned-mask run, per substrate."""

    @pytest.fixture(scope="class")
    def service_and_responses(self, model, inputs):
        substrates = available_substrates()
        service = make_service(
            model,
            substrates,
            batch=BatchPolicy(max_batch=4, max_wait_ms=20.0),
        )
        requests = [
            InferenceRequest(inputs, substrate=name, seed=seed)
            for name in substrates
            for seed in (0, 11)
        ]
        responses = serve_all(service, requests)
        return service, requests, responses

    def test_every_substrate_every_seed_bit_for_bit(
        self, service_and_responses
    ):
        service, requests, responses = service_and_responses
        for request, response in zip(requests, responses):
            session = reference_session(request.substrate)
            expected = reference_run(session, request.inputs, request.seed)
            assert response.substrate == request.substrate
            assert response.seed == request.seed
            assert not result_mismatches(response.result, expected)

    def test_responses_arrive_in_request_order(self, service_and_responses):
        _, requests, responses = service_and_responses
        assert [r.substrate for r in responses] == [
            r.substrate for r in requests
        ]
        assert [r.seed for r in responses] == [r.seed for r in requests]

    def test_metering_is_per_request_not_cumulative(self, model, inputs):
        # Two same-substrate requests in one coalesced batch: identical
        # work must report identical (not accumulating) energy/ops.
        service = make_service(
            model, ["cim-reuse"], batch=BatchPolicy(max_batch=2, max_wait_ms=50)
        )
        requests = [
            InferenceRequest(inputs, substrate="cim-reuse", seed=3)
            for _ in range(2)
        ]
        first, second = serve_all(service, requests)
        assert first.batch_size == 2  # actually coalesced
        assert first.result.energy_j == second.result.energy_j
        assert first.result.ops_executed == second.result.ops_executed

    def test_response_json_round_trip(self, service_and_responses):
        _, _, responses = service_and_responses
        response = responses[0]
        back = InferenceResponse.from_json(response.to_json())
        assert back.substrate == response.substrate
        assert back.batch_size == response.batch_size
        assert np.array_equal(back.result.mean, response.result.mean)
        assert back.result.energy_j == response.result.energy_j


class TestBatching:
    def run_async(self, coro):
        return asyncio.run(coro)

    def test_concurrent_same_seed_requests_coalesce(self, model, inputs):
        service = make_service(
            model, ["cim"], batch=BatchPolicy(max_batch=4, max_wait_ms=100)
        )

        async def drive():
            async with service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            InferenceRequest(inputs, substrate="cim", seed=0)
                        )
                        for _ in range(4)
                    )
                )

        responses = self.run_async(drive())
        assert [r.batch_size for r in responses] == [4] * 4
        assert [r.group_size for r in responses] == [4] * 4
        assert service.stats.batches == 1
        assert service.stats.batched_requests == 4

    def test_mixed_seeds_grouped_within_batch(self, model, inputs):
        service = make_service(
            model, ["cim"], batch=BatchPolicy(max_batch=4, max_wait_ms=100)
        )

        async def drive():
            async with service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            InferenceRequest(inputs, substrate="cim", seed=seed)
                        )
                        for seed in (0, 0, 9, 0)
                    )
                )

        responses = self.run_async(drive())
        assert [r.batch_size for r in responses] == [4] * 4
        assert [r.group_size for r in responses] == [3, 3, 1, 3]
        for seed, response in zip((0, 0, 9, 0), responses):
            session = reference_session("cim")
            assert not result_mismatches(
                response.result, reference_run(session, inputs, seed)
            )

    def test_max_batch_one_disables_coalescing(self, model, inputs):
        service = make_service(
            model, ["cim"], batch=BatchPolicy(max_batch=1, max_wait_ms=0)
        )
        responses = serve_all(
            service,
            [InferenceRequest(inputs, substrate="cim") for _ in range(3)],
        )
        assert [r.batch_size for r in responses] == [1, 1, 1]
        assert service.stats.batches == 3

    def test_stats_snapshot_counts(self, model, inputs):
        service = make_service(model, ["cim"])
        serve_all(
            service,
            [InferenceRequest(inputs, substrate="cim") for _ in range(2)],
        )
        snapshot = service.stats_snapshot()
        assert snapshot["received"] == 2
        assert snapshot["completed"] == 2
        assert snapshot["failed"] == 0
        assert snapshot["per_substrate"] == {"cim": 2}
        assert snapshot["pools"]["cim/default"]["substrate"] == "cim"


class TestBackpressure:
    def test_overload_rejected_not_queued(self, model, inputs):
        service = make_service(
            model,
            ["cim"],
            batch=BatchPolicy(max_batch=8, max_wait_ms=300.0),
            queue=QueuePolicy(max_pending=2),
        )

        async def drive():
            async with service:
                request = InferenceRequest(inputs, substrate="cim", seed=0)
                first = asyncio.ensure_future(service.submit(request))
                second = asyncio.ensure_future(service.submit(request))
                await asyncio.sleep(0)  # both admitted, window still open
                with pytest.raises(ServiceOverloaded) as excinfo:
                    await service.submit(request)
                assert excinfo.value.pending == 2
                assert excinfo.value.max_pending == 2
                return await asyncio.gather(first, second)

        responses = drive()
        responses = asyncio.run(responses)
        assert len(responses) == 2
        assert service.stats.rejected == 1
        assert service.stats.completed == 2

    def test_unknown_substrate_rejected_at_submit(self, model, inputs):
        service = make_service(model, ["cim"])

        async def drive():
            async with service:
                with pytest.raises(KeyError, match="unknown substrate"):
                    await service.submit(
                        InferenceRequest(inputs, substrate="tpu")
                    )
                with pytest.raises(KeyError, match="no pool"):
                    await service.submit(
                        InferenceRequest(inputs, substrate="digital")
                    )

        asyncio.run(drive())

    def test_width_mismatch_rejected_at_submit(self, model):
        service = make_service(model, ["cim"])

        async def drive():
            async with service:
                with pytest.raises(ValueError, match="width"):
                    await service.submit(
                        InferenceRequest(np.ones((2, 3)), substrate="cim")
                    )

        asyncio.run(drive())

    def test_submit_requires_started_service(self, model, inputs):
        service = make_service(model, ["cim"])
        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(
                service.submit(InferenceRequest(inputs, substrate="cim"))
            )

    def test_service_reusable_across_start_stop_cycles(self, model, inputs):
        service = make_service(model, ["cim"])
        request = [InferenceRequest(inputs, substrate="cim", seed=4)]
        first = serve_all(service, request)
        second = serve_all(service, request)  # fresh event loop, warm pools
        assert not result_mismatches(second[0].result, first[0].result)

    def test_execution_failure_wrapped_as_execution_error(
        self, model, inputs, monkeypatch
    ):
        from repro.serve import RequestExecutionError

        def boom(session, substrate, model_name, items):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr("repro.serve.execution.run_grouped", boom)
        service = make_service(model, ["cim"])

        async def drive():
            async with service:
                with pytest.raises(
                    RequestExecutionError, match="engine exploded"
                ):
                    await service.submit(
                        InferenceRequest(inputs, substrate="cim")
                    )

        asyncio.run(drive())
        assert service.stats.failed == 1

    def test_shutdown_fails_requests_stuck_behind_sentinel(
        self, model, inputs
    ):
        from repro.serve import RequestExecutionError
        from repro.serve.service import _SHUTDOWN, _Pending

        service = make_service(model, ["cim"])

        async def drive():
            await service.start()
            batcher = service._batchers[("cim", "default")]
            loop = asyncio.get_running_loop()
            straggler = _Pending(
                request=InferenceRequest(inputs, substrate="cim"),
                future=loop.create_future(),
                admitted_at=loop.time(),
            )
            # A request that lands in the queue after shutdown began must
            # be failed explicitly, never abandoned to hang its awaiter.
            batcher._queue.put_nowait(_SHUTDOWN)
            batcher.put(straggler)
            await batcher.close()
            with pytest.raises(RequestExecutionError, match="stopped"):
                await straggler.future
            await service.stop()

        asyncio.run(drive())


class TestHTTP:
    @pytest.fixture(scope="class")
    def server(self, model):
        service = make_service(
            model,
            ["cim", "digital"],
            batch=BatchPolicy(max_batch=4, max_wait_ms=5.0),
        )
        with serve_http(service, port=0) as context:
            yield context

    def url(self, server, path):
        return f"http://127.0.0.1:{server.port}{path}"

    def post(self, server, path, body: bytes):
        request = urllib.request.Request(
            self.url(server, path),
            data=body,
            headers={"Content-Type": "application/json"},
        )
        return urllib.request.urlopen(request)

    def test_healthz(self, server):
        payload = json.loads(
            urllib.request.urlopen(self.url(server, "/healthz")).read()
        )
        assert payload["status"] == "ok"
        assert payload["substrates"] == ["cim", "digital"]
        assert payload["started"] is True

    def test_infer_round_trip_parity(self, server, model, inputs):
        request = InferenceRequest(inputs, substrate="cim", seed=8)
        raw = self.post(server, "/infer", request.to_json().encode()).read()

        def reject(token):
            raise AssertionError(f"bare non-finite token {token!r}")

        json.loads(raw.decode(), parse_constant=reject)  # valid JSON only
        response = InferenceResponse.from_json(raw.decode())
        session = reference_session("cim")
        assert not result_mismatches(
            response.result, reference_run(session, inputs, 8)
        )

    def test_stats_endpoint(self, server):
        payload = json.loads(
            urllib.request.urlopen(self.url(server, "/stats")).read()
        )
        assert payload["received"] >= 1
        assert "pools" in payload and "cim/default" in payload["pools"]

    def test_malformed_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, "/infer", b"{not json")
        assert excinfo.value.code == 400

    def test_unknown_substrate_is_400(self, server, inputs):
        body = InferenceRequest(inputs, substrate="tpu").to_json().encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, "/infer", body)
        assert excinfo.value.code == 400
        assert "unknown substrate" in json.loads(excinfo.value.read())["error"]

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(self.url(server, "/nope"))
        assert excinfo.value.code == 404

    def test_missing_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, "/infer", b"")
        assert excinfo.value.code == 400

    def infer_over(self, conn, server, inputs, seed):
        """One bit-exact /infer over ``conn``; returns the socket used."""
        body = InferenceRequest(inputs, substrate="cim", seed=seed).to_json()
        conn.request(
            "POST", "/infer", body=body.encode(),
            headers={"Content-Type": "application/json"},
        )
        reply = conn.getresponse()
        raw = reply.read()
        assert reply.status == 200, raw
        session = reference_session("cim")
        assert not result_mismatches(
            InferenceResponse.from_json(raw.decode()).result,
            reference_run(session, inputs, seed),
        )
        return conn.sock

    def test_keep_alive_reuses_one_connection(self, server, inputs):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            sockets = [
                self.infer_over(conn, server, inputs, seed) for seed in (1, 2, 3)
            ]
        finally:
            conn.close()
        assert sockets[0] is not None
        assert all(sock is sockets[0] for sock in sockets)

    @pytest.mark.parametrize(
        "path, body, headers, status, closes",
        [
            ("/nope", b'{"x": 1}', {}, 404, True),
            ("/infer", b'{"x": 1}', {"Content-Length": "abc"}, 400, True),
            ("/infer", b'{"x": 1}', {"Content-Length": "-3"}, 400, True),
            (
                "/infer", b'{"x": 1}',
                {"Content-Length": str(MAX_BODY_BYTES + 1)}, 400, True,
            ),
            ("/infer", b'{"x": 1}', None, 400, True),  # no Content-Length
            ("/infer", b"\xff\xfe", {}, 400, False),  # read, then rejected
            ("/infer", b"{not json", {}, 400, False),
            ("/infer", b"{not json", {"Connection": "close"}, 400, True),
            (
                "/infer", b'8\r\n{"x": 1}\r\n0\r\n\r\n',
                {"Transfer-Encoding": "chunked"}, 411, True,
            ),
            (
                "/infer", b'{"x": 1}',
                {"X-Pad": "a" * MAX_HEADER_BYTES}, 431, True,
            ),
            (
                "/infer", b'{"x": 1}',
                {f"X-Pad-{i}": "a" * 1000 for i in range(80)}, 431, True,
            ),
        ],
        ids=[
            "unknown-path", "bad-length", "negative-length", "oversized",
            "missing-length", "undecodable", "malformed-json",
            "client-close", "chunked", "oversized-header-line",
            "oversized-header-section",
        ],
    )
    def test_bad_request_never_garbles_the_next_one(
        self, server, inputs, path, body, headers, status, closes
    ):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            if headers is None:
                # A body with no Content-Length at all.
                conn.putrequest("POST", path)
                conn.endheaders()
                conn.send(body)
            else:
                conn.request("POST", path, body=body, headers=headers)
            reply = conn.getresponse()
            error = json.loads(reply.read())
            assert reply.status == status, error
            assert (reply.getheader("Connection") == "close") is closes
            # The next request on the same client must be served exactly,
            # never parsed out of the previous request's leftover body.
            self.infer_over(conn, server, inputs, seed=4)
        finally:
            conn.close()

    def exchange(self, server, data: bytes) -> list:
        """Send ``data`` in one ``send``; parse every reply until the
        server closes the connection."""
        with socket.create_connection(("127.0.0.1", server.port), 30) as sock:
            sock.sendall(data)
            received = b"".join(iter(lambda: sock.recv(65536), b""))
        replies = []
        while received:
            head, _, rest = received.partition(b"\r\n\r\n")
            status_line, *header_lines = head.decode("latin-1").split("\r\n")
            headers = {
                name.strip().lower(): value.strip()
                for name, _, value in (h.partition(":") for h in header_lines)
            }
            length = int(headers["content-length"])
            replies.append(
                (int(status_line.split()[1]), headers, json.loads(rest[:length]))
            )
            received = rest[length:]
        return replies

    def test_pipelined_requests_answered_in_order(self, server, inputs):
        data = b""
        for seed, last in ((5, False), (6, True)):
            body = InferenceRequest(inputs, substrate="cim", seed=seed)
            body = body.to_json().encode()
            data += (
                b"POST /infer HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n%s\r\n"
                % (len(body), b"Connection: close\r\n" if last else b"")
            ) + body
        replies = self.exchange(server, data)
        assert [status for status, _, _ in replies] == [200, 200]
        assert "connection" not in replies[0][1]
        assert replies[1][1]["connection"] == "close"
        session = reference_session("cim")
        for seed, (_, _, payload) in zip((5, 6), replies):
            response = InferenceResponse.from_dict(payload)
            assert response.seed == seed
            assert not result_mismatches(
                response.result, reference_run(session, inputs, seed)
            )

    def test_http_1_0_request_is_answered_then_closed(self, server):
        [(status, headers, payload)] = self.exchange(
            server, b"GET /healthz HTTP/1.0\r\n\r\n"
        )
        assert status == 200 and payload["status"] == "ok"
        assert headers["connection"] == "close"

    def test_bare_lf_head_after_a_blank_line_is_served(self, server):
        [(status, headers, payload)] = self.exchange(
            server, b"\r\nGET /healthz HTTP/1.1\nConnection: close\n\n"
        )
        assert status == 200 and payload["status"] == "ok"
        assert headers["connection"] == "close"

    def test_garbage_request_line_is_json_400_and_closes(self, server):
        [(status, headers, payload)] = self.exchange(
            server, b"NOT AN HTTP REQUEST LINE\r\n\r\n"
        )
        assert status == 400 and "bad request line" in payload["error"]
        assert headers["connection"] == "close"

    def test_idle_keep_alive_connection_times_out(self, server, monkeypatch):
        monkeypatch.setattr("repro.serve.http.IDLE_TIMEOUT_S", 0.3)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            reply.read()
            assert reply.status == 200 and not reply.will_close
            started = time.monotonic()
            # The server ends the idle connection: the client reads EOF.
            assert conn.sock.recv(1) == b""
            assert 0.2 < time.monotonic() - started < 10
        finally:
            conn.close()

    def test_expect_100_continue_is_answered_before_the_body(
        self, server, inputs
    ):
        body = InferenceRequest(inputs, substrate="cim", seed=4)
        body = body.to_json().encode()
        with socket.create_connection(("127.0.0.1", server.port), 30) as sock:
            sock.sendall(
                b"POST /infer HTTP/1.1\r\nHost: test\r\n"
                b"Expect: 100-continue\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            # The server must ask for the body; the client holds it back.
            interim = b"HTTP/1.1 100 Continue\r\n\r\n"
            received = b""
            while len(received) < len(interim):
                chunk = sock.recv(len(interim) - len(received))
                assert chunk, "connection closed before 100 Continue"
                received += chunk
            assert received == interim
            sock.sendall(body)
            final = b"".join(iter(lambda: sock.recv(65536), b""))
        assert final.startswith(b"HTTP/1.1 200 ")
        payload = json.loads(final.partition(b"\r\n\r\n")[2])
        assert InferenceResponse.from_dict(payload).seed == 4

    @pytest.mark.parametrize("path", ["/infer", "/track/open"])
    @pytest.mark.parametrize("seed", ["1e400", "-1", "2.7", "true", '"3"'])
    def test_bad_seed_is_400(self, server, inputs, path, seed):
        if path == "/infer":
            payload = {"inputs": inputs.tolist(), "substrate": "cim"}
        else:
            payload = {"init": {"mode": "global"}, "substrate": "cim"}
        body = strict_dumps({**payload, "seed": "SEED"})
        body = body.replace('"SEED"', seed).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server, path, body)
        assert excinfo.value.code == 400
        assert "seed" in json.loads(excinfo.value.read())["error"]

    def test_execution_failure_is_500_not_400(self, model, inputs, monkeypatch):
        # Server-side faults must not masquerade as client errors.
        def boom(session, substrate, model_name, items):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr("repro.serve.execution.run_grouped", boom)
        service = make_service(model, ["cim"])
        with serve_http(service, port=0) as context:
            body = InferenceRequest(inputs, substrate="cim").to_json().encode()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.post(context, "/infer", body)
            assert excinfo.value.code == 500
            assert "engine exploded" in json.loads(excinfo.value.read())["error"]


def serve_threads():
    return {t for t in threading.enumerate() if t.name.startswith("repro-serve-")}


def test_close_ends_idle_keep_alive_connections(model):
    before = serve_threads()
    context = serve_http(make_service(model, ["digital"]), port=0)
    conn = http.client.HTTPConnection("127.0.0.1", context.port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        reply = conn.getresponse()
        reply.read()
        assert reply.status == 200 and not reply.will_close
        started = time.monotonic()
        context.close()
        assert time.monotonic() - started < IDLE_TIMEOUT_S / 3
        assert serve_threads() <= before  # nothing outlives close()
        # The client sees the connection closed -- an error, not a hang.
        with pytest.raises((ConnectionError, http.client.HTTPException)):
            conn.request("GET", "/healthz")
            conn.getresponse().read()
    finally:
        conn.close()


class TestDemoSeedStreams:
    """The demo streams are keyed SeedSequence spawns (DET002 fix).

    Pinned first draws: the demo model is rebuilt byte-identically by
    client processes (CI parity, README curl example), so a silent
    change to the stream derivation would break every remote parity
    check.  These constants changed exactly once -- at the migration
    off additive seed offsets -- and must never change again.
    """

    def test_dropout_stream_pinned(self):
        from repro.serve.demo import _STREAM_DROPOUT, _demo_rng

        draw = float(_demo_rng(0, _STREAM_DROPOUT).random())
        assert draw == 0.9429375528828794

    def test_inputs_stream_pinned(self):
        assert float(demo_inputs(0)[0, 0]) == 0.8050894723742356

    def test_streams_distinct_within_seed(self):
        from repro.serve.demo import _STREAM_DROPOUT, _STREAM_INPUTS, _demo_rng

        dropout = _demo_rng(0, _STREAM_DROPOUT).random(8)
        inputs = _demo_rng(0, _STREAM_INPUTS).random(8)
        assert not np.array_equal(dropout, inputs)

    def test_no_collision_across_base_seeds(self):
        # The old additive derivation (seed + k) aliased streams across
        # base seeds: seed=0 purpose-k collided with seed=k purpose-0.
        # Keyed spawns must keep every (seed, purpose) stream distinct.
        from repro.serve.demo import _demo_rng

        draws = {}
        for seed in range(4):
            for purpose in range(4):
                draws[(seed, purpose)] = tuple(_demo_rng(seed, purpose).random(4))
        assert len(set(draws.values())) == len(draws)

    def test_old_additive_derivation_would_collide(self):
        # Documents the bug class the migration removed: with additive
        # offsets the "different" streams below were the same stream.
        legacy_a = np.random.default_rng(0 + 100).random(4)
        legacy_b = np.random.default_rng(99 + 1).random(4)
        assert np.array_equal(legacy_a, legacy_b)
