"""repro.serve.workers: sharded serving, crash recovery, shutdown."""

import asyncio
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.runtime import BatchPolicy, ShardPolicy
from repro.serve import (
    InferenceRequest,
    InferenceResponse,
    InferenceService,
    ServiceOverloaded,
    WorkerCrashed,
    WorkerPool,
    WorkerSpec,
    build_reference_session,
    reference_run,
    result_mismatches,
)
from repro.serve.demo import demo_inputs, demo_model
from repro.serve.http import serve_http

N_ITER = 6


@pytest.fixture(scope="module")
def model():
    return demo_model()


@pytest.fixture(scope="module")
def inputs():
    return demo_inputs()


def make_sharded(model, substrates, workers=2, **kwargs):
    kwargs.setdefault("n_iterations", N_ITER)
    kwargs.setdefault("batch", BatchPolicy(max_batch=4, max_wait_ms=20.0))
    return InferenceService(
        model,
        substrates=substrates,
        shard=ShardPolicy(workers=workers),
        **kwargs,
    )


def wait_dead(pids, timeout_s=10.0):
    """Wait until every pid is gone (reaped or reparented-and-exited)."""
    deadline = time.monotonic() + timeout_s
    pending = list(pids)
    while pending and time.monotonic() < deadline:
        still = []
        for pid in pending:
            try:
                os.kill(pid, 0)
                still.append(pid)
            except (ProcessLookupError, PermissionError):
                pass
        pending = still
        if pending:
            time.sleep(0.05)
    return pending


def test_in_process_stop_keeps_the_loop_responsive(model):
    """Stopping the in-process shard joins its thread off the loop: a
    busy shard thread must not freeze other coroutines meanwhile."""
    from repro.serve.workers import InProcessShard

    shard = InProcessShard(
        WorkerSpec(models={"default": model}, substrates=("cim",)),
        ShardPolicy(workers=0),
    )

    async def drive():
        await shard.start()
        busy = shard._executor.submit(time.sleep, 0.3)
        stopping = asyncio.ensure_future(shard.stop())
        ticks = 0
        while not stopping.done():
            ticks += 1
            await asyncio.sleep(0.01)
        await stopping
        return busy, ticks

    busy, ticks = asyncio.run(drive())
    assert busy.done()  # stop waited for the running op
    assert ticks >= 5
    assert shard._executor is None
    assert asyncio.run(shard.stop()) is None  # stopping twice is a no-op


class TestShardPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ShardPolicy(workers=-1)
        with pytest.raises(ValueError, match="join_timeout_s"):
            ShardPolicy(join_timeout_s=0)
        with pytest.raises(ValueError, match="spawn_timeout_s"):
            ShardPolicy(spawn_timeout_s=-1)
        assert ShardPolicy().workers == 0  # default stays in-process

    def test_worker_pool_rejects_in_process_policy(self, model):
        spec = WorkerSpec(models={"default": model}, substrates=("cim",))
        with pytest.raises(ValueError, match="workers >= 1"):
            WorkerPool(spec, ShardPolicy(workers=0))


class TestRouting:
    """_pick is pure over handle attributes: unit-test it with fakes."""

    def make_pool(self, model):
        spec = WorkerSpec(models={"default": model}, substrates=("cim",))
        return WorkerPool(spec, ShardPolicy(workers=2))

    def fake(self, index, inflight_requests=0, substrates=()):
        return SimpleNamespace(
            index=index,
            alive=True,
            ready=True,
            inflight_requests=inflight_requests,
            substrates=set(substrates),
        )

    def test_least_loaded_wins(self, model):
        pool = self.make_pool(model)
        pool._handles = [
            self.fake(0, inflight_requests=3, substrates=("cim",)),
            self.fake(1, inflight_requests=0),
        ]
        assert asyncio.run(pool._pick("cim")).index == 1

    def test_affinity_breaks_ties(self, model):
        pool = self.make_pool(model)
        pool._handles = [
            self.fake(0),
            self.fake(1, substrates=("cim",)),
        ]
        assert asyncio.run(pool._pick("cim")).index == 1
        assert asyncio.run(pool._pick("digital")).index == 0

    def test_index_breaks_remaining_ties(self, model):
        pool = self.make_pool(model)
        pool._handles = [
            self.fake(1, substrates=("cim",)),
            self.fake(0, substrates=("cim",)),
        ]
        assert asyncio.run(pool._pick("cim")).index == 0

    def test_execute_requires_start(self, model):
        pool = self.make_pool(model)
        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(pool.execute(("cim", "default"), []))


class TestShardedParity:
    """Acceptance: responses bit-for-bit regardless of shard or batching."""

    @pytest.fixture(scope="class")
    def sharded_run(self, model, inputs):
        service = make_sharded(model, ["cim", "digital"], workers=2)
        requests = [
            InferenceRequest(inputs, substrate=name, seed=seed)
            for name in ("cim", "digital")
            for seed in (0, 11)
        ] * 2

        async def drive():
            async with service:
                responses = await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )
                return responses, service.stats_snapshot()

        responses, snapshot = asyncio.run(drive())
        return service, requests, responses, snapshot

    def test_every_response_matches_reference(self, sharded_run, model):
        _, requests, responses, _ = sharded_run
        sessions = {}
        for request, response in zip(requests, responses):
            if request.substrate not in sessions:
                sessions[request.substrate] = build_reference_session(
                    request.substrate, model, n_iterations=N_ITER
                )
            expected = reference_run(
                sessions[request.substrate], request.inputs, request.seed
            )
            assert response.substrate == request.substrate
            assert response.seed == request.seed
            assert not result_mismatches(response.result, expected)

    def test_stats_expose_per_shard_rows(self, sharded_run):
        _, _, _, snapshot = sharded_run
        shards = snapshot["shards"]
        assert shards["workers"] == 2
        rows = shards["shards"]
        assert [row["index"] for row in rows] == [0, 1]
        for row in rows:
            assert row["ready"] is True
            assert row["queue_depth"] == 0  # all drained
            assert "oldest_inflight_age_s" in row
            assert "last_dispatch_age_s" in row
        assert sum(row["dispatched_batches"] for row in rows) >= 2
        assert snapshot["completed"] == 8

    def test_describe_reports_shard_policy(self, sharded_run):
        service, _, _, _ = sharded_run
        described = service.describe()
        assert described["shard"]["workers"] == 2
        assert described["shard"]["respawn"] is True

    def test_workers_terminated_after_stop(self, sharded_run):
        _, _, _, snapshot = sharded_run
        pids = [row["pid"] for row in snapshot["shards"]["shards"]]
        assert wait_dead(pids) == []


class TestCrashRecovery:
    """Kill a shard mid-flight: 503, respawn, then bit-parity again."""

    def test_midflight_kill_503_respawn_parity(self, model, inputs):
        service = make_sharded(model, ["cim"], workers=1)

        async def drive():
            async with service:
                victim = service._shards._handles[0]
                victim_pid = victim.process.pid
                # Freeze the shard first so it provably cannot answer
                # before the kill: the batch stays in flight until
                # SIGKILL closes the pipe (deterministic, no race).
                os.kill(victim_pid, signal.SIGSTOP)
                task = asyncio.ensure_future(
                    service.submit(
                        InferenceRequest(inputs, substrate="cim", seed=5)
                    )
                )
                for _ in range(5000):
                    if victim.inflight:
                        break
                    await asyncio.sleep(0.001)
                assert victim.inflight, "request never reached the shard"
                victim.process.kill()
                with pytest.raises(ServiceOverloaded) as excinfo:
                    await task
                assert isinstance(excinfo.value, WorkerCrashed)
                assert excinfo.value.shard == 0
                # The replacement shard serves the same request with the
                # same bits -- sessions are rebuilt from session_seed.
                response = await service.submit(
                    InferenceRequest(inputs, substrate="cim", seed=5)
                )
                respawned = service._shards._handles[0]
                return victim_pid, respawned.process.pid, response

        victim_pid, respawned_pid, response = asyncio.run(drive())
        assert respawned_pid != victim_pid
        assert service._shards.respawns == 1
        assert service.stats.failed == 1
        session = build_reference_session("cim", model, n_iterations=N_ITER)
        assert not result_mismatches(
            response.result, reference_run(session, inputs, 5)
        )

    def test_idle_crash_respawns_cleanly(self, model, inputs):
        service = make_sharded(model, ["digital"], workers=1)

        async def drive():
            async with service:
                victim = service._shards._handles[0]
                victim.process.kill()
                for _ in range(200):
                    replacement = service._shards._handles[0]
                    if replacement is not victim and replacement.ready:
                        break
                    await asyncio.sleep(0.05)
                return await service.submit(
                    InferenceRequest(inputs, substrate="digital", seed=2)
                )

        response = asyncio.run(drive())
        assert service.stats.failed == 0  # nothing was in flight
        session = build_reference_session(
            "digital", model, n_iterations=N_ITER
        )
        assert not result_mismatches(
            response.result, reference_run(session, inputs, 2)
        )


class TestShardedHTTP:
    def test_http_parity_and_shard_stats(self, model, inputs):
        service = make_sharded(model, ["cim"], workers=1)
        with serve_http(service, port=0) as context:
            request = InferenceRequest(inputs, substrate="cim", seed=8)
            raw = urllib.request.urlopen(
                urllib.request.Request(
                    f"http://127.0.0.1:{context.port}/infer",
                    data=request.to_json().encode(),
                    headers={"Content-Type": "application/json"},
                )
            ).read()
            from repro.serve import InferenceResponse

            response = InferenceResponse.from_json(raw.decode())
            session = build_reference_session(
                "cim", model, n_iterations=N_ITER
            )
            assert not result_mismatches(
                response.result, reference_run(session, inputs, 8)
            )
            stats = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{context.port}/stats"
                ).read()
            )
            assert stats["shards"]["workers"] == 1
            assert len(stats["shards"]["shards"]) == 1


class TestShardedHTTPLoop:
    """workers=2 over HTTP: everything runs on the one loop thread."""

    @pytest.fixture(scope="class")
    def server(self, model):
        service = make_sharded(model, ["digital"], workers=2)
        with serve_http(service, port=0) as context:
            yield context

    def infer(self, server, inputs, seed):
        request = InferenceRequest(inputs, substrate="digital", seed=seed)
        raw = urllib.request.urlopen(
            urllib.request.Request(
                f"http://127.0.0.1:{server.port}/infer",
                data=request.to_json().encode(),
                headers={"Content-Type": "application/json"},
            ),
            timeout=120,
        ).read()
        return InferenceResponse.from_json(raw.decode())

    def test_only_the_loop_thread_serves(self, server, inputs):
        def serve_thread_names():
            return {
                t.name
                for t in threading.enumerate()
                if t.name.startswith("repro-serve-")
            }

        samples = []
        with ThreadPoolExecutor(max_workers=4) as clients:
            replies = [
                clients.submit(self.infer, server, inputs, seed)
                for seed in range(16)
            ]
            while not all(reply.done() for reply in replies):
                samples.append(serve_thread_names())
                time.sleep(0.005)
        for reply in replies:
            reply.result()
        assert samples, "no sample taken while requests were in flight"
        assert all(names == {"repro-serve-loop"} for names in samples)

    def test_large_reply_matches_reference(self, server):
        # 5000 rows make the shard's pickled reply ~1.3 MB (about 256 B
        # a row), well past one pipe buffer: the loop-side reader must
        # reassemble it exactly.
        inputs = np.random.default_rng(3).normal(size=(5000, 24))
        response = self.infer(server, inputs, seed=9)
        assert len(pickle.dumps(response.result)) > 1024 * 1024
        session = build_reference_session(
            "digital", server.service.models["default"], n_iterations=N_ITER
        )
        assert not result_mismatches(
            response.result, reference_run(session, inputs, 9)
        )


def test_concurrent_large_ops_never_block_the_loop(model):
    """Two >1 MB ops on one frozen shard stay queued off the loop.

    Each request pickles to ~1.15 MB (6000 x 24 float64 inputs) and each
    reply to ~1.5 MB, both far past one socket buffer.  With
    ``max_batch=1`` they dispatch as two ops to the single shard.  While
    the shard is stopped the loop must keep answering /healthz; once it
    resumes, both replies must match the reference.
    """
    service = make_sharded(
        model, ["digital"], workers=1,
        batch=BatchPolicy(max_batch=1, max_wait_ms=0.0),
    )
    rows = [
        np.random.default_rng(seed).normal(size=(6000, 24)) for seed in (1, 2)
    ]
    requests = [
        InferenceRequest(inputs, substrate="digital", seed=seed)
        for seed, inputs in zip((1, 2), rows)
    ]
    assert all(len(pickle.dumps(r)) > 1024 * 1024 for r in requests)
    with serve_http(service, port=0) as server:
        url = f"http://127.0.0.1:{server.port}"
        shard = service._shards._handles[0]
        os.kill(shard.process.pid, signal.SIGSTOP)
        try:
            with ThreadPoolExecutor(max_workers=2) as clients:
                replies = [
                    clients.submit(
                        lambda r: urllib.request.urlopen(
                            urllib.request.Request(
                                f"{url}/infer", data=r.to_json().encode()
                            ),
                            timeout=120,
                        ).read(),
                        request,
                    )
                    for request in requests
                ]
                deadline = time.monotonic() + 60
                while len(shard.inflight) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert len(shard.inflight) == 2, "ops never reached the shard"
                health = urllib.request.urlopen(f"{url}/healthz", timeout=10)
                assert json.loads(health.read())["status"] == "ok"
                os.kill(shard.process.pid, signal.SIGCONT)
                responses = [
                    InferenceResponse.from_json(reply.result(timeout=120))
                    for reply in replies
                ]
        finally:
            os.kill(shard.process.pid, signal.SIGCONT)
    session = build_reference_session("digital", model, n_iterations=N_ITER)
    for request, response in zip(requests, responses):
        assert len(pickle.dumps(response.result)) > 1024 * 1024
        assert not result_mismatches(
            response.result,
            reference_run(session, request.inputs, request.seed),
        )


class TestCLIShutdown:
    """`repro serve --workers N` must never leak orphaned children."""

    def test_sigterm_stops_workers(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1",
                "--n-iterations", "4", "--substrates", "digital",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 60
            assert process.stdout is not None
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if "http://" in line:
                    port = int(line.split("http://")[1].split()[0].split(":")[1])
                    break
            assert port, "server never printed its address"
            stats = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/stats", timeout=30
                ).read()
            )
            worker_pids = [row["pid"] for row in stats["shards"]["shards"]]
            assert worker_pids
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            assert wait_dead(worker_pids) == []
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
