"""repro.serve.tracks: streaming tracks, eviction, crash recovery."""

import asyncio
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api.results import (
    InferenceResult,
    strict_dumps,
    strict_loads,
    to_jsonable,
)
from repro.api.substrates import available_substrates
from repro.runtime import BatchPolicy, ShardPolicy, TrackPolicy
from repro.serve import (
    InferenceService,
    ServiceOverloaded,
    TrackError,
    TrackInit,
    TrackOpenRequest,
    TrackStepRequest,
    TrackStepResponse,
    reference_track_run,
    stream_mismatches,
)
from repro.serve.demo import (
    demo_model,
    demo_track_measurements,
    demo_track_world,
)
from repro.serve.http import serve_http

N_STEPS = 3


@pytest.fixture(scope="module")
def world():
    return demo_track_world()


@pytest.fixture(scope="module")
def measurements():
    return demo_track_measurements(n_steps=N_STEPS)


@pytest.fixture(scope="module")
def init(measurements):
    _, _, truths = measurements
    return TrackInit(
        mode="tracking",
        state=truths[0],
        sigma=np.full(truths.shape[1], 0.05),
        z_range=None,
    )


def make_service(world, workers=0, tracks=None, track_substrates=("cim",)):
    """A track-serving service; the /infer side is kept minimal (one
    cheap substrate, shallow MC depth) so tests pay for tracks only."""
    return InferenceService(
        demo_model(),
        substrates=["digital"],
        n_iterations=4,
        batch=BatchPolicy(max_batch=8, max_wait_ms=20.0),
        shard=ShardPolicy(workers=workers),
        track_world=world,
        tracks=tracks,
        track_substrates=list(track_substrates),
    )


def post(port, path, payload, timeout=120):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=strict_dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return strict_loads(response.read().decode())


class TestStreamMismatches:
    """The stream comparator names every field that differs."""

    REFERENCE = InferenceResult(
        substrate="cim",
        workload="localization",
        mean=np.arange(8.0).reshape(2, 4),
        ops_executed=20,
        energy_j=2e-9,
        energy_breakdown_j={"read": 2e-9},
    )

    @staticmethod
    def stream(**final):
        responses = [
            TrackStepResponse(
                track_id="t",
                step_index=index + 1,
                estimate=np.arange(4.0) + 4 * index,
                ess=1.0,
                resampled=False,
                log_evidence=0.0,
                spread=0.0,
                energy_j=1e-9 * (index + 1),
                ops_executed=10 * (index + 1),
                energy_breakdown_j={"read": 1e-9 * (index + 1)},
                step_energy_j=1e-9,
                step_ops=10,
                substrate="cim",
            )
            for index in range(2)
        ]
        for name, value in final.items():
            setattr(responses[-1], name, value)
        return responses

    def test_matching_stream(self):
        assert stream_mismatches(self.stream(), self.REFERENCE) == []

    @pytest.mark.parametrize(
        "field, final",
        [
            ("estimates", {"estimate": np.arange(4.0) + 4.5}),
            ("step_index", {"step_index": 1}),
            ("energy_j", {"energy_j": 2.0000000000000004e-9}),
            ("ops_executed", {"ops_executed": 21}),
            ("energy_breakdown_j", {"energy_breakdown_j": {"read": 1e-9}}),
        ],
    )
    def test_each_field_is_compared(self, field, final):
        responses = self.stream(**final)
        assert stream_mismatches(responses, self.REFERENCE) == [field]


class TestTrackPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_tracks"):
            TrackPolicy(max_tracks=0)
        with pytest.raises(ValueError, match="idle_ttl_s"):
            TrackPolicy(idle_ttl_s=0)
        with pytest.raises(ValueError, match="sweep_interval_s"):
            TrackPolicy(sweep_interval_s=0)
        with pytest.raises(ValueError, match="replay_log_steps"):
            TrackPolicy(replay_log_steps=-1)
        with pytest.raises(ValueError, match="max_track_bytes"):
            TrackPolicy(max_track_bytes=-1)
        assert TrackPolicy().max_tracks == 1024


class TestRequestSchemas:
    def test_open_request_round_trip(self, init):
        request = TrackOpenRequest(init=init, substrate="cim", seed=9)
        restored = TrackOpenRequest.from_json(
            strict_dumps(
                {
                    "init": init.to_dict(),
                    "substrate": "cim",
                    "seed": 9,
                }
            )
        )
        assert restored.substrate == request.substrate
        assert restored.seed == request.seed
        assert np.array_equal(restored.init.state, init.state)

    def test_open_request_rejects_unknown_fields(self, init):
        with pytest.raises((KeyError, ValueError, TypeError)):
            TrackOpenRequest.from_json(
                strict_dumps({"init": init.to_dict(), "bogus": 1})
            )

    @pytest.mark.parametrize(
        "fields",
        [
            {"state": [1.0, 2.0, 0.5, 0.3], "sigma": [0.0] * 4},
            {"mode": "global", "z_range": (1.0, 1.0)},
        ],
        ids=["zero-sigma", "flat-z-range"],
    )
    def test_init_admits_boundary_values(self, fields):
        """A known pose (sigma = 0) and a fixed altitude (low == high)
        sit on the admission bounds and are accepted as given."""
        init = TrackInit(**fields)
        restored = TrackInit.from_dict(init.to_dict())
        assert restored.mode == init.mode
        assert restored.z_range == init.z_range
        for name in ("state", "sigma"):
            expected = fields.get(name)
            actual = getattr(restored, name)
            if expected is None:
                assert actual is None
            else:
                assert np.array_equal(actual, expected)

    def test_step_response_round_trip(self):
        response = TrackStepResponse(
            track_id="t",
            step_index=2,
            estimate=np.arange(4.0),
            ess=3.5,
            resampled=True,
            log_evidence=-1.25,
            spread=0.5,
            energy_j=1e-9,
            ops_executed=123,
            energy_breakdown_j={"mac": 1e-9},
            step_energy_j=5e-10,
            step_ops=50,
            substrate="cim",
        )
        restored = TrackStepResponse.from_json(
            strict_dumps(response.to_dict())
        )
        assert restored.step_index == 2
        assert np.array_equal(restored.estimate, response.estimate)
        assert restored.energy_j == response.energy_j

    def test_step_response_encodes_like_asdict(self):
        """The shallow field dict encodes to exactly the bytes the
        ``dataclasses.asdict`` encoding gave, non-finite values and a
        missing error included."""
        response = TrackStepResponse(
            track_id="t",
            step_index=1,
            estimate=np.array([np.nan, 1.0, -2.5, 0.25]),
            ess=np.float64(7.5),
            resampled=False,
            log_evidence=-3.0,
            spread=0.125,
            energy_j=2e-9,
            ops_executed=64,
            energy_breakdown_j={"adc_conversion": np.inf, "mac": 1e-9},
            step_energy_j=1e-9,
            step_ops=32,
            substrate="cim",
            error_m=None,
        )
        assert strict_dumps(response.to_dict()) == strict_dumps(
            to_jsonable(dataclasses.asdict(response))
        )


class TestStreamParityInProcess:
    """Acceptance: every registered substrate streams bit-for-bit."""

    @pytest.fixture(scope="class")
    def streamed(self, world, measurements, init):
        controls, depths, truths = measurements
        service = make_service(
            world, track_substrates=available_substrates()
        )

        async def drive():
            async with service:
                results = {}
                for name in available_substrates():
                    handle = await service.open_track(
                        substrate=name, init=init, seed=3
                    )
                    responses = []
                    for control, depth, truth in zip(
                        controls, depths, truths
                    ):
                        responses.append(
                            await handle.step(control, depth, truth=truth)
                        )
                    await handle.close()
                    results[name] = responses
                return results, service.stats_snapshot()

        return asyncio.run(drive())

    @pytest.mark.parametrize("name", available_substrates())
    def test_substrate_streams_bit_for_bit(
        self, streamed, world, measurements, init, name
    ):
        results, _ = streamed
        reference = reference_track_run(world, name, init, 3, measurements)
        assert not stream_mismatches(results[name], reference)

    def test_step_indices_and_metadata(self, streamed):
        results, snapshot = streamed
        for name, responses in results.items():
            assert [r.step_index for r in responses] == list(
                range(1, N_STEPS + 1)
            )
            assert all(r.substrate == name for r in responses)
            assert all(not r.state_lost for r in responses)
            assert all(r.error_m is not None for r in responses)
        tracks = snapshot["tracks"]
        assert tracks["opened"] == len(results)
        assert tracks["closed"] == len(results)
        assert tracks["steps"] == len(results) * N_STEPS

    def test_step_scoped_metering_is_positive(self, streamed):
        results, _ = streamed
        for responses in results.values():
            assert all(r.step_energy_j > 0 for r in responses)
            assert all(r.step_ops > 0 for r in responses)


class TestCoalescing:
    def test_concurrent_tracks_share_micro_batches(
        self, world, measurements, init
    ):
        controls, depths, truths = measurements
        service = make_service(world)

        async def drive():
            async with service:
                handles = await asyncio.gather(
                    *(
                        service.open_track(
                            substrate="cim", init=init, seed=seed
                        )
                        for seed in range(8)
                    )
                )
                for k in range(N_STEPS):
                    await asyncio.gather(
                        *(
                            handle.step(
                                controls[k], depths[k], truth=truths[k]
                            )
                            for handle in handles
                        )
                    )
                return service.stats_snapshot()["tracks"]

        tracks = asyncio.run(drive())
        assert tracks["steps"] == 8 * N_STEPS
        # Concurrent steps from different tracks on the same home must
        # coalesce through the Batcher (not execute one-by-one).
        assert tracks["max_step_batch"] > 1
        assert tracks["step_batches"] < 8 * N_STEPS


class TestAdmissionAndEviction:
    def test_max_tracks_admission(self, world, init):
        service = make_service(world, tracks=TrackPolicy(max_tracks=2))

        async def drive():
            async with service:
                await service.open_track(substrate="cim", init=init, seed=0)
                await service.open_track(substrate="cim", init=init, seed=1)
                with pytest.raises(ServiceOverloaded):
                    await service.open_track(
                        substrate="cim", init=init, seed=2
                    )
                return service.stats_snapshot()["tracks"]

        tracks = asyncio.run(drive())
        assert tracks["rejected"] == 1
        assert tracks["live"] == 2

    def test_unknown_track_substrate_rejected(self, world, init):
        service = make_service(world, track_substrates=("cim",))

        async def drive():
            async with service:
                with pytest.raises(KeyError, match="digital"):
                    await service.open_track(
                        substrate="digital", init=init, seed=0
                    )

        asyncio.run(drive())

    def test_idle_ttl_eviction_gives_clear_error(
        self, world, measurements, init
    ):
        """Satellite: an evicted track's next step is a typed 'expired'
        error, never a hang or a silent fresh-state answer."""
        controls, depths, truths = measurements
        # A long sweep interval keeps the background sweeper out of the
        # way: the test drives sweep_idle() itself, deterministically.
        service = make_service(
            world,
            tracks=TrackPolicy(idle_ttl_s=0.05, sweep_interval_s=60.0),
        )

        async def drive():
            async with service:
                handle = await service.open_track(
                    substrate="cim", init=init, seed=0
                )
                await handle.step(controls[0], depths[0])
                manager = service._track_manager
                await asyncio.sleep(0.1)
                evicted = await manager.sweep_idle()
                assert evicted == 1
                with pytest.raises(TrackError) as excinfo:
                    await handle.step(controls[1], depths[1])
                assert excinfo.value.kind == "expired"
                assert "TTL" in str(excinfo.value)
                # The store-side state is gone too, not just the record.
                assert not manager._tracks
                return service.stats_snapshot()["tracks"]

        tracks = asyncio.run(drive())
        assert tracks["expired"] == 1

    def test_closed_track_step_is_gone(self, world, measurements, init):
        controls, depths, _ = measurements
        service = make_service(world)

        async def drive():
            async with service:
                handle = await service.open_track(
                    substrate="cim", init=init, seed=0
                )
                await handle.close()
                with pytest.raises(TrackError) as excinfo:
                    await handle.step(controls[0], depths[0])
                assert excinfo.value.kind == "closed"
                with pytest.raises(TrackError) as unknown:
                    await service.track_step(
                        TrackStepRequest(
                            track_id="never-opened",
                            control=controls[0],
                            depth=depths[0],
                        )
                    )
                assert unknown.value.kind == "unknown"

        asyncio.run(drive())


class TestShardedTracks:
    def test_sticky_routing_and_parity(self, world, measurements, init):
        service = make_service(world, workers=2)

        async def drive():
            async with service:
                manager = service._track_manager
                opens = [
                    await manager.open(
                        TrackOpenRequest(init=init, substrate="cim", seed=s)
                    )
                    for s in range(4)
                ]
                homes = {
                    manager._tracks[o["track_id"]].home for o in opens
                }
                # Least-loaded placement spreads tracks over both shards.
                assert {home[0] for home in homes} == {0, 1}
                controls, depths, truths = measurements
                results = {}
                for o in opens:
                    record = manager._tracks[o["track_id"]]
                    first_home = record.home
                    responses = []
                    for control, depth, truth in zip(
                        controls, depths, truths
                    ):
                        responses.append(
                            await manager.step(
                                TrackStepRequest(
                                    track_id=o["track_id"],
                                    control=control,
                                    depth=depth,
                                    truth=truth,
                                )
                            )
                        )
                    # Sticky: every step of a track ran on its home.
                    assert record.home == first_home
                    results[o["seed"]] = responses
                return results

        results = asyncio.run(drive())
        for seed, responses in results.items():
            reference = reference_track_run(
                world, "cim", init, seed, measurements
            )
            assert not stream_mismatches(responses, reference)

    def test_midstep_kill_replays_and_stays_bit_exact(
        self, world, measurements, init
    ):
        """Satellite: SIGKILL the home shard mid-step; the manager
        replays the acked log on the respawn and the stream stays
        bit-for-bit equal to the uninterrupted one-shot run."""
        controls, depths, truths = measurements
        service = make_service(world, workers=1)

        async def drive():
            async with service:
                handle = await service.open_track(
                    substrate="cim", init=init, seed=6
                )
                responses = [
                    await handle.step(controls[0], depths[0], truth=truths[0])
                ]
                victim = service._shards._handles[0]
                os.kill(victim.process.pid, signal.SIGSTOP)
                task = asyncio.ensure_future(
                    handle.step(controls[1], depths[1], truth=truths[1])
                )
                for _ in range(5000):
                    if victim.inflight:
                        break
                    await asyncio.sleep(0.001)
                assert victim.inflight, "step never reached the shard"
                victim.process.kill()
                responses.append(await task)
                responses.append(
                    await handle.step(controls[2], depths[2], truth=truths[2])
                )
                return responses, service.stats_snapshot()["tracks"]

        responses, tracks = asyncio.run(drive())
        # The killed step was retried on the respawned shard after a
        # one-step replay; the stream never noticed beyond the marker.
        assert responses[1].replayed_steps == 1
        assert not responses[1].state_lost
        assert responses[2].replayed_steps == 0
        assert [r.step_index for r in responses] == [1, 2, 3]
        assert tracks["recovered_replay"] == 1
        assert tracks["recovered_reinit"] == 0
        reference = reference_track_run(world, "cim", init, 6, measurements)
        assert not stream_mismatches(responses, reference)

    def test_replay_disabled_reinitializes_with_state_lost(
        self, world, measurements, init
    ):
        """Satellite: with no replay log the recovered track restarts
        from its init and the next response says so explicitly."""
        controls, depths, truths = measurements
        service = make_service(
            world, workers=1, tracks=TrackPolicy(replay_log_steps=0)
        )

        async def drive():
            async with service:
                handle = await service.open_track(
                    substrate="cim", init=init, seed=6
                )
                await handle.step(controls[0], depths[0], truth=truths[0])
                victim = service._shards._handles[0]
                victim.process.kill()
                responses = []
                for control, depth, truth in zip(
                    controls[1:], depths[1:], truths[1:]
                ):
                    responses.append(
                        await handle.step(control, depth, truth=truth)
                    )
                return responses, service.stats_snapshot()["tracks"]

        responses, tracks = asyncio.run(drive())
        assert responses[0].state_lost is True
        assert responses[0].replayed_steps == 0
        # The filter restarted: step indices restart from 1 and the
        # post-recovery stream equals a fresh run over the fed steps.
        assert [r.step_index for r in responses] == [1, 2]
        assert all(not r.state_lost for r in responses[1:])
        assert tracks["recovered_reinit"] == 1
        reference = reference_track_run(
            world,
            "cim",
            init,
            6,
            (controls[1:], depths[1:], truths[1:]),
        )
        assert not stream_mismatches(responses, reference)


class TestTrackHTTP:
    @pytest.fixture(scope="class")
    def context(self, world):
        service = make_service(world, tracks=TrackPolicy(max_tracks=2))
        with serve_http(service, port=0) as ctx:
            yield ctx

    def test_open_step_close_parity(
        self, context, world, measurements, init
    ):
        controls, depths, truths = measurements
        opened = post(
            context.port,
            "/track/open",
            {"init": init.to_dict(), "substrate": "cim", "seed": 17},
        )
        track_id = opened["track_id"]
        assert opened["substrate"] == "cim"
        responses = []
        for control, depth, truth in zip(controls, depths, truths):
            payload = post(
                context.port,
                "/track/step",
                {
                    "track_id": track_id,
                    "control": control.tolist(),
                    "depth": depth.tolist(),
                    "truth": truth.tolist(),
                },
            )
            responses.append(TrackStepResponse.from_dict(payload))
        closed = post(
            context.port, "/track/close", {"track_id": track_id}
        )
        assert closed["closed"] is True
        assert closed["steps"] == N_STEPS
        reference = reference_track_run(world, "cim", init, 17, measurements)
        assert not stream_mismatches(responses, reference)

    def test_track_errors_are_typed_http_statuses(
        self, context, measurements
    ):
        controls, depths, _ = measurements
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(
                context.port,
                "/track/step",
                {
                    "track_id": "never-opened",
                    "control": controls[0].tolist(),
                    "depth": depths[0].tolist(),
                },
            )
        assert excinfo.value.code == 404
        body = strict_loads(excinfo.value.read().decode())
        assert body["kind"] == "unknown"
        assert body["retryable"] is False

    @pytest.mark.parametrize(
        "path, bad, field",
        [
            ("/track/open", {"state": [0.0] * 3}, "state"),
            ("/track/open", {"sigma": [0.1] * 3}, "sigma"),
            ("/track/open", {"state": [float("nan"), 0, 0, 0]}, "state"),
            ("/track/open", {"sigma": [float("inf"), 1, 1, 1]}, "sigma"),
            ("/track/open", {"sigma": [-0.1, 1, 1, 1]}, "sigma"),
            ("/track/open", {"z_range": [2.0, 1.0]}, "z_range"),
            ("/track/open", {"z_range": [0.0, float("inf")]}, "z_range"),
            ("/track/step", {"control": [0.0] * 3}, "control"),
            ("/track/step", {"truth": [0.0] * 5}, "truth"),
            ("/track/close", {"track_id": None}, "track_id"),
            ("/track/close", {"track_id": ""}, "track_id"),
            ("/track/close", {"track_id": 7}, "track_id"),
            ("/track/close", {}, "track_id"),
            ("/track/close", {"track_id": "t-1", "force": True}, "track_id"),
        ],
    )
    def test_malformed_track_input_is_400(
        self, context, measurements, init, path, bad, field
    ):
        """A bad init, control, truth or close body is refused at
        admission, not served as NaN estimates, failed inside the shard
        or looked up as a track that does not exist."""
        controls, depths, _ = measurements
        if path == "/track/open":
            body = {"init": {**init.to_dict(), **bad}, "substrate": "cim"}
        elif path == "/track/close":
            body = bad
        else:
            opened = post(
                context.port,
                "/track/open",
                {"init": init.to_dict(), "substrate": "cim"},
            )
            body = {
                "track_id": opened["track_id"],
                "control": controls[0].tolist(),
                "depth": depths[0].tolist(),
                **bad,
            }
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(context.port, path, body)
            assert excinfo.value.code == 400
            error = strict_loads(excinfo.value.read().decode())["error"]
            assert field in error
        finally:
            if path == "/track/step":
                post(
                    context.port,
                    "/track/close",
                    {"track_id": opened["track_id"]},
                )

    def test_admission_503_has_retry_after_and_retryable(
        self, context, init
    ):
        """Satellite: every 503 carries Retry-After + retryable:true."""
        opened = []
        for seed in range(2):
            opened.append(
                post(
                    context.port,
                    "/track/open",
                    {
                        "init": init.to_dict(),
                        "substrate": "cim",
                        "seed": seed,
                    },
                )
            )
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(
                    context.port,
                    "/track/open",
                    {
                        "init": init.to_dict(),
                        "substrate": "cim",
                        "seed": 99,
                    },
                )
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] is not None
            body = strict_loads(excinfo.value.read().decode())
            assert body["retryable"] is True
        finally:
            for entry in opened:
                post(
                    context.port,
                    "/track/close",
                    {"track_id": entry["track_id"]},
                )

    def test_healthz_reports_track_config(self, context):
        raw = urllib.request.urlopen(
            f"http://127.0.0.1:{context.port}/healthz", timeout=30
        ).read()
        health = json.loads(raw)
        assert health["status"] == "ok"
        assert health["respawning_shards"] == []
        assert health["tracks"]["max_tracks"] == 2
        assert health["tracks"]["backend"]["mode"] == "local"

    def test_stats_expose_track_counters(self, context):
        raw = urllib.request.urlopen(
            f"http://127.0.0.1:{context.port}/stats", timeout=30
        ).read()
        stats = json.loads(raw)
        assert stats["tracks"]["opened"] >= 1
        assert stats["tracks"]["steps"] >= N_STEPS


class TestDegradedHealth:
    def test_healthz_degrades_while_shard_respawns(self, world):
        """Satellite: /healthz flips to degraded (naming the respawning
        shard) after a shard death, then returns to ok."""
        service = make_service(world, workers=1)
        with serve_http(service, port=0) as context:
            url = f"http://127.0.0.1:{context.port}/healthz"
            victim = service._shards._handles[0]
            victim.process.kill()
            victim.process.join(timeout=30)
            health = json.loads(
                urllib.request.urlopen(url, timeout=30).read()
            )
            assert health["status"] == "degraded"
            assert health["respawning_shards"] == [0]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                health = json.loads(
                    urllib.request.urlopen(url, timeout=30).read()
                )
                if health["status"] == "ok":
                    break
                time.sleep(0.2)
            assert health["status"] == "ok"
            assert health["respawning_shards"] == []


class TestCLIShutdownWithTracks:
    """`repro serve --tracks --workers N` must not orphan shards while
    live tracks exist (satellite: SIGTERM path with open streams)."""

    def test_sigterm_with_live_tracks(self, world, measurements, init):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1",
                "--n-iterations", "4", "--substrates", "digital",
                "--tracks", "--track-substrates", "cim",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 120
            assert process.stdout is not None
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if "http://" in line:
                    port = int(
                        line.split("http://")[1].split()[0].split(":")[1]
                    )
                    break
            assert port, "server never printed its address"
            controls, depths, _ = measurements
            opened = post(
                port,
                "/track/open",
                {"init": init.to_dict(), "substrate": "cim", "seed": 0},
            )
            post(
                port,
                "/track/step",
                {
                    "track_id": opened["track_id"],
                    "control": controls[0].tolist(),
                    "depth": depths[0].tolist(),
                },
            )
            stats = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/stats", timeout=30
                ).read()
            )
            assert stats["tracks"]["live"] == 1
            worker_pids = [
                row["pid"] for row in stats["shards"]["shards"]
            ]
            assert worker_pids
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
            deadline = time.monotonic() + 10
            pending = list(worker_pids)
            while pending and time.monotonic() < deadline:
                pending = [
                    pid
                    for pid in pending
                    if _alive(pid)
                ]
                if pending:
                    time.sleep(0.05)
            assert pending == []
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def _alive(pid):
    try:
        os.kill(pid, 0)
        return True
    except (ProcessLookupError, PermissionError):
        return False


class TestStepExceptionSafety:
    """A raising step fails only its own item: the shared prototype's
    ledger never sees a track's metering, and every other track's
    stream stays bit-exact."""

    @staticmethod
    def _failing_store(world, init, seed, monkeypatch, measurements, seam):
        """Step track ``t1`` once through ``step_batch`` with the
        ``(owner, attribute)`` that ``seam(prototype session)`` picks out
        of the wave's calls raising."""
        from repro.serve.tracks import TrackStore

        store = TrackStore(world, ("cim",))
        store.open("t1", "cim", init, seed)
        session = store._prototypes["cim"]
        controls, depths, truths = measurements
        owner, attribute = seam(session)

        def boom(*args, **kwargs):
            raise RuntimeError("sensor glitch")

        with monkeypatch.context() as patched:
            patched.setattr(owner, attribute, boom)
            outcomes = store.step_batch(
                [("t1", controls[0], depths[0], truths[0])]
            )
        return store, outcomes

    def test_raising_account_spares_prototype_and_other_tracks(
        self, world, measurements, init, monkeypatch
    ):
        # Metering raises for t1's ledger only, on every step of a
        # two-track wave.
        from repro.filtering.measurement import FieldReading
        from repro.serve.tracks import TrackStore

        store = TrackStore(world, ("cim",))
        store.open("t1", "cim", init, 5)
        store.open("t2", "cim", init, 6)
        prototype = store._prototypes["cim"].localizer.field_backend.ledger
        before = {
            op: (prototype.count(op), prototype.energy(op))
            for op in prototype.operations
        }
        doomed = store._tracks["t1"].ledger
        account = FieldReading.account

        def glitch(self, ledger):
            if ledger is doomed:
                raise RuntimeError("sensor glitch")
            account(self, ledger)

        monkeypatch.setattr(FieldReading, "account", glitch)
        controls, depths, truths = measurements
        streamed = []
        for i in range(N_STEPS):
            failed, (status, payload) = store.step_batch(
                [
                    (track, controls[i], depths[i], truths[i])
                    for track in ("t1", "t2")
                ]
            )
            assert failed[0] == "error"
            assert "sensor glitch" in failed[1]
            assert status == "ok", payload
            streamed.append(payload)
        monkeypatch.undo()
        assert {
            op: (prototype.count(op), prototype.energy(op))
            for op in prototype.operations
        } == before
        assert prototype._scopes == []
        assert doomed._scopes == []
        reference = reference_track_run(world, "cim", init, 6, measurements)
        assert np.array_equal(
            np.array([r["estimate"] for r in streamed]), reference.mean
        )
        final = streamed[-1]
        assert final["energy_j"] == reference.energy_j
        assert final["ops_executed"] == reference.ops_executed
        assert final["energy_breakdown_j"] == reference.energy_breakdown_j

    def test_steps_after_failure_stay_bit_exact(
        self, world, measurements, init, monkeypatch
    ):
        # The predict half is the wave's first call into a step, before
        # any draw from the track's generator.
        store, outcomes = self._failing_store(
            world, init, 7, monkeypatch, measurements,
            lambda session: (session.localizer.filter, "predict"),
        )
        assert outcomes[0][0] == "error"
        controls, depths, truths = measurements
        results = []
        for i in range(N_STEPS):
            [(status, payload)] = store.step_batch(
                [("t1", controls[i], depths[i], truths[i])]
            )
            assert status == "ok", payload
            results.append(payload)
        reference = reference_track_run(world, "cim", init, 7, measurements)
        streamed = np.array([r["estimate"] for r in results])
        assert np.array_equal(streamed, reference.mean)
        final = results[-1]
        assert final["energy_j"] == reference.energy_j
        assert final["ops_executed"] == reference.ops_executed
