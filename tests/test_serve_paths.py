"""One serve execution path: behaviour that must not depend on the
deployment shape (one in-process shard or spawned shards), and the
admission checks in front of it."""

import asyncio
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api.results import strict_dumps, strict_loads
from repro.runtime import BatchPolicy, ShardPolicy
from repro.serve import (
    InferenceRequest,
    InferenceService,
    TrackError,
    TrackInit,
    TrackOpenRequest,
    TrackStepRequest,
    TrackStepResponse,
    build_reference_session,
    reference_run,
    reference_track_run,
    result_mismatches,
    stream_mismatches,
)
from repro.serve.demo import (
    demo_inputs,
    demo_model,
    demo_track_measurements,
    demo_track_world,
)
from repro.serve.http import serve_http

N_ITER = 4
N_STEPS = 3
SHAPES = [0, 2]  # workers: one in-process shard, two spawned shards


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
    )


def make_service(world, workers=0):
    return InferenceService(
        demo_model(),
        substrates=["digital"],
        n_iterations=N_ITER,
        batch=BatchPolicy(max_batch=8, max_wait_ms=50.0),
        shard=ShardPolicy(workers=workers),
        track_world=world,
        track_substrates=["cim"],
    )


def post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=strict_dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return strict_loads(response.read().decode())


def post_status(port, path, payload):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(port, path, payload)
    excinfo.value.close()
    return excinfo.value.code


class TestAdmission:
    """Non-finite values never reach a shard: they are client errors."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inference_inputs_rejected(self, bad):
        x = demo_inputs()
        x[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            InferenceRequest(x, substrate="cim")

    def test_three_dimensional_inputs_rejected(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            InferenceRequest(np.zeros((2, 2, 8)), substrate="cim")

    def test_one_dimensional_inputs_still_promoted(self):
        request = InferenceRequest(np.zeros(8), substrate="cim")
        assert request.inputs.shape == (1, 8)

    def test_non_finite_control_and_truth_rejected(self, measurements):
        controls, depths, truths = measurements
        control = controls[0].copy()
        control[2] = np.nan
        with pytest.raises(ValueError, match="control"):
            TrackStepRequest("t", control=control, depth=depths[0])
        truth = truths[0].copy()
        truth[0] = np.inf
        with pytest.raises(ValueError, match="truth"):
            TrackStepRequest(
                "t", control=controls[0], depth=depths[0], truth=truth
            )

    def test_nan_depth_pixels_stay_valid_input(self, measurements):
        controls, depths, _ = measurements
        depth = depths[0].copy()
        depth[0, :] = np.nan  # NaN marks invalid pixels
        request = TrackStepRequest("t", control=controls[0], depth=depth)
        assert np.isnan(request.depth[0]).all()

    def test_rejected_nan_step_leaves_stream_bit_exact(
        self, world, measurements, init
    ):
        controls, depths, truths = measurements
        bad = controls[1].copy()
        bad[0] = np.nan
        service = make_service(world)

        async def drive():
            async with service:
                handle = await service.open_track(
                    substrate="cim", init=init, seed=11
                )
                responses = []
                for step, (control, depth, truth) in enumerate(
                    zip(controls, depths, truths)
                ):
                    if step == 1:
                        with pytest.raises(ValueError, match="finite"):
                            await handle.step(bad, depth, truth=truth)
                    responses.append(
                        await handle.step(control, depth, truth=truth)
                    )
                return responses

        responses = asyncio.run(drive())
        reference = reference_track_run(world, "cim", init, 11, measurements)
        assert not stream_mismatches(responses, reference)

    def test_http_rejects_non_finite_with_400(
        self, world, measurements, init
    ):
        controls, depths, truths = measurements
        service = make_service(world)
        with serve_http(service, port=0) as context:
            x = demo_inputs()
            x[1, 0] = np.nan
            assert post_status(
                context.port,
                "/infer",
                {"inputs": x, "substrate": "digital", "seed": 0},
            ) == 400
            assert post_status(
                context.port,
                "/infer",
                {"inputs": np.zeros((2, 2, 8)), "substrate": "digital"},
            ) == 400
            opened = post(
                context.port,
                "/track/open",
                {"init": init.to_dict(), "substrate": "cim", "seed": 13},
            )
            track_id = opened["track_id"]
            responses = []
            for step, (control, depth, truth) in enumerate(
                zip(controls, depths, truths)
            ):
                body = {
                    "track_id": track_id,
                    "control": control,
                    "depth": depth,
                    "truth": truth,
                }
                if step == 1:
                    bad = control.copy()
                    bad[3] = np.nan
                    assert post_status(
                        context.port, "/track/step", {**body, "control": bad}
                    ) == 400
                    # Frames that pass admission but fail the shard's
                    # draw-free input check are client faults too.
                    for frame in (np.zeros_like(depth), depth[:-1]):
                        assert post_status(
                            context.port, "/track/step", {**body, "depth": frame}
                        ) == 400
                responses.append(
                    TrackStepResponse.from_dict(
                        post(context.port, "/track/step", body)
                    )
                )
        reference = reference_track_run(world, "cim", init, 13, measurements)
        assert not stream_mismatches(responses, reference)


@pytest.mark.parametrize("workers", SHAPES)
class TestFailurePathsMatchAcrossShapes:
    def test_failed_step_fails_alone_and_stream_continues(
        self, world, measurements, init, workers
    ):
        """An all-invalid depth frame passes admission and fails the
        shard's draw-free input check: only that item fails, as a client
        fault (``ValueError``, HTTP 400), its batch-mate's response is
        bit-exact, and the failed track keeps streaming bit-exact -- the
        raise comes before the step draws from the track's RNG.  A frame
        of the wrong shape fails the same way."""
        controls, depths, truths = measurements
        blank = np.full_like(depths[1], np.nan)
        service = make_service(world, workers=workers)

        async def drive():
            async with service:

                def step(track_id, index, depth=None):
                    return service.track_step(
                        TrackStepRequest(
                            track_id,
                            control=controls[index],
                            depth=depths[index] if depth is None else depth,
                            truth=truths[index],
                        )
                    )

                # Open until two tracks share a home: their concurrent
                # steps then coalesce into one micro-batch.
                seeds, homes = {}, {}
                while True:
                    opened = await service.track_open(
                        TrackOpenRequest(
                            init=init, substrate="cim", seed=len(seeds)
                        )
                    )
                    seeds[opened["track_id"]] = opened["seed"]
                    if opened["home_shard"] in homes:
                        ok = homes[opened["home_shard"]]
                        failing = opened["track_id"]
                        break
                    homes[opened["home_shard"]] = opened["track_id"]
                first = await asyncio.gather(step(ok, 0), step(failing, 0))
                second = await asyncio.gather(
                    step(ok, 1),
                    step(failing, 1, depth=blank),
                    return_exceptions=True,
                )
                misshapen = await asyncio.gather(
                    step(failing, 1, depth=depths[1][:-1]),
                    return_exceptions=True,
                )
                third = await asyncio.gather(step(ok, 2), step(failing, 1))
                fourth = await step(failing, 2)
                ok_stream = [first[0], second[0], third[0]]
                failing_stream = [first[1], third[1], fourth]
                return (
                    second,
                    misshapen,
                    (seeds[ok], ok_stream),
                    (seeds[failing], failing_stream),
                )

        second, [misshapen], *streams = asyncio.run(drive())
        served, error = second
        assert type(error) is ValueError
        assert str(error) == "depth image contains no valid pixels"
        assert type(misshapen) is ValueError
        assert "depth shape" in str(misshapen)
        assert served.batch_size == 2  # the failure shared its batch
        # The healthy batch-mate is untouched, and the failed step never
        # happened: both streams are the reference over the measurements
        # they were served.
        for seed, stream in streams:
            assert [r.step_index for r in stream] == [1, 2, 3]
            assert not stream_mismatches(
                stream,
                reference_track_run(world, "cim", init, seed, measurements),
            )

    def test_step_for_track_unknown_to_shard(self, world, measurements, workers):
        controls, depths, _ = measurements
        service = make_service(world, workers=workers)

        async def drive():
            async with service:
                shards = service._shards
                return [
                    await shards.execute_track(
                        *home,
                        "steps",
                        [("ghost", controls[0], depths[0], None)],
                        n_items=1,
                    )
                    for home in shards.ready_homes()
                ]

        for [outcome] in asyncio.run(drive()):
            assert isinstance(outcome, TrackError)
            assert outcome.kind == "unknown"


@pytest.mark.parametrize("workers", SHAPES)
def test_restart_keeps_parity_and_drops_tracks(
    world, measurements, init, workers
):
    """Warm state survives stop() -> start(); live tracks do not."""
    controls, depths, _ = measurements
    service = make_service(world, workers=workers)
    x = demo_inputs()
    expected = reference_run(
        build_reference_session("digital", demo_model(), n_iterations=N_ITER),
        x,
        5,
    )
    requests = [InferenceRequest(x, substrate="digital", seed=5)] * 2

    async def first_lifetime():
        async with service:
            handle = await service.open_track(
                substrate="cim", init=init, seed=0
            )
            await handle.step(controls[0], depths[0])
            return handle.track_id

    async def second_lifetime(track_id):
        async with service:
            with pytest.raises(TrackError) as excinfo:
                await service.track_step(
                    TrackStepRequest(
                        track_id, control=controls[1], depth=depths[1]
                    )
                )
            shards = service._shards
            shard_side = [
                await shards.execute_track(
                    *home,
                    "steps",
                    [(track_id, controls[1], depths[1], None)],
                    n_items=1,
                )
                for home in shards.ready_homes()
            ]
            return excinfo.value, shard_side

    async def infer():
        async with service:
            return await asyncio.gather(*map(service.submit, requests))

    for response in asyncio.run(infer()):
        assert not result_mismatches(response.result, expected)
    track_id = asyncio.run(first_lifetime())
    for response in asyncio.run(infer()):
        assert not result_mismatches(response.result, expected)
    error, shard_side = asyncio.run(second_lifetime(track_id))
    assert error.kind == "unknown"
    # The shard side forgot the track too, not just the manager.
    for [outcome] in shard_side:
        assert isinstance(outcome, TrackError)
        assert outcome.kind == "unknown"
