"""Cross-track fused localization step: golden pins and wave parity.

``TrackStore.step_batch`` runs a micro-batch as waves -- at most one
step per track -- and a wave as one struct-of-arrays step: the tracks'
particle sets stacked on a wave axis through every filter half, with
one DAC -> array -> noise -> ADC pass per tile over every track's
points.  Every response must stay bit-for-bit what the per-track step
loop produced.  Parity is checked over wave widths {1, 2, 8, 32} (the
``vec_size`` idiom), on lockstep waves and on the fleet's own traffic
shape: tracks at distinct frames, ragged scans, frames with no valid
pixel, and resampling and non-resampling tracks in one wave.

The pins in ``data/track_golden_pins.json`` were captured from the
per-track step loop (one ``localizer.step`` per item) that the wave
replaces: per-step estimates (sha256), ``log_evidence``, ESS, spread,
cumulative and per-step energy (float hex), ops and the energy
breakdown, over the demo world with tiles (2, 2, 2) and noise on, a
single array (tiles (1, 1, 1)), noise and mismatch off, and the
``digital`` substrate.

The energy fields were re-captured when each track got one ledger of
its own and the tiled map one ledger for all its tiles.  The metered
charges are unchanged, but their float sums now run from zero in call
order instead of being differenced from marks on per-tile ledgers
merged per step, so some energies moved in their last bits (below
1e-14 relative).  Every other field is unchanged.

Regenerate the pins (only for a deliberate, reviewed change of the
numerics) with::

    PYTHONPATH=src python tests/test_track_wave.py --write
"""

from __future__ import annotations

import copy

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.serve import TrackInit, reference_track_run
from repro.serve.demo import demo_track_measurements, demo_track_world
from repro.serve.tracks import TrackStore

PINS_PATH = Path(__file__).with_name("data") / "track_golden_pins.json"
PIN_SEEDS = (0, 1, 2, 3)
PIN_STEPS = 8
PIN_CONFIGS = {
    "tiled-noisy": ("cim", {}),
    "single-array": ("cim", {"tiles": (1, 1, 1)}),
    "noiseless": ("cim", {"with_noise": False, "with_mismatch": False}),
    "digital": ("digital", {}),
}


def pin_world(overrides: dict):
    world = demo_track_world()
    return dataclasses.replace(
        world, localizer_kwargs={**world.localizer_kwargs, **overrides}
    )


def tracking_init(truths: np.ndarray) -> TrackInit:
    return TrackInit(
        mode="tracking",
        state=truths[0],
        sigma=np.full(truths.shape[1], 0.05),
        z_range=None,
    )


def _response_pin(payload: dict) -> dict:
    estimate = np.ascontiguousarray(payload["estimate"], dtype=float)
    return {
        "estimate_sha256": hashlib.sha256(estimate.tobytes()).hexdigest(),
        "log_evidence": float(payload["log_evidence"]).hex(),
        "ess": float(payload["ess"]).hex(),
        "spread": float(payload["spread"]).hex(),
        "resampled": bool(payload["resampled"]),
        "energy_j": float(payload["energy_j"]).hex(),
        "step_energy_j": float(payload["step_energy_j"]).hex(),
        "ops_executed": int(payload["ops_executed"]),
        "step_ops": int(payload["step_ops"]),
        "breakdown": {
            op: float(energy).hex()
            for op, energy in sorted(payload["energy_breakdown_j"].items())
        },
    }


def capture_config_pins(substrate: str, overrides: dict) -> list[list[dict]]:
    """Seeds ``PIN_SEEDS`` stepped in lockstep, one batch per step."""
    world = pin_world(overrides)
    controls, depths, truths = demo_track_measurements(n_steps=PIN_STEPS)
    init = tracking_init(truths)
    store = TrackStore(world, (substrate,))
    for seed in PIN_SEEDS:
        store.open(f"t{seed}", substrate, init, seed)
    pins: list[list[dict]] = [[] for _ in PIN_SEEDS]
    for k in range(PIN_STEPS):
        outcomes = store.step_batch(
            [(f"t{seed}", controls[k], depths[k], truths[k]) for seed in PIN_SEEDS]
        )
        for bucket, (status, payload) in zip(pins, outcomes):
            assert status == "ok", payload
            bucket.append(_response_pin(payload))
    return pins


def capture_pins() -> dict:
    return {
        name: capture_config_pins(substrate, overrides)
        for name, (substrate, overrides) in PIN_CONFIGS.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("config", sorted(PIN_CONFIGS))
def test_golden_pins_reproduce(golden, config):
    substrate, overrides = PIN_CONFIGS[config]
    assert capture_config_pins(substrate, overrides) == golden[config]


# -- wave == per-track parity ----------------------------------------------

N_STEPS = 4
WAVE_CONFIGS = ("tiled-noisy", "single-array", "digital")


@pytest.fixture(scope="module")
def measurements():
    return demo_track_measurements(n_steps=N_STEPS)


@pytest.fixture(scope="module")
def init(measurements):
    return tracking_init(measurements[2])


@pytest.fixture(scope="module")
def worlds():
    return {name: pin_world(PIN_CONFIGS[name][1]) for name in PIN_CONFIGS}


@pytest.fixture(scope="module")
def fresh_sessions(worlds):
    """One freshly built session per config; oracles run on copies."""
    return {
        name: worlds[name].build_session(PIN_CONFIGS[name][0])
        for name in WAVE_CONFIGS
    }


def oracle(fresh_session, init, seed, measurements):
    """:func:`reference_track_run` on a copy of a fresh session (the
    same build, without paying for it per seed)."""
    session = copy.deepcopy(fresh_session)
    rng = np.random.default_rng(int(seed))
    init.apply(session, rng)
    return session.run(measurements, rng=rng)


def open_store(world, substrate, init, seeds):
    store = TrackStore(world, (substrate,))
    for seed in seeds:
        store.open(f"t{seed}", substrate, init, seed)
    return store


def step_item(seed, k, measurements):
    controls, depths, truths = measurements
    return (f"t{seed}", controls[k], depths[k], truths[k])


def payloads(outcomes):
    for status, payload in outcomes:
        assert status == "ok", payload
    return [payload for _, payload in outcomes]


def assert_matches_oracle(responses, reference):
    streamed = np.array([r["estimate"] for r in responses])
    assert np.array_equal(streamed, reference.mean)
    final = responses[-1]
    assert final["energy_j"] == reference.energy_j
    assert final["ops_executed"] == reference.ops_executed
    assert final["energy_breakdown_j"] == reference.energy_breakdown_j


def test_copy_oracle_is_reference_track_run(
    worlds, fresh_sessions, init, measurements
):
    reference = reference_track_run(
        worlds["tiled-noisy"], "cim", init, 3, measurements
    )
    copied = oracle(fresh_sessions["tiled-noisy"], init, 3, measurements)
    assert np.array_equal(copied.mean, reference.mean)
    assert copied.energy_j == reference.energy_j
    assert copied.energy_breakdown_j == reference.energy_breakdown_j


@pytest.mark.parametrize("width", [1, 2, 8, 32])
@pytest.mark.parametrize("config", WAVE_CONFIGS)
class TestWaveParity:
    """A ``width``-track wave == each track stepped on its own."""

    def test_wave_matches_per_track(
        self, width, config, worlds, fresh_sessions, init, measurements
    ):
        substrate = PIN_CONFIGS[config][0]
        seeds = range(100, 100 + width)
        store = open_store(worlds[config], substrate, init, seeds)
        streams = {seed: [] for seed in seeds}
        for k in range(N_STEPS):
            batch = payloads(
                store.step_batch([step_item(seed, k, measurements) for seed in seeds])
            )
            for seed, payload in zip(seeds, batch):
                streams[seed].append(payload)
        # Full responses (per-step scopes, evidence, ESS) against one
        # track stepped alone, cumulative metering against the oracle.
        lone_seed = seeds[-1]
        lone = open_store(worlds[config], substrate, init, [lone_seed])
        for k in range(N_STEPS):
            [alone] = payloads(lone.step_batch([step_item(lone_seed, k, measurements)]))
            assert _response_pin(alone) == _response_pin(streams[lone_seed][k])
        for seed in seeds:
            reference = oracle(fresh_sessions[config], init, seed, measurements)
            assert_matches_oracle(streams[seed], reference)

    def test_planned_reads_match_lone_reads(self, width, config, fresh_sessions):
        """Backend level: one planned wave of ``width`` callers == lone
        ``field_log`` calls in values, generator states and metering."""
        session_a = copy.deepcopy(fresh_sessions[config])
        session_b = copy.deepcopy(fresh_sessions[config])
        lone_backend = session_a.localizer.field_backend
        wave_backend = session_b.localizer.field_backend
        lo, hi = session_a.localizer.bounds
        # An odd point count, spilling past the domain: every caller
        # visits the tiles (and the empty ones) in uneven shares.
        points = np.random.default_rng(width).uniform(
            lo - 0.3, hi + 0.3, size=(width, 48 * 16 - 37, 3)
        )
        lone_rngs = [np.random.default_rng([7, i]) for i in range(width)]
        wave_rngs = [np.random.default_rng([7, i]) for i in range(width)]
        lone_values = [
            lone_backend.field_log(p, rng=r) for p, r in zip(points, lone_rngs)
        ]
        readings = wave_backend.read_planned(
            wave_backend.plan_field_log(points, wave_rngs)
        )
        for reading in readings:
            reading.account(wave_backend.ledger)
        for lone, reading in zip(lone_values, readings):
            assert np.array_equal(lone, reading.values)
        for lone_rng, wave_rng in zip(lone_rngs, wave_rngs):
            assert lone_rng.bit_generator.state == wave_rng.bit_generator.state
        assert _ledger_pin(lone_backend.ledger) == _ledger_pin(wave_backend.ledger)


@pytest.mark.parametrize("width", [2, 8])
def test_planned_reads_match_per_tile_reads(width, fresh_sessions):
    """Read-noise draw order checked without ``ArrayBank.plan``: each
    caller's points routed with ``tile_of``, then every active tile's
    ``InverterArray.read_log_likelihood`` in flat-key order on the
    caller's one generator.  ``field_log`` and a planned wave of
    ``width`` callers must match it in values and generator states."""
    lone_map, field_map, wave_map = (
        copy.deepcopy(fresh_sessions["tiled-noisy"]).localizer.field_backend.tiled_map
        for _ in range(3)
    )
    arrays = lone_map._bank.arrays
    assert all(array.noise is not None for array, _ in arrays.values())
    lo, hi = fresh_sessions["tiled-noisy"].localizer.bounds
    points = np.random.default_rng(width).uniform(
        lo - 0.3, hi + 0.3, size=(width, 48 * 16 - 37, 3)
    )

    def per_tile_read(caller_points, rng):
        # Tile (i, j, k)'s flat key is (i * ny + j) * nz + k.
        keys = np.ravel_multi_index(
            lone_map.tile_of(caller_points).T, lone_map.tiles
        )
        values = np.full(caller_points.shape[0], lone_map._bank.empty_log)
        for key in sorted(arrays):
            rows = keys == key
            if rows.any():
                array, encoder = arrays[key]
                values[rows] = array.read_log_likelihood(
                    caller_points[rows], encoder, rng
                )
        return values

    def rngs():
        return [np.random.default_rng([7, i]) for i in range(width)]

    lone_rngs, field_rngs, wave_rngs = rngs(), rngs(), rngs()
    lone = [per_tile_read(p, r) for p, r in zip(points, lone_rngs)]
    fields = [field_map.field_log(p, rng=r) for p, r in zip(points, field_rngs)]
    readings = wave_map.read_planned(wave_map.plan_field_log(points, wave_rngs))
    for i in range(width):
        assert np.array_equal(lone[i], fields[i])
        assert np.array_equal(lone[i], readings[i].values)
        state = lone_rngs[i].bit_generator.state
        assert field_rngs[i].bit_generator.state == state
        assert wave_rngs[i].bit_generator.state == state


@pytest.mark.parametrize("config", ["tiled-noisy", "single-array"])
def test_noisy_read_requires_a_generator(config, fresh_sessions):
    """A caller with rows on a noisy array must bring a generator, in a
    wave as alone; the raise comes before anything is read or metered."""
    backend = copy.deepcopy(fresh_sessions[config]).localizer.field_backend
    before = _ledger_pin(backend.ledger)
    points = np.zeros((2, 5, 3))
    with pytest.raises(ValueError, match="rng required"):
        backend.plan_field_log(points, [np.random.default_rng(0), None])
    with pytest.raises(ValueError, match="rng required"):
        backend.field_log(points[0], rng=None)
    assert _ledger_pin(backend.ledger) == before


@pytest.mark.parametrize("config", WAVE_CONFIGS)
def test_raising_run_detaches_its_ledger_scope(
    config, fresh_sessions, init, measurements, monkeypatch
):
    """A step that raises mid-``run`` leaves no scope on the backend
    ledger, so the session's next run meters like a fresh copy's."""
    session = copy.deepcopy(fresh_sessions[config])
    localizer = session.localizer
    step = localizer.step
    calls = []

    def glitch(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("step glitch")
        return step(*args, **kwargs)

    init.apply(session, np.random.default_rng(4))
    with monkeypatch.context() as patched:
        patched.setattr(localizer, "step", glitch)
        with pytest.raises(RuntimeError, match="step glitch"):
            session.run(measurements, rng=np.random.default_rng(4))
    assert localizer.field_backend.ledger._scopes == []
    rng = np.random.default_rng(5)
    init.apply(session, rng)
    rerun = session.run(measurements, rng=rng)
    reference = oracle(fresh_sessions[config], init, 5, measurements)
    assert np.array_equal(rerun.mean, reference.mean)
    assert rerun.energy_j == reference.energy_j
    assert rerun.ops_executed == reference.ops_executed
    assert rerun.energy_breakdown_j == reference.energy_breakdown_j


@pytest.mark.parametrize("width", [1, 2, 8, 32])
def test_stacked_array_pass_matches_lone_reads(width, fresh_sessions):
    """Array level, currents compared bitwise: short reads of every
    length mod 4, so each read's rows land on both sides of a BLAS
    matvec's row blocking when stacked."""
    localizer = fresh_sessions["single-array"].localizer
    array, encoder = localizer.array, localizer.encoder
    lo, hi = localizer.bounds
    rng = np.random.default_rng([11, width])
    sizes = np.array([1 + (7 * i) % 13 for i in range(4 * width)])
    points = [rng.uniform(lo, hi, size=(size, 3)) for size in sizes]
    noise = [array.draw_noise(size, rng) for size in sizes]
    log_lik, currents = array.read(
        np.concatenate(points), np.concatenate(noise), sizes, encoder
    )
    stop = 0
    for size, read_points, read_noise in zip(sizes, points, noise):
        start, stop = stop, stop + size
        lone_log_lik, lone_currents = array.read(
            read_points, read_noise, [size], encoder
        )
        assert np.array_equal(currents[start:stop], lone_currents)
        assert np.array_equal(log_lik[start:stop], lone_log_lik)


def _ledger_pin(ledger):
    return {op: (ledger.count(op), ledger.energy(op).hex()) for op in ledger.operations}


# -- the fleet's traffic shape ---------------------------------------------

FLEET_FRAMES = 14
FLEET_STEPS = 5


def sparse_frame(depth, n_valid):
    """``depth`` with only its first ``n_valid`` valid pixels kept."""
    sparse = np.full_like(depth, np.nan)
    valid = np.flatnonzero(np.isfinite(depth) & (depth > 0))[:n_valid]
    sparse.flat[valid] = depth.flat[valid]
    return sparse


def fleet_streams(width):
    """Per track: its init and its step items, as a served fleet sends
    them -- every track at its own orbit frame, tight and loose priors
    side by side, ragged scans and frames with no valid pixel."""
    controls, depths, truths = demo_track_measurements(n_steps=FLEET_FRAMES)
    streams = []
    for i in range(width):
        phase = i % (FLEET_FRAMES - FLEET_STEPS + 1)
        init = TrackInit(
            mode="tracking",
            state=truths[phase],
            sigma=np.full(truths.shape[1], 0.05 if i % 2 == 0 else 0.4),
            z_range=None,
        )
        items = []
        for j in range(FLEET_STEPS):
            k = phase + j
            control = np.zeros(4) if j == 0 else controls[k]
            depth = depths[k]
            if j == 2 and i % 2 == 0:
                depth = sparse_frame(depth, 6 + i % 5)
            if j == 3 and i % 3 == 1:
                depth = np.full_like(depth, np.nan)
            items.append((f"t{i}", control, depth, truths[k]))
        streams.append((init, items))
    return streams


@pytest.mark.parametrize("width", [1, 2, 8, 32])
@pytest.mark.parametrize("config", ["tiled-noisy", "single-array"])
def test_fleet_traffic_matches_lone_steps(width, config, worlds, fresh_sessions):
    """Waves as the served fleet makes them: tracks at distinct frames,
    scans smaller than ``max_pixels`` of several sizes, a frame with no
    valid pixel (which fails only its own item), and resampling and
    non-resampling tracks in one wave.  Every outcome equals the same
    track's lone steps, and the first tracks' streams their one-shot
    runs."""
    substrate = PIN_CONFIGS[config][0]
    streams = fleet_streams(width)
    wave_store = TrackStore(worlds[config], (substrate,))
    lone_store = TrackStore(worlds[config], (substrate,))
    for i, (init, _) in enumerate(streams):
        wave_store.open(f"t{i}", substrate, init, 200 + i)
        lone_store.open(f"t{i}", substrate, init, 200 + i)
    served = [[] for _ in streams]
    mixed_waves = 0
    for j in range(FLEET_STEPS):
        wave = [steps[j] for _, steps in streams]
        waved = wave_store.step_batch(wave)
        alone = [lone_store.step_batch([item])[0] for item in wave]
        for i, (wave_outcome, lone_outcome) in enumerate(zip(waved, alone)):
            assert wave_outcome[0] == lone_outcome[0]
            if wave_outcome[0] == "ok":
                assert _response_pin(wave_outcome[1]) == _response_pin(
                    lone_outcome[1]
                )
                served[i].append((wave[i], wave_outcome[1]))
            else:
                assert j == 3 and i % 3 == 1
                assert "no valid pixels" in wave_outcome[1]
        resampled = {
            payload["resampled"] for status, payload in waved if status == "ok"
        }
        mixed_waves += resampled == {True, False}
    if width > 1:
        assert mixed_waves > 0
    for i in range(min(width, 2)):
        items = [item for item, _ in served[i]]
        measurements = (
            np.array([item[1] for item in items]),
            [item[2] for item in items],
            np.array([item[3] for item in items]),
        )
        reference = oracle(fresh_sessions[config], streams[i][0], 200 + i, measurements)
        assert_matches_oracle([payload for _, payload in served[i]], reference)


class TestWaveShapes:
    def test_replay_shaped_batch_runs_in_order(
        self, worlds, fresh_sessions, init, measurements
    ):
        """One track's whole log in one batch (crash replay), interleaved
        with another track: same-track items split into waves in order."""
        store = open_store(worlds["tiled-noisy"], "cim", init, [1, 2])
        items = [step_item(1, k, measurements) for k in range(N_STEPS)]
        items.insert(2, step_item(2, 0, measurements))
        outcomes = payloads(store.step_batch(items))
        replayed = [outcomes[i] for i in (0, 1, 3, 4)]
        assert_matches_oracle(
            replayed, oracle(fresh_sessions["tiled-noisy"], init, 1, measurements)
        )
        lone = open_store(worlds["tiled-noisy"], "cim", init, [2])
        [alone] = payloads(lone.step_batch([step_item(2, 0, measurements)]))
        assert _response_pin(alone) == _response_pin(outcomes[2])

    def test_invalid_depth_fails_only_its_item(
        self, worlds, fresh_sessions, init, measurements
    ):
        seeds = (1, 2, 3)
        store = open_store(worlds["tiled-noisy"], "cim", init, seeds)
        controls, depths, truths = measurements
        batch = [step_item(seed, 0, measurements) for seed in seeds]
        batch[1] = ("t2", controls[0], np.full_like(depths[0], np.nan), truths[0])
        batch[2] = ("t3", controls[0], depths[0][:-1], truths[0])
        outcomes = store.step_batch(batch)
        # Client faults: decoded into a ValueError with this message.
        assert outcomes[1] == ("invalid", "depth image contains no valid pixels")
        assert outcomes[2][0] == "invalid"
        assert outcomes[2][1].startswith("depth shape")
        streams = {1: [outcomes[0][1]], 2: [], 3: []}
        for k in range(N_STEPS):
            live = [seed for seed in seeds if k > 0 or seed != 1]
            batch = payloads(
                store.step_batch([step_item(seed, k, measurements) for seed in live])
            )
            for seed, payload in zip(live, batch):
                streams[seed].append(payload)
        for seed in seeds:
            reference = oracle(fresh_sessions["tiled-noisy"], init, seed, measurements)
            assert_matches_oracle(streams[seed], reference)

    def test_unknown_track_fails_only_its_item(self, worlds, init, measurements):
        store = open_store(worlds["tiled-noisy"], "cim", init, [1])
        outcomes = store.step_batch(
            [step_item(9, 0, measurements), step_item(1, 0, measurements)]
        )
        assert outcomes[0] == (
            "track_error", ("unknown", "track 't9' is not open on this shard")
        )
        assert outcomes[1][0] == "ok"

    def test_failed_update_keeps_next_step_scope(
        self, worlds, init, measurements, monkeypatch
    ):
        """An update half that raises after its field read was metered:
        the read stays in the track's cumulative ledgers (as a lone step
        that raised there would leave it) but not in the next step's
        per-step scope."""
        store = open_store(worlds["tiled-noisy"], "cim", init, [1, 2])
        pf = store._prototypes["cim"].localizer.filter

        def glitch(*args, **kwargs):
            raise RuntimeError("update glitch")

        with monkeypatch.context() as patched:
            patched.setattr(pf, "update", glitch)
            outcomes = store.step_batch([step_item(1, 0, measurements)])
        assert outcomes[0][0] == "error"
        failed, clean = payloads(
            store.step_batch(
                [step_item(1, 0, measurements), step_item(2, 0, measurements)]
            )
        )
        assert failed["step_ops"] == clean["step_ops"]
        assert failed["ops_executed"] == 2 * clean["ops_executed"]

    def test_failed_update_in_a_wave_fails_only_its_item(
        self, worlds, fresh_sessions, init, measurements, monkeypatch
    ):
        """An update half that raises for one track of a wave, after the
        resampling draws: the wave rewinds the generators to before the
        update and updates its steps one at a time, so only that track's
        step fails and every other stream stays bit-exact."""
        # A loose prior, so the failing step resamples (and draws).
        loose = dataclasses.replace(init, sigma=np.full(4, 0.4))
        seeds = (4, 5, 6)
        store = open_store(worlds["tiled-noisy"], "cim", loose, seeds)
        pf = store._prototypes["cim"].localizer.filter
        doomed = store._tracks["t5"].rng
        update = pf.update

        def selective(states, log_weights, log_lik, rngs):
            result = update(states, log_weights, log_lik, rngs)
            if any(rng is doomed for rng in rngs):
                raise RuntimeError("update glitch")
            return result

        streams = {seed: [] for seed in (4, 6)}
        for k in range(N_STEPS):
            with monkeypatch.context() as patched:
                if k == 0:
                    patched.setattr(pf, "update", selective)
                outcomes = store.step_batch(
                    [step_item(seed, k, measurements) for seed in seeds]
                )
            if k == 0:
                assert outcomes[1][0] == "error"
                assert "update glitch" in outcomes[1][1]
            for seed, (status, payload) in zip(seeds, outcomes):
                if seed != 5:
                    assert status == "ok", payload
                    streams[seed].append(payload)
        assert any(stream[0]["resampled"] for stream in streams.values())
        for seed, stream in streams.items():
            reference = oracle(fresh_sessions["tiled-noisy"], loose, seed, measurements)
            assert_matches_oracle(stream, reference)

    def test_shared_pass_failure_retries_item_by_item(
        self, worlds, fresh_sessions, init, measurements, monkeypatch
    ):
        """A one-shot raise in the shared tile pass: the wave rewinds the
        generators and re-runs its items alone; all succeed, bit-exact."""
        from repro.core.tiling import TiledInverterArrayMap

        original = TiledInverterArrayMap.read_planned
        calls = []

        def flaky(self, plan):
            calls.append(plan.counts.shape[1])
            if len(calls) == 1:
                raise RuntimeError("transient array fault")
            return original(self, plan)

        seeds = (4, 5, 6)
        store = open_store(worlds["tiled-noisy"], "cim", init, seeds)
        monkeypatch.setattr(TiledInverterArrayMap, "read_planned", flaky)
        streams = {seed: [] for seed in seeds}
        for k in range(N_STEPS):
            batch = payloads(
                store.step_batch([step_item(seed, k, measurements) for seed in seeds])
            )
            for seed, payload in zip(seeds, batch):
                streams[seed].append(payload)
        assert calls[:4] == [3, 1, 1, 1]
        for seed in seeds:
            reference = oracle(fresh_sessions["tiled-noisy"], init, seed, measurements)
            assert_matches_oracle(streams[seed], reference)

    def test_shared_pass_failure_fails_only_the_raising_item(
        self, worlds, fresh_sessions, init, measurements, monkeypatch
    ):
        from repro.core.tiling import TiledInverterArrayMap

        seeds = (4, 5, 6)
        store = open_store(worlds["tiled-noisy"], "cim", init, seeds)
        doomed = store._tracks["t5"].rng
        original_plan = TiledInverterArrayMap.plan_field_log
        original_read = TiledInverterArrayMap.read_planned
        bad_plans = []

        def recording(self, points, rngs):
            plan = original_plan(self, points, rngs)
            if any(rng is doomed for rng in rngs):
                bad_plans.append(plan)
            return plan

        def selective(self, plan):
            if any(plan is bad for bad in bad_plans):
                raise RuntimeError("bad tile read")
            return original_read(self, plan)

        monkeypatch.setattr(TiledInverterArrayMap, "read_planned", selective)
        monkeypatch.setattr(TiledInverterArrayMap, "plan_field_log", recording)
        outcomes = store.step_batch(
            [step_item(seed, 0, measurements) for seed in seeds]
        )
        assert [status for status, _ in outcomes] == ["ok", "error", "ok"]
        assert "bad tile read" in outcomes[1][1]
        for seed, (_, payload) in zip((4, 6), (outcomes[0], outcomes[2])):
            reference = oracle(
                fresh_sessions["tiled-noisy"], init, seed,
                tuple(part[:1] for part in measurements),
            )
            assert_matches_oracle([payload], reference)


# -- lone and wave steps fail the same way ----------------------------------


def glitch(patched, localizer, doomed, kind):
    """Make the ``kind`` half ("update" or "read") raise for the set
    that draws from ``doomed``, after that half's own work ran."""
    if kind == "update":
        update = localizer.filter.update

        def failing_update(states, log_weights, log_lik, rngs):
            result = update(states, log_weights, log_lik, rngs)
            if any(rng is doomed for rng in rngs):
                raise RuntimeError("update glitch")
            return result

        patched.setattr(localizer.filter, "update", failing_update)
        return
    backend = localizer.field_backend
    plan_field_log, read_planned = backend.plan_field_log, backend.read_planned
    doomed_plans = []

    def recording(points, rngs):
        plan = plan_field_log(points, rngs)
        if any(rng is doomed for rng in rngs):
            doomed_plans.append(plan)
        return plan

    def failing_read(plan):
        values = read_planned(plan)
        if any(plan is doomed_plan for doomed_plan in doomed_plans):
            raise RuntimeError("read glitch")
        return values

    patched.setattr(backend, "plan_field_log", recording)
    patched.setattr(backend, "read_planned", failing_read)


@pytest.mark.parametrize("kind", ["update", "read"])
@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("config", WAVE_CONFIGS)
def test_wave_fails_like_lone_steps(
    config, width, kind, worlds, fresh_sessions, init, measurements, monkeypatch
):
    """One set of a ``width``-track wave fails in its update or its read:
    its track meters and draws what a lone ``localizer.step`` that raised
    there meters and draws, the lone filter keeps its particles, and
    every other track equals its lone step."""
    substrate = PIN_CONFIGS[config][0]
    # A loose prior, so failing updates resample (and draw) first.
    loose = dataclasses.replace(init, sigma=np.full(4, 0.4))
    seeds = range(300, 300 + width)
    doomed = seeds[width // 2]
    store = open_store(worlds[config], substrate, loose, seeds)
    with monkeypatch.context() as patched:
        glitch(
            patched,
            store._prototypes[substrate].localizer,
            store._tracks[f"t{doomed}"].rng,
            kind,
        )
        outcomes = store.step_batch(
            [step_item(seed, 0, measurements) for seed in seeds]
        )
    for seed, (status, payload) in zip(seeds, outcomes):
        session = copy.deepcopy(fresh_sessions[config])
        localizer = session.localizer
        rng = np.random.default_rng(seed)
        loose.apply(session, rng)
        prior = localizer.filter.particles
        ledger = localizer.field_backend.ledger
        scope = ledger.begin_scope()
        _, control, depth, _ = step_item(seed, 0, measurements)
        with monkeypatch.context() as patched:
            if seed == doomed:
                glitch(patched, localizer, rng, kind)
            try:
                outcome = localizer.step(control, depth, rng)
            except RuntimeError as error:
                outcome = error
            finally:
                ledger.end_scope(scope)
        track = store._tracks[f"t{seed}"]
        assert _ledger_pin(track.ledger) == _ledger_pin(scope)
        assert track.rng.bit_generator.state == rng.bit_generator.state
        if seed == doomed:
            assert status == "error" and f"{kind} glitch" in payload
            assert str(outcome) == f"{kind} glitch"
            assert localizer.filter.particles is prior
            assert (track.ledger.total_count() > 0) == (kind == "update")
            continue
        assert status == "ok", payload
        assert np.array_equal(payload["estimate"], outcome.estimate)
        for name in ("ess", "resampled", "log_evidence", "spread"):
            assert payload[name] == getattr(outcome, name)
        assert np.array_equal(track.states, localizer.filter.particles.states)
        assert np.array_equal(
            track.log_weights, localizer.filter.particles.log_weights
        )


# -- log evidence -----------------------------------------------------------


@pytest.mark.parametrize(
    "weights",
    [
        np.random.default_rng(0).normal(scale=30.0, size=48),
        np.random.default_rng(1).normal(size=300) - 1e3,
        np.array([0.5, 2.0, 2.0, -1.0, 2.0]),
        np.zeros(48),
        np.array([-3.25]),
        np.array([1.0, np.inf, 2.0]),
        np.array([np.inf, np.inf]),
        np.array([-np.inf, -np.inf, -np.inf]),
        np.array([-np.inf, 0.0, -np.inf]),
        np.array([np.nan, 1.0]),
        np.array([1e308, 1e308, -1e308]),
    ],
    ids=[
        "random", "far-negative", "tied-max", "all-equal", "single",
        "one-inf", "all-inf", "all-minus-inf", "minus-inf-mix", "nan",
        "huge",
    ],
)
def test_log_evidence_matches_scipy_bitwise(weights):
    from scipy.special import logsumexp as scipy_logsumexp

    from repro.maps.gaussian import logsumexp

    with np.errstate(all="ignore"):
        expected = float(scipy_logsumexp(weights) - np.log(weights.size))
    # The update's stacked form, on a stack of one and of three.
    got = float(logsumexp(weights[None])[0] - np.log(weights.size))
    stacked = logsumexp(np.stack([weights[::-1], weights, weights])) - np.log(
        weights.size
    )
    assert np.array_equal(stacked[1:], [got, got], equal_nan=True)
    assert np.array_equal(np.float64(got), np.float64(expected), equal_nan=True)
    if np.isfinite(expected):
        assert got.hex() == expected.hex()


# -- in-process tracks keep no replay log ----------------------------------


def test_in_process_tracks_keep_no_replay_log(worlds, init, measurements):
    import asyncio

    from repro.runtime import BatchPolicy
    from repro.serve import InferenceService
    from repro.serve.demo import demo_model

    service = InferenceService(
        demo_model(),
        substrates=["digital"],
        n_iterations=4,
        batch=BatchPolicy(max_batch=8, max_wait_ms=5.0),
        track_world=worlds["tiled-noisy"],
        track_substrates=["cim"],
    )
    controls, depths, truths = measurements

    async def drive():
        async with service:
            handle = await service.open_track(substrate="cim", init=init, seed=3)
            for k in range(N_STEPS):
                await handle.step(controls[k], depths[k], truth=truths[k])
            record = service._track_manager._tracks[handle.track_id]
            return record, service.stats_snapshot()["tracks"]

    record, stats = asyncio.run(drive())
    assert record.replayable is False
    assert record.log == [] and record.log_bytes == 0
    assert stats["log_bytes"] == 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_track_wave.py --write")
    PINS_PATH.parent.mkdir(exist_ok=True)
    PINS_PATH.write_text(json.dumps(capture_pins(), indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
