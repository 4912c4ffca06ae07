"""MC-Dropout wave across requests: every item stays a lone run.

``run_grouped`` runs a whole ``/infer`` micro-batch -- every seed group
-- as one engine wave (``CIMMCDropoutEngine.predict_many`` through
``MCDropoutSession.run_batch`` with a plan per item).  The wave stacks
every request's iterations layer by layer, so these tests hold it to the
per-request contract at every wave width (``vec_size``, the number of
requests in the wave), with mixed row counts and shared-seed groups:

- each response is bit-for-bit ``reference_run`` (values and metering);
- the macro odometers and the hardware-RNG cycle count end exactly as
  after the same requests run one by one in wave order;
- a malformed item fails only its own seed group, and no group's masks
  are drawn twice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.serve import build_reference_session, reference_run, result_mismatches
from repro.serve.demo import DEMO_INPUTS, demo_model
from repro.serve.execution import run_grouped
from repro.sram.macro import MacroConfig, SRAMCIMMacro

DEPTH = 16
SUBSTRATES = ("cim", "cim-reuse", "cim-ordered")
VEC_SIZES = (1, 2, 8, 16)
ROWS = (1, 3, 4)


def make_session(substrate: str):
    return build_reference_session(substrate, demo_model(), n_iterations=DEPTH)


def wave_items(vec_size: int, shared: bool = True) -> list[tuple]:
    """``vec_size`` request items with rows cycling 1, 3, 4; with
    ``shared``, every third request reuses the seed of the one before
    it, so seed groups of two ride in the same wave as lone requests."""
    rng = np.random.default_rng([vec_size, 7])
    items = []
    for index in range(vec_size):
        seed = 1000 + index
        if shared and index % 3 == 2:
            seed = items[-1][1]
        rows = ROWS[index % len(ROWS)]
        items.append((rng.normal(size=(rows, DEMO_INPUTS)), seed, f"r{index}"))
    return items


def odometers(session) -> list[dict]:
    return [
        {
            op: (ledger.count(op), ledger.energy(op).hex())
            for op in ledger.operations
        }
        for ledger in (layer.macro.ledger for layer in session.engine.layers)
    ]


def cycles(session) -> int:
    return session.engine.bit_generator.cycles_used


@pytest.mark.parametrize("vec_size", VEC_SIZES)
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_wave_responses_match_reference_run(substrate, vec_size):
    items = wave_items(vec_size)
    served, reference = make_session(substrate), make_session(substrate)
    outcomes = run_grouped(served, substrate, "demo", items)
    assert len(outcomes) == vec_size
    for (inputs, seed, request_id), (tag, response) in zip(items, outcomes):
        assert tag == "ok", response
        assert response.request_id == request_id
        assert response.batch_size == vec_size
        assert result_mismatches(
            response.result, reference_run(reference, inputs, seed)
        ) == []


@pytest.mark.parametrize("vec_size", VEC_SIZES)
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_wave_meters_like_lone_runs_in_wave_order(substrate, vec_size):
    items = wave_items(vec_size)
    waved, looped = make_session(substrate), make_session(substrate)
    plans, generators = {}, {}
    for session in (waved, looped):
        for _, seed, _ in items:
            if (id(session), seed) not in plans:
                base = np.random.default_rng(seed)
                plans[id(session), seed] = session.draw_masks(base)
                generators[id(session), seed] = base.bit_generator.state

    def generator(session, seed):
        restored = np.random.default_rng(0)
        restored.bit_generator.state = generators[id(session), seed]
        return restored

    batch = waved.run_batch(
        [inputs for inputs, _, _ in items],
        masks=[plans[id(waved), seed] for _, seed, _ in items],
        item_rngs=[generator(waved, seed) for _, seed, _ in items],
    )
    lone = [
        looped.run(
            inputs,
            rng=generator(looped, seed),
            masks=plans[id(looped), seed],
        )
        for inputs, seed, _ in items
    ]
    for waved_result, lone_result in zip(batch.results, lone):
        assert result_mismatches(waved_result, lone_result) == []
    assert odometers(waved) == odometers(looped)
    assert cycles(waved) == cycles(looped)
    distinct = {seed: plans[id(waved), seed] for _, seed, _ in items}
    assert batch.mask_generation_energy_j == sum(
        plan.generation_energy_j for plan in distinct.values()
    )


@pytest.mark.parametrize("vec_size", VEC_SIZES)
def test_served_wave_leaves_odometers_as_lone_reference_runs(vec_size):
    # Distinct seeds: the wave order is the item order, and every lone
    # reference run draws exactly the plan its seed group drew.
    items = wave_items(vec_size, shared=False)
    served, reference = make_session("cim-ordered"), make_session("cim-ordered")
    run_grouped(served, "cim-ordered", "demo", items)
    for inputs, seed, _ in items:
        reference_run(reference, inputs, seed)
    assert odometers(served) == odometers(reference)
    assert cycles(served) == cycles(reference)


@pytest.mark.parametrize("vec_size", VEC_SIZES)
@pytest.mark.parametrize("reuse", [False, True])
def test_ideal_adc_wave_matches_lone_predicts(vec_size, reuse, monkeypatch):
    # With the ADC read made the identity (plus its noise), the samples
    # carry every GEMM's last bits (the demo's 6-bit ADC rounds almost
    # all of them away), so this holds the wave's row-stacked and grouped
    # GEMMs themselves to those of the same requests run alone.  (The
    # per-iteration loop is no oracle at this level: its one-row reads
    # are GEMVs, which round differently from the stacked GEMMs.)
    monkeypatch.setattr(
        SRAMCIMMacro,
        "_read_columns",
        lambda self, analog, rng, noise=None: analog + noise,
    )

    def engine():
        return CIMMCDropoutEngine(
            demo_model(),
            MacroConfig(),
            n_iterations=DEPTH,
            reuse=reuse,
            use_hardware_rng=False,
            calibration_inputs=np.random.default_rng(3).normal(
                size=(64, DEMO_INPUTS)
            ),
            rng=np.random.default_rng(2),
        )

    items = wave_items(vec_size)
    waved, looped = engine(), engine()
    plans = [
        waved.draw_mask_streams(np.random.default_rng(seed)) for _, seed, _ in items
    ]
    orders = [waved.order_mask_streams(streams) for streams in plans]
    results = waved.predict_many(
        [inputs for inputs, _, _ in items],
        [np.random.default_rng(seed) for _, seed, _ in items],
        plans,
        orders,
    )
    for (inputs, seed, _), streams, order, result in zip(
        items, plans, orders, results
    ):
        lone = looped.predict(
            inputs,
            rng=np.random.default_rng(seed),
            mask_streams=streams,
            mask_order=order,
        )
        assert np.array_equal(result.samples, lone.samples)
        assert result.energy.total_energy_j() == lone.energy.total_energy_j()


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_malformed_item_fails_only_its_group(substrate):
    items = wave_items(8)
    # Item 5 shares its seed with item 4 (a group of two); give it the
    # wrong feature width.
    assert items[5][1] == items[4][1]
    items[5] = (np.ones((2, DEMO_INPUTS - 1)), items[5][1], "bad")
    bad_seed = items[5][1]
    served, reference = make_session(substrate), make_session(substrate)
    outcomes = run_grouped(served, substrate, "demo", items)

    for (inputs, seed, _), (tag, payload) in zip(items, outcomes):
        if seed == bad_seed:
            assert tag == "error"
            assert "ValueError" in payload
            continue
        assert tag == "ok"
        assert result_mismatches(
            payload.result, reference_run(reference, inputs, seed)
        ) == []
    # Only the good requests reached the odometers (the groups here are
    # in item order), and every group -- the failed one too -- drew its
    # masks exactly once.
    assert odometers(served) == odometers(reference)
    drawn_once = make_session(substrate)
    for seed in dict.fromkeys(seed for _, seed, _ in items):
        drawn_once.draw_masks(np.random.default_rng(seed))
    assert cycles(served) == cycles(drawn_once)
