"""Layer-major reuse fast path: golden pins and fast == loop parity.

The pins in ``data/reuse_golden_pins.json`` were captured from the
per-iteration reuse engine, the pairwise Hamming ordering search and the
per-mask hardware draw that the fast paths replace.  Every output bit
must survive the rewrite: samples, visit order, energy and its
breakdown, ops, the macros' lifetime odometers and the RNG cycle count.

Regenerate the pins (only for a deliberate, reviewed change of the
numerics) with::

    PYTHONPATH=src python tests/test_reuse_fast_path.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bayesian.ordering import (
    _best_greedy,
    _hamming_matrix,
    optimal_mask_order,
)
from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.nn import Dense, Dropout, ReLU, Sequential
from repro.serve import build_reference_session, reference_run
from repro.serve.demo import demo_inputs, demo_model
from repro.sram.macro import MacroConfig

PINS_PATH = Path(__file__).with_name("data") / "reuse_golden_pins.json"
PIN_SUBSTRATES = ("cim", "cim-reuse", "cim-ordered")
PIN_SEEDS = tuple(range(8))
PIN_DEPTH = 32
ORDER_DEPTHS = (3, 5, 8, 32, 64)
ORDER_WIDTHS = (4, 16, 40)


def _ledger_pin(ledger) -> dict:
    return {
        op: [ledger.count(op), ledger.energy(op).hex()] for op in ledger.operations
    }


def capture_session_pins(substrate: str) -> list[dict]:
    """``reference_run`` seeds 0-7 in order on one demo session.

    One session serves every seed, so the odometer and cycle pins are
    cumulative: they check the in-order float accumulation across calls,
    not just within one.
    """
    session = build_reference_session(
        substrate, demo_model(), n_iterations=PIN_DEPTH
    )
    engine = session.engine
    runs = []
    for seed in PIN_SEEDS:
        result = reference_run(session, demo_inputs(seed), seed)
        samples = np.ascontiguousarray(result.samples)
        runs.append(
            {
                "seed": seed,
                "mask_order": [int(t) for t in result.extras["mask_order"]],
                "samples_sha256": hashlib.sha256(samples.tobytes()).hexdigest(),
                "energy_j": float(result.energy_j).hex(),
                "breakdown": {
                    op: float(energy).hex()
                    for op, energy in sorted(result.energy_breakdown_j.items())
                },
                "ops_executed": int(result.ops_executed),
                "odometer": [
                    _ledger_pin(layer.macro.ledger) for layer in engine.layers
                ],
                "cycles_used": int(engine.bit_generator.cycles_used),
            }
        )
    return runs


def make_engine(keep: float = 0.7, **kwargs) -> CIMMCDropoutEngine:
    rng = np.random.default_rng(3)
    model = Sequential(
        [
            Dense(12, 16, rng),
            ReLU(),
            Dropout(1.0 - keep, rng=np.random.default_rng(11)),
            Dense(16, 4, rng),
        ]
    )
    return CIMMCDropoutEngine(model, rng=np.random.default_rng(7), **kwargs)


def capture_engine_pins() -> list[dict]:
    """Unpinned ``predict`` on a keep-0.7 hardware-RNG engine.

    The engine draws (8-bit-uniform) masks itself, so the pins also
    cover in-call generation energy.
    """
    engine = make_engine(n_iterations=12, refresh_every=5)
    runs = []
    for seed in range(4):
        x = np.random.default_rng([seed, 1]).normal(size=(3, 12))
        result = engine.predict(x, rng=np.random.default_rng(seed))
        runs.append(
            {
                "seed": seed,
                "mask_order": [int(t) for t in result.mask_order],
                "samples_sha256": hashlib.sha256(
                    np.ascontiguousarray(result.samples).tobytes()
                ).hexdigest(),
                "energy": _ledger_pin(result.energy),
                "odometer": [
                    _ledger_pin(layer.macro.ledger) for layer in engine.layers
                ],
                "cycles_used": int(engine.bit_generator.cycles_used),
            }
        )
    return runs


def ordering_cases():
    """Seeded mask sets, including duplicate-row and all-zero ties."""
    for depth in ORDER_DEPTHS:
        for width in ORDER_WIDTHS:
            rng = np.random.default_rng([depth, width])
            masks = (rng.random((depth, width)) < 0.5).astype(np.uint8)
            yield f"random-T{depth}-w{width}", masks
            duplicated = masks.copy()
            duplicated[1::3] = masks[0]
            duplicated[2::5] = masks[-1]
            yield f"duplicate-T{depth}-w{width}", duplicated
            yield f"zero-T{depth}-w{width}", np.zeros((depth, width), np.uint8)


def capture_ordering_pins() -> dict[str, dict[str, list[int]]]:
    """The greedy start order and the 2-opt polished one, per case."""
    return {
        name: {
            "greedy": [int(t) for t in _best_greedy(_hamming_matrix(masks))],
            "greedy-2opt": [int(t) for t in optimal_mask_order(masks)],
        }
        for name, masks in ordering_cases()
    }


def capture_pins() -> dict:
    return {
        "sessions": {s: capture_session_pins(s) for s in PIN_SUBSTRATES},
        "engine": capture_engine_pins(),
        "ordering": capture_ordering_pins(),
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


class TestGoldenPins:
    @pytest.mark.parametrize("substrate", PIN_SUBSTRATES)
    def test_reference_runs_reproduce_pins(self, pins, substrate):
        assert capture_session_pins(substrate) == pins["sessions"][substrate]

    def test_hardware_predict_reproduces_pins(self, pins):
        assert capture_engine_pins() == pins["engine"]

    def test_ordering_reproduces_pins(self, pins):
        assert capture_ordering_pins() == pins["ordering"]


@pytest.fixture(scope="module", params=[1, 3, 16], ids=lambda b: f"batch{b}")
def batch(request) -> int:
    """Input rows per predict: every parity case runs at each width."""
    return request.param


class TestFastMatchesLoop:
    """``fast_path=True`` against the per-iteration loop oracle.

    Samples, visit order and ops are exact.  Energy is compared to a
    tolerance: the loop adds each refresh read's energy per iteration,
    the fast path one stacked read for all of them, so the float sums
    run in a different order (the golden pins hold the fast path's
    energy exactly).
    """

    @pytest.mark.parametrize("n_iterations", [1, 2, 9, 32])
    @pytest.mark.parametrize("refresh_every", [0, 1, 3, 8])
    @pytest.mark.parametrize("ordering", [False, True], ids=["natural", "ordered"])
    @pytest.mark.parametrize("hardware", [False, True], ids=["sw-rng", "hw-rng"])
    @pytest.mark.parametrize("noise", [0.0, 0.3], ids=["noiseless", "noisy"])
    def test_predict_matches_loop(
        self, batch, n_iterations, refresh_every, ordering, hardware, noise
    ):
        common = dict(
            keep=0.5,
            config=MacroConfig(adc_noise_lsb=noise),
            n_iterations=n_iterations,
            reuse=True,
            ordering=ordering,
            refresh_every=refresh_every,
            use_hardware_rng=hardware,
        )
        x = np.random.default_rng([batch, 2]).normal(size=(batch, 12))
        fast = make_engine(fast_path=True, **common).predict(
            x, rng=np.random.default_rng(5)
        )
        loop = make_engine(fast_path=False, **common).predict(
            x, rng=np.random.default_rng(5)
        )
        assert np.array_equal(fast.mask_order, loop.mask_order)
        assert np.array_equal(fast.samples, loop.samples)
        assert fast.ops_executed == loop.ops_executed
        assert fast.energy.operations == loop.energy.operations
        for operation in loop.energy.operations:
            assert fast.energy.count(operation) == loop.energy.count(operation)
        assert fast.energy.total_energy_j() == pytest.approx(
            loop.energy.total_energy_j(), rel=1e-12
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_reuse_fast_path.py --write")
    PINS_PATH.parent.mkdir(exist_ok=True)
    PINS_PATH.write_text(json.dumps(capture_pins(), indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
