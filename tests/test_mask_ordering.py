"""Batched mask ordering: equal to the scalar search, and mutation-checked.

``optimal_mask_order`` orders R mask sets in one call; ``ordering_oracle``
holds the per-set search it replaced.  Every batched order must equal
the oracle's, at every batch width (``vec_size``), on the joint masks a
served ``cim-ordered`` session draws and on random, duplicate-row and
all-zero masks.  The mutant table then holds that equality check to
account: each mutant is a monkeypatch of one helper of the batched
search, and the check must fail under every one of them.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.bayesian.ordering as ordering
from ordering_oracle import oracle_orders, order_mismatches
from repro.api.substrates import MCDropoutSession
from repro.core.cim_mc_dropout import CIMMCDropoutEngine
from repro.serve import build_reference_session
from repro.serve.demo import demo_inputs, demo_model
from repro.serve.execution import run_grouped

VEC_SIZES = (1, 2, 16)
SERVED_SEEDS = range(1000)
SERVED_DEPTH = 32
DEPTHS = (1, 2, 3, 5, 8, 32, 64)
WIDTHS = (4, 16, 40)
SETS_PER_CASE = 16


def served_joint_masks(seeds) -> np.ndarray:
    """(N, T, W) joint masks a served demo ``cim-ordered`` session draws,
    one set per request seed."""
    session = build_reference_session(
        "cim-ordered", demo_model(), n_iterations=SERVED_DEPTH
    )
    return np.stack(
        [
            np.concatenate(
                [
                    stream.masks
                    for stream in session.draw_masks(
                        np.random.default_rng(seed)
                    ).streams
                    if stream is not None
                ],
                axis=1,
            )
            for seed in seeds
        ]
    )


def synthetic_mask_sets(depth: int, width: int) -> np.ndarray:
    """Random sets, the same sets with duplicated rows, and all-zero sets."""
    rng = np.random.default_rng([depth, width])
    random = (rng.random((SETS_PER_CASE, depth, width)) < 0.5).astype(np.uint8)
    duplicated = random.copy()
    duplicated[:, 1::3] = random[:, :1]
    duplicated[:, 2::5] = random[:, -1:]
    zero = np.zeros((2, depth, width), np.uint8)
    return np.concatenate([random, duplicated, zero])


@pytest.fixture(scope="module")
def served() -> tuple[np.ndarray, np.ndarray]:
    masks = served_joint_masks(SERVED_SEEDS)
    return masks, oracle_orders(masks)


@pytest.fixture(scope="module")
def synthetic() -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    cases = {}
    for depth in DEPTHS:
        for width in WIDTHS:
            masks = synthetic_mask_sets(depth, width)
            cases[depth, width] = (masks, oracle_orders(masks))
    return cases


@pytest.mark.parametrize("vec_size", VEC_SIZES)
def test_served_masks_match_oracle(served, vec_size):
    masks, expected = served
    assert order_mismatches(masks, expected, vec_size) == []


@pytest.mark.parametrize("vec_size", VEC_SIZES)
@pytest.mark.parametrize("depth", DEPTHS)
def test_synthetic_masks_match_oracle(synthetic, depth, vec_size):
    for width in WIDTHS:
        masks, expected = synthetic[depth, width]
        assert order_mismatches(masks, expected, vec_size) == [], (depth, width)


def test_lone_set_is_the_batch_of_one(served):
    masks, expected = served
    for index in range(8):
        order = ordering.optimal_mask_order(masks[index])
        assert order.shape == (SERVED_DEPTH,)
        assert np.array_equal(order, expected[index])


def test_rejects_malformed_masks():
    with pytest.raises(ValueError, match="0/1"):
        ordering.optimal_mask_order(np.full((2, 4, 8), 2))
    with pytest.raises(ValueError, match="R, T, W"):
        ordering.optimal_mask_order(np.zeros(4))


# -- mutant table ------------------------------------------------------------


def _ties_to_last(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Greedy ties go to the highest index: argmin of the reversed row."""
    return np.subtract(rows.shape[1] - 1, rows[:, ::-1].argmin(axis=1), out=out)


def _no_tail_moves(path: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The array move check forgets the tail move."""
    return np.zeros((len(path), path.shape[1] - 2), dtype=bool)


_ROUND = ordering._two_opt_round


def _restart_after_move(order: list[int], distances: list, start: int) -> None:
    """The Python round starts past the first move instead of at it."""
    _ROUND(order, distances, start + 1)


MUTANTS = {
    "greedy-ties-to-last": ("_nearest_unvisited", _ties_to_last),
    "move-check-without-tail": ("_tail_moves", _no_tail_moves),
    "round-restarts-at-i+1": ("_two_opt_round", _restart_after_move),
}


@pytest.mark.parametrize("vec_size", VEC_SIZES)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_equality_check_kills_mutant(served, mutant, vec_size, monkeypatch):
    # The unmutated search passes this check (test_served_masks_match_oracle).
    # A first move that is a tail move is rare: about 1 served set in 100
    # catches the tail mutant, so the check runs on every served set.
    name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(ordering, name, replacement)
    assert order_mismatches(*served, vec_size) != []


# -- the served path -----------------------------------------------------------


def test_micro_batch_orders_every_group_in_one_search(monkeypatch):
    # run_grouped draws each seed group's plan (MCDropoutSession.draw_masks,
    # the streams only), then one order_mask_streams call searches every
    # group's masks: the calls servebench's tracer times.
    session = build_reference_session(
        "cim-ordered", demo_model(), n_iterations=SERVED_DEPTH
    )
    calls = []
    draw = MCDropoutSession.draw_masks
    search = CIMMCDropoutEngine.order_mask_streams

    def recording_draw(self, rng=None):
        calls.append("draw")
        return draw(self, rng)

    def recording_search(self, streams):
        orders = search(self, streams)
        calls.append(np.shape(orders))
        return orders

    monkeypatch.setattr(MCDropoutSession, "draw_masks", recording_draw)
    monkeypatch.setattr(CIMMCDropoutEngine, "order_mask_streams", recording_search)
    inputs = demo_inputs(0)
    # Six requests in four seed groups.
    items = [(inputs, seed, None) for seed in (3, 1, 4, 1, 5, 3)]
    outcomes = run_grouped(session, "cim-ordered", "demo", items)
    assert [tag for tag, _ in outcomes] == ["ok"] * len(items)
    assert calls == ["draw"] * 4 + [(4, SERVED_DEPTH)]
