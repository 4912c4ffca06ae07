"""Scalar mask-ordering search: the oracle for the batched one.

This is the per-mask-set search ``repro.bayesian.ordering`` ran before it
ordered a whole batch in one call: a ``!=`` Hamming matrix, four greedy
nearest-neighbour walks over stable-sorted neighbour lists, and
first-improvement 2-opt that scans every round in Python.  The batched
search must return exactly its orders; :func:`order_mismatches` is that
check, shared by the equality tests and the mutant table in
``test_mask_ordering.py``.
"""

from __future__ import annotations

import numpy as np

from repro.bayesian.ordering import optimal_mask_order


def hamming_matrix(masks: np.ndarray) -> np.ndarray:
    masks = np.asarray(masks)
    diff = masks[:, None, :] != masks[None, :, :]
    return diff.sum(axis=2)


def _neighbours(distances: np.ndarray) -> list[list[int]]:
    """Per mask, every mask by increasing distance, ties by index."""
    return np.argsort(distances, axis=1, kind="stable").tolist()


def _greedy_path(neighbours: list[list[int]], start: int) -> list[int]:
    """Nearest-neighbour path; a tie goes to the lowest index."""
    visited = [False] * len(neighbours)
    visited[start] = True
    order = [start]
    for _ in range(len(neighbours) - 1):
        # The first unvisited entry of the sorted row is the nearest.
        for nearest in neighbours[order[-1]]:
            if not visited[nearest]:
                break
        visited[nearest] = True
        order.append(nearest)
    return order


def best_greedy(distances: np.ndarray) -> list[int]:
    """Shortest greedy path over a few start points, or the identity.

    The identity order is kept as a candidate so the result is never
    worse than no reordering at all; a tie keeps the earliest candidate.
    """
    n = distances.shape[0]
    neighbours = _neighbours(distances)
    candidates = [_greedy_path(neighbours, start) for start in range(min(n, 4))]
    candidates.append(list(range(n)))
    lengths = [
        int(distances[order[:-1], order[1:]].sum()) for order in candidates
    ]
    return candidates[lengths.index(min(lengths))]


def two_opt(
    order: list[int], distances: list[list[int]], max_rounds: int = 4
) -> list[int]:
    """First-improvement 2-opt on an open path.

    Every applied reversal strictly shortens the path, so the result is
    never longer than ``order``.
    """
    order = list(order)
    n = len(order)
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 2):
            # Reversals start at i + 1, so order[i] stays put for all j.
            from_a = distances[order[i]]
            b = order[i + 1]
            from_b, ab = distances[b], from_a[b]
            for j in range(i + 2, n - 1):
                c, d = order[j], order[j + 1]
                # Swap edges a-b, c-d for a-c, b-d.
                if from_a[c] + from_b[d] < ab + distances[c][d]:
                    order[i + 1 : j + 1] = order[i + 1 : j + 1][::-1]
                    improved = True
                    b = order[i + 1]
                    from_b, ab = distances[b], from_a[b]
            # Reversing the whole tail swaps the end edge a-b for a-c.
            if from_a[order[-1]] < ab:
                order[i + 1 :] = order[i + 1 :][::-1]
                improved = True
        if not improved:
            break
    return order


def oracle_order(masks: np.ndarray) -> list[int]:
    """The scalar search's order for one (T, W) mask set."""
    masks = np.asarray(masks)
    n = masks.shape[0]
    if n <= 2:
        return list(range(n))
    distances = hamming_matrix(masks)
    return two_opt(best_greedy(distances), distances.tolist())


def oracle_orders(mask_sets: np.ndarray) -> np.ndarray:
    """(N, T) oracle orders of (N, T, W) mask sets, one set at a time."""
    mask_sets = np.asarray(mask_sets)
    orders = [oracle_order(masks) for masks in mask_sets]
    return np.array(orders, dtype=np.int64).reshape(mask_sets.shape[:2])


def order_mismatches(
    mask_sets: np.ndarray, expected: np.ndarray, width: int
) -> list[int]:
    """Indexes of the (N, T, W) mask sets whose batched order is not
    ``expected`` (their oracle orders), ordering ``width`` sets per
    ``optimal_mask_order`` call."""
    batched = np.concatenate(
        [
            optimal_mask_order(mask_sets[start : start + width])
            for start in range(0, len(mask_sets), width)
        ]
    )
    return np.flatnonzero((batched != expected).any(axis=1)).tolist()
