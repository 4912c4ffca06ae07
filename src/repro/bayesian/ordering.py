"""Optimal MC-sample ordering (paper Sec. III-C).

MC-Dropout iterations are exchangeable, so the engine may visit the T
pre-generated masks in any order.  Compute reuse pays per *changed* neuron
between consecutive iterations, so the best order minimises the total
Hamming path length through the mask set -- an open traveling-salesman
path.  A greedy nearest-neighbour pass polished by 2-opt recovers most
of the available savings.
"""

from __future__ import annotations

import numpy as np


def _hamming_matrix(masks: np.ndarray) -> np.ndarray:
    masks = np.asarray(masks)
    diff = masks[:, None, :] != masks[None, :, :]
    return diff.sum(axis=2)


def mask_hamming_path_length(masks: np.ndarray, order: np.ndarray | None = None) -> int:
    """Total Hamming distance along consecutive masks in ``order``."""
    masks = np.asarray(masks)
    if order is not None:
        masks = masks[np.asarray(order, dtype=np.int64)]
    return int((masks[1:] != masks[:-1]).sum())


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


def _best_greedy(distances: np.ndarray) -> list[int]:
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


def _two_opt(
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


def optimal_mask_order(masks: np.ndarray) -> np.ndarray:
    """Order the masks to (approximately) minimise the Hamming path.

    The shortest of a few greedy nearest-neighbour paths, polished by
    first-improvement 2-opt.

    Args:
        masks: (T, width) joint mask matrix (concatenate layers first).

    Returns:
        A permutation of range(T).
    """
    masks = np.asarray(masks)
    n = masks.shape[0]
    if n <= 2:
        return np.arange(n, dtype=np.int64)
    # One Hamming matrix for every search; the greedy walks and 2-opt run
    # over plain int lists, since scalar indexing into numpy arrays would
    # dominate their O(T^2) inner loops.
    distances = _hamming_matrix(masks)
    order = _two_opt(_best_greedy(distances), distances.tolist())
    return np.asarray(order, dtype=np.int64)
