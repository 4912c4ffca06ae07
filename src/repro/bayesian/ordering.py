"""Optimal MC-sample ordering (paper Sec. III-C).

MC-Dropout iterations are exchangeable, so the engine may visit the T
pre-generated masks in any order.  Compute reuse pays per *changed* neuron
between consecutive iterations, so the best order minimises the total
Hamming path length through the mask set -- an open traveling-salesman
path.  A greedy nearest-neighbour pass polished by 2-opt recovers most
of the available savings.

The search orders a batch of R independent mask sets in one call (a
served micro-batch orders every request's masks at once), and each set
gets exactly the order it gets alone:

- **Hamming matrices** come from one GEMM over the batch,
  ``s_i + s_j - 2 M Mᵀ``, exact for 0/1 masks.
- **Greedy walks** from each set's first four masks run in lockstep:
  every step is one masked ``argmin`` over all R x 4 walks, and its
  first-minimum rule is the lowest-index tie.  The shortest walk wins,
  with the identity order kept as a candidate; a tie keeps the earlier
  candidate.
- **2-opt** is first-improvement, so a round is a per-set scan in
  Python.  Before each round one array pass over the sets still
  improving finds each set's first improving move in scan order.  A set
  with none is done; a set with one starts its scan at that move, since
  nothing before it would change.
"""

from __future__ import annotations

import numpy as np

# Greedy start points per mask set (its first masks).
GREEDY_STARTS = 4
# First-improvement 2-opt rounds per mask set, at most.
TWO_OPT_ROUNDS = 4


def mask_hamming_path_length(masks: np.ndarray, order: np.ndarray | None = None) -> int:
    """Total Hamming distance along consecutive masks in ``order``."""
    masks = np.asarray(masks)
    if order is not None:
        masks = masks[np.asarray(order, dtype=np.int64)]
    return int((masks[1:] != masks[:-1]).sum())


def _hamming_matrices(masks: np.ndarray) -> np.ndarray:
    """(R, T, T) pairwise Hamming distances of (R, T, W) 0/1 masks."""
    bits = masks.astype(np.float64)
    ones = bits.sum(axis=2)
    # Exact: every product and sum is a small integer.
    overlap = bits @ bits.transpose(0, 2, 1)
    return (ones[:, :, None] + ones[:, None, :] - 2.0 * overlap).astype(np.int64)


def _nearest_unvisited(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per walk, into ``out``, the column of its row's minimum (visited
    columns carry a distance no mask reaches); a tie goes to the lowest
    index."""
    return rows.argmin(axis=1, out=out)


def _greedy_orders(distances: np.ndarray) -> np.ndarray:
    """(R, T) shortest greedy path per set, or the identity.

    Walks start at each set's first :data:`GREEDY_STARTS` masks and step
    together; a walk's next mask is its nearest unvisited one.  The
    identity order is a candidate too, so no set's path gets longer; a
    tie keeps the earliest candidate.
    """
    n_sets, n = distances.shape[:2]
    starts = min(n, GREEDY_STARTS)
    n_walks = n_sets * starts
    # Each walk gets its own copy of its set's matrix, so the flattened
    # row of walk k's current mask and the visited flag of that mask sit
    # at the same index, k * T + mask.
    flat = np.repeat(distances, starts, axis=0).reshape(n_walks * n, n)
    visited = np.zeros((n_walks, n), dtype=np.int64)
    visited_flags = visited.reshape(-1)
    far = int(distances.max(initial=0)) + 1
    rows = np.empty_like(visited)
    walk_rows = np.arange(n_walks) * n
    walks = np.empty((n, n_walks), dtype=np.int64)
    walks[0] = np.tile(np.arange(starts), n_sets)
    for step in range(1, n):
        cells = walk_rows + walks[step - 1]
        visited_flags[cells] = far
        np.add(flat.take(cells, axis=0), visited, out=rows)
        _nearest_unvisited(rows, walks[step])
    # Path length per candidate: every walk, then the identity.
    lengths = np.empty((n_sets, starts + 1), dtype=np.int64)
    edges = (walk_rows + walks[:-1]) * n + walks[1:]
    walked_lengths = flat.reshape(-1).take(edges).sum(axis=0)
    lengths[:, :starts] = walked_lengths.reshape(n_sets, starts)
    lengths[:, starts] = np.diagonal(distances, 1, 1, 2).sum(axis=1)
    best = lengths.argmin(axis=1)
    orders = np.tile(np.arange(n), (n_sets, 1))
    walked = best < starts
    orders[walked] = walks.T[(np.arange(n_sets) * starts + best)[walked]]
    return orders


def _tail_moves(path: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(R, T - 2): whether reversing the whole tail after position i
    shortens the path, which swaps the end edge a-b for a-c."""
    n = path.shape[1]
    return path[:, : n - 2, n - 1] < edges[:, : n - 2]


def _first_moves(
    orders: np.ndarray, distances: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Per set, the first position i whose 2-opt scan would move, or -1.

    ``orders`` (R, T) visit ``distances`` (R, T, T).  A move at i swaps
    edges a-b, c-d for a-c, b-d (a, b at i, i + 1; c, d at j, j + 1 for
    i + 2 <= j <= T - 2, where ``pairs[i, j]`` holds) or is the tail
    move; positions are scanned in order, as :func:`_two_opt_round` does.
    """
    n = orders.shape[1]
    sets = np.arange(len(orders))[:, None, None]
    # path[r, p, q]: the distance between the masks at positions p and q.
    path = distances[sets, orders[:, :, None], orders[:, None, :]]
    edges = np.diagonal(path, offset=1, axis1=1, axis2=2)
    swapped = path[:, :-1, :-1] + path[:, 1:, 1:]
    shorter = swapped < edges[:, :, None] + edges[:, None, :]
    shorter &= pairs
    moves = shorter[:, : n - 2].any(axis=2) | _tail_moves(path, edges)
    return np.where(moves.any(axis=1), moves.argmax(axis=1), -1)


def _two_opt_round(order: list[int], distances: list[list[int]], start: int) -> None:
    """One first-improvement 2-opt scan of ``order``, in place, from
    position ``start``; every reversal strictly shortens the path."""
    n = len(order)
    for i in range(start, n - 2):
        # Reversals start at i + 1, so order[i] stays put for all j.
        from_a = distances[order[i]]
        b = order[i + 1]
        from_b, ab = distances[b], from_a[b]
        for j in range(i + 2, n - 1):
            c, d = order[j], order[j + 1]
            # Swap edges a-b, c-d for a-c, b-d.
            if from_a[c] + from_b[d] < ab + distances[c][d]:
                order[i + 1 : j + 1] = order[i + 1 : j + 1][::-1]
                b = order[i + 1]
                from_b, ab = distances[b], from_a[b]
        # Reversing the whole tail swaps the end edge a-b for a-c.
        if from_a[order[-1]] < ab:
            order[i + 1 :] = order[i + 1 :][::-1]


def _two_opt(orders: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """First-improvement 2-opt on each set's open path, for at most
    :data:`TWO_OPT_ROUNDS` rounds; a set stops after a round without a
    move.  No set's path gets longer."""
    orders = orders.copy()
    active = np.arange(len(orders))
    tables: dict[int, list[list[int]]] = {}
    positions = np.arange(orders.shape[1] - 1)
    pairs = positions[None, :] >= positions[:, None] + 2
    for _ in range(TWO_OPT_ROUNDS):
        starts = _first_moves(orders[active], distances[active], pairs)
        moving = starts >= 0
        active, starts = active[moving], starts[moving]
        if not active.size:
            break
        # The scans index plain int lists: scalar indexing into numpy
        # arrays would dominate their O(T^2) inner loops.
        for index, start in zip(active.tolist(), starts.tolist()):
            if index not in tables:
                tables[index] = distances[index].tolist()
            order = orders[index].tolist()
            _two_opt_round(order, tables[index], start)
            orders[index] = order
    return orders


def optimal_mask_order(masks: np.ndarray) -> np.ndarray:
    """Order masks to (approximately) minimise the Hamming path.

    The shortest of a few greedy nearest-neighbour paths, polished by
    first-improvement 2-opt, searched for every mask set at once.

    Args:
        masks: (T, W) joint mask matrix (concatenate layers first), or
            (R, T, W) for R independent sets; entries must be 0/1.

    Returns:
        A permutation of range(T), or (R, T) permutations, one per set.
    """
    masks = np.asarray(masks)
    if masks.ndim == 2:
        return optimal_mask_order(masks[None])[0]
    if masks.ndim != 3:
        raise ValueError(f"masks must be (T, W) or (R, T, W), got {masks.shape}")
    n_sets, n = masks.shape[:2]
    if n <= 2:
        return np.tile(np.arange(n, dtype=np.int64), (n_sets, 1))
    if masks.dtype != bool and not ((masks == 0) | (masks == 1)).all():
        raise ValueError("mask entries must be 0/1")
    distances = _hamming_matrices(masks)
    return _two_opt(_greedy_orders(distances), distances)
