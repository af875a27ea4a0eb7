"""Kuhn-Munkres (Hungarian) assignment, O(n^3), from scratch.

The implementation is the shortest-augmenting-path formulation with
dual potentials.  ``hungarian_min_cost`` solves rectangular problems
with ``rows <= cols`` by transposing internally when needed;
``hungarian_max_weight`` is the maximization wrapper that also supports
*partial* assignment (a row may stay unmatched if every remaining
weight is non-positive) by padding with zero-weight dummy columns.

The inner loop is vectorized: each augmenting-path step scans a whole
cost row with NumPy (masked ``minv``/``way`` updates and an argmin for
the delta column) instead of iterating columns in Python.  The scalar
formulation is retained as :func:`_hungarian_reference` — it is the
differential-testing oracle (``tests/test_matching_hungarian.py``) and
the baseline the micro-bench (``benchmarks/test_micro_matching.py``)
measures speedups against.  Both paths share the same dual-potential
updates and tie-breaking (first column attaining the minimum wins), so
they produce identical assignments, not merely equal totals.
"""

from __future__ import annotations

import numpy as np

_INF = float("inf")


def _validated_cost(cost: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-D, got shape {cost.shape}")
    if cost.size and not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    return cost


def _collect_assignment(
    cost: np.ndarray, match: np.ndarray, transposed: bool
) -> tuple[list[tuple[int, int]], float]:
    """Turn a column-to-row matching into the sorted pair list."""
    assignment = []
    total = 0.0
    for col, row in enumerate(match):
        if row < 0:
            continue
        total += cost[row, col]
        row = int(row)  # plain Python ints in the public API
        assignment.append((col, row) if transposed else (row, col))
    assignment.sort()
    return assignment, float(total)


def _solve_sap(cost: np.ndarray) -> np.ndarray:
    """Shortest-augmenting-path core over an oriented matrix.

    ``cost`` must already satisfy ``rows <= cols`` and be contiguous.
    Dual potentials start from zeros.  Returns ``match`` with
    ``match[j]`` the row matched to column ``j`` (``-1``: unmatched).
    """
    n, m = cost.shape

    u = np.zeros(n)
    v = np.zeros(m)
    match = np.full(m, -1, dtype=np.int64)  # match[j] = row matched to column j
    way = np.full(m, -1, dtype=np.int64)
    free_idx = np.empty(m, dtype=np.int64)  # still-unvisited columns, ascending
    minv = np.empty(m)  # tentative slack, aligned with free_idx
    used_cols = np.empty(m, dtype=np.int64)  # visited columns, in visit order

    for i in range(n):
        way.fill(-1)
        free_idx[:] = np.arange(m)
        minv.fill(_INF)
        num_free = m
        num_used = 0
        i0 = i  # row whose edges are relaxed this step
        j0 = -1  # column the search currently sits on (-1: virtual start)
        while True:
            free = free_idx[:num_free]
            slack = minv[:num_free]
            # Same association order as the scalar oracle
            # ((row - u) - v), so ties resolve identically.
            reduced = cost[i0, free] - u[i0] - v[free]
            better = reduced < slack
            slack[better] = reduced[better]
            way[free[better]] = j0
            k1 = int(np.argmin(slack))
            delta = slack[k1]
            j1 = int(free[k1])
            # Dual update: the start row and every visited column's row
            # gain delta; unvisited columns' tentative slacks shrink.
            u[i] += delta
            if num_used:
                visited = used_cols[:num_used]
                u[match[visited]] += delta
                v[visited] -= delta
            slack -= delta
            # Retire j1 from the free set, preserving ascending order.
            free[k1 : num_free - 1] = free[k1 + 1 : num_free]
            slack[k1 : num_free - 1] = slack[k1 + 1 : num_free]
            num_free -= 1
            used_cols[num_used] = j1
            num_used += 1
            i0 = int(match[j1])
            j0 = j1
            if i0 < 0:
                break
        # Augment along the alternating path back to the virtual start.
        j = j0
        while j >= 0:
            j_prev = int(way[j])
            match[j] = i if j_prev < 0 else match[j_prev]
            j = j_prev

    return match


def hungarian_min_cost(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Minimum-cost perfect matching of rows onto columns.

    Args:
        cost: 2-D array; every row is matched to exactly one distinct
            column (requires ``rows <= cols``; transposed internally
            otherwise).

    Returns:
        ``(assignment, total_cost)`` with ``assignment`` a list of
        ``(row, col)`` pairs covering every row.
    """
    cost = _validated_cost(cost)
    if cost.size == 0:
        return [], 0.0

    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    cost = np.ascontiguousarray(cost)
    match = _solve_sap(cost)
    return _collect_assignment(cost, match, transposed)


def _hungarian_reference(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Scalar shortest-augmenting-path solver (differential oracle).

    Pure-Python port of the classic 1-indexed formulation; kept solely
    so the vectorized :func:`hungarian_min_cost` can be checked
    pair-for-pair and timed against it.  Do not call from production
    paths.
    """
    cost = _validated_cost(cost)
    if cost.size == 0:
        return [], 0.0

    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    n, m = cost.shape

    # 1-indexed potentials and matching, the classic formulation.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # match[j] = row matched to column j
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [_INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = _INF
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                current = row[j - 1] - u[i0] - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    column_match = np.array(match[1:], dtype=np.int64) - 1
    return _collect_assignment(cost, column_match, transposed)


def max_weight_cost_matrix(weights: np.ndarray) -> np.ndarray:
    """The min-cost matrix equivalent to maximizing ``weights``.

    Negates the weights and replaces ``-inf`` (forbidden) cells with a
    finite cost so large that a forbidden pairing is chosen only when
    structurally unavoidable.  Callers that solve the same weight
    matrix repeatedly can precompute this once and hand it to
    :func:`hungarian_max_weight` via ``cost=``.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    n, m = weights.shape
    finite = np.where(np.isfinite(weights), weights, 0.0)
    largest = float(np.abs(finite).max(initial=0.0)) + 1.0
    forbidden_cost = 4.0 * largest * max(n, m, 1)
    return np.where(np.isfinite(weights), -weights, forbidden_cost)


def hungarian_max_weight(
    weights: np.ndarray,
    allow_unmatched: bool = True,
    cost: np.ndarray | None = None,
) -> tuple[list[tuple[int, int]], float]:
    """Maximum-total-weight assignment of rows to columns.

    Args:
        weights: 2-D weight matrix; larger is better.  Entries may be
            ``-inf`` to forbid a pairing.
        allow_unmatched: when True (default), rows whose best option is
            non-positive are left unmatched (dummy columns with weight
            0 are added), which is the behaviour the quality-maximizing
            baseline needs — an invalid or worthless pair is simply not
            made.
        cost: optional precomputed :func:`max_weight_cost_matrix` of
            ``weights`` (without dummy padding); callers with cached
            matrices pass it to skip rebuilding the negation.

    Returns:
        ``(assignment, total_weight)``; forbidden or dummy pairings are
        never reported.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    n, m = weights.shape
    if n == 0 or m == 0:
        return [], 0.0

    if cost is None:
        cost = max_weight_cost_matrix(weights)
    else:
        cost = np.asarray(cost, dtype=float)
        if cost.shape != weights.shape:
            raise ValueError(
                f"cost shape {cost.shape} != weights shape {weights.shape}"
            )
    if allow_unmatched:
        # Dummy columns with zero weight: matching a row to one means
        # leaving it unmatched.
        cost = np.hstack([cost, np.zeros((n, n))])

    assignment, _ = hungarian_min_cost(cost)
    real_pairs = []
    total = 0.0
    for row, col in assignment:
        if col >= m:
            continue  # dummy column: row left unmatched
        if not np.isfinite(weights[row, col]):
            continue  # forbidden cell chosen only if unavoidable
        real_pairs.append((row, col))
        total += float(weights[row, col])
    return real_pairs, total

