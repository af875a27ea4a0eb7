"""Candidate-set pruning (Lemmas 4.1 and 4.2), vectorized.

Dominance pruning (Lemma 4.1)
    Pair ``<w_i, t_j>`` is pruned when some candidate ``<w_a, t_b>``
    has ``ub_c_ab < lb_c_ij`` *and* ``lb_q_ab > ub_q_ij`` — i.e. the
    candidate is guaranteed both cheaper and better.

Increase-probability pruning (Lemma 4.2)
    The paper's statement prunes a pair when its own superiority
    probabilities exceed 0.5, which would eliminate the *best* pairs;
    the evident intent (and what Example 5 exercises) is the converse:
    prune ``<w_i, t_j>`` when, against some candidate,
    ``Pr{q_ij > q_ab} < 0.5`` and ``Pr{c_ij <= c_ab} < 0.5`` — the
    pair is probably worse on both dimensions.  We implement the
    intent (see EXPERIMENTS.md); the mean-gap signs decide both
    probabilities.  For deterministic pairs this degenerates to strict
    dominance, consistent with Lemma 4.1.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.pairs import PairPool
from repro.uncertainty.vector import prob_greater_vec, prob_less_or_equal_vec

_VARIANCE_FLOOR = 1e-24
_TINY = float(np.finfo(float).tiny)


def dominance_skyline(pool: PairPool, rows: np.ndarray) -> np.ndarray:
    """Rows of ``rows`` that survive Lemma 4.1 dominance pruning.

    A row ``j`` is dominated iff some row ``a`` has
    ``cost_ub[a] < cost_lb[j]`` and ``quality_lb[a] > quality_ub[j]``.

    Implementation: sort the rows by ``cost_ub``; every potential
    dominator of ``j`` then lies in the strict prefix of rows with
    ``cost_ub < cost_lb[j]``, and only its maximal ``quality_lb``
    matters — a prefix-max plus a binary search per row, O(N log N)
    total instead of O(N^2).

    Args:
        pool: the owning pair pool.
        rows: candidate row indices (any order).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size <= 1:
        return rows

    order = np.argsort(pool.cost_ub[rows], kind="stable")
    sorted_rows = rows[order]
    sorted_ub_cost = pool.cost_ub[sorted_rows]
    prefix_max_lb_quality = np.maximum.accumulate(pool.quality_lb[sorted_rows])

    # Strict prefix with cost_ub < cost_lb[j]: positions [0, cut_j).
    cut = np.searchsorted(sorted_ub_cost, pool.cost_lb[sorted_rows], side="left")
    has_prefix = cut > 0
    best_quality_before = np.where(
        has_prefix, prefix_max_lb_quality[np.maximum(cut - 1, 0)], -np.inf
    )
    dominated = best_quality_before > pool.quality_ub[sorted_rows]
    survivors = sorted_rows[~dominated]
    return np.sort(survivors)


def probability_prune(
    pool: PairPool, rows: np.ndarray, signs_decided: bool = False
) -> np.ndarray:
    """Rows of ``rows`` that survive Lemma 4.2 pruning.

    Row ``i`` is pruned when some row ``j`` has ``Pr{q_i > q_j} < 0.5``
    (Eq. 7) and ``Pr{c_i <= c_j} < 0.5`` (Eq. 8).  ``phi_vec`` crosses
    0.5 exactly at z = 0 (below it for every z < 0, above it for every
    z >= 0, -0.0 included), so the mean-gap signs decide: ``i`` loses
    to ``j`` iff ``c_mean[j] < c_mean[i]`` and either
    ``q_mean[j] > q_mean[i]``, or the quality means tie with
    ``q_var[i] + q_var[j]`` above the variance floor.  Such a tie gives
    ``Pr = 0.5 - 5e-10``, probably worse both ways; only the strict
    cost order rules out mutual elimination.  Cost variance never
    matters.  Where the signs decide, the rows are pruned by
    :func:`sweep_prune` in weight order.  Windows where the signs may
    not decide (a mean that is not finite, or a gap so small that
    ``gap / std`` underflows to a signed zero), or whose ties
    :func:`sweep_blockers` cannot clear, evaluate Eqs. 7-8 on every
    pair instead.  ``signs_decided=True`` skips the sign check: the
    caller has passed :func:`signs_decide` on a superset of ``rows``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size <= 1:
        return rows

    q_mean = pool.quality_mean[rows]
    q_var = pool.quality_var[rows]
    c_mean = pool.cost_mean[rows]
    c_var = pool.cost_var[rows]
    by_weight = np.lexsort((rows, c_mean, -q_mean))
    blockers = None
    if signs_decided or (
        _signs_decide(q_mean[by_weight[::-1]], q_var)
        and _signs_decide(np.sort(c_mean), c_var)
    ):
        blockers = sweep_blockers(pool, rows, by_weight)
    if blockers is None:
        worse = (prob_greater_vec(q_mean[:, None], q_var[:, None], q_mean, q_var) < 0.5) & (
            prob_less_or_equal_vec(c_mean[:, None], c_var[:, None], c_mean, c_var) < 0.5
        )
        np.fill_diagonal(worse, False)
        return rows[~worse.any(axis=1)]

    keep = np.empty(rows.size, dtype=bool)
    keep[by_weight] = sweep_prune(c_mean[by_weight], q_mean[by_weight], blockers[by_weight])
    return rows[keep]


def sweep_blockers(pool: PairPool, rows: np.ndarray, by_weight: np.ndarray) -> np.ndarray | None:
    """Rows that :func:`sweep_prune` must treat apart, or ``None``.

    Once :func:`signs_decide` has passed on ``rows``, Lemma 4.2 over a
    window in weight order (the candidate-cap order) prunes row ``i``
    iff an earlier row is strictly cheaper: a row with a mean at least
    as high comes first, and with non-negative variances a quality tie
    fails the variance test only between two rows at or below the
    floor.  The mask (aligned with ``rows``) flags such tied rows — in
    served pools, current pairs at one score and predicted pairs
    discounted to quality 0.  They must have zero variance, so they
    never prune each other; else (or on a negative variance) ``None``:
    no window may sweep.  ``by_weight`` orders ``rows`` by descending
    quality mean (the weight order), which puts equal means side by
    side.
    """
    q_var = pool.quality_var[rows]
    if not (q_var >= 0.0).all():
        return None
    tight = by_weight[q_var[by_weight] <= _VARIANCE_FLOOR]
    means = pool.quality_mean[rows[tight]]
    tied = means[1:] == means[:-1]
    blockers = np.zeros(q_var.size, dtype=bool)
    blockers[tight[1:][tied]] = True
    blockers[tight[:-1][tied]] = True
    if (q_var[blockers] != 0.0).any():
        return None
    return blockers


def sweep_prune(
    cost_mean: np.ndarray, quality_mean: np.ndarray, blockers: np.ndarray
) -> np.ndarray:
    """Keep mask of Lemma 4.2 over a window in weight order.

    ``blockers`` (nonzero = flagged) is :func:`sweep_blockers`' mask
    over the window.  A row survives iff no earlier row is strictly
    cheaper, where a flagged row disregards the flagged rows of its own
    quality run.
    """
    cheapest = np.minimum.accumulate(cost_mean)
    keep = cost_mean <= cheapest
    if np.count_nonzero(blockers):
        negated = -quality_mean
        run_start = np.searchsorted(negated, negated, side="left")
        before_run = np.concatenate(([np.inf], cheapest))[run_start]
        unflagged = np.minimum.accumulate(np.where(blockers, np.inf, cost_mean))
        keep = np.where(
            blockers, (cost_mean <= before_run) & (cost_mean <= unflagged), keep
        )
    return keep


def signs_decide(pool: PairPool, rows: np.ndarray, by_weight=None, by_cost=None) -> bool:
    """Whether mean-gap signs decide Eqs. 7-8 on every subset of ``rows``.

    Passing here lets a selection loop skip the per-window check of
    :func:`probability_prune`, exactly: a subset's means are finite
    when the set's are, its positive sorted gaps are each at least one
    positive gap of the set (float subtraction is monotone), and its
    variance bound is no larger.  A set that fails says nothing about
    its subsets, which keep the per-window check.  A selection passes
    its orders of ``rows`` by descending quality mean (``by_weight``)
    and ascending cost mean (``by_cost``) instead of sorting again;
    only tests call it without them, and then it sorts.
    """
    quality, cost = pool.quality_mean[rows], pool.cost_mean[rows]
    return _signs_decide(
        np.sort(quality) if by_weight is None else quality[by_weight[::-1]],
        pool.quality_var[rows],
    ) and _signs_decide(
        np.sort(cost) if by_cost is None else cost[by_cost], pool.cost_var[rows]
    )


def _signs_decide(sorted_mean: np.ndarray, var: np.ndarray) -> bool:
    """Whether mean-gap signs decide Eq. 7 or 8 on every pair.

    The means must be finite (a sort puts NaN at one end), and no positive
    gap, the smallest of which lies between sorted neighbours, may
    underflow ``gap / sqrt(var_i + var_j)``.  ``2 * max(var)`` bounds
    every combined variance, so gaps of at least
    ``2 * tiny * sqrt(2 * max(var))`` divide to a normal float.
    """
    if not (math.isfinite(sorted_mean[0]) and math.isfinite(sorted_mean[-1])):
        return False
    top = 2.0 * float(var.max())
    if top <= _VARIANCE_FLOOR:
        return True  # every pair takes the deterministic indicator
    cut = 2.0 * _TINY * math.sqrt(top)
    step = sorted_mean[1:] - sorted_mean[:-1]
    return math.isfinite(cut) and not ((step > 0.0) & (step < cut)).any()


def cap_candidates(pool: PairPool, rows: np.ndarray, cap: int) -> np.ndarray:
    """Keep at most ``cap`` rows, preferring high expected quality.

    A performance guard for the O(K^2) probabilistic stages; ties are
    broken by lower expected cost, then by row index for determinism.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size <= cap:
        return rows
    return pool.order_by_weight(rows)[:cap]
