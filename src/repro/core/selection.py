"""Best-pair selection among candidates (Eqs. 9 and 10).

Given the pruned candidate set ``S_p``, the greedy (and the D&C merge)
must pick one pair that (a) satisfies the budget constraint with
confidence above ``delta`` (Eq. 9) and (b) maximizes the probability of
having the largest quality increase among the candidates — the product
of pairwise superiority probabilities (Eq. 10).
"""

from __future__ import annotations

import numpy as np

from repro.model.pairs import PairPool
from repro.uncertainty.vector import phi_vec

_VARIANCE_FLOOR = 1e-24
_EPS = 1e-9

#: Half-width (in standard-normal z units) of the uncertainty band
#: around the Eq. 9 threshold inside which ``phi_vec`` is evaluated
#: exactly.  phi_vec tracks the true normal CDF within 7.5e-8, and the
#: normal density at |z| <= 3.8 exceeds 2.9e-4, so a z-gap of 1e-2
#: moves the CDF by >= 2.9e-6 — orders of magnitude past the
#: approximation error.  Outside the band the comparison outcome is
#: therefore certain from z alone.
_PHI_BAND = 1e-2
#: |z| ceiling for the shortcut: past it the density is too flat for
#: the band argument, so extreme deltas fall back to exact evaluation.
_PHI_Z_LIMIT = 3.8

_phi_thresholds: dict[float, tuple[float, float] | None] = {}


def _phi_threshold(delta: float) -> tuple[float, float] | None:
    """Conservative z thresholds deciding ``phi_vec(z) > delta``.

    Returns ``(z_lo, z_hi)`` such that ``z > z_hi`` guarantees
    ``phi_vec(z) > delta`` and ``z < z_lo`` guarantees
    ``phi_vec(z) <= delta`` — for every float ``z``, including the
    approximation's sub-1.5e-7 wiggle — or ``None`` when ``delta`` is
    too extreme for the shortcut.  Found once per distinct ``delta``
    by bisection on ``phi_vec`` itself and cached.
    """
    cached = _phi_thresholds.get(delta)
    if cached is not None or delta in _phi_thresholds:
        return cached
    lo, hi = -_PHI_Z_LIMIT, _PHI_Z_LIMIT
    if not float(phi_vec(np.array([lo]))[0]) <= delta <= float(phi_vec(np.array([hi]))[0]):
        _phi_thresholds[delta] = None
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(phi_vec(np.array([mid]))[0]) > delta:
            hi = mid
        else:
            lo = mid
    result = (lo - _PHI_BAND, hi + _PHI_BAND)
    _phi_thresholds[delta] = result
    return result


def eq9_lanes(cost_var: np.ndarray, delta: float) -> tuple[np.ndarray, ...]:
    """Per-row ``(std, z_lo, z_hi)`` that reduce Eq. 9 to z tests.

    See :func:`eq9_keep`.  A deterministic row gets ``std = 1`` and the
    degenerate band ``[0, 0]``: it passes iff its headroom is ``>= 0``
    (signed zeros included); a ``delta`` too extreme for the shortcut
    widens every stochastic band to the whole line.
    """
    deterministic = cost_var <= _VARIANCE_FLOOR
    thresholds = _phi_threshold(delta)
    z_lo, z_hi = thresholds if thresholds is not None else (-np.inf, np.inf)
    std = np.sqrt(np.where(deterministic, 1.0, cost_var))
    return std, np.where(deterministic, 0.0, z_lo), np.where(deterministic, 0.0, z_hi)


def eq9_keep(z: np.ndarray, z_lo: np.ndarray, z_hi: np.ndarray, delta: float) -> np.ndarray:
    """Eq. 9 outcome per lane, ``z = headroom / std``.

    Outside ``[z_lo, z_hi]`` the outcome is certain from ``z`` alone;
    only band lanes pay for ``phi_vec`` (bit-identical, see
    :func:`_phi_threshold`).  A degenerate band (a deterministic lane
    at ``z = +-0``) passes: the exact indicator, ``headroom >= 0``.
    """
    keep = z > z_hi
    band = np.flatnonzero((z >= z_lo) > keep)
    if band.size:
        keep[band] = (z_lo[band] == z_hi[band]) | (phi_vec(z[band]) > delta)
    return keep


def budget_confident_rows(
    pool: PairPool,
    rows: np.ndarray,
    selected_lower_bound_sum: float,
    budget_max: float,
    delta: float,
) -> np.ndarray:
    """Rows passing the Eq. 9 budget-confidence test.

    A row survives when ``Pr{sum of selected lb costs + c_ij <= B_max}``
    exceeds ``delta``.  Deterministic costs degenerate to the exact
    feasibility indicator.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows
    headroom = budget_max - selected_lower_bound_sum - pool.cost_mean[rows]
    std, z_lo, z_hi = eq9_lanes(pool.cost_var[rows], delta)
    return rows[eq9_keep(headroom / std, z_lo, z_hi, delta)]


#: Cost floor for the efficiency objective: a co-located pair (cost 0)
#: must not divide by zero, and a near-zero cost should not make a
#: mediocre pair look infinitely efficient.
_EFFICIENCY_COST_FLOOR = 1e-3


def select_best_row(pool: PairPool, rows: np.ndarray, objective: str = "probability") -> int:
    """The winning candidate among ``rows``.

    Objectives:

    - ``"probability"`` (the paper's Eq. 10): maximize
      ``prod_{a != i} Pr{q_i > q_a}`` (computed in log space; a zero
      factor sends the product to -inf, which is correct — such a pair
      is certainly beaten by someone).
    - ``"efficiency"``: maximize expected quality per unit expected
      cost.  Not in the paper; a budget-aware alternative that the
      deviation analysis in EXPERIMENTS.md motivates (quality-first
      selection burns budget on distant max-quality pairs).

    Ties are broken by lower expected cost, then by row index, so
    selection is deterministic.  Raises :class:`ValueError` on an
    empty candidate set or an unknown objective.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot select from an empty candidate set")
    if objective not in ("probability", "efficiency"):
        raise ValueError(f"unknown selection objective {objective!r}")
    if rows.size == 1:
        return int(rows[0])
    columns = (pool.cost_mean[rows], pool.quality_mean[rows], pool.quality_var[rows])
    return pick_best(rows, *columns, objective)


def pick_best(rows, cost_mean, quality_mean, quality_var, objective: str) -> int:
    """:func:`select_best_row` over gathered columns (two or more rows,
    in the canonical candidate order the scores are summed in)."""
    if objective == "efficiency":
        scores = quality_mean / np.maximum(cost_mean, _EFFICIENCY_COST_FLOOR)
    else:
        # An all-deterministic window with finite means and one top
        # mean: Eq. 10 scores that row 0.0 and every other row -inf
        # (a zero factor against the top), so it wins outright.  Ties
        # at the top go through the pairwise sum.
        if 2.0 * quality_var.max() <= _VARIANCE_FLOOR and np.isfinite(quality_mean).all():
            top = quality_mean.argmax()
            if np.count_nonzero(quality_mean == quality_mean[top]) == 1:
                return int(rows[top])
        scores = superiority_scores(quality_mean, quality_var)
    return int(rows[np.lexsort((rows, cost_mean, -scores))[0]])


def superiority_scores(quality_mean: np.ndarray, quality_var: np.ndarray) -> np.ndarray:
    """Eq. 10 log-scores: ``sum_{a != i} log Pr{q_i > q_a}`` per row.

    ``prob_greater_vec`` over the ``K x K`` pairs, bit for bit, except
    that an all-deterministic or all-stochastic window skips the other
    lane kind's arithmetic.  ``-gap`` is formed as ``q_a - q_i``: the
    same float, but ``+0.0`` for a tie's ``-0.0``, which ``phi_vec``
    treats alike.
    """
    combined = quality_var[:, None] + quality_var
    deterministic = combined <= _VARIANCE_FLOOR
    lanes = np.count_nonzero(deterministic)
    negated_gap = quality_mean - quality_mean[:, None]
    if lanes < deterministic.size:
        if lanes:
            combined = np.where(deterministic, 1.0, combined)
        probabilities = 1.0 - phi_vec(negated_gap / np.sqrt(combined))
    if lanes:
        indicator = np.where(negated_gap < 0.0, 1.0, np.where(negated_gap > 0.0, 0.0, 0.5))
        probabilities = (
            indicator if lanes == deterministic.size
            else np.where(deterministic, indicator, probabilities)
        )
    # A zero factor is meaningful (-inf kills the product); the
    # diagonal's Pr = 1 contributes log 1 = 0.
    logs = np.empty_like(probabilities)
    logs.fill(-np.inf)
    np.log(probabilities, out=logs, where=probabilities > 0.0)
    logs.flat[:: quality_mean.size + 1] = 0.0
    return np.add.reduce(logs, axis=1)
