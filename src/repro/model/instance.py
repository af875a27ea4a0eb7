"""Problem instances: all valid candidate pairs at one time instance.

``build_problem`` assembles the four pair families of Section III-B —
``<w, t>``, ``<w_hat, t>``, ``<w, t_hat>``, ``<w_hat, t_hat>`` — into a
single columnar :class:`~repro.model.pairs.PairPool`:

- current-current pairs have exact (certain) costs and qualities;
- pairs with predicted endpoints get delta-method cost statistics from
  the uniform-kernel boxes (Eqs. 2-5), quality statistics estimated
  from the current quality-score samples (Cases 1-3), and existence
  probabilities ``p_hat_ij``;
- when ``discount_by_existence`` is on (the default), the quality of a
  predicted pair is the quality of the *materialized* pair times its
  Bernoulli existence indicator, so its contribution to the expected
  objective is priced correctly.

Everything is vectorized; the scalar reference path lives in the
object-level API (``CandidatePair``) and the test suite checks the two
agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.model.entities import Task, Worker
from repro.model.pairs import CandidatePair, DensePairMatrices, PairPool
from repro.model.quality import QualityModel
from repro.uncertainty.vector import _interval_gap_vec, distance_stats_aligned


@dataclass(frozen=True)
class ProblemInstance:
    """One MQA decision problem (one time instance).

    ``workers`` and ``tasks`` list current entities first, then
    predicted ones; ``pool`` indexes into those lists.
    """

    workers: list[Worker]
    tasks: list[Task]
    num_current_workers: int
    num_current_tasks: int
    pool: PairPool
    now: float

    @cached_property
    def current_dense(self) -> DensePairMatrices:
        """Dense matrices over the current-current block, cached.

        Built in one bulk scatter from the pool columns and memoized
        on the instance.  This is the *dense* assignment path: only
        the optimal-matching Hungarian baseline (and diagnostics)
        consume it — GREEDY and D&C select sparse-natively over the
        pool triplets and never touch it, so sparse-built instances
        stay matrix-free end to end unless Hungarian runs.
        """
        return self.pool.dense(np.nonzero(self.pool.is_current)[0])

    def pair(self, row: int) -> CandidatePair:
        """Materialize pool row ``row`` as a :class:`CandidatePair`."""
        return CandidatePair(
            worker=self.workers[int(self.pool.worker_idx[row])],
            task=self.tasks[int(self.pool.task_idx[row])],
            cost=self.pool.cost_value(row),
            quality=self.pool.quality_value(row),
            existence=float(self.pool.existence[row]),
        )

    def pairs(self, rows: Sequence[int]) -> list[CandidatePair]:
        """Materialize several pool rows."""
        return [self.pair(int(r)) for r in rows]

    @property
    def num_pairs(self) -> int:
        return len(self.pool)


def _columns(entities, *fields: str) -> tuple[np.ndarray, ...]:
    """One float array per attribute path in ``fields``, in bulk."""
    return tuple(
        np.fromiter(map(attrgetter(field), entities), dtype=float, count=len(entities))
        for field in fields
    )


def _worker_columns(workers: Sequence[Worker]):
    """``(x, y, velocity, arrival)`` arrays."""
    return _columns(workers, "location.x", "location.y", "velocity", "arrival")


def _task_columns(tasks: Sequence[Task]):
    """``(x, y, deadline, arrival)`` arrays."""
    return _columns(tasks, "location.x", "location.y", "deadline", "arrival")


def _box_intervals(entities: Sequence[Worker] | Sequence[Task]):
    """``(x_lo, x_hi, y_lo, y_hi)`` arrays of the support boxes."""
    return _columns(entities, "box.x_lo", "box.x_hi", "box.y_lo", "box.y_hi")


@dataclass(frozen=True)
class QualitySampleStats:
    """Section III-B sample statistics of the valid current pairs.

    Per-task (Case 1), per-worker (Case 2) and pooled (Case 3)
    count/mean/variance/min/max of the current-current quality scores,
    with the global (or prior) statistics already substituted where a
    task/worker has no valid sample.  Built from the *sparse* valid-
    pair triplets so the dense kernel and the fused pipeline's
    reconcile pass share one accumulation order and agree bit-for-bit.
    """

    task_count: np.ndarray
    task_mean: np.ndarray
    task_var: np.ndarray
    task_min: np.ndarray
    task_max: np.ndarray
    worker_count: np.ndarray
    worker_mean: np.ndarray
    worker_var: np.ndarray
    worker_min: np.ndarray
    worker_max: np.ndarray
    global_mean: float
    global_var: float
    global_min: float
    global_max: float
    total_valid: int


def _segment_stats(index: np.ndarray, values: np.ndarray, size: int):
    """Count/mean/variance/min/max of ``values`` grouped by ``index``."""
    count = np.bincount(index, minlength=size)
    safe_count = np.maximum(count, 1)
    total = np.bincount(index, weights=values, minlength=size)
    mean = total / safe_count
    total_sq = np.bincount(index, weights=values * values, minlength=size)
    variance = np.maximum(total_sq / safe_count - mean * mean, 0.0)
    minimum = np.full(size, np.inf)
    np.minimum.at(minimum, index, values)
    maximum = np.full(size, -np.inf)
    np.maximum.at(maximum, index, values)
    return count, mean, variance, minimum, maximum


def quality_sample_stats(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    num_workers: int,
    num_tasks: int,
    prior: tuple[float, float, float, float],
) -> QualitySampleStats:
    """Quality statistics from the valid ``<w, t>`` triplets.

    ``rows``/``cols``/``values`` are the worker index, task index and
    quality score of every valid current-current pair in row-major
    order; ``prior`` is the quality model's fallback distribution.
    """
    prior_mean, prior_var, prior_lb, prior_ub = prior
    if values.size > 0:
        global_mean = float(values.mean())
        global_var = float(values.var())
        global_min = float(values.min())
        global_max = float(values.max())
    else:
        global_mean, global_var = prior_mean, prior_var
        global_min, global_max = prior_lb, prior_ub

    def _with_fallback(count, mean, var, lo, hi):
        empty = count == 0
        return (
            np.where(empty, global_mean, mean),
            np.where(empty, global_var, var),
            np.where(empty, global_min, lo),
            np.where(empty, global_max, hi),
        )

    task_count, task_mean, task_var, task_min, task_max = _segment_stats(
        cols, values, num_tasks
    )
    worker_count, worker_mean, worker_var, worker_min, worker_max = _segment_stats(
        rows, values, num_workers
    )
    task_mean, task_var, task_min, task_max = _with_fallback(
        task_count, task_mean, task_var, task_min, task_max
    )
    worker_mean, worker_var, worker_min, worker_max = _with_fallback(
        worker_count, worker_mean, worker_var, worker_min, worker_max
    )
    return QualitySampleStats(
        task_count=task_count,
        task_mean=task_mean,
        task_var=task_var,
        task_min=task_min,
        task_max=task_max,
        worker_count=worker_count,
        worker_mean=worker_mean,
        worker_var=worker_var,
        worker_min=worker_min,
        worker_max=worker_max,
        global_mean=global_mean,
        global_var=global_var,
        global_min=global_min,
        global_max=global_max,
        total_valid=int(values.size),
    )


def validate_predicted_flags(
    predicted_workers: Sequence[Worker], predicted_tasks: Sequence[Task]
) -> None:
    """Reject entities passed as predicted without the flag set."""
    if predicted_workers:
        flags = np.fromiter(
            (w.predicted for w in predicted_workers),
            dtype=bool,
            count=len(predicted_workers),
        )
        if not flags.all():
            bad = predicted_workers[int(np.argmin(flags))]
            raise ValueError(f"worker {bad.id} passed as predicted but not flagged")
    if predicted_tasks:
        flags = np.fromiter(
            (t.predicted for t in predicted_tasks),
            dtype=bool,
            count=len(predicted_tasks),
        )
        if not flags.all():
            bad = predicted_tasks[int(np.argmin(flags))]
            raise ValueError(f"task {bad.id} passed as predicted but not flagged")


def _reachable(w_intervals, w_vel, w_arr, t_intervals, t_deadline, t_arr, now):
    """Row-major ``(rows, cols)`` of one predicted family's valid pairs.

    The matrix form of the validity predicate: the deadline horizon
    and the box-gap lower bound ``hypot(gap_x, gap_y)``, the same
    floats as the ``lower`` output of
    :func:`~repro.uncertainty.vector.distance_stats_vec`, so no pair
    has to be priced to be rejected.
    """
    wx_lo, wx_hi, wy_lo, wy_hi = (axis[:, None] for axis in w_intervals)
    tx_lo, tx_hi, ty_lo, ty_hi = t_intervals
    departure = np.maximum(now, np.maximum(w_arr[:, None], t_arr[None, :]))
    horizon = t_deadline[None, :] - departure
    lower = np.hypot(
        _interval_gap_vec(wx_lo, wx_hi, tx_lo, tx_hi),
        _interval_gap_vec(wy_lo, wy_hi, ty_lo, ty_hi),
    )
    return np.nonzero((horizon > 0.0) & (lower <= horizon * w_vel[:, None]))


class _Family(NamedTuple):
    """One predicted family's surviving pairs, awaiting the joint pricing."""

    rows: np.ndarray
    cols: np.ndarray
    w_intervals: tuple
    t_intervals: tuple
    quality: tuple
    existence: np.ndarray
    worker_offset: int
    task_offset: int


def _discount_quality(mean, var, lb, ub, probability):
    """Vectorized Bernoulli discount (see UncertainValue.discounted)."""
    mean_d = probability * mean
    var_d = np.maximum(probability * (var + mean * mean) - mean_d * mean_d, 0.0)
    lb_d = np.where(probability < 1.0, np.minimum(0.0, lb), lb)
    ub_d = np.maximum(ub, lb_d)
    return mean_d, var_d, lb_d, ub_d


def _triplet_pool(
    rows: np.ndarray,
    cols: np.ndarray,
    worker_offset: int,
    task_offset: int,
    cost: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    quality: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    existence: np.ndarray,
    is_current: bool,
) -> PairPool:
    """Assemble one pair family from aligned per-pair columns."""
    if rows.size == 0:
        return PairPool.empty()
    return PairPool(
        worker_idx=rows + worker_offset,
        task_idx=cols + task_offset,
        cost_mean=cost[0],
        cost_var=cost[1],
        cost_lb=cost[2],
        cost_ub=cost[3],
        quality_mean=quality[0],
        quality_var=quality[1],
        quality_lb=quality[2],
        quality_ub=quality[3],
        existence=existence,
        is_current=np.full(rows.size, is_current, dtype=bool),
    )


def _predicted_family_coupling(
    stats: QualitySampleStats,
    side: str,
    index: np.ndarray,
    existence: np.ndarray,
    discount_by_existence: bool,
    reservation_filter: bool,
    exact_quality: np.ndarray | None = None,
):
    """Quality estimate, discount and reservation verdict of one family.

    The single source of the Section III-B predicted-pair semantics,
    shared by the dense kernel and the fused pipeline's reconcile pass
    so they can never diverge: ``side`` selects the
    sample-statistic axis (``"task"`` for ``<w_hat, t>`` gathered by
    ``index = cols``, ``"worker"`` for ``<w, t_hat>`` gathered by
    ``index = rows``, ``"global"`` for ``<w_hat, t_hat>``), the
    quality is discounted by the existence probability when enabled,
    and the reservation filter returns a keep mask (``None`` when it
    does not apply — the future-future family reserves no current
    entity).  Callers apply the mask to their own aligned columns.
    """
    if exact_quality is not None:
        quality = (
            exact_quality,
            np.zeros_like(exact_quality),
            exact_quality,
            exact_quality,
        )
    elif side == "task":
        quality = tuple(
            axis[index]
            for axis in (stats.task_mean, stats.task_var, stats.task_min, stats.task_max)
        )
    elif side == "worker":
        quality = tuple(
            axis[index]
            for axis in (
                stats.worker_mean,
                stats.worker_var,
                stats.worker_min,
                stats.worker_max,
            )
        )
    else:
        quality = (
            np.full(index.size, stats.global_mean),
            np.full(index.size, stats.global_var),
            np.full(index.size, stats.global_min),
            np.full(index.size, stats.global_max),
        )
    if discount_by_existence:
        quality = _discount_quality(*quality, existence)
    keep = None
    if reservation_filter and side in ("task", "worker"):
        count = stats.task_count if side == "task" else stats.worker_count
        best_axis = stats.task_max if side == "task" else stats.worker_max
        has_current = count > 0
        best_current = np.where(has_current, best_axis, -np.inf)
        keep = (quality[0] > best_current[index]) | ~has_current[index]
    return quality, keep


def build_problem(
    current_workers: Sequence[Worker],
    current_tasks: Sequence[Task],
    predicted_workers: Sequence[Worker],
    predicted_tasks: Sequence[Task],
    quality_model: QualityModel,
    unit_cost: float,
    now: float,
    discount_by_existence: bool = True,
    reservation_filter: bool = True,
    include_future_future_pairs: bool = True,
    exact_predicted_quality: bool = False,
) -> ProblemInstance:
    """Build the candidate-pair pool for one time instance.

    Args:
        current_workers / current_tasks: entities available now
            (``W_p`` / ``T_p``).
        predicted_workers / predicted_tasks: grid-prediction samples
            for the next instance (``W_{p+1}`` / ``T_{p+1}``); pass
            empty sequences for the without-prediction (WoP) mode.
        quality_model: supplier of pair quality scores.
        unit_cost: the unit price ``C`` per distance.
        now: the current timestamp ``p``.
        discount_by_existence: multiply predicted pairs' quality by
            their existence probability (EXPERIMENTS.md, "Deviation
            analysis").
        reservation_filter: keep a mixed pair (one current entity, one
            predicted) only when its expected quality beats the best
            *currently available* pair of that current entity.
            Selecting such a pair reserves the current worker/task for
            the future; when a better current match exists, the
            reservation is an expected-value loss and merely strings
            the entity along (EXPERIMENTS.md, "Deviation analysis",
            discusses this refinement of the paper's selection).
        include_future_future_pairs: include the ``<w_hat, t_hat>``
            family (Section III-B, Case 3).  These pairs can never
            materialize and reserve no current entity; disabling them
            removes their perturbation of the candidate sets while
            keeping the genuine (mixed) reservations.
        exact_predicted_quality: price predicted pairs with the quality
            model directly (exact scores, zero variance) instead of the
            Section III-B sample statistics.  Used by the clairvoyant
            (oracle) mode, where the "predicted" entities are the real
            next-instance arrivals and their pair qualities are known.
    """
    if unit_cost < 0.0:
        raise ValueError(f"unit cost must be non-negative, got {unit_cost}")
    validate_predicted_flags(predicted_workers, predicted_tasks)

    n, m = len(current_workers), len(current_tasks)
    k, l = len(predicted_workers), len(predicted_tasks)
    pools: list[PairPool] = []

    wx, wy, w_vel, w_arr = _worker_columns(current_workers)
    tx, ty, t_deadline, t_arr = _task_columns(current_tasks)

    # ---- current x current -------------------------------------------------
    if n and m:
        dist = np.hypot(wx[:, None] - tx[None, :], wy[:, None] - ty[None, :])
        departure = np.maximum(now, np.maximum(w_arr[:, None], t_arr[None, :]))
        horizon = t_deadline[None, :] - departure
        cc_rows, cc_cols = np.nonzero((horizon > 0.0) & (dist <= horizon * w_vel[:, None]))
        quality_cc = quality_model.quality_matrix(current_workers, current_tasks)
        if quality_cc.shape != (n, m):
            raise ValueError(
                f"quality matrix shape {quality_cc.shape} != ({n}, {m})"
            )
        cc_quality = quality_cc[cc_rows, cc_cols]
        cost_cc = unit_cost * dist[cc_rows, cc_cols]
        zeros = np.zeros_like(cost_cc)
        pools.append(
            _triplet_pool(
                cc_rows,
                cc_cols,
                worker_offset=0,
                task_offset=0,
                cost=(cost_cc, zeros, cost_cc, cost_cc),
                quality=(cc_quality, zeros, cc_quality, cc_quality),
                existence=np.ones_like(cost_cc),
                is_current=True,
            )
        )
    else:
        cc_rows = cc_cols = np.zeros(0, dtype=np.int64)
        cc_quality = np.zeros(0)

    # ---- quality samples from the current instance (Cases 1-3) ------------
    # Per-task (Case 1), per-worker (Case 2) and pooled (Case 3)
    # statistics, accumulated from the valid-pair triplets so the
    # fused pipeline reproduces them bit-for-bit.
    stats = quality_sample_stats(
        cc_rows, cc_cols, cc_quality, n, m, quality_model.prior()
    )

    # ---- predicted families: mask first, price once ------------------------
    # Each family's validity (horizon, box-gap lower bound, reservation
    # filter) is decided before any pair is priced; the survivors of
    # all three families then share one delta-method pricing call.
    families: list[_Family] = []

    def _family(w_side, t_side, side, existence_axis, worker_offset, task_offset) -> None:
        w_entities, w_iv, vel, w_arrival = w_side
        t_entities, t_iv, deadline, t_arrival = t_side
        rows, cols = _reachable(w_iv, vel, w_arrival, t_iv, deadline, t_arrival, now)
        if rows.size == 0:
            return
        index = cols if side == "task" else rows
        existence = existence_axis[index]
        exact = (
            quality_model.quality_matrix(w_entities, t_entities)[rows, cols]
            if exact_predicted_quality
            else None
        )
        quality, keep = _predicted_family_coupling(
            stats, side, index, existence,
            discount_by_existence, reservation_filter, exact,
        )
        if keep is not None:
            rows, cols = rows[keep], cols[keep]
            quality = tuple(a[keep] for a in quality)
            existence = existence[keep]
        if rows.size:
            families.append(
                _Family(rows, cols, w_iv, t_iv, quality, existence, worker_offset, task_offset)
            )

    # Predicted entities are priced from their boxes, their sample
    # points never read; a current entity is a point (its box is
    # degenerate), priced from its location as in the fused pipeline.
    if k:
        pw_vel, pw_arr = _columns(predicted_workers, "velocity", "arrival")
        pw = (predicted_workers, _box_intervals(predicted_workers), pw_vel, pw_arr)
    if l:
        pt_deadline, pt_arr = _columns(predicted_tasks, "deadline", "arrival")
        pt = (predicted_tasks, _box_intervals(predicted_tasks), pt_deadline, pt_arr)
    if k and m:
        ct = (current_tasks, (tx, tx, ty, ty), t_deadline, t_arr)
        exist_task = np.minimum(stats.task_count / max(n, 1), 1.0)
        _family(pw, ct, "task", exist_task, n, 0)
    if n and l:
        cw = (current_workers, (wx, wx, wy, wy), w_vel, w_arr)
        exist_worker = np.minimum(stats.worker_count / max(m, 1), 1.0)
        _family(cw, pt, "worker", exist_worker, 0, m)
    if k and l and include_future_future_pairs:
        exist_ff = np.full(k, min(stats.total_valid / max(n * m, 1), 1.0))
        _family(pw, pt, "global", exist_ff, n, m)

    if families:
        d_mean, d_var, d_lb, d_ub = distance_stats_aligned(
            tuple(
                np.concatenate([f.w_intervals[axis][f.rows] for f in families])
                for axis in range(4)
            ),
            tuple(
                np.concatenate([f.t_intervals[axis][f.cols] for f in families])
                for axis in range(4)
            ),
        )
        cost = (unit_cost * d_mean, unit_cost**2 * d_var, unit_cost * d_lb, unit_cost * d_ub)
        start = 0
        for f in families:
            stop = start + f.rows.size
            pools.append(
                _triplet_pool(
                    f.rows,
                    f.cols,
                    worker_offset=f.worker_offset,
                    task_offset=f.task_offset,
                    cost=tuple(column[start:stop] for column in cost),
                    quality=f.quality,
                    existence=f.existence,
                    is_current=False,
                )
            )
            start = stop

    return ProblemInstance(
        workers=list(current_workers) + list(predicted_workers),
        tasks=list(current_tasks) + list(predicted_tasks),
        num_current_workers=n,
        num_current_tasks=m,
        pool=PairPool.concatenate(pools),
        now=now,
    )
