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

from dataclasses import dataclass, field
from collections.abc import Sequence
from functools import cached_property
from operator import attrgetter

import numpy as np

from repro.geo.box import Box
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.model.pairs import CandidatePair, DensePairMatrices, PairPool, PoolPart
from repro.model.quality import QualityModel
from repro.uncertainty.vector import _interval_gap_vec, distance_stats_aligned

_ID = attrgetter("id")


class _PredictedColumns:
    """One round's predicted entities as columns (no entity objects).

    What :func:`~repro.simulation.engine.predict_entities` returns and
    every builder reads: ids, sample points ``xs``/``ys``, velocities
    (workers) or deadlines (tasks), arrivals and the kernel boxes
    ``intervals = (x_lo, x_hi, y_lo, y_hi)``.  ``reach``
    (:func:`~repro.model.sparse._reach`) is filled in by the tile
    pipeline, its only reader.  The entity objects are built on first
    iteration (or kept, when packed from objects by :meth:`of`).
    """

    @classmethod
    def of(cls, entities):
        """``entities`` as columns, or ``None`` when there are none.

        Columns pass through; entity objects (tests, the clairvoyant
        mode) are packed after checking that each is flagged predicted.
        """
        if isinstance(entities, cls):
            return entities if entities.ids.size else None
        if not entities:
            return None
        for entity in entities:
            if not entity.predicted:
                raise ValueError(
                    f"{cls._kind} {entity.id} passed as predicted but not flagged"
                )
        return cls(
            _ids(entities),
            *_columns(entities, "location.x", "location.y", cls._third, "arrival"),
            _columns(entities, "box.x_lo", "box.x_hi", "box.y_lo", "box.y_hi"),
            objects=list(entities),
        )

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        if self.objects is None:
            self.objects = [
                self._entity(i, Point(x, y), third, arrival, True, Box(*box))
                for i, x, y, third, arrival, *box in zip(
                    self.ids.tolist(), self.xs.tolist(), self.ys.tolist(),
                    getattr(self, self._field).tolist(), self.arr.tolist(),
                    *(axis.tolist() for axis in self.intervals),
                )
            ]
        return iter(self.objects)


@dataclass(eq=False)
class PredictedWorkerColumns(_PredictedColumns):
    """One round's predicted workers as columns; see :class:`_PredictedColumns`."""

    _kind, _entity, _third, _field = "worker", Worker, "velocity", "vel"
    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    vel: np.ndarray
    arr: np.ndarray
    intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    reach: np.ndarray | None = None
    objects: list[Worker] | None = field(default=None, repr=False)

    def take(self, rows: np.ndarray) -> "PredictedWorkerColumns":
        """The aligned subset at ``rows`` (a tile's owned entities)."""
        return PredictedWorkerColumns(
            self.ids[rows], self.xs[rows], self.ys[rows], self.vel[rows],
            self.arr[rows], tuple(a[rows] for a in self.intervals), self.reach[rows],
        )


@dataclass(eq=False)
class PredictedTaskColumns(_PredictedColumns):
    """One round's predicted tasks as columns; see :class:`_PredictedColumns`."""

    _kind, _entity, _third, _field = "task", Task, "deadline", "deadline"
    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    deadline: np.ndarray
    arr: np.ndarray
    intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    reach: np.ndarray | None = None
    objects: list[Task] | None = field(default=None, repr=False)


class ProblemInstance:
    """One MQA decision problem (one time instance).

    ``workers`` and ``tasks`` list current entities first, then
    predicted ones; ``pool`` indexes into those lists.  The builders
    pass the predicted entities as columns (``predicted_workers`` /
    ``predicted_tasks``), whose objects are built on the first access
    of ``workers`` / ``tasks``; :meth:`pair` of a current row builds
    none.
    """

    def __init__(
        self,
        workers: list[Worker],
        tasks: list[Task],
        num_current_workers: int,
        num_current_tasks: int,
        pool: PairPool,
        now: float,
        predicted_workers: PredictedWorkerColumns | None = None,
        predicted_tasks: PredictedTaskColumns | None = None,
    ) -> None:
        self._workers = workers
        self._tasks = tasks
        self._pending = [predicted_workers, predicted_tasks]
        self.num_current_workers = num_current_workers
        self.num_current_tasks = num_current_tasks
        self.pool = pool
        self.now = now

    @property
    def workers(self) -> list[Worker]:
        if self._pending[0] is not None:
            self._workers = self._workers + list(self._pending[0])
            self._pending[0] = None
        return self._workers

    @property
    def tasks(self) -> list[Task]:
        if self._pending[1] is not None:
            self._tasks = self._tasks + list(self._pending[1])
            self._pending[1] = None
        return self._tasks

    @property
    def current_workers(self) -> list[Worker]:
        return self._workers[: self.num_current_workers]

    @property
    def current_tasks(self) -> list[Task]:
        return self._tasks[: self.num_current_tasks]

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
        w, t = int(self.pool.worker_idx[row]), int(self.pool.task_idx[row])
        return CandidatePair(
            worker=(self._workers if w < len(self._workers) else self.workers)[w],
            task=(self._tasks if t < len(self._tasks) else self.tasks)[t],
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


def _ids(entities) -> np.ndarray:
    """The ids of ``entities`` as one int64 array."""
    return np.fromiter(map(_ID, entities), dtype=np.int64, count=len(entities))


def _columns(entities, *fields: str) -> tuple[np.ndarray, ...]:
    """One float array per attribute path in ``fields``, in bulk."""
    return tuple(
        np.fromiter(map(attrgetter(path), entities), dtype=float, count=len(entities))
        for path in fields
    )


def _worker_columns(workers: Sequence[Worker]):
    """``(x, y, velocity, arrival)`` arrays."""
    return _columns(workers, "location.x", "location.y", "velocity", "arrival")


def _task_columns(tasks: Sequence[Task]):
    """``(x, y, deadline, arrival)`` arrays."""
    return _columns(tasks, "location.x", "location.y", "deadline", "arrival")


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

    # Tasks (Case 1) and workers (Case 2) in one pass: the worker
    # segments follow the task segments, and every segment accumulates
    # its values in the same order as it would alone.
    count, mean, var, lo, hi = _segment_stats(
        np.concatenate((cols, rows + num_tasks)),
        np.concatenate((values, values)),
        num_tasks + num_workers,
    )
    empty = count == 0
    mean = np.where(empty, global_mean, mean)
    var = np.where(empty, global_var, var)
    lo = np.where(empty, global_min, lo)
    hi = np.where(empty, global_max, hi)
    task_count, task_mean, task_var, task_min, task_max = (
        a[:num_tasks] for a in (count, mean, var, lo, hi)
    )
    worker_count, worker_mean, worker_var, worker_min, worker_max = (
        a[num_tasks:] for a in (count, mean, var, lo, hi)
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


def _valid_pairs(w_intervals, w_vel, w_arr, t_intervals, t_deadline, t_arr, now):
    """``(valid, lower)`` matrices of every worker against every task.

    The matrix form of the validity predicate: the deadline horizon
    and the box-gap lower bound ``lower = hypot(gap_x, gap_y)``, the
    same floats as the ``lower`` output of
    :func:`~repro.uncertainty.vector.distance_stats_vec`, so no pair
    has to be priced to be rejected.  Between two points (degenerate
    boxes) ``lower`` is their distance, bit for bit.
    """
    wx_lo, wx_hi, wy_lo, wy_hi = (axis[:, None] for axis in w_intervals)
    tx_lo, tx_hi, ty_lo, ty_hi = t_intervals
    departure = np.maximum(now, np.maximum(w_arr[:, None], t_arr[None, :]))
    horizon = t_deadline[None, :] - departure
    lower = np.hypot(
        _interval_gap_vec(wx_lo, wx_hi, tx_lo, tx_hi),
        _interval_gap_vec(wy_lo, wy_hi, ty_lo, ty_hi),
    )
    return (horizon > 0.0) & (lower <= horizon * w_vel[:, None]), lower


def _stack_sides(current, predicted):
    """One side's ``(intervals, velocity or deadline, arrival)``, the
    current entities' first."""
    return (
        tuple(np.concatenate(pair) for pair in zip(current[0], predicted[0])),
        np.concatenate((current[1], predicted[1])),
        np.concatenate((current[2], predicted[2])),
    )


def _discount_quality(mean, var, lb, ub, probability):
    """Vectorized Bernoulli discount (see UncertainValue.discounted)."""
    mean_d = probability * mean
    var_d = np.maximum(probability * (var + mean * mean) - mean_d * mean_d, 0.0)
    lb_d = np.where(probability < 1.0, np.minimum(0.0, lb), lb)
    ub_d = np.maximum(ub, lb_d)
    return mean_d, var_d, lb_d, ub_d


def _predicted_family_coupling(
    stats: QualitySampleStats,
    side: str,
    rows: np.ndarray,
    cols: np.ndarray,
    existence_axis,
    discount_by_existence: bool,
    reservation_filter: bool,
    exact_quality: np.ndarray | None = None,
):
    """One predicted family's valid pairs, coupled: the survivors'
    ``(rows, cols, quality, existence)``.

    The single source of the Section III-B predicted-pair semantics,
    shared by the dense kernel and the fused pipeline's reconcile pass
    so they can never diverge: ``side`` selects the sample-statistic
    axis (``"task"`` for ``<w_hat, t>``, gathered by ``cols``,
    ``"worker"`` for ``<w, t_hat>``, gathered by ``rows``, ``"global"``
    for ``<w_hat, t_hat>``), and ``existence_axis`` likewise gives the
    existence probabilities (one value for ``"global"``).  The quality
    is discounted by the existence probability when enabled, and the
    reservation filter drops mixed pairs (the future-future family
    reserves no current entity).
    """
    index = cols if side == "task" else rows
    if side == "global":
        existence = np.full(rows.size, existence_axis)
    else:
        existence = existence_axis[index]
    if exact_quality is not None:
        zeros = np.zeros_like(exact_quality)
        quality = (exact_quality, zeros, exact_quality, exact_quality)
    elif side == "global":
        quality = tuple(
            np.full(rows.size, getattr(stats, f"global_{name}"))
            for name in ("mean", "var", "min", "max")
        )
    else:
        quality = tuple(
            getattr(stats, f"{side}_{name}")[index] for name in ("mean", "var", "min", "max")
        )
    if discount_by_existence:
        quality = _discount_quality(*quality, existence)
    if reservation_filter and side in ("task", "worker"):
        count = stats.task_count if side == "task" else stats.worker_count
        best_axis = stats.task_max if side == "task" else stats.worker_max
        has_current = count > 0
        best_current = np.where(has_current, best_axis, -np.inf)
        keep = (quality[0] > best_current[index]) | ~has_current[index]
        rows, cols, existence = rows[keep], cols[keep], existence[keep]
        quality = tuple(a[keep] for a in quality)
    return rows, cols, quality, existence


def build_problem(
    current_workers: Sequence[Worker],
    current_tasks: Sequence[Task],
    predicted_workers: PredictedWorkerColumns | Sequence[Worker],
    predicted_tasks: PredictedTaskColumns | Sequence[Task],
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
            for the next instance (``W_{p+1}`` / ``T_{p+1}``), as
            columns or as entity objects flagged predicted; pass empty
            sequences for the without-prediction (WoP) mode.
        quality_model: supplier of pair quality scores; its
            ``quality_pairs_by_ids`` hook, when present, scores only
            the valid current pairs.
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
    predicted_workers = PredictedWorkerColumns.of(predicted_workers)
    predicted_tasks = PredictedTaskColumns.of(predicted_tasks)

    n, m = len(current_workers), len(current_tasks)
    k = 0 if predicted_workers is None else predicted_workers.ids.size
    l = 0 if predicted_tasks is None else predicted_tasks.ids.size
    parts: list[PoolPart] = []  # the pool: current pairs, then each family

    # ---- validity of every pair, mask first --------------------------------
    # Rows: the current workers, then the predicted ones; columns: the
    # current tasks, then the predicted ones -- the order of the
    # instance's entity lists, so an entry's position is its pair's
    # pool index.  A current entity is a point (its box is degenerate)
    # and a predicted one its kernel box, whose sample point the build
    # never reads.  Each family's validity (horizon, box-gap lower
    # bound, then the reservation filter) is decided before any pair
    # is priced; the survivors of all predicted families then share
    # one delta-method pricing call.
    wx, wy, w_vel, w_arr = _worker_columns(current_workers)
    tx, ty, t_deadline, t_arr = _task_columns(current_tasks)
    w_side = ((wx, wx, wy, wy), w_vel, w_arr)
    t_side = ((tx, tx, ty, ty), t_deadline, t_arr)
    if k:
        cols = predicted_workers
        w_side = _stack_sides(w_side, (cols.intervals, cols.vel, cols.arr))
    if l:
        cols = predicted_tasks
        t_side = _stack_sides(t_side, (cols.intervals, cols.deadline, cols.arr))
    valid, lower = _valid_pairs(*w_side, *t_side, now)

    # ---- current x current -------------------------------------------------
    if n and m:
        cc_rows, cc_cols = np.nonzero(valid[:n, :m])
        by_ids = getattr(quality_model, "quality_pairs_by_ids", None)
        if by_ids is not None:
            cc_quality = np.asarray(
                by_ids(_ids(current_workers)[cc_rows], _ids(current_tasks)[cc_cols]),
                dtype=float,
            )
        else:
            quality_cc = quality_model.quality_matrix(current_workers, current_tasks)
            if quality_cc.shape != (n, m):
                raise ValueError(
                    f"quality matrix shape {quality_cc.shape} != ({n}, {m})"
                )
            cc_quality = quality_cc[cc_rows, cc_cols]
        cost_cc = unit_cost * lower[cc_rows, cc_cols]
        zeros = np.zeros_like(cost_cc)
        parts.append(PoolPart(
            cc_rows, cc_cols, (cost_cc, zeros, cost_cc, cost_cc),
            (cc_quality, zeros, cc_quality, cc_quality), np.ones_like(cost_cc), True,
        ))
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

    # ---- predicted families: couple, then price the survivors once --------
    families = []
    if k and m:
        exist_task = np.minimum(stats.task_count / max(n, 1), 1.0)
        families.append(("task", predicted_workers, current_tasks, n, 0, exist_task))
    if n and l:
        exist_worker = np.minimum(stats.worker_count / max(m, 1), 1.0)
        families.append(("worker", current_workers, predicted_tasks, 0, m, exist_worker))
    if k and l and include_future_future_pairs:
        exist_ff = min(stats.total_valid / max(n * m, 1), 1.0)
        families.append(("global", predicted_workers, predicted_tasks, n, m, exist_ff))
    survivors = []
    for side, w_entities, t_entities, row0, col0, existence_axis in families:
        rows, cols = np.nonzero(
            valid[row0 : row0 + len(w_entities), col0 : col0 + len(t_entities)]
        )
        if rows.size == 0:
            continue
        exact = (
            quality_model.quality_matrix(list(w_entities), list(t_entities))[rows, cols]
            if exact_predicted_quality
            else None
        )
        rows, cols, quality, existence = _predicted_family_coupling(
            stats, side, rows, cols, existence_axis,
            discount_by_existence, reservation_filter, exact,
        )
        if rows.size:
            survivors.append((rows + row0, cols + col0, quality, existence))

    if survivors:
        rows = np.concatenate([s[0] for s in survivors])
        cols = np.concatenate([s[1] for s in survivors])
        d_mean, d_var, d_lb, d_ub = distance_stats_aligned(
            tuple(axis[rows] for axis in w_side[0]),
            tuple(axis[cols] for axis in t_side[0]),
        )
        cost = (unit_cost * d_mean, unit_cost**2 * d_var, unit_cost * d_lb, unit_cost * d_ub)
        start = 0
        for f_rows, f_cols, quality, existence in survivors:
            stop = start + f_rows.size
            parts.append(PoolPart(
                f_rows, f_cols, tuple(column[start:stop] for column in cost),
                quality, existence, False,
            ))
            start = stop

    return ProblemInstance(
        list(current_workers), list(current_tasks), n, m, PairPool.from_parts(parts), now,
        predicted_workers, predicted_tasks,
    )
