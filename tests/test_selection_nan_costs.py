"""Selection over pools whose expected costs include NaN.

A NaN ``cost_mean`` never fits a budget, so every selection loop must
treat such a row as dead from the start.  The loops meet it in their
shared sorted orders (:func:`repro.core.triplet_select.
build_selection_orders`), where a cost sweep sorts NaN last: the rescan
loop bisects each budget lane only up to that tail, the triplet engine
sweeps it with ``searchsorted``, and a warm repair merges fresh NaN
rows (a NaN never verifies as unchanged) into the survivors' runs.

Each pool carries NaN rows in both the current and the predicted lane.
The rescan loop, the triplet engine (``TRIPLET_MIN_ROWS`` patched to
1), a primed and a repaired :class:`~repro.core.triplet_select.
SelectionState` round must give the same selection, the same as on the
pool with the NaN rows deleted, and select no NaN row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import greedy, triplet_select
from repro.core.greedy import GreedyConfig, greedy_select
from repro.core.triplet_select import SelectionState
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.model.instance import ProblemInstance
from repro.model.pairs import PairPool

_WORKERS = 14
_TASKS = 12


def _pool(rng: np.random.Generator, nan_share: float) -> PairPool:
    """Distinct (worker, task) pairs, NaN costs in both lanes."""
    n = int(rng.integers(30, 120))
    cells = rng.choice(_WORKERS * _TASKS, size=n, replace=False)
    is_current = rng.random(n) < 0.5
    is_current[:2] = (True, False)
    quality = np.round(rng.uniform(0.0, 3.0, n), 1)
    quality_var = np.where(is_current, 0.0, rng.choice([0.0, 0.04, 0.25], n))
    spread = rng.uniform(0.0, 0.8, n)
    cost = np.round(rng.uniform(0.0, 3.0, n), 1)
    cost_var = np.where(is_current, 0.0, rng.choice([0.0, 0.01, 0.09, 0.25], n))
    reach = np.where(cost_var > 0.0, rng.uniform(0.0, 0.6, n), 0.0)
    cost_lb = np.maximum(cost - reach, 0.0)
    cost_ub = cost + reach
    nan = rng.random(n) < nan_share
    nan[:2] = True  # one current and one predicted NaN row at least
    cost = np.where(nan, np.nan, cost)
    return PairPool(
        cells // _TASKS, cells % _TASKS, cost, cost_var, cost_lb, cost_ub,
        quality, quality_var,
        np.where(is_current, quality, np.maximum(quality - spread, 0.0)),
        np.where(is_current, quality, quality + spread),
        np.ones(n), is_current,
    )


def _perturbed(rng: np.random.Generator, pool: PairPool) -> PairPool:
    """The next round's pool: the same pairs, some costs redrawn, some
    of them NaN (the repair meets NaN rows among its fresh rows)."""
    n = len(pool)
    cost = pool.cost_mean.copy()
    redraw = rng.random(n) < 0.25
    cost[redraw] = np.round(rng.uniform(0.0, 3.0, int(redraw.sum())), 1)
    cost[redraw & (rng.random(n) < 0.4)] = np.nan
    return PairPool(
        pool.worker_idx, pool.task_idx, cost, pool.cost_var, pool.cost_lb,
        pool.cost_ub, pool.quality_mean, pool.quality_var, pool.quality_lb,
        pool.quality_ub, pool.existence, pool.is_current,
    )


def _without_nan(pool: PairPool) -> tuple[PairPool, np.ndarray]:
    """The pool with its NaN-cost rows deleted, and the kept rows."""
    kept = np.flatnonzero(pool.cost_mean == pool.cost_mean)
    return pool.subset(kept), kept


def _problem(pool: PairPool) -> ProblemInstance:
    here = Point(0.5, 0.5)
    return ProblemInstance(
        workers=[Worker(id=i, location=here, velocity=1.0) for i in range(_WORKERS)],
        tasks=[Task(id=j, location=here, deadline=1.0) for j in range(_TASKS)],
        num_current_workers=_WORKERS,
        num_current_tasks=_TASKS,
        pool=pool,
        now=0.0,
    )


def _triplet(pool, rows, budget_current, budget_max, config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triplet_select, "TRIPLET_MIN_ROWS", 1)
        patch.setattr(
            greedy, "_greedy_select_rescan",
            lambda *args: pytest.fail("the triplet engine declined the pool"),
        )
        return greedy_select(pool, rows, budget_current, budget_max, config)


def _warm(state, pool, rows, budget_current, budget_max, config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triplet_select, "TRIPLET_MIN_ROWS", 1)
        state.begin_round(_problem(pool))
        return state.select(pool, rows, budget_current, budget_max, config)


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
def test_nan_costs_select_alike_and_never(delta):
    selections = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        config = GreedyConfig(delta=delta, candidate_cap=int(rng.choice([1, 8, 64])))
        budget_current = float(rng.uniform(0.0, 6.0))
        budget_max = budget_current + float(rng.uniform(0.0, 6.0))
        state = SelectionState(repair_ratio=1.0)
        first = _pool(rng, nan_share=0.15)
        for pool in (first, _perturbed(rng, first)):
            rows = np.arange(len(pool), dtype=np.int64)
            rescan = greedy._greedy_select_rescan(
                pool, rows, budget_current, budget_max, config
            )
            assert _triplet(pool, rows, budget_current, budget_max, config) == rescan
            warm = _warm(state, pool, rows, budget_current, budget_max, config)
            assert warm == rescan
            assert not np.isnan(pool.cost_mean[rescan]).any()

            finite, kept = _without_nan(pool)
            alone = greedy._greedy_select_rescan(
                finite, np.arange(len(finite)), budget_current, budget_max, config
            )
            assert kept[alone].tolist() == rescan
            selections += len(rescan)
        assert state.stats.primes == 1 and state.stats.repaired == 1
    assert selections > 0
