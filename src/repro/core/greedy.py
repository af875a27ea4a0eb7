"""The MQA greedy algorithm (Fig. 5), vectorized.

Each iteration selects one best worker-and-task pair over current and
predicted entities:

1. feasibility: the pair's guaranteed lower-bound cost must fit in the
   remaining combined budget (Fig. 5 line 6); a *current* pair's exact
   cost must additionally fit in the remaining current-instance budget
   (the hard per-instance constraint of Definition 4);
2. budget confidence: Eq. 9 must exceed ``delta``;
3. dominance pruning (Lemma 4.1) shrinks the survivors to a skyline;
4. a cap + increase-probability pruning (Lemma 4.2) refine it;
5. the Eq. 10 winner is selected, and all pairs sharing its worker or
   task are removed (Fig. 5 line 13).

The loop ends when no feasible candidate remains; predicted pairs are
then dropped (line 14) via the shared finalization.

The selection loop is exposed as :func:`greedy_select` because the D&C
algorithm reuses it verbatim for its budget-constrained selection
(Fig. 9 lines 17-28).  :class:`GreedyConfig` exposes the pruning
switches for the ablation benches.

It runs in one of two loops, the rescan loop below for small row sets
and the amortized engine of :mod:`repro.core.triplet_select` for large
ones.  Neither sorts the rows itself: both read the cost, weight,
budget-lane and occupancy orders and the Eq. 9 lanes from one
:class:`~repro.core.triplet_select.SelectionOrders`, built by
:func:`~repro.core.triplet_select.build_selection_orders`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.core.base import Assigner, AssignmentResult
from repro.core.pruning import (
    probability_prune,
    signs_decide,
    sweep_blockers,
    sweep_prune,
)
from repro.core.selection import _EPS, eq9_keep, pick_best, select_best_row
from repro.core import triplet_select
from repro.model.instance import ProblemInstance
from repro.model.pairs import PairPool


@dataclass(frozen=True)
class GreedyConfig:
    """Tuning knobs of :class:`MQAGreedy`.

    Attributes:
        delta: Eq. 9 confidence level; a pair must fit the combined
            budget with probability above ``delta``.
        candidate_cap: upper bound on the candidate-set size before the
            O(K^2) probabilistic stages (performance guard; the paper's
            candidate sets are small because dominance pruning is
            aggressive).
        use_dominance_pruning: apply Lemma 4.1 (ablation switch).
        use_probability_pruning: apply Lemma 4.2 (ablation switch).
        selection_objective: ``"probability"`` (the paper's Eq. 10) or
            ``"efficiency"`` (expected quality per unit cost; a
            budget-aware alternative, see EXPERIMENTS.md).
    """

    delta: float = 0.5
    candidate_cap: int = 64
    use_dominance_pruning: bool = True
    use_probability_pruning: bool = True
    selection_objective: str = "probability"

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.candidate_cap < 1:
            raise ValueError(f"candidate_cap must be >= 1, got {self.candidate_cap}")
        if self.selection_objective not in ("probability", "efficiency"):
            raise ValueError(
                f"unknown selection objective {self.selection_objective!r}"
            )


def greedy_select(
    pool: PairPool,
    rows: np.ndarray,
    budget_current: float,
    budget_max: float,
    config: GreedyConfig,
    selection_state=None,
) -> list[int]:
    """Iterative best-pair selection restricted to ``rows``.

    Implements the selection loop of Fig. 5 (and, when ``rows`` is the
    merged D&C result set, of ``MQA_Budget_Constrained_Selection`` in
    Fig. 9).  Returns the selected pool rows in selection order; the
    selection never assigns a worker or task twice.

    Budget accounting: a *current* pair's exact cost charges the
    current-instance budget (the hard Definition 4 constraint); a pair
    involving predicted entities charges its *expected* cost against
    the future share ``budget_max - budget_current`` (its guaranteed
    lower bound is often near zero, which would let reservations run
    unbounded), so
    reserving workers for predicted pairs can never starve the current
    instance's budget.  Eq. 9 is evaluated against the combined
    ``budget_max``, as in the paper.

    The selection is sparse-native (CSR-style over pool triplets) and
    never materializes an ``n x m`` matrix.  Large row sets run on the
    amortized engine of :mod:`repro.core.triplet_select` — sorted pool
    orders, worker/task occupancy groups, monotone budget sweeps —
    while small sets (every served round, and deltas outside the
    z-threshold shortcut) use the mask-based rescan loop below.  Both
    produce identical selections; the differential suites
    cross-validate them.
    """
    num_pairs = len(pool)
    if num_pairs == 0 or len(rows) == 0:
        return []

    rows = np.asarray(rows, dtype=np.int64)
    if rows.size > 1 and not bool((rows[1:] > rows[:-1]).all()):
        # Normalize only when needed: the streaming engines pass the
        # full-pool arange every round, and np.unique's sort is the
        # single largest shared cost of a steady-state selection.
        rows = np.unique(rows)
    if selection_state is not None:
        # Persistent warm path: bit-identical to the cold dispatch
        # below, or None when the state declines (subset row sets,
        # pools under the engine floor, no z-threshold shortcut).
        selected = selection_state.select(
            pool, rows, budget_current, budget_max, config
        )
        if selected is not None:
            return selected
    if rows.size >= triplet_select.TRIPLET_MIN_ROWS:
        selected = triplet_select.triplet_greedy_select(
            pool, rows, budget_current, budget_max, config
        )
        if selected is not None:
            return selected
    return _greedy_select_rescan(pool, rows, budget_current, budget_max, config)


def _greedy_select_rescan(
    pool: PairPool,
    rows: np.ndarray,
    budget_current: float,
    budget_max: float,
    config: GreedyConfig,
) -> list[int]:
    """The selection loop for row sets under ``TRIPLET_MIN_ROWS``.

    ``rows`` must be unique and ascending.  Every stage works on
    boolean masks over one frame, the rows in ``(cost_ub, row)`` order
    gathered once; the shared orders' weight order, budget lanes and
    occupancy groups map into the frame through one rank scatter, so
    the loop sorts nothing and an iteration costs a few dozen NumPy
    calls:

    - feasibility is monotone in the spend, so each budget share's
      failing rows are a suffix of its cost order, found by bisection;
    - Eq. 9 is one z test over the frame (:func:`eq9_lanes`); only
      rows it cannot decide from ``z`` alone take the exact CDF;
    - the Lemma 4.1 skyline is a masked prefix max with the cut of
      each position computed once;
    - the candidate window is the first ``candidate_cap`` skyline rows
      in weight order, and Lemma 4.2 over it is a prefix-minimum sweep
      wherever :func:`sweep_blockers` allows (else the shared
      :func:`probability_prune`);
    - the occupancy cut clears the winner's worker and task groups.

    The differential suites pin its selections to ``ReferenceGreedy``
    and the triplet engine.
    """
    orders = triplet_select.build_selection_orders(
        pool, rows, config.delta, stochastic_sweeps=False
    )
    # The frame; ``slot`` maps a position of the orders to its slot.
    order = rows[orders.ub_order]
    slot = np.empty(order.size, dtype=np.int64)
    slot[orders.ub_order] = np.arange(order.size)
    cost_mean = pool.cost_mean[order]
    # Cost, quality mean and variance of a position: the Eq. 10 inputs.
    scoring = np.stack((cost_mean, pool.quality_mean[order], pool.quality_var[order]))
    # Weight order (the candidate-cap order) over positions.
    weight_positions = slot[orders.weight_positions]
    alive = cost_mean == cost_mean  # a NaN cost never fits its budget

    # Feasibility: a current pair's cost must fit the current-instance
    # budget (Definition 4), a predicted pair's the future share.  Each
    # lane is its share's cost order; the NaN costs sorted last are
    # already dead and stay outside the bisected range.
    lanes = []
    for sweep in (orders.cur_sweep, orders.fut_sweep):
        lane = slot[sweep]
        lanes.append([lane, cost_mean[lane].tolist(), np.count_nonzero(alive[lane])])

    std, z_lo, z_hi = (
        column[orders.ub_order] for column in (orders.std, orders.z_lo, orders.z_hi)
    )

    if config.use_dominance_pruning:
        # Lemma 4.1 in the fixed frame: the dominators of a position
        # lie before its cut (first position with cost_ub >= its
        # cost_lb); masking dead positions to -inf makes the prefix max
        # range over exactly the live set.  best_before[0] stays -inf.
        cut = np.searchsorted(pool.cost_ub[order], pool.cost_lb[order], side="left")
        quality_lb = pool.quality_lb[order]
        quality_ub = pool.quality_ub[order]
        best_before = np.full(order.size + 1, -np.inf)

    # Lemma 4.2's sign guard, decided once: a candidate window is a
    # subset of ``rows``, so a pass here holds for every window, and
    # where the blockers allow, every window is pruned by the sweep.
    signs_decided = config.use_probability_pruning and signs_decide(
        pool, rows, orders.weight_positions, orders.by_cost
    )
    blockers = sweep_blockers(pool, order, weight_positions) if signs_decided else None
    if blockers is not None:
        sweep_frame = np.stack((cost_mean, scoring[1], blockers))

    # Occupancy groups: (keys, starts, frame slots) per worker / task.
    groups = (
        (orders.w_keys.tolist(), orders.w_starts.tolist(), slot[orders.w_members]),
        (orders.t_keys.tolist(), orders.t_starts.tolist(), slot[orders.t_members]),
    )

    cap = config.candidate_cap
    budget_future = max(budget_max - budget_current, 0.0)
    spent_current = 0.0
    spent_future = 0.0
    spent_lower_bound = 0.0
    selected: list[int] = []

    while True:
        for lane, left in zip(
            lanes, (budget_current - spent_current, budget_future - spent_future)
        ):
            threshold = left + _EPS  # a NaN budget fits nothing
            end = bisect_right(lane[1], threshold, 0, lane[2]) if threshold == threshold else 0
            if end < lane[2]:
                alive[lane[0][end : lane[2]]] = False
                lane[2] = end
        # Eq. 9: failures are permanent, as for feasibility.
        z = (budget_max - spent_lower_bound - cost_mean) / std
        doubt = alive > (z > z_hi)
        if np.count_nonzero(doubt):
            doubt = doubt.nonzero()[0]
            alive[doubt] = eq9_keep(z[doubt], z_lo[doubt], z_hi[doubt], config.delta)

        candidates = alive
        if config.use_dominance_pruning:
            np.maximum.accumulate(np.where(alive, quality_lb, -np.inf), out=best_before[1:])
            candidates = alive > (best_before[cut] > quality_ub)
        window = weight_positions[candidates[weight_positions]]
        if window.size == 0:
            if np.count_nonzero(alive):
                raise ValueError("cannot select from an empty candidate set")
            break
        # Canonical candidate order: the Eq. 10 scores sum float
        # probabilities in array order, so the order fed to the
        # selection stages is part of the contract — quality-weight
        # order when the cap binds, ascending rows when it does not.
        capped = window.size > cap
        if capped:
            window = window[:cap]
        if blockers is None and config.use_probability_pruning:
            candidate_rows = order[window] if capped else np.sort(order[window])
            candidate_rows = probability_prune(pool, candidate_rows, signs_decided)
            best = select_best_row(pool, candidate_rows, config.selection_objective)
        else:
            if blockers is not None:
                window = window[sweep_prune(*sweep_frame[:, window])]
            if window.size == 1:
                best = int(order[window[0]])
            else:
                if not capped:
                    window = window[np.argsort(order[window])]
                best = pick_best(order[window], *scoring[:, window], config.selection_objective)

        selected.append(best)
        spent_lower_bound += float(pool.cost_lb[best])
        if pool.is_current[best]:
            spent_current += float(pool.cost_mean[best])
        else:
            spent_future += float(pool.cost_mean[best])
        # Occupancy cut: every pair sharing the winner's worker or task.
        for (keys, starts, members), key in zip(
            groups, (int(pool.worker_idx[best]), int(pool.task_idx[best]))
        ):
            group = bisect_left(keys, key)
            alive[members[starts[group] : starts[group + 1]]] = False

    return selected


class MQAGreedy(Assigner):
    """Procedure ``MQA_Greedy`` of the paper (vectorized)."""

    name = "greedy"

    def __init__(self, config: GreedyConfig | None = None) -> None:
        self._config = config if config is not None else GreedyConfig()

    @property
    def config(self) -> GreedyConfig:
        return self._config

    def assign(
        self,
        problem: ProblemInstance,
        budget_current: float,
        budget_future: float,
        rng: np.random.Generator,
    ) -> AssignmentResult:
        pool = problem.pool
        selected = greedy_select(
            pool,
            np.arange(len(pool)),
            budget_current,
            budget_current + budget_future,
            self._config,
            selection_state=self.take_round_selection_state(),
        )
        return self._result_from_rows(problem, selected, budget_current)
