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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import Assigner, AssignmentResult
from repro.core.pruning import probability_prune, signs_decide
from repro.core.selection import (
    budget_confident_rows,
    feasible_rows,
    select_best_row,
)
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
    while small sets (and deltas outside the z-threshold shortcut) use
    the per-iteration rescan loop below.  Both produce identical
    selections; the differential suite cross-validates them.
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
    """Reference selection loop: rescans the survivors every iteration.

    ``rows`` must be unique and ascending.  Kept both as the
    small-problem fast path and as the differential baseline for the
    amortized engine.
    """
    num_pairs = len(pool)
    # Survivors sorted by (cost_ub, row) once; filtering preserves the
    # order, so the dominance skyline never re-sorts.
    alive = pool.order_by_cost_ub(rows)
    # Global candidate-cap order over the same rows; per-iteration
    # caps reduce to one membership gather along it.
    weight_order = pool.order_by_weight(rows)
    member = np.zeros(num_pairs, dtype=bool)

    if config.use_dominance_pruning:
        # Fixed-position skyline scaffolding: positions in the initial
        # cost_ub order never move, so the Lemma 4.1 prefix boundary
        # (first position with cost_ub >= cost_lb[j]) is computed once;
        # per iteration only a masked prefix-max remains.  Masking dead
        # positions to -inf makes the prefix max range over exactly the
        # iteration's candidate set, so the pruned set is identical to
        # dominance_skyline over that set.
        position_of = np.empty(num_pairs, dtype=np.int64)
        position_of[alive] = np.arange(alive.size)
        cost_ub_sorted = pool.cost_ub[alive]
        quality_lb_sorted = pool.quality_lb[alive]
        quality_ub_sorted = pool.quality_ub[alive]
        cut = np.searchsorted(cost_ub_sorted, pool.cost_lb[alive], side="left")
        cut_of = np.empty(num_pairs, dtype=np.int64)
        cut_of[alive] = cut
        masked_lb = np.full(alive.size, -np.inf)

    # Lemma 4.2's sign guard, decided once: a candidate window is a
    # subset of ``rows``, so a pass here holds for every window.
    signs_decided = config.use_probability_pruning and signs_decide(pool, rows)

    budget_future = max(budget_max - budget_current, 0.0)
    spent_current = 0.0
    spent_future = 0.0
    spent_lower_bound = 0.0
    selected: list[int] = []

    while alive.size:
        # Hard per-instance constraint for materializable pairs;
        # future-share constraint for predicted pairs.  Both filters
        # are monotone in the spend, so failures are permanent and the
        # survivor set only shrinks.
        alive = feasible_rows(
            pool,
            alive,
            budget_current - spent_current,
            budget_future - spent_future,
        )
        if alive.size == 0:
            break
        alive = budget_confident_rows(
            pool, alive, spent_lower_bound, budget_max, config.delta
        )
        if alive.size == 0:
            break

        candidate_rows = alive
        if config.use_dominance_pruning:
            positions = position_of[alive]
            masked_lb[positions] = quality_lb_sorted[positions]
            prefix_max = np.maximum.accumulate(masked_lb)
            cuts = cut_of[alive]
            best_before = np.where(cuts > 0, prefix_max[np.maximum(cuts - 1, 0)], -np.inf)
            dominated = best_before > quality_ub_sorted[positions]
            masked_lb[positions] = -np.inf
            candidate_rows = alive[~dominated]
        # Canonical candidate order: the Eq. 10 scores sum float
        # probabilities in array order, so the order fed to the
        # selection stages is part of the contract — ascending rows
        # when the cap is loose, quality-weight order when it binds.
        if candidate_rows.size > config.candidate_cap:
            member[candidate_rows] = True
            capped = weight_order[member[weight_order]][: config.candidate_cap]
            member[candidate_rows] = False
            candidate_rows = capped
        else:
            candidate_rows = np.sort(candidate_rows)
        if config.use_probability_pruning:
            candidate_rows = probability_prune(pool, candidate_rows, signs_decided)

        best = select_best_row(pool, candidate_rows, config.selection_objective)
        selected.append(best)
        spent_lower_bound += float(pool.cost_lb[best])
        if pool.is_current[best]:
            spent_current += float(pool.cost_mean[best])
        else:
            spent_future += float(pool.cost_mean[best])
        # Occupancy cut: drop every pair sharing the winner's worker or
        # task (one pass over the survivors, not the pool).
        keep = (pool.worker_idx[alive] != pool.worker_idx[best]) & (
            pool.task_idx[alive] != pool.task_idx[best]
        )
        alive = alive[keep]

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
