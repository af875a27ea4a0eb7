"""Assigner interface, results, and shared budget semantics.

Budget model
------------

Definition 4 constrains the *realized* traveling cost of each time
instance to the per-instance budget ``B``.  When prediction is enabled,
GREEDY/D&C select over current *and* predicted pairs against the
combined budget ``B_max`` = remaining current budget + next-instance
budget (Section IV-C: "B_max is the available budget in both current
and next time instances").  Predicted pairs are then discarded from the
output (Fig. 5, line 14), so the per-instance constraint must hold for
the *materialized* (current-current) pairs alone.

:func:`finalize_selection` enforces exactly that: it keeps the
materialized pairs, and if their realized cost exceeds the current
budget (possible after D&C merging), trims lowest-quality pairs until
feasible.  The greedy algorithm already charges current pairs against
the current budget during selection, so finalization is a no-op there;
it is load-bearing for D&C and RANDOM.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.model.instance import ProblemInstance
from repro.obs.metrics import monotonic
from repro.model.pairs import CandidatePair


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of one assigner invocation at one time instance.

    Attributes:
        pairs: the materialized assignment instance set ``I_p`` —
            current-current pairs only, each within budget.
        rows: pool row index of each pair in ``pairs``.
        considered_rows: every row the algorithm *selected* before
            predicted pairs were dropped (diagnostics / tests).
        total_quality: realized quality score of ``pairs``.
        total_cost: realized traveling cost of ``pairs``.
    """

    pairs: list[CandidatePair]
    rows: list[int]
    considered_rows: list[int] = field(default_factory=list)

    @property
    def total_quality(self) -> float:
        return sum(p.quality.mean for p in self.pairs)

    @property
    def total_cost(self) -> float:
        return sum(p.cost.mean for p in self.pairs)

    @property
    def num_assigned(self) -> int:
        return len(self.pairs)


class Assigner(ABC):
    """A per-instance MQA assignment strategy.

    Round lifecycle: a streaming engine running with warm selection
    calls :meth:`begin_round` before :meth:`assign` each round, handing
    over the round's :class:`~repro.model.delta.ChurnRecord` and — for
    assigners that can use it — a persistent
    :class:`~repro.core.triplet_select.SelectionState`.  Assigners
    consume the context at most once per round (one-shot); engines that
    never call ``begin_round`` (warm selection off, or batch harnesses)
    get the identical cold behavior.
    """

    name: str = "assigner"

    #: Round context set by :meth:`begin_round`; consumed one-shot.
    _round_selection_state = None
    #: Wall-clock seconds the last ``_result_from_rows`` spent in
    #: finalization; engines subtract it from the assign timer to
    #: split ``select_seconds`` / ``finalize_seconds``.
    last_finalize_seconds: float = 0.0

    def begin_round(self, problem, churn=None, selection_state=None) -> None:
        """Arm the assigner with one round's warm-start context."""
        self._round_selection_state = selection_state
        if selection_state is not None:
            selection_state.begin_round(problem, churn)

    def take_round_selection_state(self):
        """Consume (and clear) the round's selection state, if any."""
        state = self._round_selection_state
        self._round_selection_state = None
        return state

    @abstractmethod
    def assign(
        self,
        problem: ProblemInstance,
        budget_current: float,
        budget_future: float,
        rng: np.random.Generator,
    ) -> AssignmentResult:
        """Select the assignment instance set ``I_p`` for ``problem``.

        Args:
            problem: candidate pairs (current and possibly predicted).
            budget_current: remaining reward budget of this instance.
            budget_future: budget of the next instance (0 when running
                without prediction).
            rng: random source (only RANDOM uses it, but the interface
                is uniform so experiment harnesses stay generic).
        """

    def _result_from_rows(
        self,
        problem: ProblemInstance,
        selected_rows: list[int],
        budget_current: float,
    ) -> AssignmentResult:
        """Shared tail: drop predicted pairs, enforce the hard budget."""
        started = monotonic()
        current_rows = finalize_selection(problem, selected_rows, budget_current)
        result = AssignmentResult(
            pairs=problem.pairs(current_rows),
            rows=current_rows,
            considered_rows=list(selected_rows),
        )
        self.last_finalize_seconds = monotonic() - started
        return result


def finalize_selection(
    problem: ProblemInstance,
    selected_rows: list[int],
    budget_current: float,
) -> list[int]:
    """Materialize a selection: current pairs only, within budget.

    Drops rows involving predicted entities (Fig. 5 line 14 / the D&C
    equivalent), then — if the realized cost of the remaining pairs
    exceeds ``budget_current`` — greedily trims the pairs with the
    lowest quality until the constraint holds.  Raises if the same
    worker or task appears twice (that is an algorithm bug, not a
    recoverable condition).
    """
    pool = problem.pool
    rows = np.asarray(list(selected_rows), dtype=np.int64)
    current_rows = rows[pool.is_current[rows]] if rows.size else rows
    current = current_rows.tolist()

    if len(set(pool.worker_idx[current_rows].tolist())) != len(current):
        raise AssertionError("a worker was assigned to two tasks")
    if len(set(pool.task_idx[current_rows].tolist())) != len(current):
        raise AssertionError("a task was assigned to two workers")

    total_cost = float(pool.cost_mean[current_rows].sum())
    if total_cost <= budget_current + 1e-9:
        return sorted(current)

    # Trim lowest-quality pairs first; ties by higher cost first so the
    # cheapest high-quality set survives.
    by_value = sorted(current, key=lambda r: (pool.quality_mean[r], -pool.cost_mean[r]))
    kept = list(current)
    for row in by_value:
        if total_cost <= budget_current + 1e-9:
            break
        kept.remove(row)
        total_cost -= float(pool.cost_mean[row])
    return sorted(kept)
