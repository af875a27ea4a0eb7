"""Single-instance optimal-matching baseline.

``HungarianAssigner`` maximizes the *quality* of the current instance
with an optimal bipartite matching (Kuhn-Munkres over current pairs),
then trims to the budget.  This is the "locally optimal, prediction-
blind" strategy the introduction argues against: optimal at each
instance in isolation, yet beatable globally by the prediction-aware
heuristics.  It doubles as an upper-quality reference when the budget
is loose.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Assigner, AssignmentResult
from repro.matching.hungarian import hungarian_max_weight
from repro.model.instance import ProblemInstance


class HungarianAssigner(Assigner):
    """Budget-trimmed optimal quality matching over current pairs."""

    name = "hungarian"

    def assign(
        self,
        problem: ProblemInstance,
        budget_current: float,
        budget_future: float,
        rng: np.random.Generator,
    ) -> AssignmentResult:
        dense = problem.current_dense
        if dense.row_index.size == 0:
            return self._result_from_rows(problem, [], budget_current)

        matching, _ = hungarian_max_weight(
            dense.quality, allow_unmatched=True, cost=dense.assignment_cost
        )
        selected = dense.rows_of_cells(matching)
        # Budget enforcement happens in the shared finalization (trim
        # lowest-quality pairs until the realized cost fits).
        return self._result_from_rows(problem, selected, budget_current)
