"""Core MQA assignment algorithms (Sections IV-V of the paper).

- :class:`MQAGreedy` — Fig. 5: iterative best-pair selection with
  dominance pruning (Lemma 4.1), increase-probability pruning
  (Lemma 4.2), the budget-confidence filter (Eq. 9) and the
  highest-probability selection rule (Eq. 10);
- :class:`MQADivideConquer` — Figs. 7-9: anchor-task decomposition,
  recursive conquer, conflict-resolving merge, budget-constrained
  selection, with the fan-out ``g`` chosen by the Appendix C cost
  model;
- :class:`RandomAssigner` — the RANDOM baseline of Section VI;
- :class:`HungarianAssigner` — single-instance quality-maximizing
  matching (a "local optimal, no budget reasoning" comparator);
- :func:`exact_assignment` — brute-force optimum for small instances
  (ground truth in tests).

All assigners share the :class:`Assigner` interface and the budget
semantics documented in :mod:`repro.core.base`.
"""

from repro.core.base import Assigner, AssignmentResult, finalize_selection
from repro.core.greedy import MQAGreedy, GreedyConfig
from repro.core.divide_conquer import MQADivideConquer, DivideConquerConfig
from repro.core.random_assign import RandomAssigner
from repro.core.baselines import HungarianAssigner
from repro.core.exact import exact_assignment
from repro.core.cost_model import dc_cost, best_subproblem_count

__all__ = [
    "Assigner",
    "AssignmentResult",
    "finalize_selection",
    "MQAGreedy",
    "GreedyConfig",
    "MQADivideConquer",
    "DivideConquerConfig",
    "RandomAssigner",
    "HungarianAssigner",
    "exact_assignment",
    "dc_cost",
    "best_subproblem_count",
]
