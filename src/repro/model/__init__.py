"""Entity model: workers, tasks, candidate pairs, problem instances.

Definitions 1-3 of the paper: dynamically moving workers, time-
constrained spatial tasks, and the valid worker-and-task pairs between
them.  Predicted entities (Section III) carry uniform-kernel support
boxes instead of exact points; candidate pairs carry
:class:`~repro.uncertainty.values.UncertainValue` costs/qualities.
"""

from repro.model.entities import Worker, Task, mean_velocity
from repro.model.validity import can_reach, latest_feasible_distance
from repro.model.pairs import CandidatePair, PairPool
from repro.model.instance import ProblemInstance, build_problem
from repro.model.sparse import SparseBuildStats
from repro.model.delta import DeltaBuildStats, DeltaPoolBuilder

__all__ = [
    "Worker",
    "Task",
    "mean_velocity",
    "can_reach",
    "latest_feasible_distance",
    "CandidatePair",
    "PairPool",
    "ProblemInstance",
    "build_problem",
    "SparseBuildStats",
    "DeltaBuildStats",
    "DeltaPoolBuilder",
]
