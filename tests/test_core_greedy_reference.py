"""Direct tests for repro.testing.ReferenceGreedy.

The reference implementation is itself a deliverable (the semantic
anchor for the vectorized greedy), so it gets its own invariant tests
in addition to the equality checks in test_core_greedy.
"""

import numpy as np

from repro.core.greedy import GreedyConfig
from repro.testing import ReferenceGreedy, make_problem

RNG = np.random.default_rng(0)


class TestReferenceGreedy:
    def test_invariants(self):
        problem = make_problem(seed=8, num_workers=8, num_tasks=7)
        result = ReferenceGreedy().assign(problem, 8.0, 0.0, RNG)
        workers = [p.worker.id for p in result.pairs]
        tasks = [p.task.id for p in result.pairs]
        assert len(set(workers)) == len(workers)
        assert len(set(tasks)) == len(tasks)
        assert result.total_cost <= 8.0 + 1e-6

    def test_empty_problem(self):
        problem = make_problem(num_workers=0, num_tasks=0)
        assert ReferenceGreedy().assign(problem, 5.0, 0.0, RNG).pairs == []

    def test_respects_config(self):
        problem = make_problem(seed=8, num_workers=8, num_tasks=7)
        config = GreedyConfig(
            use_dominance_pruning=False, use_probability_pruning=False,
            candidate_cap=1000,
        )
        result = ReferenceGreedy(config).assign(problem, 8.0, 0.0, RNG)
        assert result.total_cost <= 8.0 + 1e-6

    def test_zero_budget(self):
        problem = make_problem(seed=8)
        result = ReferenceGreedy().assign(problem, 0.0, 0.0, RNG)
        assert result.pairs == []

    def test_cap_limits_candidates(self):
        problem = make_problem(seed=8, num_workers=10, num_tasks=10)
        capped = ReferenceGreedy(GreedyConfig(candidate_cap=1)).assign(
            problem, 10.0, 0.0, RNG
        )
        # With cap 1 each iteration picks the single top-quality pair;
        # the result is a valid matching.
        workers = [p.worker.id for p in capped.pairs]
        assert len(set(workers)) == len(workers)
