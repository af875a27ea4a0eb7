"""Tests for repro.core.greedy (MQA_Greedy)."""

import numpy as np
import pytest

from repro.core.exact import exact_assignment
from repro.core.greedy import GreedyConfig, MQAGreedy
from repro.testing import ReferenceGreedy, make_problem


RNG = np.random.default_rng(0)


def run_greedy(problem, budget_current=50.0, budget_future=0.0, config=None):
    return MQAGreedy(config).assign(problem, budget_current, budget_future, RNG)


class TestGreedyConfig:
    def test_defaults(self):
        config = GreedyConfig()
        assert config.delta == 0.5
        assert config.use_dominance_pruning

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            GreedyConfig(delta=1.0)

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            GreedyConfig(candidate_cap=0)


class TestGreedyInvariants:
    def test_no_worker_or_task_reused(self, small_problem):
        result = run_greedy(small_problem)
        workers = [p.worker.id for p in result.pairs]
        tasks = [p.task.id for p in result.pairs]
        assert len(set(workers)) == len(workers)
        assert len(set(tasks)) == len(tasks)

    def test_budget_respected(self, small_problem):
        for budget in (1.0, 3.0, 10.0, 100.0):
            result = run_greedy(small_problem, budget_current=budget)
            assert result.total_cost <= budget + 1e-6

    def test_only_current_pairs_materialized(self, mixed_problem):
        result = run_greedy(mixed_problem, budget_future=50.0)
        assert all(p.is_current for p in result.pairs)

    def test_considered_rows_may_include_predicted(self, mixed_problem):
        result = run_greedy(mixed_problem, budget_future=50.0)
        assert len(result.considered_rows) >= len(result.rows)

    def test_empty_problem(self):
        problem = make_problem(num_workers=0, num_tasks=0)
        result = run_greedy(problem)
        assert result.pairs == []
        assert result.total_quality == 0.0

    def test_zero_budget_assigns_nothing(self, small_problem):
        result = run_greedy(small_problem, budget_current=0.0)
        assert result.pairs == []

    def test_deterministic_across_calls(self, small_problem):
        first = run_greedy(small_problem, budget_current=8.0)
        second = run_greedy(small_problem, budget_current=8.0)
        assert first.rows == second.rows

    def test_roughly_monotone_in_budget(self, small_problem):
        """More budget should broadly help (greedy is not strictly
        monotone — see test_properties — but must trend upward)."""
        qualities = [
            run_greedy(small_problem, budget_current=b).total_quality
            for b in (2.0, 5.0, 10.0, 50.0)
        ]
        assert qualities[0] < qualities[-1]
        assert all(b >= 0.5 * a for a, b in zip(qualities, qualities[1:]))


class TestGreedyQuality:
    def test_matches_reference_implementation(self):
        for seed in range(6):
            problem = make_problem(seed=seed, num_workers=7, num_tasks=6)
            fast = run_greedy(problem, budget_current=10.0)
            slow = ReferenceGreedy().assign(problem, 10.0, 0.0, RNG)
            assert fast.rows == slow.rows

    def test_matches_reference_with_predicted(self):
        for seed in range(4):
            problem = make_problem(
                seed=seed, num_workers=6, num_tasks=5,
                num_predicted_workers=3, num_predicted_tasks=3,
            )
            fast = run_greedy(problem, budget_current=8.0, budget_future=8.0)
            slow = ReferenceGreedy().assign(problem, 8.0, 8.0, RNG)
            assert fast.rows == slow.rows

    def test_near_optimal_on_small_instances(self):
        """Greedy stays within a reasonable factor of the exact optimum."""
        ratios = []
        for seed in range(8):
            problem = make_problem(seed=seed, num_workers=5, num_tasks=5)
            budget = 6.0
            result = run_greedy(problem, budget_current=budget)
            _, optimum = exact_assignment(problem, budget)
            if optimum > 0:
                ratios.append(result.total_quality / optimum)
                assert result.total_quality <= optimum + 1e-9
        assert np.mean(ratios) > 0.75

    def test_loose_budget_assigns_min_of_workers_tasks(self):
        problem = make_problem(seed=1, num_workers=8, num_tasks=5)
        result = run_greedy(problem, budget_current=1e6)
        # Deadline 2.0 and velocity 0.3 make every pair valid here.
        assert result.num_assigned == 5


class TestPruningAblation:
    def test_pruning_does_not_change_realized_quality_much(self):
        """Pruning is a performance device; results should be identical
        (dominated pairs can never be the Eq. 10 winner)."""
        for seed in range(5):
            problem = make_problem(seed=seed, num_workers=8, num_tasks=8)
            full = run_greedy(problem, budget_current=10.0)
            no_prune = run_greedy(
                problem,
                budget_current=10.0,
                config=GreedyConfig(
                    use_dominance_pruning=False, use_probability_pruning=False,
                    candidate_cap=512,
                ),
            )
            assert full.total_quality == pytest.approx(
                no_prune.total_quality, rel=0.05
            )
