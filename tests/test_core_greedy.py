"""Tests for repro.core.greedy (MQA_Greedy)."""

import numpy as np
import pytest

from repro.core import greedy, pruning, triplet_select
from repro.core.exact import exact_assignment
from repro.core.greedy import GreedyConfig, MQAGreedy
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.model.instance import ProblemInstance
from repro.model.pairs import PairPool
from repro.streaming import StreamConfig, StreamingService
from repro.testing import ReferenceGreedy, make_problem
from repro.workloads import DriftingHotspotWorkload, WorkloadParams


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


def _with_subnormal_pair(problem, dominated):
    """``problem`` plus one fresh worker with two fresh tasks: row A
    (cost 0, quality 10) and row B (cost 5e-324), whose cost gap is
    subnormal against their cost variance, so the whole-set sign check
    fails.  With ``dominated``, B's quality sits below A's and Lemma 4.1
    prunes B while A lives; A wins the first pick and takes B's worker,
    so the two rows never share a candidate window."""
    n, m = problem.num_current_workers, problem.num_current_tasks
    worker = Worker(id=90_000, location=Point(0.5, 0.5), velocity=0.3)
    tasks = [
        Task(id=90_001 + j, location=Point(0.5, 0.5), deadline=2.0) for j in range(2)
    ]
    cost = np.array([0.0, 5e-324])
    quality = np.array([10.0, 1.0 if dominated else 10.5])
    extra = PairPool(
        worker_idx=np.array([n, n]),
        task_idx=np.array([m, m + 1]),
        cost_mean=cost, cost_var=np.full(2, 0.01), cost_lb=cost, cost_ub=cost,
        quality_mean=quality, quality_var=np.zeros(2),
        quality_lb=quality, quality_ub=quality,
        existence=np.ones(2), is_current=np.ones(2, dtype=bool),
    )
    return ProblemInstance(
        workers=problem.workers[:n] + [worker],
        tasks=problem.tasks[:m] + tasks,
        num_current_workers=n + 1,
        num_current_tasks=m + 2,
        pool=PairPool.concatenate([problem.pool, extra]),
        now=problem.now,
    )


class TestHoistedSignGuard:
    """Both selection engines (``_greedy_select_rescan`` and, from
    ``TRIPLET_MIN_ROWS`` rows, the triplet engine) decide Lemma 4.2's
    sign guard once over their row set; only a set that fails
    re-checks each window.  The rescan loop prunes a window with
    ``sweep_prune`` when the set passes, else with
    ``probability_prune``; the ``prune`` counter counts both."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"window_guard": 0, "whole_set": 0, "prune": 0, "sweep": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            pruning, "_signs_decide", counting("window_guard", pruning._signs_decide)
        )
        monkeypatch.setattr(
            greedy, "signs_decide", counting("whole_set", pruning.signs_decide)
        )
        # A window is pruned by the sweep where the set allows it, else
        # by the shared pairwise-capable prune; either counts once.
        monkeypatch.setattr(
            greedy, "probability_prune", counting("prune", pruning.probability_prune)
        )
        sweep = counting("sweep", pruning.sweep_prune)
        monkeypatch.setattr(greedy, "sweep_prune", counting("prune", sweep))
        return calls

    @pytest.mark.parametrize("dominated", [True, False], ids=["apart", "together"])
    def test_failing_set_matches_reference(self, monkeypatch, dominated):
        for seed in range(4):
            problem = _with_subnormal_pair(
                make_problem(seed=seed, num_workers=7, num_tasks=6), dominated
            )
            assert not pruning.signs_decide(problem.pool, np.arange(len(problem.pool)))
            calls = self._count(monkeypatch)
            fast = run_greedy(problem, budget_current=10.0)
            slow = ReferenceGreedy().assign(problem, 10.0, 0.0, RNG)
            assert fast.rows == slow.rows
            assert {len(problem.pool) - 2, len(problem.pool) - 1} & set(fast.rows)
            # The set failed (at most two whole-set checks), so the
            # windows re-checked their own means.
            assert calls["window_guard"] > 2
            monkeypatch.undo()

    def test_served_pools_skip_the_window_guard(self, monkeypatch):
        # The benchmark's tenant shape; its first six rounds.
        params = WorkloadParams(
            num_workers=238, num_tasks=238, num_instances=25,
            velocity_range=(0.05, 0.08), deadline_range=(1.0, 2.0),
        )
        workload = DriftingHotspotWorkload(params, seed=7000)
        service = StreamingService(
            MQAGreedy(), workload.quality_model,
            config=StreamConfig(round_interval=1.0), seed=7000,
        )
        calls = self._count(monkeypatch)
        for instance in range(6):
            workers, tasks = workload.arrivals(instance)
            for worker in workers:
                service.submit_worker(worker, float(instance))
            for task in tasks:
                service.submit_task(task, float(instance))
            service.drain(float(instance))
        service.close()
        assert calls["whole_set"] == 6
        assert calls["prune"] > 4 * calls["whole_set"]
        # Two whole-set checks per selection, none per window.
        assert calls["window_guard"] == 2 * calls["whole_set"]
        # Every served window sweeps.
        assert calls["sweep"] == calls["prune"]

    @staticmethod
    def _count_triplet(monkeypatch):
        # Every pool takes the triplet engine.
        monkeypatch.setattr(triplet_select, "TRIPLET_MIN_ROWS", 1)
        calls = {"window_guard": 0, "whole_set": 0, "prune": 0, "rescan": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            pruning, "_signs_decide", counting("window_guard", pruning._signs_decide)
        )
        monkeypatch.setattr(
            triplet_select, "signs_decide", counting("whole_set", pruning.signs_decide)
        )
        monkeypatch.setattr(
            triplet_select,
            "probability_prune",
            counting("prune", pruning.probability_prune),
        )
        monkeypatch.setattr(
            greedy,
            "_greedy_select_rescan",
            counting("rescan", greedy._greedy_select_rescan),
        )
        return calls

    @pytest.mark.parametrize("dominated", [True, False], ids=["apart", "together"])
    def test_triplet_failing_set_matches_reference(self, monkeypatch, dominated):
        for seed in range(4):
            problem = _with_subnormal_pair(
                make_problem(seed=seed, num_workers=7, num_tasks=6), dominated
            )
            assert not pruning.signs_decide(problem.pool, np.arange(len(problem.pool)))
            calls = self._count_triplet(monkeypatch)
            fast = run_greedy(problem, budget_current=10.0)
            slow = ReferenceGreedy().assign(problem, 10.0, 0.0, RNG)
            assert calls["rescan"] == 0 and calls["whole_set"] == 1
            assert fast.rows == slow.rows
            assert {len(problem.pool) - 2, len(problem.pool) - 1} & set(fast.rows)
            # The set failed (at most two whole-set checks), so the
            # windows re-checked their own means.
            assert calls["window_guard"] > 2
            monkeypatch.undo()

    def test_triplet_passing_set_skips_the_window_guard(self, monkeypatch):
        for seed in range(4):
            problem = make_problem(
                seed=seed, num_workers=12, num_tasks=10, num_predicted_workers=4,
                num_predicted_tasks=4,
            )
            assert pruning.signs_decide(problem.pool, np.arange(len(problem.pool)))
            calls = self._count_triplet(monkeypatch)
            fast = run_greedy(problem, budget_current=10.0, budget_future=5.0)
            slow = ReferenceGreedy().assign(problem, 10.0, 5.0, RNG)
            assert calls["rescan"] == 0 and calls["whole_set"] == 1
            assert fast.rows == slow.rows
            assert calls["prune"] > 1
            # Two whole-set checks for the one selection, none per window.
            assert calls["window_guard"] == 2
            monkeypatch.undo()
