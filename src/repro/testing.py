"""Public testing utilities: random entities, problem instances and
the reference streaming engine.

Downstream projects (and this repository's own test/bench suites) need
quick randomized workers, tasks, predicted samples, and ready-made
problem instances.  Everything here is deterministic given the numpy
``Generator`` / seed passed in.  :class:`ReferenceEngine` runs the
streaming round loop over a full rebuild every round (a freshly primed
tile pipeline, or the dense oracle ``build_problem``) and cold
selection, and :class:`ReferenceGreedy` runs Fig. 5 line by line over
scalar values: the references the production path is differentially
tested against.  :func:`fused_rounds` sends the default engine's
rounds through the tile pipeline.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.core.base import Assigner, AssignmentResult
from repro.core.greedy import GreedyConfig
from repro.geo.box import Box
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.model.instance import ProblemInstance, build_problem
from repro.streaming.adapters import load_workload
from repro.streaming.engine import StreamingEngine
from repro.streaming import pipeline
from repro.uncertainty.comparison import prob_greater, prob_less_or_equal, prob_within_budget
from repro.uncertainty.values import UncertainValue
from repro.workloads.quality import HashQualityModel

#: Budget-comparison slack of :class:`ReferenceGreedy`.
_EPS = 1e-9


def make_workers(
    rng: np.random.Generator,
    count: int,
    velocity: float = 0.3,
    arrival: float = 0.0,
    id_offset: int = 0,
) -> list[Worker]:
    """Random current workers in the unit square."""
    locations = rng.uniform(0.0, 1.0, size=(count, 2))
    return [
        Worker(
            id=id_offset + i,
            location=Point(float(x), float(y)),
            velocity=velocity,
            arrival=arrival,
        )
        for i, (x, y) in enumerate(locations)
    ]


def make_tasks(
    rng: np.random.Generator,
    count: int,
    deadline_offset: float = 2.0,
    arrival: float = 0.0,
    id_offset: int = 1000,
) -> list[Task]:
    """Random current tasks in the unit square."""
    locations = rng.uniform(0.0, 1.0, size=(count, 2))
    return [
        Task(
            id=id_offset + j,
            location=Point(float(x), float(y)),
            deadline=arrival + deadline_offset,
            arrival=arrival,
        )
        for j, (x, y) in enumerate(locations)
    ]


def make_predicted_workers(
    rng: np.random.Generator,
    count: int,
    half_width: float = 0.05,
    velocity: float = 0.3,
    arrival: float = 1.0,
    id_offset: int = 5000,
) -> list[Worker]:
    """Predicted worker samples with uniform-kernel boxes."""
    locations = rng.uniform(0.1, 0.9, size=(count, 2))
    workers = []
    for i, (x, y) in enumerate(locations):
        center = Point(float(x), float(y))
        workers.append(
            Worker(
                id=id_offset + i,
                location=center,
                velocity=velocity,
                arrival=arrival,
                predicted=True,
                box=Box.from_center(center, half_width, half_width).clipped(),
            )
        )
    return workers


def make_predicted_tasks(
    rng: np.random.Generator,
    count: int,
    half_width: float = 0.05,
    deadline_offset: float = 2.0,
    arrival: float = 1.0,
    id_offset: int = 6000,
) -> list[Task]:
    """Predicted task samples with uniform-kernel boxes."""
    locations = rng.uniform(0.1, 0.9, size=(count, 2))
    tasks = []
    for j, (x, y) in enumerate(locations):
        center = Point(float(x), float(y))
        tasks.append(
            Task(
                id=id_offset + j,
                location=center,
                deadline=arrival + deadline_offset,
                arrival=arrival,
                predicted=True,
                box=Box.from_center(center, half_width, half_width).clipped(),
            )
        )
    return tasks


def make_problem(
    seed: int = 0,
    num_workers: int = 12,
    num_tasks: int = 10,
    num_predicted_workers: int = 0,
    num_predicted_tasks: int = 0,
    unit_cost: float = 5.0,
    quality_range: tuple[float, float] = (1.0, 2.0),
    now: float = 0.0,
    reservation_filter: bool = False,
) -> ProblemInstance:
    """A randomized problem instance for algorithm tests.

    The reservation filter defaults to off so that mixed predicted
    pairs exist and the probabilistic machinery is exercised.
    """
    rng = np.random.default_rng(seed)
    quality_model = HashQualityModel(quality_range, seed=seed)
    return build_problem(
        make_workers(rng, num_workers),
        make_tasks(rng, num_tasks),
        make_predicted_workers(rng, num_predicted_workers),
        make_predicted_tasks(rng, num_predicted_tasks),
        quality_model,
        unit_cost,
        now,
        reservation_filter=reservation_filter,
    )


@contextmanager
def fused_rounds() -> Iterator[None]:
    """Build single-tile rounds through the fused tile pipeline.

    A serial K=1 engine builds rounds of at most
    :data:`~repro.streaming.pipeline.DENSE_ROUND_MAX_PAIRS` dense pairs
    with the dense kernel, which covers every toy-sized stream.  Rounds
    built inside this block take the tile pipeline whatever their
    size — for tests and benches whose subject is that pipeline.
    """
    saved = pipeline.DENSE_ROUND_MAX_PAIRS
    pipeline.DENSE_ROUND_MAX_PAIRS = -1
    try:
        yield
    finally:
        pipeline.DENSE_ROUND_MAX_PAIRS = saved


class ReferenceEngine(StreamingEngine):
    """A :class:`StreamingEngine` over the reference code paths.

    ``builder`` picks the round build: ``"fused"`` (the production
    build: the tile pipeline, or the dense kernel for small rounds on
    a serial single tile outside :func:`fused_rounds`), ``"fresh"``
    (a new inline :class:`~repro.streaming.pipeline.FusedRoundBuilder`
    primed every round, with the same dense switch: the full rebuild
    the delta cache is measured against) or ``"dense"`` (the full
    ``W x T`` matrix :func:`~repro.model.instance.build_problem`, the
    pool oracle).  ``warm_select=False``
    drops the persistent selection state, so every round selects cold.
    Every combination emits the production engine's results bit for
    bit; only the work per round differs.
    """

    def __init__(
        self, *args, builder: str = "fused", warm_select: bool = True, **kwargs
    ) -> None:
        if builder not in ("fused", "fresh", "dense"):
            raise ValueError(f"unknown reference builder {builder!r}")
        super().__init__(*args, **kwargs)
        self._reference_builder = builder
        if not warm_select:
            self._selection_state = None

    @classmethod
    def run(cls, workload, assigner, config=None, *, seed=0, **reference):
        """An engine that has replayed ``workload`` start to finish;
        ``reference`` takes ``builder`` and ``warm_select``."""
        end_time = float(workload.num_instances)
        engine = cls(
            assigner, workload.quality_model, config=config, seed=seed,
            end_time=end_time, **reference,
        )
        load_workload(engine, workload)
        engine.advance_to(end_time)
        return engine

    def _build_problem(self, now, predicted_workers, predicted_tasks, churn=None):
        if self._reference_builder == "fused":
            return super()._build_problem(
                now, predicted_workers, predicted_tasks, churn
            )
        self._removed_worker_ids = []
        config = self.config
        flags = dict(
            discount_by_existence=config.discount_by_existence,
            reservation_filter=config.reservation_filter,
            include_future_future_pairs=config.include_future_future_pairs,
        )
        if self._reference_builder == "dense":
            return build_problem(
                self._available_workers,
                self._available_tasks,
                predicted_workers,
                predicted_tasks,
                self._quality_model,
                config.unit_cost,
                now,
                **flags,
            )
        builder = pipeline.FusedRoundBuilder(
            self._quality_model,
            config.unit_cost,
            self._tiles,
            self._task_index,
            index_gamma=config.index_gamma,
            stats=self.build_stats,
            **flags,
        )
        try:
            return builder.build_round(
                self._available_workers,
                self._available_tasks,
                predicted_workers,
                predicted_tasks,
                now,
            )
        finally:
            # Nothing drains the new builder's journal once this round
            # is built.
            builder.close()
            builder.detach()


class ReferenceGreedy(Assigner):
    """Unoptimized ``MQA_Greedy`` for cross-validation.

    Follows Fig. 5 of the paper line by line over scalar
    :class:`~repro.uncertainty.values.UncertainValue` comparisons, with
    no numpy in the selection loop; the test suite asserts that the
    vectorized :class:`~repro.core.greedy.MQAGreedy` selects the same
    pairs.  O(iterations x pairs^2): small problems only.
    """

    name = "greedy-reference"

    def __init__(self, config: GreedyConfig | None = None) -> None:
        self._config = config if config is not None else GreedyConfig()

    def assign(
        self,
        problem: ProblemInstance,
        budget_current: float,
        budget_future: float,
        rng: np.random.Generator,
    ) -> AssignmentResult:
        pool = problem.pool
        config = self._config
        budget_max = budget_current + budget_future

        costs = [pool.cost_value(r) for r in range(len(pool))]
        qualities = [pool.quality_value(r) for r in range(len(pool))]

        alive = set(range(len(pool)))
        budget_future = max(budget_max - budget_current, 0.0)
        spent_current = 0.0
        spent_future = 0.0
        spent_lower_bound = 0.0
        selected: list[int] = []

        while True:
            feasible = [
                r
                for r in alive
                if self._is_feasible(
                    pool, costs[r], r, spent_current, spent_future,
                    budget_current, budget_future,
                )
            ]
            feasible = [
                r
                for r in feasible
                if prob_within_budget(spent_lower_bound, costs[r], budget_max) > config.delta
            ]
            if not feasible:
                break

            candidates: list[int] = []
            if config.use_dominance_pruning:
                for row in feasible:
                    if not self._dominated(costs, qualities, row, feasible):
                        candidates.append(row)
            else:
                candidates = list(feasible)

            candidates = self._cap(pool, candidates, config.candidate_cap)
            if config.use_probability_pruning:
                candidates = [
                    r
                    for r in candidates
                    if not self._probably_worse(costs, qualities, r, candidates)
                ]

            best = self._select(pool, qualities, candidates)
            selected.append(best)
            spent_lower_bound += costs[best].lower
            if pool.is_current[best]:
                spent_current += costs[best].mean
            else:
                spent_future += costs[best].mean
            worker = pool.worker_idx[best]
            task = pool.task_idx[best]
            alive = {
                r
                for r in alive
                if pool.worker_idx[r] != worker and pool.task_idx[r] != task
            }

        return self._result_from_rows(problem, selected, budget_current)

    @staticmethod
    def _is_feasible(pool, cost, row, spent_current, spent_future, budget_current, budget_future):
        if pool.is_current[row]:
            return cost.mean <= budget_current - spent_current + _EPS
        return cost.mean <= budget_future - spent_future + _EPS

    @staticmethod
    def _dominated(costs, qualities, row, others) -> bool:
        """Lemma 4.1 against every other candidate."""
        for other in others:
            if other == row:
                continue
            if costs[other].upper < costs[row].lower and (
                qualities[other].lower > qualities[row].upper
            ):
                return True
        return False

    @staticmethod
    def _probably_worse(costs, qualities, row, others) -> bool:
        """Lemma 4.2 (intent-corrected; see core.pruning) against others."""
        for other in others:
            if other == row:
                continue
            quality_better = prob_greater(qualities[row], qualities[other])
            cost_better = prob_less_or_equal(costs[row], costs[other])
            if quality_better < 0.5 and cost_better < 0.5:
                return True
        return False

    @staticmethod
    def _cap(pool, candidates: list[int], cap: int) -> list[int]:
        if len(candidates) <= cap:
            return candidates
        ranked = sorted(
            candidates,
            key=lambda r: (-pool.quality_mean[r], pool.cost_mean[r], r),
        )
        return ranked[:cap]

    @staticmethod
    def _select(pool, qualities: list[UncertainValue], candidates: list[int]) -> int:
        """Eq. 10: maximize the product of superiority probabilities."""
        if not candidates:
            raise ValueError("cannot select from an empty candidate set")
        scores: dict[int, float] = {}
        for row in candidates:
            log_score = 0.0
            for other in candidates:
                if other == row:
                    continue
                probability = prob_greater(qualities[row], qualities[other])
                log_score += math.log(probability) if probability > 0.0 else -math.inf
            scores[row] = log_score
        return min(candidates, key=lambda r: (-scores[r], pool.cost_mean[r], r))
