"""Public testing utilities: random entities, problem instances and
the reference streaming engine.

Downstream projects (and this repository's own test/bench suites) need
quick randomized workers, tasks, predicted samples, and ready-made
problem instances.  Everything here is deterministic given the numpy
``Generator`` / seed passed in.  :class:`ReferenceEngine` runs the
streaming round loop over the fresh oracle builders and cold
selection, the references the production path is differentially
tested against.
"""

from __future__ import annotations

import numpy as np

from repro.geo.box import Box
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.model.instance import ProblemInstance, build_problem
from repro.model.sparse import build_problem_sparse
from repro.streaming.adapters import load_workload
from repro.streaming.engine import StreamingEngine
from repro.workloads.quality import HashQualityModel


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


class ReferenceEngine(StreamingEngine):
    """A :class:`StreamingEngine` over the reference code paths.

    ``builder`` picks the round build: ``"fused"`` (the production
    pipeline), ``"sparse"`` (a fresh
    :func:`~repro.model.sparse.build_problem_sparse` every round) or
    ``"dense"`` (the full ``W x T`` matrix
    :func:`~repro.model.instance.build_problem`).  ``warm_select=False``
    drops the persistent selection state, so every round selects cold.
    Every combination emits the production engine's results bit for
    bit; only the work per round differs.
    """

    def __init__(
        self, *args, builder: str = "fused", warm_select: bool = True, **kwargs
    ) -> None:
        if builder not in ("fused", "sparse", "dense"):
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
        build, extra = build_problem, {}
        if self._reference_builder == "sparse":
            build = build_problem_sparse
            extra = dict(
                task_index=self._task_index if self._available_tasks else None,
                index_gamma=config.index_gamma,
                stats=self.build_stats,
            )
        return build(
            self._available_workers,
            self._available_tasks,
            predicted_workers,
            predicted_tasks,
            self._quality_model,
            config.unit_cost,
            now,
            discount_by_existence=config.discount_by_existence,
            reservation_filter=config.reservation_filter,
            include_future_future_pairs=config.include_future_future_pairs,
            **extra,
        )
