"""Procedure ``MQA_Framework`` (Fig. 3): the multi-instance loop.

Per time instance ``p`` the engine:

1. releases workers whose travel finished (they rejoin as fresh
   workers at the task's location — the paper treats them as "new
   workers" so the pool keeps contributing);
2. collects the available sets ``W_p`` / ``T_p``: carried-over
   unassigned entities plus new arrivals, with expired tasks dropped;
3. feeds the *new* arrivals to the grid predictors and — in
   with-prediction (WP) mode — materializes predicted sets
   ``W_{p+1}`` / ``T_{p+1}``;
4. builds the candidate-pair problem and invokes the assigner with the
   per-instance budget ``B`` (plus the next instance's ``B`` as the
   prediction headroom, Section IV-C);
5. books metrics and moves assigned workers into the busy pool.

Prediction accuracy (Fig. 10) is measured online: the counts predicted
at ``p`` are scored against the actual new arrivals of ``p + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, sub

import numpy as np

from repro.core.base import Assigner
from repro.geo.grid import GridIndex
from repro.geo.point import euclidean_distance
from repro.model.entities import Task, Worker
from repro.model.instance import (
    PredictedTaskColumns,
    PredictedWorkerColumns,
    _columns,
    build_problem,
)
from repro.obs.metrics import monotonic
from repro.prediction.accuracy import relative_errors
from repro.prediction.grid_predictor import GridPredictor
from repro.prediction.predictors import CountPredictor
from repro.simulation.metrics import (
    AssignmentRecord,
    InstanceMetrics,
    SimulationResult,
)
from repro.workloads.base import Workload

_PREDICTED_ID_BASE = 10_000_000_000
_VELOCITY = attrgetter("velocity")
_DEADLINE = attrgetter("deadline")
_ARRIVAL = attrgetter("arrival")


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs shared by every experiment.

    Attributes:
        budget: the per-instance reward budget ``B``.
        unit_cost: the unit price ``C`` per traveled distance.
        use_prediction: WP vs WoP mode.
        oracle_prediction: clairvoyant mode — instead of grid
            prediction, the *actual* next-instance arrivals are fed to
            the assigner (still flagged predicted, so they cannot be
            materialized early).  Quantifies the headroom between grid
            prediction and perfect foresight (the paper's Example 2
            motivation).  Implies ``use_prediction``.
        grid_gamma: prediction grid resolution (cells per axis; the
            paper's accuracy experiment uses 20, i.e. 400 cells).
        window: sliding-window size ``w`` for count prediction.
        discount_by_existence: scale predicted pairs' quality by their
            existence probability (EXPERIMENTS.md, "Deviation analysis").
        reservation_filter: drop mixed predicted pairs whose expected
            quality cannot beat the entity's best current option (see
            ``build_problem``).
        include_future_future_pairs: include ``<w_hat, t_hat>`` pairs
            in the candidate pool (paper Section III-B Case 3); they
            never materialize, and the ablation bench measures their
            effect.
        default_deadline_offset: expected remaining time for predicted
            tasks when no current task is available to estimate from.
        default_velocity: speed for predicted workers when no current
            worker is available to average over.
    """

    budget: float = 300.0
    unit_cost: float = 10.0
    use_prediction: bool = True
    oracle_prediction: bool = False
    grid_gamma: int = 10
    window: int = 3
    discount_by_existence: bool = True
    reservation_filter: bool = True
    include_future_future_pairs: bool = True
    default_deadline_offset: float = 1.5
    default_velocity: float = 0.25

    def __post_init__(self) -> None:
        if self.budget < 0.0:
            raise ValueError("budget must be non-negative")
        if self.unit_cost < 0.0:
            raise ValueError("unit cost must be non-negative")
        if self.grid_gamma < 1:
            raise ValueError("grid_gamma must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")


class SimulationEngine:
    """Runs one assigner over one workload, instance by instance."""

    def __init__(
        self,
        workload: Workload,
        assigner: Assigner,
        config: EngineConfig | None = None,
        predictor: CountPredictor | None = None,
        seed: int = 0,
    ) -> None:
        self._workload = workload
        self._assigner = assigner
        self._config = config if config is not None else EngineConfig()
        self._seed = seed
        grid = GridIndex(self._config.grid_gamma)
        self._worker_predictor = GridPredictor(grid, self._config.window, predictor)
        self._task_predictor = GridPredictor(grid, self._config.window, predictor)

    @property
    def config(self) -> EngineConfig:
        return self._config

    def run(self) -> SimulationResult:
        """Execute the full framework loop and return the metrics."""
        config = self._config
        rng = np.random.default_rng(self._seed)
        num_instances = self._workload.num_instances

        pending_workers: list[Worker] = []
        pending_tasks: list[Task] = []
        busy: list[tuple[float, Worker, Task]] = []  # (release time, worker, task)
        next_released_id = _PREDICTED_ID_BASE * 2
        last_worker_prediction: np.ndarray | None = None
        last_task_prediction: np.ndarray | None = None

        metrics: list[InstanceMetrics] = []
        assignment_log: list[AssignmentRecord] = []
        for instance in range(num_instances):
            now = float(instance)
            started = monotonic()

            # (1) release workers whose travel finished before `now`.
            still_busy: list[tuple[float, Worker, Task]] = []
            released: list[Worker] = []
            for release_time, worker, task in busy:
                if release_time <= now:
                    released.append(
                        Worker(
                            id=next_released_id,
                            location=task.location,
                            velocity=worker.velocity,
                            arrival=now,
                        )
                    )
                    next_released_id += 1
                else:
                    still_busy.append((release_time, worker, task))
            busy = still_busy

            # (2) current sets: carry-over + new arrivals + released.
            new_workers, new_tasks = self._workload.arrivals(instance)
            joining_workers = new_workers + released
            current_workers = pending_workers + joining_workers
            current_tasks = [
                t for t in pending_tasks if not t.is_expired(now)
            ] + new_tasks

            # (3) prediction bookkeeping: score last instance's
            # prediction against today's actual new arrivals, then
            # observe them and predict tomorrow's.
            worker_error, task_error = observe_arrivals(
                self._worker_predictor,
                self._task_predictor,
                joining_workers,
                new_tasks,
                (last_worker_prediction, last_task_prediction),
            )

            predicted_workers = predicted_tasks = ()
            predicting = (
                (config.use_prediction or config.oracle_prediction)
                and instance + 1 < num_instances
            )
            if predicting and config.oracle_prediction:
                predicted_workers, predicted_tasks = self._oracle_entities(instance + 1)
                last_worker_prediction = None
                last_task_prediction = None
            elif predicting:
                forecasts = (
                    self._worker_predictor.predict_counts(),
                    self._task_predictor.predict_counts(),
                )
                predicted_workers, predicted_tasks = predict_entities(
                    rng, now, current_workers, current_tasks,
                    self._worker_predictor, self._task_predictor, forecasts,
                    default_velocity=config.default_velocity,
                    default_deadline_offset=config.default_deadline_offset,
                )
                last_worker_prediction = forecasts[0][0]
                last_task_prediction = forecasts[1][0]
            else:
                last_worker_prediction = None
                last_task_prediction = None

            # (4) build the problem and assign.
            problem = build_problem(
                current_workers,
                current_tasks,
                predicted_workers,
                predicted_tasks,
                self._workload.quality_model,
                config.unit_cost,
                now,
                discount_by_existence=(
                    config.discount_by_existence and not config.oracle_prediction
                ),
                reservation_filter=config.reservation_filter,
                include_future_future_pairs=config.include_future_future_pairs,
                exact_predicted_quality=config.oracle_prediction,
            )
            budget_future = config.budget if predicted_workers or predicted_tasks else 0.0
            result = self._assigner.assign(problem, config.budget, budget_future, rng)
            elapsed = monotonic() - started

            # (5) book the outcome and advance the pools.
            assigned_worker_ids = {p.worker.id for p in result.pairs}
            assigned_task_ids = {p.task.id for p in result.pairs}
            for pair in result.pairs:
                travel = euclidean_distance(pair.worker.location, pair.task.location)
                travel_time = travel / pair.worker.velocity
                release_time = now + travel_time
                busy.append((release_time, pair.worker, pair.task))
                assignment_log.append(
                    AssignmentRecord(
                        instance=instance,
                        worker_id=pair.worker.id,
                        task_id=pair.task.id,
                        quality=pair.quality.mean,
                        cost=pair.cost.mean,
                        travel_time=travel_time,
                        release_time=release_time,
                    )
                )

            pending_workers = [
                w for w in current_workers if w.id not in assigned_worker_ids
            ]
            pending_tasks = [t for t in current_tasks if t.id not in assigned_task_ids]

            metrics.append(
                InstanceMetrics(
                    instance=instance,
                    quality=result.total_quality,
                    cost=result.total_cost,
                    assigned=result.num_assigned,
                    num_workers=len(current_workers),
                    num_tasks=len(current_tasks),
                    num_predicted_workers=len(predicted_workers),
                    num_predicted_tasks=len(predicted_tasks),
                    num_pairs=problem.num_pairs,
                    cpu_seconds=elapsed,
                    worker_prediction_error=worker_error,
                    task_prediction_error=task_error,
                )
            )

        return SimulationResult(instances=metrics, assignments=assignment_log)

    def _oracle_entities(self, next_instance: int) -> tuple[list[Worker], list[Task]]:
        """Clairvoyant ``W_{p+1}`` / ``T_{p+1}``: the actual arrivals.

        Entities keep their true locations (degenerate boxes, so the
        cost statistics are exact) but are flagged predicted — the
        framework still cannot materialize them before they arrive.
        """
        actual_workers, actual_tasks = self._workload.arrivals(next_instance)
        # Real ids are kept so the quality model prices the pairs the
        # entities will actually form when they arrive.
        workers = [
            Worker(
                id=w.id,
                location=w.location,
                velocity=w.velocity,
                arrival=w.arrival,
                predicted=True,
            )
            for w in actual_workers
        ]
        tasks = [
            Task(
                id=t.id,
                location=t.location,
                deadline=t.deadline,
                arrival=t.arrival,
                predicted=True,
            )
            for t in actual_tasks
        ]
        return workers, tasks


def observe_arrivals(
    worker_predictor: GridPredictor,
    task_predictor: GridPredictor,
    workers: list[Worker],
    tasks: list[Task],
    last_forecasts: tuple[np.ndarray | None, np.ndarray | None],
) -> tuple[float | None, float | None]:
    """One instance's prediction bookkeeping, shared by both engines.

    Counts the newly arrived ``workers`` and ``tasks`` per grid cell
    (one pass over both), scores the previous forecasts against those
    counts (Fig. 10's average relative error; ``None`` before any
    forecast) and records the counts on the predictors.  Returns the
    ``(worker, task)`` errors.
    """
    xs, ys = _columns(workers + tasks, "location.x", "location.y")
    actual = worker_predictor.grid.count_groups(xs, ys, (len(workers), len(tasks)))
    errors = (None, None)
    if last_forecasts[0] is not None:
        errors = tuple(
            relative_errors(np.stack(last_forecasts), actual).mean(axis=1).tolist()
        )
    worker_predictor.observe_counts(actual[0])
    task_predictor.observe_counts(actual[1])
    return errors


def location_std(entities) -> tuple[float, float]:
    """Per-dimension standard deviation of the entities' locations
    (the KDE bandwidth input)."""
    if not entities:
        return (0.0, 0.0)
    # Both axes in one call: a row's std is the 1-D std, bit for bit.
    return tuple(np.stack(_columns(entities, "location.x", "location.y")).std(axis=1).tolist())


def predict_entities(
    rng: np.random.Generator,
    now: float,
    current_workers: list[Worker],
    current_tasks: list[Task],
    worker_predictor: GridPredictor,
    task_predictor: GridPredictor,
    forecasts: tuple,
    default_velocity: float,
    default_deadline_offset: float,
    step: float = 1.0,
) -> tuple[PredictedWorkerColumns, PredictedTaskColumns]:
    """Sample the next instance's predicted entity sets, as columns.

    Shared by the batch engine (``step = 1.0``, one time instance
    ahead) and the streaming engine, whose look-ahead is its round
    interval.  Velocity and deadline offsets are estimated from the
    current population, falling back to the configured defaults.
    ``forecasts`` holds both predictors' :meth:`~repro.prediction.
    GridPredictor.predict_counts` results for this step.  Workers take
    the ids from ``_PREDICTED_ID_BASE`` on, tasks the ids after them;
    the columns build their ``Worker``/``Task`` objects only when
    iterated.
    """
    worker_forecast, task_forecast = forecasts
    predicted_w = worker_predictor.predict(rng, worker_forecast, location_std(current_workers))
    predicted_t = task_predictor.predict(rng, task_forecast, location_std(current_tasks))

    if current_workers:
        velocity = sum(map(_VELOCITY, current_workers)) / len(current_workers)
    else:
        velocity = default_velocity
    if current_tasks:
        offset = sum(
            map(sub, map(_DEADLINE, current_tasks), map(_ARRIVAL, current_tasks))
        ) / len(current_tasks)
    else:
        offset = default_deadline_offset

    k, l = predicted_w.xs.size, predicted_t.xs.size
    arrival = now + step
    deadline = now + step + offset
    if k and velocity <= 0.0:
        raise ValueError(f"predicted workers: velocity must be positive, got {velocity}")
    if l and deadline < arrival:
        raise ValueError(f"predicted tasks: deadline {deadline} precedes arrival {arrival}")
    workers = PredictedWorkerColumns(
        np.arange(_PREDICTED_ID_BASE, _PREDICTED_ID_BASE + k),
        predicted_w.xs, predicted_w.ys, np.full(k, velocity), np.full(k, arrival),
        predicted_w.bounds,
    )
    tasks = PredictedTaskColumns(
        np.arange(_PREDICTED_ID_BASE + k, _PREDICTED_ID_BASE + k + l),
        predicted_t.xs, predicted_t.ys, np.full(l, deadline), np.full(l, arrival),
        predicted_t.bounds,
    )
    return workers, tasks
