"""Service facade over the streaming engine.

:class:`StreamingService` is the online-serving shape of the MQA
framework: callers submit workers and tasks as they appear, ``drain``
advances the micro-batch rounds and hands back the newly materialized
assignments, and ``snapshot_metrics`` exposes the running totals that
the batch experiments read from a :class:`SimulationResult`.  The
grid predictors keep forecasting arrivals between rounds, so the
service can also answer "how much demand is expected near here"
(:meth:`expected_arrivals_near`) from the same state that prices
predicted candidate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.base import Assigner
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.model.quality import QualityModel
from repro.obs.export import phase_percentiles, registry_snapshot, to_prometheus_text
from repro.prediction.predictors import CountPredictor
from repro.simulation.metrics import AssignmentRecord, SimulationResult
from repro.streaming.engine import StreamConfig, StreamingEngine


@dataclass(frozen=True)
class StreamSnapshot:
    """Point-in-time view of a running service.

    Attributes:
        clock: timestamp of the last executed round (``None`` before
            the first).
        rounds_run / events_processed: engine progress counters.
        available_workers / available_tasks: pool sizes right now.
        assignments / total_quality / total_cost: running totals over
            every materialized assignment.
        candidate_pairs_examined: pairs the round builds actually
            priced (the output-sensitive work measure).
        dense_pairs_equivalent: pairs the dense builder would have
            materialized for the same rounds.
        phase_latencies: per-phase latency percentiles from the
            engine's metrics registry — ``{phase: {p50, p95, p99,
            mean, count}}`` in milliseconds for the round/build/price/
            select/finalize phases.  Empty when ``enable_metrics`` is
            off or no round has run.
    """

    clock: float | None
    rounds_run: int
    events_processed: int
    available_workers: int
    available_tasks: int
    assignments: int
    total_quality: float
    total_cost: float
    candidate_pairs_examined: int
    dense_pairs_equivalent: int
    phase_latencies: dict[str, dict[str, float]] = field(default_factory=dict)


class StreamingService:
    """Submit/drain interface around :class:`StreamingEngine`."""

    def __init__(
        self,
        assigner: Assigner,
        quality_model: QualityModel,
        config: StreamConfig | None = None,
        predictor: CountPredictor | None = None,
        seed: int = 0,
    ) -> None:
        self._engine = StreamingEngine(
            assigner, quality_model, config=config, predictor=predictor, seed=seed
        )
        self._drained_assignments = 0
        self._closed = False

    @classmethod
    def from_engine(
        cls, engine: StreamingEngine, drained_assignments: int = 0
    ) -> "StreamingService":
        """Wrap an existing engine (the recovery layer's constructor).

        ``drained_assignments`` positions the drain cursor so a
        restored service does not re-deliver assignments the killed
        process already handed out.
        """
        service = cls.__new__(cls)
        service._engine = engine
        service._drained_assignments = int(drained_assignments)
        service._closed = False
        return service

    @property
    def engine(self) -> StreamingEngine:
        """The underlying engine (for inspection; prefer the facade)."""
        return self._engine

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; mutating calls then raise."""
        return self._closed

    @property
    def drained_assignments(self) -> int:
        """Position of the drain cursor (assignments already handed out)."""
        return self._drained_assignments

    def close(self) -> None:
        """Release the engine's resources; idempotent.

        Further :meth:`submit_worker` / :meth:`submit_task` /
        :meth:`drain` calls raise ``RuntimeError``; the read-only
        surface (:meth:`snapshot_metrics`, :meth:`result`, metric
        exports) keeps working so a supervisor can still inspect a
        closed tenant.
        """
        if self._closed:
            return
        self._closed = True
        self._engine.close()

    def __enter__(self) -> "StreamingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self, op: str) -> None:
        if self._closed:
            raise RuntimeError(f"service is closed; cannot {op}")

    def submit_worker(self, worker: Worker, at: float | None = None) -> None:
        """Register a worker arrival (defaults to ``worker.arrival``)."""
        self._check_open("submit_worker")
        self._engine.submit_worker(worker, at)

    def submit_task(self, task: Task, at: float | None = None) -> None:
        """Post a task (defaults to ``task.arrival``)."""
        self._check_open("submit_task")
        self._engine.submit_task(task, at)

    def drain(self, until: float | None = None) -> list[AssignmentRecord]:
        """Advance rounds and return the assignments they materialized.

        Args:
            until: advance every round due at or before this time.
                When omitted, advance far enough that every queued
                arrival has been seen by at least one round.
        """
        self._check_open("drain")
        if until is None:
            self._engine.drain_pending()
        else:
            self._engine.advance_to(until)
        fresh = self._engine.assignments_since(self._drained_assignments)
        self._drained_assignments += len(fresh)
        return fresh

    def snapshot_metrics(self) -> StreamSnapshot:
        """Running totals without advancing time (O(1): the engine
        maintains the aggregates; no history is copied)."""
        engine = self._engine
        return StreamSnapshot(
            clock=engine.clock,
            rounds_run=engine.rounds_run,
            events_processed=engine.events_processed,
            available_workers=engine.num_available_workers,
            available_tasks=engine.num_available_tasks,
            assignments=engine.num_assignments,
            total_quality=engine.total_quality,
            total_cost=engine.total_cost,
            candidate_pairs_examined=engine.build_stats.candidates,
            dense_pairs_equivalent=engine.build_stats.dense_equivalent,
            phase_latencies=phase_percentiles(engine.metrics_registry),
        )

    def metrics_json(self) -> dict:
        """The engine's full metrics registry as a JSON-ready dict
        (``repro.obs.metrics/v1`` schema; empty instrument lists when
        ``enable_metrics`` is off)."""
        return registry_snapshot(self._engine.metrics_registry)

    def metrics_prometheus(self) -> str:
        """The engine's metrics registry in the Prometheus text
        exposition format (scrape-ready)."""
        return to_prometheus_text(self._engine.metrics_registry)

    def result(self) -> SimulationResult:
        """Full per-round metrics (the batch-compatible view)."""
        return self._engine.result()

    def expected_arrivals_near(
        self, point: Point, radius: float
    ) -> tuple[float, float]:
        """Predicted next-round (worker, task) arrivals near ``point``.

        Sums the grid predictors' per-cell forecasts over the cells
        within ``radius`` (``GridIndex.cells_within_radius``); returns
        ``(0.0, 0.0)`` before any round has observed arrivals.
        """
        workers = self._engine.worker_predictor
        tasks = self._engine.task_predictor
        if not workers.is_ready or not tasks.is_ready:
            return (0.0, 0.0)
        return (
            workers.predicted_count_near(point, radius),
            tasks.predicted_count_near(point, radius),
        )
