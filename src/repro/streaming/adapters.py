"""Bridges between batch workloads and the event-driven engine.

Any :class:`~repro.workloads.base.Workload` — synthetic, check-in
based, or the streaming scenarios — can be replayed as an event
stream: each instance's arrivals become :class:`WorkerArrival` /
:class:`TaskArrival` events stamped at the instance time.  With the
default one-instance round interval this is the differential-testing
bridge (stream run == batch run); with a finer interval it turns any
existing workload into a micro-batch streaming experiment.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.base import Assigner
from repro.prediction.predictors import CountPredictor
from repro.simulation.metrics import SimulationResult
from repro.streaming.engine import ShardingConfig, StreamConfig, StreamingEngine
from repro.streaming.events import Event, TaskArrival, WorkerArrival
from repro.workloads.base import Workload


def workload_events(workload: Workload) -> Iterator[Event]:
    """The workload's arrivals as a time-ordered event stream."""
    for instance in range(workload.num_instances):
        stamp = float(instance)
        workers, tasks = workload.arrivals(instance)
        for worker in workers:
            yield WorkerArrival(stamp, worker)
        for task in tasks:
            yield TaskArrival(stamp, task)


def load_workload(engine: StreamingEngine, workload: Workload) -> int:
    """Enqueue a workload's full event stream; returns the event count."""
    count = 0
    for event in workload_events(workload):
        engine.submit(event)
        count += 1
    return count


def prepared_engine(
    workload: Workload,
    assigner: Assigner,
    config: StreamConfig | None = None,
    predictor: CountPredictor | None = None,
    seed: int = 0,
    sharding: ShardingConfig | None = None,
) -> tuple[StreamingEngine, int]:
    """An engine loaded with a workload's events, not yet advanced.

    Returns ``(engine, event_count)``.  The engine's end time is the
    workload's instance count, so with ``round_interval = 1.0`` the
    rounds coincide exactly with the batch engine's ``R`` instances.
    Callers that only need the result can use :func:`run_stream`; the
    CLI and the throughput bench use this form to time the advance and
    read the engine's counters.  Callers own the engine and should
    ``close()`` it (or use it as a context manager) when a parallel
    ``sharding`` backend is in play.
    """
    engine = StreamingEngine(
        assigner,
        workload.quality_model,
        config=config,
        predictor=predictor,
        seed=seed,
        end_time=float(workload.num_instances),
        sharding=sharding,
    )
    return engine, load_workload(engine, workload)


def run_stream(
    workload: Workload,
    assigner: Assigner,
    config: StreamConfig | None = None,
    predictor: CountPredictor | None = None,
    seed: int = 0,
    sharding: ShardingConfig | None = None,
) -> SimulationResult:
    """Run a workload through the streaming engine, start to finish."""
    engine, _ = prepared_engine(
        workload, assigner, config=config, predictor=predictor, seed=seed,
        sharding=sharding,
    )
    with engine:
        engine.advance_to(float(workload.num_instances))
        return engine.result()
