"""Predicted entities as columns.

``predict_entities`` hands each round's predicted workers and tasks to
the builders as :class:`~repro.model.instance.PredictedWorkerColumns` /
:class:`~repro.model.instance.PredictedTaskColumns`; ``Worker`` and
``Task`` objects are built only when something iterates them.  Two
properties are checked here on the served input shape (the benchmark's
tenant: Drifting hotspot, 238 x 238, 25 instances, seed 7000):

- the columns and the same entities as objects build the same pool,
  bit for bit, and the same ``ProblemInstance.workers`` / ``tasks``,
  through the dense kernel and through the tile pipeline;
- the contract the repository benchmark's span tracer relies on:
  ``repro.streaming.engine.predict_entities`` is looked up at call
  time, its result unpacks into two ``len()``-able iterables whose
  items have ``.id``, and no predicted id is ever committed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import MQAGreedy
from repro.geo.box import Box
from repro.geo.point import Point
from repro.geo.spatial_index import SpatialIndex
from repro.geo.tiles import TileGrid
from repro.model.entities import Task, Worker
from repro.model.instance import (
    PredictedTaskColumns,
    PredictedWorkerColumns,
    build_problem,
)
from repro.simulation.engine import _PREDICTED_ID_BASE
from repro.streaming import StreamConfig, StreamingService
from repro.streaming import engine as engine_module
from repro.streaming.pipeline import FusedRoundBuilder
from repro.testing import fused_rounds
from repro.workloads import DriftingHotspotWorkload, WorkloadParams

from test_model_delta import _POOL_COLUMNS

_UNIT_COST = StreamConfig().unit_cost


def _served():
    """The served tenant's workload and a service over it."""
    params = WorkloadParams(
        num_workers=238, num_tasks=238, num_instances=25,
        velocity_range=(0.05, 0.08), deadline_range=(1.0, 2.0),
    )
    workload = DriftingHotspotWorkload(params, seed=7000)
    service = StreamingService(
        MQAGreedy(), workload.quality_model,
        config=StreamConfig(round_interval=1.0), seed=7000,
    )
    return workload, service


def _drive(workload, service, rounds: int) -> None:
    for instance in range(rounds):
        workers, tasks = workload.arrivals(instance)
        for worker in workers:
            service.submit_worker(worker, float(instance))
        for task in tasks:
            service.submit_task(task, float(instance))
        service.drain(float(instance))


def _captured_rounds(monkeypatch, rounds: int = 6):
    """``(workers, tasks, predicted columns, now)`` of the first served
    rounds, as the engine hands them to its builder."""
    workload, service = _served()
    captured = []
    build_round = FusedRoundBuilder.build_round

    def capture(self, workers, tasks, pw, pt, now, *args, **kwargs):
        captured.append((list(workers), list(tasks), pw, pt, now))
        return build_round(self, workers, tasks, pw, pt, now, *args, **kwargs)

    monkeypatch.setattr(FusedRoundBuilder, "build_round", capture)
    _drive(workload, service, rounds)
    service.close()
    monkeypatch.undo()
    return workload.quality_model, captured


def _fresh(columns):
    """A copy of ``columns`` with no objects and no reach yet."""
    return replace(columns, reach=None, objects=None)


def _objects(columns) -> list:
    """The entities of ``columns`` as objects, built field by field."""
    entities = []
    for i, entity_id in enumerate(columns.ids.tolist()):
        location = Point(float(columns.xs[i]), float(columns.ys[i]))
        box = Box(*(float(axis[i]) for axis in columns.intervals))
        arrival = float(columns.arr[i])
        if isinstance(columns, PredictedWorkerColumns):
            entities.append(Worker(
                id=entity_id, location=location, velocity=float(columns.vel[i]),
                arrival=arrival, predicted=True, box=box,
            ))
        else:
            entities.append(Task(
                id=entity_id, location=location, deadline=float(columns.deadline[i]),
                arrival=arrival, predicted=True, box=box,
            ))
    return entities


def _tile_build(quality_model, workers, tasks, pw, pt, now):
    index = SpatialIndex(StreamConfig().index_gamma)
    for task in tasks:
        index.insert(task.id, task.location)
    builder = FusedRoundBuilder(quality_model, _UNIT_COST, TileGrid(1, 1), index)
    with fused_rounds():
        return builder.build_round(workers, tasks, pw, pt, now)


def _assert_same_problem(expected, actual) -> None:
    for name in _POOL_COLUMNS:
        assert (
            getattr(expected.pool, name).tobytes() == getattr(actual.pool, name).tobytes()
        ), name
    assert expected.workers == actual.workers
    assert expected.tasks == actual.tasks


def test_columns_and_objects_build_identical_problems(monkeypatch):
    quality_model, rounds = _captured_rounds(monkeypatch)
    predicted = 0
    for workers, tasks, pw, pt, now in rounds:
        assert isinstance(pw, PredictedWorkerColumns)
        assert isinstance(pt, PredictedTaskColumns)
        predicted += len(pw) + len(pt)
        dense = build_problem(
            workers, tasks, _fresh(pw), _fresh(pt), quality_model, _UNIT_COST, now
        )
        from_objects = build_problem(
            workers, tasks, _objects(pw), _objects(pt), quality_model, _UNIT_COST, now
        )
        _assert_same_problem(from_objects, dense)
        tiled = _tile_build(quality_model, workers, tasks, _fresh(pw), _fresh(pt), now)
        tiled_objects = _tile_build(
            quality_model, workers, tasks, _objects(pw), _objects(pt), now
        )
        _assert_same_problem(from_objects, tiled)
        _assert_same_problem(from_objects, tiled_objects)
        # Predicted rows exist, and their entities come last.
        assert (~dense.pool.is_current).any()
        assert dense.workers[len(workers):] == _objects(pw)
        assert all(w.predicted for w in dense.workers[len(workers):])
    assert predicted > 0


def test_pairs_of_current_rows_build_no_predicted_objects(monkeypatch):
    quality_model, rounds = _captured_rounds(monkeypatch, rounds=3)
    workers, tasks, pw, pt, now = rounds[-1]
    pw, pt = _fresh(pw), _fresh(pt)
    problem = build_problem(workers, tasks, pw, pt, quality_model, _UNIT_COST, now)
    current = np.flatnonzero(problem.pool.is_current)
    assert current.size
    problem.pairs(current)
    assert pw.objects is None and pt.objects is None
    assert len(problem.workers) == len(workers) + len(pw)
    assert pw.objects is not None


def test_unflagged_objects_are_rejected():
    workload, _ = _served()
    workers, tasks = workload.arrivals(0)
    with pytest.raises(ValueError, match="not flagged"):
        PredictedWorkerColumns.of(workers)
    with pytest.raises(ValueError, match="not flagged"):
        PredictedTaskColumns.of(tasks)


def test_predict_entities_contract_for_wrappers(monkeypatch):
    """What the benchmark's span tracer does with ``predict_entities``."""
    workload, service = _served()
    original = engine_module.predict_entities
    seen: list[tuple[int, int]] = []
    predicted_ids: set[int] = set()

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        workers, tasks = result
        ids = [w.id for w in workers] + [t.id for t in tasks]
        assert len(set(ids)) == len(ids) == len(workers) + len(tasks)
        assert all(i >= _PREDICTED_ID_BASE for i in ids)
        assert all(e.predicted for e in list(workers) + list(tasks))
        seen.append((len(workers), len(tasks)))
        predicted_ids.update(ids)
        return result

    monkeypatch.setattr(engine_module, "predict_entities", wrapper)
    _drive(workload, service, workload.num_instances)
    assignments = service.result().assignments
    service.close()
    # Looked up at call time: every round predicts (no end time).
    assert len(seen) == workload.num_instances
    assert sum(w + t for w, t in seen) > 0
    assert assignments
    committed = {r.worker_id for r in assignments} | {r.task_id for r in assignments}
    assert not committed & predicted_ids
