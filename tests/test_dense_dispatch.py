"""Small single-tile rounds built by the dense kernel.

A :class:`~repro.streaming.pipeline.FusedRoundBuilder` running one
inline tile builds every round of at most ``DENSE_ROUND_MAX_PAIRS``
dense pairs with :func:`~repro.model.instance.build_problem` instead of
its delta pipeline.  These tests pin down the contract of that switch:

- a stream that crosses the threshold in both directions (small ->
  large -> small) reproduces an always-fused run
  (:func:`repro.testing.fused_rounds`) exactly — quality, audit log,
  pool sizes and the ``predictors``/``rng``/``queue``/``entities``/
  ``log`` digests;
- a checkpoint/restore cut inside either dense stretch or inside the
  fused stretch resumes to the uninterrupted run's state, every digest
  component included;
- only the serial K=1 engine takes the dense path; sharded, thread-
  and process-backed engines run every round through the tiles;
- a dense round still books its work in ``build_stats``.

The ``selection`` digest is compared across the restore cut, not
against the always-fused run.  It covers the warm-selection *cache*
too: a fused round hands selection a trusted row-origin map, which
the state composes into a carry even through rounds too small to
engage it, while a dense round hands none and the carry is dropped.
Same selections, different cache provenance — by design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MQAGreedy
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.streaming import StreamConfig, StreamingEngine, state_digest
from repro.streaming import pipeline
from repro.streaming.engine import ShardingConfig
from repro.testing import fused_rounds
from repro.workloads.quality import HashQualityModel

#: (worker, task) arrivals per instance: a quiet start, a burst big
#: enough to push rounds past the dense threshold, then a quiet tail
#: long enough for the rounds to fall back under it.
_ARRIVALS = [(12, 12)] * 4 + [(140, 140)] * 4 + [(3, 5)] * 9
_INSTANCES = len(_ARRIVALS)
_PATH_INDEPENDENT = ("predictors", "rng", "queue", "entities", "log")


def _stream(seed: int = 5) -> list[tuple[list[Worker], list[Task]]]:
    rng = np.random.default_rng(seed)
    next_id = 0
    stream = []
    for instance, (num_workers, num_tasks) in enumerate(_ARRIVALS):
        workers, tasks = [], []
        for _ in range(num_workers):
            next_id += 1
            workers.append(
                Worker(
                    id=next_id,
                    location=Point(*rng.uniform(0.0, 1.0, 2)),
                    velocity=float(rng.uniform(0.05, 0.08)),
                    arrival=float(instance),
                )
            )
        for _ in range(num_tasks):
            next_id += 1
            tasks.append(
                Task(
                    id=next_id,
                    location=Point(*rng.uniform(0.0, 1.0, 2)),
                    deadline=instance + float(rng.uniform(1.0, 2.0)),
                    arrival=float(instance),
                )
            )
        stream.append((workers, tasks))
    return stream


def _engine(sharding: ShardingConfig | None = None) -> StreamingEngine:
    return StreamingEngine(
        MQAGreedy(),
        HashQualityModel((0.0, 1.0), seed=3),
        config=StreamConfig(round_interval=1.0, budget=40.0),
        seed=11,
        end_time=float(_INSTANCES),
        sharding=sharding,
    )


def _run(engine: StreamingEngine, start: int = 0, stop: int = _INSTANCES):
    """Feed instances ``[start, stop)`` and run their rounds."""
    stream = _stream()
    for instance in range(start, stop):
        workers, tasks = stream[instance]
        for worker in workers:
            engine.submit_worker(worker)
        for task in tasks:
            engine.submit_task(task)
        engine.advance_to(float(instance))
    return engine


def _dense_pairs(instance) -> int:
    n, m = instance.num_workers, instance.num_tasks
    k, l = instance.num_predicted_workers, instance.num_predicted_tasks
    return n * m + k * m + n * l + k * l


@pytest.fixture(scope="module")
def always_fused():
    with fused_rounds():
        engine = _run(_engine())
    assert engine.delta_stats.rounds == _INSTANCES
    return engine


def _assert_same_run(engine: StreamingEngine, reference: StreamingEngine) -> None:
    result, expected = engine.result(), reference.result()
    assert result.assignments == expected.assignments
    assert result.total_quality == expected.total_quality
    assert [i.num_pairs for i in result.instances] == [
        i.num_pairs for i in expected.instances
    ]
    digest, expected_digest = state_digest(engine), state_digest(reference)
    for component in _PATH_INDEPENDENT:
        assert digest[component] == expected_digest[component], component


class TestThresholdCrossing:
    def test_stream_crosses_both_ways(self, always_fused):
        """The input really is small -> large -> small around the
        production threshold, so the differentials below exercise
        both switches."""
        limit = pipeline.DENSE_ROUND_MAX_PAIRS
        dense = [_dense_pairs(i) <= limit for i in always_fused.result().instances]
        first_fused = dense.index(False)
        last_fused = len(dense) - 1 - dense[::-1].index(False)
        assert 0 < first_fused <= last_fused < len(dense) - 2
        assert all(dense[:first_fused]) and all(dense[last_fused + 1:])

    def test_crossing_run_matches_always_fused(self, always_fused):
        engine = _run(_engine())
        fused_rounds = engine.delta_stats.rounds
        assert 0 < fused_rounds < _INSTANCES
        _assert_same_run(engine, always_fused)

    @pytest.mark.parametrize("cut", [2, 5, 13], ids=["dense-head", "fused", "dense-tail"])
    def test_checkpoint_restore_cut(self, always_fused, cut):
        """Export after round ``cut``, restore, finish the stream: the
        same state as never stopping, and the same run as always-fused."""
        first = _run(_engine(), stop=cut + 1)
        resumed = _run(
            StreamingEngine.restore_state(first.export_state()), start=cut + 1
        )
        uninterrupted = _run(_engine())
        assert state_digest(resumed) == state_digest(uninterrupted)
        _assert_same_run(resumed, always_fused)


class TestDispatchScope:
    @pytest.mark.parametrize(
        "sharding",
        [
            ShardingConfig(num_shards=2, backend="serial"),
            ShardingConfig(num_shards=1, backend="thread"),
            ShardingConfig(num_shards=4, backend="thread"),
            ShardingConfig(num_shards=1, backend="process"),
        ],
        ids=["k2-serial", "k1-thread", "k4-thread", "k1-process"],
    )
    def test_sharded_engines_never_build_dense(self, always_fused, sharding):
        with _engine(sharding) as engine:
            _run(engine)
            tile_rounds = engine.delta_stats.rounds
            assert tile_rounds == _INSTANCES * engine.tiles.num_tiles
            assert engine.result().assignments == always_fused.result().assignments

    def test_dense_rounds_book_their_work(self):
        engine = _run(_engine(), stop=3)
        stats = engine.build_stats
        assert engine.delta_stats.rounds == 0
        assert stats.dense_equivalent == sum(
            _dense_pairs(i) for i in engine.result().instances
        )
        assert stats.candidates == stats.dense_equivalent
        assert stats.emitted == sum(i.num_pairs for i in engine.result().instances)
