"""Differential tests: streaming layer vs. batch layer.

Two contracts are enforced bit-for-bit:

1. the streaming engine with instance-aligned micro-batch rounds
   reproduces the batch :class:`SimulationEngine`'s
   :class:`SimulationResult` exactly (assignments, quality, costs,
   budget accounting, prediction errors) on seeded workloads;
2. ``build_problem_sparse`` emits a pool row-for-row identical to the
   dense ``build_problem`` on the same inputs.

``cpu_seconds`` is wall-clock and is the only field excluded.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MQADivideConquer, MQAGreedy, RandomAssigner
from repro.model.instance import build_problem
from repro.model.sparse import SparseBuildStats, build_problem_sparse
from repro.simulation import EngineConfig, SimulationEngine
from repro.streaming import StreamConfig, run_stream
from repro.testing import (
    ReferenceEngine,
    make_predicted_tasks,
    make_predicted_workers,
    make_tasks,
    make_workers,
)
from repro.workloads import BurstyWorkload, SyntheticWorkload, WorkloadParams
from repro.workloads.quality import HashQualityModel

_COMPARED_FIELDS = (
    "instance",
    "quality",
    "cost",
    "assigned",
    "num_workers",
    "num_tasks",
    "num_predicted_workers",
    "num_predicted_tasks",
    "num_pairs",
    "worker_prediction_error",
    "task_prediction_error",
)

_POOL_COLUMNS = (
    "worker_idx",
    "task_idx",
    "cost_mean",
    "cost_var",
    "cost_lb",
    "cost_ub",
    "quality_mean",
    "quality_var",
    "quality_lb",
    "quality_ub",
    "existence",
    "is_current",
)


def assert_results_identical(batch, stream):
    """Everything except wall-clock must match exactly."""
    assert len(batch.instances) == len(stream.instances)
    for b, s in zip(batch.instances, stream.instances):
        for name in _COMPARED_FIELDS:
            assert getattr(b, name) == getattr(s, name), (b.instance, name)
    # The audit trail (budget accounting per pair) must be identical,
    # including float equality of quality/cost/release times.
    assert batch.assignments == stream.assignments


def assert_pools_identical(dense, sparse):
    assert len(dense.pool) == len(sparse.pool)
    for name in _POOL_COLUMNS:
        np.testing.assert_array_equal(
            getattr(dense.pool, name), getattr(sparse.pool, name), err_msg=name
        )
    assert dense.num_current_workers == sparse.num_current_workers
    assert dense.num_current_tasks == sparse.num_current_tasks


class TestStreamingReproducesBatch:
    """Instance-aligned streaming == batch framework, exactly."""

    @pytest.mark.parametrize(
        "seed,make_assigner,use_prediction",
        [
            (11, MQAGreedy, True),
            (23, MQADivideConquer, True),
            (7, MQAGreedy, False),
        ],
    )
    def test_synthetic_workload(self, seed, make_assigner, use_prediction):
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=220, num_tasks=220, num_instances=7),
            seed=seed,
        )
        engine_config = EngineConfig(budget=35.0, use_prediction=use_prediction)
        batch = SimulationEngine(
            workload, make_assigner(), engine_config, seed=seed
        ).run()
        stream = run_stream(
            workload,
            make_assigner(),
            config=StreamConfig.from_engine_config(engine_config),
            seed=seed,
        )
        assert batch.total_assigned > 0
        assert_results_identical(batch, stream)

    def test_bursty_workload(self):
        """Second seeded workload family, including the RANDOM assigner
        (exercises identical RNG stream consumption)."""
        workload = BurstyWorkload(
            WorkloadParams(num_workers=180, num_tasks=180, num_instances=6),
            seed=41,
        )
        engine_config = EngineConfig(budget=30.0)
        batch = SimulationEngine(
            workload, RandomAssigner(), engine_config, seed=41
        ).run()
        stream = run_stream(
            workload,
            RandomAssigner(),
            config=StreamConfig.from_engine_config(engine_config),
            seed=41,
        )
        assert batch.total_assigned > 0
        assert_results_identical(batch, stream)

    def test_dense_builder_path_matches_too(self):
        """The equivalence is independent of the pair builder used."""
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=120, num_tasks=120, num_instances=5),
            seed=3,
        )
        engine_config = EngineConfig(budget=25.0)
        batch = SimulationEngine(workload, MQAGreedy(), engine_config, seed=3).run()
        stream = ReferenceEngine.run(
            workload,
            MQAGreedy(),
            StreamConfig.from_engine_config(engine_config),
            builder="dense",
            seed=3,
        ).result()
        assert_results_identical(batch, stream)


@pytest.mark.usefixtures("fused_rounds")
class TestFusedStreamingReproducesBatch(TestStreamingReproducesBatch):
    """The same equivalences with the K=1 tile pipeline building every
    round; unpinned, nearly all of these rounds are small enough to
    build dense."""

    test_dense_builder_path_matches_too = None  # a reference leg either way


class TestLastRoundPredictionCutoff:
    """The final-round prediction cutoff mirrors the batch engine.

    Batch predicts iff ``instance + 1 < num_instances``; streaming iff
    ``now + round_interval < end_time``.  With ``end_time`` exactly one
    round away these agree on skipping the final forecast, and no
    earlier round drops one the batch path keeps.
    """

    @staticmethod
    def _engines(num_instances: int, round_interval: float = 1.0):
        workload = SyntheticWorkload(
            WorkloadParams(
                num_workers=120, num_tasks=120, num_instances=num_instances
            ),
            seed=13,
        )
        engine_config = EngineConfig(budget=25.0, use_prediction=True)
        batch = SimulationEngine(workload, MQAGreedy(), engine_config, seed=13).run()
        stream = run_stream(
            workload,
            MQAGreedy(),
            config=StreamConfig.from_engine_config(
                engine_config, round_interval=round_interval
            ),
            seed=13,
        )
        return batch, stream

    def test_final_round_skips_prediction_in_both_engines(self):
        batch, stream = self._engines(num_instances=4)
        assert_results_identical(batch, stream)
        # Earlier rounds do predict (the cutoff is not over-eager)...
        assert batch.instances[-2].num_predicted_workers > 0
        assert stream.instances[-2].num_predicted_workers > 0
        # ...and the round exactly one interval before end_time does not.
        assert batch.instances[-1].num_predicted_workers == 0
        assert batch.instances[-1].num_predicted_tasks == 0
        assert stream.instances[-1].num_predicted_workers == 0
        assert stream.instances[-1].num_predicted_tasks == 0

    def test_no_round_at_or_past_end_time(self):
        from repro.streaming import prepared_engine
        from repro.workloads import SyntheticWorkload as SW

        workload = SW(
            WorkloadParams(num_workers=40, num_tasks=40, num_instances=3), seed=5
        )
        engine, _ = prepared_engine(
            workload,
            MQAGreedy(),
            config=StreamConfig(round_interval=1.0, budget=20.0),
            seed=5,
        )
        engine.advance_to(100.0)
        # Rounds fire at 0, 1, 2 only: the round at end_time == 3 never
        # runs, matching the batch loop's R instances.
        assert engine.rounds_run == 3
        assert engine.clock == 2.0

    def test_subinstance_rounds_keep_the_strict_cutoff(self):
        """With a finer interval, only the literal final round skips."""
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=80, num_tasks=80, num_instances=3),
            seed=21,
        )
        stream = run_stream(
            workload,
            MQAGreedy(),
            config=StreamConfig(round_interval=0.5, budget=20.0, use_prediction=True),
            seed=21,
        )
        # Rounds at 0.0 .. 2.5; only the 2.5 round (end_time exactly one
        # interval away) must skip the forecast.
        assert len(stream.instances) == 6
        assert stream.instances[-1].num_predicted_workers == 0
        assert stream.instances[-1].num_predicted_tasks == 0
        assert stream.instances[-2].num_predicted_workers > 0


class TestSparseBuilderEquivalence:
    """``build_problem_sparse`` is pair-for-pair the dense builder."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=0, max_value=18),
        m=st.integers(min_value=0, max_value=18),
        k=st.integers(min_value=0, max_value=7),
        l=st.integers(min_value=0, max_value=7),
        velocity=st.floats(min_value=0.02, max_value=0.6),
        deadline_offset=st.floats(min_value=0.1, max_value=2.5),
        discount=st.booleans(),
        reservation=st.booleans(),
        future_future=st.booleans(),
        exact=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pools_identical_property(
        self,
        seed,
        n,
        m,
        k,
        l,
        velocity,
        deadline_offset,
        discount,
        reservation,
        future_future,
        exact,
    ):
        rng = np.random.default_rng(seed)
        workers = make_workers(rng, n, velocity=velocity)
        tasks = make_tasks(rng, m, deadline_offset=deadline_offset)
        predicted_workers = make_predicted_workers(rng, k)
        predicted_tasks = make_predicted_tasks(rng, l)
        quality_model = HashQualityModel((1.0, 2.0), seed=seed)
        kwargs = dict(
            discount_by_existence=discount,
            reservation_filter=reservation,
            include_future_future_pairs=future_future,
            exact_predicted_quality=exact,
        )
        dense = build_problem(
            workers, tasks, predicted_workers, predicted_tasks,
            quality_model, 10.0, 0.0, **kwargs,
        )
        sparse = build_problem_sparse(
            workers, tasks, predicted_workers, predicted_tasks,
            quality_model, 10.0, 0.0, **kwargs,
        )
        assert_pools_identical(dense, sparse)

    def test_sparse_examines_fewer_candidates_when_sparse(self):
        """Low velocity + short deadlines: the index pays off."""
        rng = np.random.default_rng(5)
        workers = make_workers(rng, 200, velocity=0.05)
        tasks = make_tasks(rng, 200, deadline_offset=0.6)
        quality_model = HashQualityModel((1.0, 2.0), seed=5)
        stats = SparseBuildStats()
        sparse = build_problem_sparse(
            workers, tasks, [], [], quality_model, 10.0, 0.0, stats=stats
        )
        dense = build_problem(workers, tasks, [], [], quality_model, 10.0, 0.0)
        assert_pools_identical(dense, sparse)
        assert stats.dense_equivalent == 200 * 200
        assert stats.candidates < stats.dense_equivalent / 5
        assert stats.emitted == len(sparse.pool)

    def test_quality_pairs_matches_matrix(self):
        rng = np.random.default_rng(9)
        workers = make_workers(rng, 12)
        tasks = make_tasks(rng, 9)
        model = HashQualityModel((0.5, 3.0), seed=2)
        matrix = model.quality_matrix(workers, tasks)
        rows = rng.integers(0, 12, size=40)
        cols = rng.integers(0, 9, size=40)
        pairs = model.quality_pairs(
            [workers[i] for i in rows], [tasks[j] for j in cols]
        )
        np.testing.assert_array_equal(matrix[rows, cols], pairs)

    def test_quality_pairs_rejects_misaligned(self):
        rng = np.random.default_rng(1)
        model = HashQualityModel((1.0, 2.0))
        with pytest.raises(ValueError):
            model.quality_pairs(make_workers(rng, 2), make_tasks(rng, 3))

    def test_generic_quality_model_fallback(self):
        """Without a quality_pairs hook the per-worker fallback is used."""

        class MatrixOnlyModel:
            def __init__(self, inner):
                self._inner = inner

            def quality_matrix(self, workers, tasks):
                return self._inner.quality_matrix(workers, tasks)

            def prior(self):
                return self._inner.prior()

        rng = np.random.default_rng(17)
        workers = make_workers(rng, 15, velocity=0.3)
        tasks = make_tasks(rng, 15)
        inner = HashQualityModel((1.0, 2.0), seed=17)
        dense = build_problem(workers, tasks, [], [], inner, 10.0, 0.0)
        sparse = build_problem_sparse(
            workers, tasks, [], [], MatrixOnlyModel(inner), 10.0, 0.0
        )
        assert_pools_identical(dense, sparse)

    def test_maintained_index_keyed_by_task_id(self):
        from repro.geo import GridIndex, SpatialIndex

        rng = np.random.default_rng(8)
        workers = make_workers(rng, 30, velocity=0.2)
        tasks = make_tasks(rng, 25)
        index = SpatialIndex(GridIndex(8))
        for task in tasks:
            index.insert(task.id, task.location)
        quality_model = HashQualityModel((1.0, 2.0), seed=8)
        dense = build_problem(workers, tasks, [], [], quality_model, 10.0, 0.0)
        sparse = build_problem_sparse(
            workers, tasks, [], [], quality_model, 10.0, 0.0, task_index=index
        )
        assert_pools_identical(dense, sparse)

    def test_out_of_sync_index_rejected(self):
        from repro.geo import GridIndex, SpatialIndex

        rng = np.random.default_rng(8)
        workers = make_workers(rng, 5, velocity=0.4)
        tasks = make_tasks(rng, 5)
        index = SpatialIndex(GridIndex(4))
        index.insert(999, tasks[0].location)
        quality_model = HashQualityModel((1.0, 2.0))
        with pytest.raises(ValueError):
            build_problem_sparse(
                workers, tasks, [], [], quality_model, 10.0, 0.0, task_index=index
            )
