"""Differential suite: a K-shard engine == the default engine, exactly.

Two layers of bit-identity are enforced:

1. **Pool level** — the fused per-tile builder
   (:class:`~repro.streaming.pipeline.FusedRoundBuilder`) emits a pool
   row-for-row, bit-for-bit identical to ``build_problem_sparse`` (and
   therefore to the dense ``build_problem``) for every K, every flag
   combination, and arbitrary entity sets (hypothesis).
2. **Engine level** — a :class:`StreamingEngine` built with any
   :class:`ShardingConfig` reproduces the default engine's
   :class:`SimulationResult` exactly (assignments, quality/cost
   accounting, prediction errors) on the seeded bursty and
   drifting-hotspot scenarios, both prediction legs, K in {1, 2, 4},
   across all three backends.

The conflict-free merge relies on unique ownership (every query entity
has exactly one owning tile) plus the tile zones covering one
reachable radius; the margin sufficiency test drives velocities and
deadlines to the edges to probe exactly that.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MQADivideConquer, MQAGreedy, RandomAssigner
from repro.geo import TileGrid
from repro.geo.spatial_index import SpatialIndex
from repro.model.sparse import SparseBuildStats, build_problem_sparse
from repro.streaming import (
    ShardingConfig,
    StreamConfig,
    StreamingEngine,
    prepared_engine,
    run_stream,
)
from repro.streaming.pipeline import FusedRoundBuilder
from repro.testing import (
    make_predicted_tasks,
    make_predicted_workers,
    make_tasks,
    make_workers,
)
from repro.workloads import (
    BurstyWorkload,
    CitywideMultiHotspotWorkload,
    DriftingHotspotWorkload,
    WorkloadParams,
)
from repro.workloads.quality import HashQualityModel

from test_streaming_equivalence import assert_pools_identical, assert_results_identical

_SCENARIO_PARAMS = WorkloadParams(
    num_workers=200,
    num_tasks=200,
    num_instances=5,
    velocity_range=(0.05, 0.09),
    deadline_range=(0.5, 1.2),
)


def _fused_build(
    workers, tasks, predicted_workers, predicted_tasks, quality_model, tiles,
    executor=None, stats=None, **flags,
):
    """One round of the fused per-tile builder over a fresh task index."""
    index = SpatialIndex(16)
    for task in tasks:
        index.insert(task.id, task.location)
    builder = FusedRoundBuilder(
        quality_model, 10.0, tiles, index, executor=executor, stats=stats, **flags
    )
    try:
        return builder.build_round(
            workers, tasks, predicted_workers, predicted_tasks, 0.0
        )
    finally:
        builder.close()


@pytest.mark.usefixtures("fused_rounds")
class TestShardedPoolEquivalence:
    """FusedRoundBuilder == build_problem_sparse, bit for bit."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=0, max_value=24),
        m=st.integers(min_value=0, max_value=24),
        k=st.integers(min_value=0, max_value=8),
        l=st.integers(min_value=0, max_value=8),
        num_shards=st.sampled_from([1, 2, 4, 6, 9]),
        velocity=st.floats(min_value=0.02, max_value=0.6),
        deadline_offset=st.floats(min_value=0.1, max_value=2.5),
        discount=st.booleans(),
        reservation=st.booleans(),
        future_future=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pools_identical_property(
        self,
        seed,
        n,
        m,
        k,
        l,
        num_shards,
        velocity,
        deadline_offset,
        discount,
        reservation,
        future_future,
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
        )
        sparse = build_problem_sparse(
            workers, tasks, predicted_workers, predicted_tasks,
            quality_model, 10.0, 0.0, **kwargs,
        )
        fused = _fused_build(
            workers, tasks, predicted_workers, predicted_tasks, quality_model,
            TileGrid.from_shard_count(num_shards), **kwargs,
        )
        assert_pools_identical(sparse, fused)

    def test_candidate_and_emitted_counters_match_serial(self):
        """candidates/emitted/dense_equivalent are partition-invariant
        (gathered/queries legitimately differ per tile layout)."""
        rng = np.random.default_rng(4)
        workers = make_workers(rng, 150, velocity=0.08)
        tasks = make_tasks(rng, 150, deadline_offset=0.8)
        quality_model = HashQualityModel((1.0, 2.0), seed=4)
        serial_stats = SparseBuildStats()
        build_problem_sparse(
            workers, tasks, [], [], quality_model, 10.0, 0.0, stats=serial_stats
        )
        fused_stats = SparseBuildStats()
        _fused_build(
            workers, tasks, [], [], quality_model, TileGrid.from_shard_count(4),
            stats=fused_stats,
        )
        assert fused_stats.candidates == serial_stats.candidates
        assert fused_stats.emitted == serial_stats.emitted
        assert fused_stats.dense_equivalent == serial_stats.dense_equivalent

    def test_margin_sufficiency_under_extreme_reach(self):
        """Fast workers with long deadlines reach across several tiles;
        the exact per-round margin must still cover every valid pair."""
        rng = np.random.default_rng(9)
        workers = make_workers(rng, 60, velocity=0.9)
        tasks = make_tasks(rng, 60, deadline_offset=2.0)
        predicted_workers = make_predicted_workers(rng, 15)
        predicted_tasks = make_predicted_tasks(rng, 15)
        quality_model = HashQualityModel((1.0, 2.0), seed=9)
        sparse = build_problem_sparse(
            workers, tasks, predicted_workers, predicted_tasks,
            quality_model, 10.0, 0.0,
        )
        for num_shards in (2, 4, 6, 9):
            fused = _fused_build(
                workers, tasks, predicted_workers, predicted_tasks,
                quality_model, TileGrid.from_shard_count(num_shards),
            )
            assert_pools_identical(sparse, fused)

    def test_chunked_survivor_pricing_is_identical(self, monkeypatch):
        """Force the reconcile pass's chunked pricing dispatch
        (normally armed only above the survivor threshold) and check
        bit-identity."""
        import repro.streaming.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod, "_PRICE_DISPATCH_MIN", 1)
        rng = np.random.default_rng(44)
        workers = make_workers(rng, 60, velocity=0.2)
        tasks = make_tasks(rng, 60, deadline_offset=1.0)
        predicted_workers = make_predicted_workers(rng, 20)
        predicted_tasks = make_predicted_tasks(rng, 20)
        quality_model = HashQualityModel((1.0, 2.0), seed=44)
        sparse = build_problem_sparse(
            workers, tasks, predicted_workers, predicted_tasks,
            quality_model, 10.0, 0.0,
        )
        with ThreadPoolExecutor(max_workers=4) as executor:
            fused = _fused_build(
                workers, tasks, predicted_workers, predicted_tasks,
                quality_model, TileGrid(2, 2), executor=executor,
            )
        assert_pools_identical(sparse, fused)

    def test_matrix_only_quality_model_falls_back_globally(self):
        """Models without the by-ids hook still work (each tile scores
        its new pairs through the model's pair/matrix hooks)."""

        class MatrixOnlyModel:
            def __init__(self, inner):
                self._inner = inner

            def quality_matrix(self, workers, tasks):
                return self._inner.quality_matrix(workers, tasks)

            def quality_pairs(self, workers, tasks):
                return self._inner.quality_pairs(workers, tasks)

            def prior(self):
                return self._inner.prior()

        rng = np.random.default_rng(31)
        workers = make_workers(rng, 50, velocity=0.15)
        tasks = make_tasks(rng, 50, deadline_offset=0.9)
        inner = HashQualityModel((1.0, 2.0), seed=31)
        sparse = build_problem_sparse(workers, tasks, [], [], inner, 10.0, 0.0)
        fused = _fused_build(
            workers, tasks, [], [], MatrixOnlyModel(inner), TileGrid(2, 2)
        )
        assert_pools_identical(sparse, fused)


class TestShardedEngineEquivalence:
    """K-shard engine rounds == default engine rounds, exactly."""

    @pytest.mark.parametrize("make_workload", [BurstyWorkload, DriftingHotspotWorkload])
    @pytest.mark.parametrize("use_prediction", [True, False])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_seeded_equivalence(self, make_workload, use_prediction, num_shards):
        workload = make_workload(_SCENARIO_PARAMS, seed=29)
        config = StreamConfig(
            round_interval=0.5, budget=50.0, use_prediction=use_prediction
        )
        default = run_stream(workload, MQAGreedy(), config=config, seed=29)
        sharded = run_stream(
            workload,
            MQAGreedy(),
            config=config,
            sharding=ShardingConfig(num_shards=num_shards, backend="serial"),
            seed=29,
        )
        assert default.total_assigned > 0
        assert_results_identical(default, sharded)

    def test_citywide_scenario_equivalence(self):
        workload = CitywideMultiHotspotWorkload(_SCENARIO_PARAMS, seed=17)
        config = StreamConfig(round_interval=0.5, budget=50.0)
        default = run_stream(workload, MQAGreedy(), config=config, seed=17)
        sharded = run_stream(
            workload,
            MQAGreedy(),
            config=config,
            sharding=ShardingConfig(num_shards=4, backend="serial"),
            seed=17,
        )
        assert default.total_assigned > 0
        assert_results_identical(default, sharded)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_match(self, backend):
        """The executor backends produce the same bits as in-process."""
        workload = BurstyWorkload(
            WorkloadParams(
                num_workers=120,
                num_tasks=120,
                num_instances=4,
                velocity_range=(0.05, 0.09),
                deadline_range=(0.5, 1.0),
            ),
            seed=5,
        )
        config = StreamConfig(round_interval=0.5, budget=40.0)
        default = run_stream(workload, MQAGreedy(), config=config, seed=5)
        sharded = run_stream(
            workload,
            MQAGreedy(),
            config=config,
            sharding=ShardingConfig(num_shards=4, backend=backend),
            seed=5,
        )
        assert_results_identical(default, sharded)

    @pytest.mark.parametrize(
        "make_assigner", [MQADivideConquer, RandomAssigner]
    )
    def test_other_assigners(self, make_assigner):
        """D&C and RANDOM (RNG-consuming) run identically when sharded."""
        workload = BurstyWorkload(
            WorkloadParams(
                num_workers=140,
                num_tasks=140,
                num_instances=4,
                velocity_range=(0.05, 0.09),
                deadline_range=(0.5, 1.0),
            ),
            seed=37,
        )
        config = StreamConfig(round_interval=1.0, budget=40.0)
        default = run_stream(workload, make_assigner(), config=config, seed=37)
        sharded = run_stream(
            workload,
            make_assigner(),
            config=config,
            sharding=ShardingConfig(num_shards=2, backend="serial"),
            seed=37,
        )
        assert_results_identical(default, sharded)

    def test_fine_cadence_citywide_matches_serial(self):
        """Quarter-instance rounds on the citywide scenario with
        prediction on: many low-churn rounds in a row, served by the
        per-tile repair path, still reproduce the default engine."""
        params = WorkloadParams(
            num_workers=260, num_tasks=260, num_instances=4,
            velocity_range=(0.04, 0.07), deadline_range=(1.0, 2.0),
        )
        workload = CitywideMultiHotspotWorkload(params, seed=5)
        config = StreamConfig(round_interval=0.25, budget=8.0, use_prediction=True)
        default_engine, _ = prepared_engine(
            workload, MQAGreedy(), config=config, seed=5
        )
        default_engine.advance_to(float(workload.num_instances))
        workload = CitywideMultiHotspotWorkload(params, seed=5)
        sharded_engine, _ = prepared_engine(
            workload, MQAGreedy(), config=config,
            sharding=ShardingConfig(num_shards=4, backend="serial"), seed=5,
        )
        with sharded_engine:
            sharded_engine.advance_to(float(workload.num_instances))
        assert_results_identical(default_engine.result(), sharded_engine.result())


class TestShardedEngineApi:
    def test_config_validation(self):
        assert ShardingConfig() == ShardingConfig(num_shards=1, backend="serial")
        with pytest.raises(ValueError):
            ShardingConfig(num_shards=0)
        with pytest.raises(ValueError):
            ShardingConfig(backend="gpu")
        with pytest.raises(ValueError):
            ShardingConfig(max_workers=0)

    def test_close_is_idempotent_and_context_manager(self):
        engine = StreamingEngine(
            MQAGreedy(),
            HashQualityModel((1.0, 2.0)),
            sharding=ShardingConfig(num_shards=2, backend="thread"),
        )
        with engine:
            pass
        engine.close()

    def test_rounds_after_close_raise_for_parallel_backends(self):
        """A closed thread/process engine must refuse further rounds
        instead of silently running them in-process."""
        from repro.model.entities import Worker
        from repro.geo import Point

        engine = StreamingEngine(
            MQAGreedy(),
            HashQualityModel((1.0, 2.0)),
            sharding=ShardingConfig(num_shards=2, backend="thread"),
        )
        engine.close()
        engine.submit_worker(Worker(id=1, location=Point(0.5, 0.5), velocity=0.1))
        with pytest.raises(RuntimeError, match="closed"):
            engine.advance_to(1.0)
        # The serial backend never had an executor; closing it is
        # inert and rounds keep working (the default engine included).
        serial_engine = StreamingEngine(
            MQAGreedy(),
            HashQualityModel((1.0, 2.0)),
            sharding=ShardingConfig(num_shards=2, backend="serial"),
        )
        serial_engine.close()
        serial_engine.advance_to(1.0)
        default_engine = StreamingEngine(MQAGreedy(), HashQualityModel((1.0, 2.0)))
        default_engine.close()
        default_engine.advance_to(1.0)

    def test_tiles_follow_shard_count(self):
        engine = StreamingEngine(
            MQAGreedy(),
            HashQualityModel((1.0, 2.0)),
            sharding=ShardingConfig(num_shards=6, backend="serial"),
        )
        assert engine.tiles.num_tiles == 6
        assert engine.sharding.backend == "serial"
        default = StreamingEngine(MQAGreedy(), HashQualityModel((1.0, 2.0)))
        assert default.tiles.num_tiles == 1
        assert default.sharding == ShardingConfig()
