"""Differential contract: observability never changes results.

Every engine run must be bit-identical with metrics on, tracing on,
both on, or both off — same assignments (ids, order, quality, cost),
same prediction errors, same pool accounting.  The observer only
*reads* what the round loop measured; these tests are the fence that
keeps it that way across greedy/D&C/Hungarian, both prediction legs,
and the default and K = 4 shard layouts.

The trace-schema leg additionally validates that an instrumented run
emits a loadable Chrome trace: round spans disjoint, phase spans
nested inside their round, timestamps/durations non-negative.
"""

from __future__ import annotations

import pytest

from repro.core import MQADivideConquer, MQAGreedy
from repro.core.baselines import HungarianAssigner
from repro.obs.export import registry_snapshot, validate_metrics_snapshot
from repro.obs.trace import validate_chrome_trace
from repro.streaming.adapters import prepared_engine
from repro.streaming.engine import StreamConfig
from repro.streaming.engine import ShardingConfig
from repro.workloads import BurstyWorkload, SyntheticWorkload, WorkloadParams


def _workload(seed: int = 3):
    return BurstyWorkload(
        WorkloadParams(num_workers=70, num_tasks=70, num_instances=4), seed=seed
    )


def _fingerprint(result):
    return [
        (a.instance, a.worker_id, a.task_id, a.quality, a.cost, a.release_time)
        for a in result.assignments
    ], [
        (i.assigned, i.num_pairs, i.worker_prediction_error, i.task_prediction_error)
        for i in result.instances
    ]


def _run_serial(make_assigner, use_prediction, enable_metrics, enable_tracing):
    config = StreamConfig(
        round_interval=0.5,
        budget=20.0,
        use_prediction=use_prediction,
        enable_metrics=enable_metrics,
        enable_tracing=enable_tracing,
    )
    workload = _workload()
    engine, _ = prepared_engine(workload, make_assigner(), config=config, seed=3)
    engine.advance_to(float(workload.num_instances))
    return engine


ASSIGNERS = {
    "greedy": MQAGreedy,
    "dc": MQADivideConquer,
    "hungarian": HungarianAssigner,
}


class TestSerialBitIdentical:
    @pytest.mark.parametrize("algo", sorted(ASSIGNERS))
    @pytest.mark.parametrize("use_prediction", [True, False])
    def test_obs_on_off_identical(self, algo, use_prediction):
        baseline = _fingerprint(
            _run_serial(ASSIGNERS[algo], use_prediction, False, False).result()
        )
        for metrics, tracing in ((True, False), (False, True), (True, True)):
            engine = _run_serial(ASSIGNERS[algo], use_prediction, metrics, tracing)
            assert _fingerprint(engine.result()) == baseline, (
                f"{algo}, prediction={use_prediction}, "
                f"metrics={metrics}, tracing={tracing}"
            )

    def test_disabled_observer_stores_nothing(self):
        engine = _run_serial(MQAGreedy, True, False, False)
        assert engine.metrics_registry.instruments() == []
        assert len(engine.trace_recorder) == 0

    def test_enabled_observer_populates_both(self):
        engine = _run_serial(MQAGreedy, True, True, True)
        snapshot = registry_snapshot(engine.metrics_registry)
        assert validate_metrics_snapshot(snapshot) == []
        assert snapshot["histograms"]  # phase data present
        rounds = engine.metrics_registry.counter("stream_rounds_total").value
        assert rounds == engine.rounds_run
        assert len(engine.trace_recorder) > 0


class TestShardedBitIdentical:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_obs_on_off_identical(self, backend):
        def run(enable_metrics, enable_tracing):
            config = StreamConfig(
                round_interval=0.5,
                budget=20.0,
                enable_metrics=enable_metrics,
                enable_tracing=enable_tracing,
            )
            workload = _workload()
            engine, _ = prepared_engine(
                workload,
                MQAGreedy(),
                config=config,
                sharding=ShardingConfig(num_shards=4, backend=backend),
            )
            with engine:
                engine.advance_to(float(workload.num_instances))
            return engine

        baseline = _fingerprint(run(False, False).result())
        engine = run(True, True)
        assert _fingerprint(engine.result()) == baseline
        # Per-tile instrumentation exists and nests.
        assert engine.metrics_registry.find("stream_tile_build_seconds")
        assert validate_chrome_trace(engine.trace_recorder.to_chrome_trace()) == []


class TestTraceSchema:
    def _trace(self, make_assigner):
        return _run_serial(
            make_assigner, True, True, True
        ).trace_recorder.to_chrome_trace()

    @pytest.mark.parametrize("algo", sorted(ASSIGNERS))
    def test_trace_validates(self, algo):
        trace = self._trace(ASSIGNERS[algo])
        assert validate_chrome_trace(trace) == []

    def test_round_spans_cover_phases(self):
        trace = self._trace(MQAGreedy)
        events = trace["traceEvents"]
        rounds = [e for e in events if e["cat"] == "round"]
        assert len(rounds) == 8  # 4 instances at 0.5 cadence
        names = {e["name"] for e in events}
        assert {"round", "build", "select"} <= names
        # Rounds are disjoint and ordered.
        spans = sorted((e["ts"], e["ts"] + e["dur"]) for e in rounds)
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert next_start >= prev_end - 1e-6

    def test_round_args_carry_pool_sizes(self):
        trace = self._trace(MQAGreedy)
        round0 = next(e for e in trace["traceEvents"] if e["cat"] == "round")
        assert {"round", "workers", "tasks", "pairs", "assigned"} <= set(
            round0["args"]
        )

    def test_equivalence_workload_also_identical(self):
        """Second workload family, batch-aligned cadence."""
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=60, num_tasks=60, num_instances=4), seed=11
        )

        def run(enable):
            config = StreamConfig(
                enable_metrics=enable, enable_tracing=enable
            )
            engine, _ = prepared_engine(
                workload, MQAGreedy(), config=config, seed=11
            )
            engine.advance_to(float(workload.num_instances))
            return _fingerprint(engine.result())

        assert run(True) == run(False)
