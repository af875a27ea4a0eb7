"""Unit tests of the trace recorder and Chrome trace validation."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.instrument import StreamObserver
from repro.obs.trace import TraceRecorder, validate_chrome_trace


def _simple_trace() -> TraceRecorder:
    t = TraceRecorder()
    t.add_span("round", 10.0, 0.010, cat="round", args={"round": 0})
    t.add_span("build", 10.001, 0.004)
    t.add_instant("delta.prime", ts=10.005, cat="cache")
    t.add_span("round", 10.012, 0.008, cat="round", args={"round": 1})
    t.add_span("build", 10.013, 0.002)
    return t


class TestRecorder:
    def test_chrome_format_shape(self):
        trace = _simple_trace().to_chrome_trace()
        assert isinstance(trace["traceEvents"], list)
        assert trace["displayTimeUnit"] == "ms"
        first = trace["traceEvents"][0]
        assert first["ph"] == "X"
        assert first["ts"] == 0.0  # rebased to the earliest event
        assert first["dur"] == pytest.approx(10_000.0)  # 10 ms in µs
        instant = trace["traceEvents"][2]
        assert instant["ph"] == "i" and instant["s"] == "t"

    def test_rebase_handles_out_of_order_recording(self):
        # Tile spans are recorded before their enclosing round span;
        # the export must rebase against the earliest ts, not the
        # first-recorded one.
        t = TraceRecorder()
        t.add_span("tile0.build", 10.002, 0.003, cat="shard", tid=1)
        t.add_span("round", 10.0, 0.010, cat="round")
        trace = t.to_chrome_trace()
        assert all(e["ts"] >= 0 for e in trace["traceEvents"])
        assert validate_chrome_trace(trace) == []

    def test_disabled_recorder_records_nothing(self):
        t = TraceRecorder(enabled=False)
        t.add_span("round", 0.0, 1.0, cat="round")
        t.add_instant("x")
        assert len(t) == 0
        assert t.to_chrome_trace()["traceEvents"] == []

    def test_max_events_truncates_and_flags(self):
        t = TraceRecorder(max_events=2)
        for i in range(5):
            t.add_span("round", float(i), 0.5, cat="round")
        assert len(t) == 2
        assert t.truncated
        assert t.to_chrome_trace()["otherData"]["truncated"] is True
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)

    def test_negative_duration_clamped(self):
        t = TraceRecorder()
        t.add_span("round", 1.0, -0.5, cat="round")
        assert t.to_chrome_trace()["traceEvents"][0]["dur"] == 0.0

    def test_write_roundtrip(self, tmp_path):
        path = _simple_trace().write(tmp_path / "sub" / "trace.json")
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []


class TestValidation:
    def test_valid_trace_passes(self):
        assert validate_chrome_trace(_simple_trace().to_chrome_trace()) == []

    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["trace has no 'traceEvents' list"]

    def test_missing_keys_reported(self):
        errors = validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        assert any("missing 'ph'" in e for e in errors)

    def test_negative_ts_rejected(self):
        trace = {
            "traceEvents": [
                {"name": "r", "cat": "round", "ph": "X", "ts": -1.0, "dur": 5.0,
                 "pid": 0, "tid": 0}
            ]
        }
        assert any("non-negative" in e for e in validate_chrome_trace(trace))

    def test_phase_outside_round_rejected(self):
        t = TraceRecorder()
        t.add_span("round", 10.0, 0.010, cat="round")
        t.add_span("build", 10.02, 0.004)  # starts after the round ended
        errors = validate_chrome_trace(t.to_chrome_trace())
        assert any("does not nest" in e for e in errors)

    def test_overlapping_rounds_rejected(self):
        t = TraceRecorder()
        t.add_span("round", 10.0, 0.010, cat="round")
        t.add_span("round", 10.005, 0.010, cat="round")
        errors = validate_chrome_trace(t.to_chrome_trace())
        assert any("overlap" in e for e in errors)


class TestObserverSpans:
    def test_end_round_emits_nested_spans_and_instants(self):
        obs = StreamObserver(MetricsRegistry(), TraceRecorder())

        class Delta:
            primes = 1
            incremental_rounds = 0

        class Build:
            price_seconds = 0.003

        timer = obs.begin_round(0, 0.0)
        timer.phase_start("build")
        timer.phase_end("build")
        timer.phase_start("assign")
        assign = timer.phase_end("assign")
        timer.record("select", assign, start=timer.start_of("assign"))
        timer.record("finalize", 0.0)
        timer.finish()
        obs.end_round(
            timer,
            events_processed=5,
            num_workers=3,
            num_tasks=4,
            num_pairs=12,
            assigned=2,
            build_stats=Build(),
            delta_stats=Delta(),
        )
        trace = obs.trace.to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"round", "build", "price", "delta.prime"} <= names
        round_event = next(
            e for e in trace["traceEvents"] if e["cat"] == "round"
        )
        assert round_event["args"]["pairs"] == 12
        # Registry side of the same close-out.
        assert obs.metrics.counter("stream_rounds_total").value == 1.0
        assert obs.metrics.counter("delta_primes_total").value == 1.0
        assert obs.metrics.histogram("stream_price_seconds").count == 1

    def test_tile_pool_events_land_on_shard_tracks(self):
        """Per-tile delta lifecycle events (repair / prime) book
        tile-labelled counters and instants with the same tid
        convention as the tile build spans."""
        obs = StreamObserver(MetricsRegistry(), TraceRecorder())
        timer = obs.begin_round(0, 0.0)
        # Zero durations keep the end-anchored tile spans inside this
        # (instant-length) synthetic round.
        obs.record_tile_phases([(0, 0.0), (1, 0.0), (-1, 0.0)])
        obs.record_tile_pool_events(
            [(0, "repair"), (1, "prime"), (1, "repair")]
        )
        timer.finish()
        obs.end_round(timer)

        metrics = obs.metrics
        assert (
            metrics.counter("tile_delta_repairs_total", labels={"tile": "0"}).value
            == 1.0
        )
        assert (
            metrics.counter("tile_delta_repairs_total", labels={"tile": "1"}).value
            == 1.0
        )
        assert (
            metrics.counter("tile_delta_primes_total", labels={"tile": "1"}).value
            == 1.0
        )

        trace = obs.trace.to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        instants = {
            (e["name"], e["tid"])
            for e in trace["traceEvents"]
            if e["ph"] == "i" and e["cat"] == "shard"
        }
        assert {
            ("tile0.repair", 1),
            ("tile1.prime", 2),
            ("tile1.repair", 2),
        } <= instants
        # Instants share the tile's track with its build span.
        build_tids = {
            e["tid"]
            for e in trace["traceEvents"]
            if e["name"] == "tile1.build"
        }
        assert build_tids == {2}

    def test_tile_pool_events_disabled_and_unknown_kind(self):
        obs = StreamObserver(MetricsRegistry(enabled=False), TraceRecorder(False))
        obs.record_tile_pool_events([(0, "repair")])  # no-op when disabled
        obs2 = StreamObserver(MetricsRegistry(), TraceRecorder())
        obs2.record_tile_pool_events([(0, "not_a_kind")])
        assert not obs2.trace.to_chrome_trace()["traceEvents"]

    def test_sharded_stream_emits_pool_event_instants(self):
        """End to end: a traced sharded run produces per-tile prime
        instants (round 1 primes every tile) on the shard tracks."""
        from repro.core import MQAGreedy
        from repro.streaming import (
            ShardingConfig,
            StreamConfig,
            prepared_engine,
        )
        from repro.workloads import BurstyWorkload, WorkloadParams

        workload = BurstyWorkload(
            WorkloadParams(num_workers=50, num_tasks=50, num_instances=2),
            seed=11,
        )
        engine, _ = prepared_engine(
            workload,
            MQAGreedy(),
            config=StreamConfig(
                round_interval=0.5, budget=20.0, enable_tracing=True
            ),
            sharding=ShardingConfig(num_shards=2, backend="serial"),
            seed=11,
        )
        with engine:
            engine.advance_to(2.0)
            trace = engine.observer.trace.to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        names = {
            e["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "i" and e["cat"] == "shard"
        }
        assert {"tile0.prime", "tile1.prime"} <= names

    def test_stats_diffed_not_recounted(self):
        obs = StreamObserver(MetricsRegistry(), TraceRecorder(enabled=False))

        class Delta:
            primes = 1
            incremental_rounds = 0

        d = Delta()
        for i in range(3):
            timer = obs.begin_round(i, float(i))
            timer.finish()
            d.incremental_rounds = i  # cumulative object, diffed per round
            obs.end_round(timer, delta_stats=d)
        assert obs.metrics.counter("delta_primes_total").value == 1.0
        assert obs.metrics.counter("delta_incremental_rounds_total").value == 2.0
