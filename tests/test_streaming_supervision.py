"""Self-healing shard supervision: the chaos differential proofs.

The process backend's supervisor must turn worker failure from fatal
into invisible.  The proofs, in order of importance:

- **Chaos differential** (the PR's acceptance criterion): with a
  :class:`~repro.faults.FaultPlan` killing and hanging process-shard
  workers mid-round (K ∈ {2, 4}, both prediction legs), the stream
  completes via respawn + wholesale re-prime, its result is
  bit-identical to the serial reference, and its
  :func:`~repro.streaming.recovery.state_digest` equals the
  fault-free process run's, component-wise.
- **Hung worker**: SIGSTOP a live worker mid-stream; the recv
  deadline fires, the worker is respawned (new pid), and the result
  is digest-identical to an uninterrupted run.
- **Crash loop → graceful degradation**: a worker that dies on every
  respawn exhausts the budget; the engine swaps to the inline serial
  path and still finishes bit-identically (both prediction legs).
- **Faults disabled = zero impact**: an empty plan is digest-equal to
  no injector at all.

Fault rounds address the runner's own invocation counter (retries
count), so plans here pick rounds known to carry normal messages.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core import MQAGreedy
from repro.faults import FaultPlan
from repro.streaming import (
    ShardingConfig,
    StreamConfig,
    prepared_engine,
    run_stream,
    state_digest,
)
from repro.workloads import BurstyWorkload, WorkloadParams

from test_streaming_equivalence import assert_results_identical

_SIZE = 50
_INSTANCES = 3


def _workload(seed=9):
    return BurstyWorkload(
        WorkloadParams(
            num_workers=_SIZE, num_tasks=_SIZE, num_instances=_INSTANCES
        ),
        seed=seed,
    )


def _config(use_prediction, enable_metrics=False):
    return StreamConfig(
        round_interval=0.5,
        budget=30.0,
        use_prediction=use_prediction,
        enable_metrics=enable_metrics,
    )


def _run_process(use_prediction, sharding, seed=9):
    """Run the bursty stream on a process engine; returns
    (result, digest, engine-facts) with the engine closed."""
    engine, _ = prepared_engine(
        _workload(seed), MQAGreedy(), config=_config(use_prediction),
        sharding=sharding, seed=seed,
    )
    try:
        engine.advance_to(float(_INSTANCES))
        result = engine.result()
        digest = state_digest(engine)
        facts = {
            "degraded": engine.degraded,
            "respawns": engine._fused_builder.respawns_total,
        }
    finally:
        engine.close()
    return result, digest, facts


def _serial_reference(use_prediction, seed=9):
    return run_stream(
        _workload(seed), MQAGreedy(), config=_config(use_prediction), seed=seed
    )


def _supervised(num_shards, faults=None, **overrides):
    settings = dict(
        num_shards=num_shards,
        backend="process",
        round_deadline_s=0.5,
        max_respawns=5,
        respawn_backoff_s=0.01,
        respawn_backoff_max_s=0.05,
        faults=faults,
    )
    settings.update(overrides)
    return ShardingConfig(**settings)


class TestChaosDifferential:
    """Kill + hang mid-round: respawn + re-prime is bit-invisible."""

    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("use_prediction", [False, True])
    def test_kill_and_hang_run_is_bit_identical(self, num_shards, use_prediction):
        plan = FaultPlan.parse(
            f"""
            kill worker 0 at round 2
            hang worker {num_shards - 1} at round 5 for 2s
            """
        )
        clean_result, clean_digest, _ = _run_process(
            use_prediction, _supervised(num_shards)
        )
        injector = plan.injector()
        result, digest, facts = _run_process(
            use_prediction, _supervised(num_shards, faults=injector)
        )
        assert not injector.active, injector.pending  # every fault fired
        assert facts["respawns"] >= 2
        assert not facts["degraded"]
        assert_results_identical(clean_result, result)
        assert_results_identical(_serial_reference(use_prediction), result)
        for component, value in clean_digest.items():
            assert digest[component] == value, component

    def test_drop_and_garble_are_survived(self):
        plan = FaultPlan.parse(
            """
            drop message to worker 0 at round 2
            garble message to worker 1 at round 4
            """
        )
        clean_result, clean_digest, _ = _run_process(False, _supervised(2))
        injector = plan.injector()
        result, digest, facts = _run_process(
            False, _supervised(2, faults=injector)
        )
        assert not injector.active
        assert facts["respawns"] >= 2
        assert_results_identical(clean_result, result)
        assert digest == clean_digest

    def test_empty_plan_is_digest_equal_to_no_injector(self):
        _, clean_digest, clean_facts = _run_process(False, _supervised(2))
        _, armed_digest, armed_facts = _run_process(
            False, _supervised(2, faults=FaultPlan.parse("").injector())
        )
        assert armed_facts["respawns"] == clean_facts["respawns"] == 0
        assert armed_digest == clean_digest

    def test_blocking_recv_mode_still_streams(self):
        """``round_deadline_s=None`` restores the unsupervised read."""
        result, _, facts = _run_process(
            False, _supervised(2, round_deadline_s=None)
        )
        assert facts["respawns"] == 0
        assert_results_identical(_serial_reference(False), result)


class TestHungWorker:
    def test_sigstop_fires_deadline_and_respawns(self):
        engine, _ = prepared_engine(
            _workload(), MQAGreedy(),
            config=_config(False, enable_metrics=True),
            sharding=_supervised(2), seed=9,
        )
        try:
            engine.advance_to(1.0)
            runner = engine._fused_builder._runner
            victim = runner._procs[1]
            os.kill(victim.pid, signal.SIGSTOP)
            engine.advance_to(float(_INSTANCES))
            assert runner.respawns_total == 1
            assert runner._procs[1].pid != victim.pid
            assert not engine.degraded
            registry = engine.metrics_registry
            timeouts = sum(
                c.value
                for c in registry.find("shard_deadline_timeouts_total")
            )
            respawns = sum(
                c.value for c in registry.find("shard_respawns_total")
            )
            assert timeouts == 1.0
            assert respawns == 1.0
            result = engine.result()
            digest = state_digest(engine)
        finally:
            engine.close()

        clean_result, clean_digest, _ = _run_process(False, _supervised(2))
        assert_results_identical(clean_result, result)
        # the metrics hub differs (it recorded the fault); every
        # recoverable component must not
        assert digest == clean_digest


class TestCrashLoopDegradation:
    @pytest.mark.parametrize("use_prediction", [False, True])
    def test_respawn_budget_exhaustion_degrades_to_serial(self, use_prediction):
        # every (re)priming of worker 0 is killed: rounds 1-3 cover
        # the initial prime and both budgeted respawn re-primes
        plan = FaultPlan.parse(
            """
            kill worker 0 at round 1
            kill worker 0 at round 2
            kill worker 0 at round 3
            """
        )
        injector = plan.injector()
        result, _, facts = _run_process(
            use_prediction,
            _supervised(2, faults=injector, max_respawns=2),
        )
        assert facts["degraded"]
        assert facts["respawns"] == 2  # the budget, fully spent
        assert_results_identical(_serial_reference(use_prediction), result)

    def test_degraded_engine_keeps_streaming_rounds(self):
        plan = FaultPlan.parse(
            "kill worker 0 at round 1\nkill worker 0 at round 2\n"
        )
        engine, _ = prepared_engine(
            _workload(), MQAGreedy(), config=_config(False),
            sharding=_supervised(2, faults=plan.injector(), max_respawns=1),
            seed=9,
        )
        try:
            engine.advance_to(1.0)
            assert engine.degraded
            rounds_at_degrade = engine.rounds_run
            engine.advance_to(float(_INSTANCES))
            assert engine.rounds_run > rounds_at_degrade
            result = engine.result()
        finally:
            engine.close()
        assert_results_identical(_serial_reference(False), result)
