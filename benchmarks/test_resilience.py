"""Resilience bench: respawn cost, rounds-to-recover, deadline overhead.

Two tiers, like every streaming bench:

- ``test_resilience_small_ci`` — always on: a kill + hang
  :class:`FaultPlan` against the K=2 process backend completes via
  respawn + wholesale re-prime and is digest-identical to the
  fault-free run.
- ``test_resilience_bench`` — gated by ``REPRO_SCALING_BENCH=1`` (the
  CI bench job): records the ``resilience`` section of
  ``BENCH_streaming.json`` — mean worker respawn wall time, measured
  rounds-to-recover per fault (extra runner invocations the retries
  consumed), and the no-fault deadline/polling overhead ratio against
  its recorded ceiling — gated downstream by
  ``check_bench_regression.py`` (``completed_with_faults`` and
  ``rounds_to_recover`` are hard-gated; the overhead ratio must stay
  under the ``deadline_overhead_ceil`` committed with the baseline;
  respawn wall time is recorded for the trajectory, not hard-gated).
"""

from __future__ import annotations

import os
from time import perf_counter

import pytest

from _bench_utils import merge_bench_json
from repro.core import MQAGreedy
from repro.faults import FaultPlan
from repro.streaming import (
    ShardingConfig,
    StreamConfig,
    prepared_engine,
    state_digest,
)
from repro.workloads import BurstyWorkload, WorkloadParams

NUM_SHARDS = 2
DEADLINE_OVERHEAD_CEIL = 1.5
TIMING_REPEATS = 3

_FAULT_TEXT = """
kill worker 0 at round 2
hang worker 1 at round 5 for 2s
"""
_NUM_FAULTS = 2


def _workload(size, instances, seed=17):
    return BurstyWorkload(
        WorkloadParams(
            num_workers=size, num_tasks=size, num_instances=instances
        ),
        seed=seed,
    )


def _run(size, instances, faults=None, round_deadline_s=0.5, seed=17):
    """One process-backend stream; returns digest + supervision facts."""
    engine, _ = prepared_engine(
        _workload(size, instances, seed),
        MQAGreedy(),
        config=StreamConfig(round_interval=0.5, budget=30.0),
        sharding=ShardingConfig(
            num_shards=NUM_SHARDS,
            backend="process",
            round_deadline_s=round_deadline_s,
            max_respawns=5,
            respawn_backoff_s=0.01,
            respawn_backoff_max_s=0.05,
            faults=faults,
        ),
        seed=seed,
    )
    try:
        started = perf_counter()
        engine.advance_to(float(instances))
        wall = perf_counter() - started
        builder = engine._fused_builder
        facts = {
            "wall_seconds": wall,
            "digest": state_digest(engine),
            "respawns": builder.respawns_total,
            "respawn_seconds": builder.respawn_seconds_total,
            "runner_rounds": getattr(builder._runner, "_round", 0),
            "degraded": engine.degraded,
        }
    finally:
        engine.close()
    return facts


def _chaos_differential(size, instances):
    """Fault-free vs kill+hang runs; the recovery must be invisible."""
    clean = _run(size, instances)
    injector = FaultPlan.parse(_FAULT_TEXT).injector()
    faulted = _run(size, instances, faults=injector)
    assert not injector.active, f"faults never fired: {injector.pending}"
    assert faulted["respawns"] == _NUM_FAULTS
    assert not faulted["degraded"]
    completed = faulted["digest"] == clean["digest"]
    assert completed, "faulted run diverged from the fault-free run"
    # Every retry that re-primed a respawned worker is one extra
    # runner invocation — the measured recovery cost in rounds.
    extra_rounds = faulted["runner_rounds"] - clean["runner_rounds"]
    return clean, faulted, extra_rounds


def _deadline_overhead(size, instances):
    """No-fault wall time, poll-with-deadline vs blocking recv."""

    def best(round_deadline_s):
        return min(
            _run(size, instances, round_deadline_s=round_deadline_s)[
                "wall_seconds"
            ]
            for _ in range(TIMING_REPEATS)
        )

    blocking = best(None)
    polled = best(30.0)
    return polled / blocking if blocking > 0 else 1.0


def test_resilience_small_ci():
    """Always-on chaos differential at CI scale."""
    _, faulted, extra_rounds = _chaos_differential(size=50, instances=3)
    assert faulted["respawn_seconds"] > 0.0
    assert 1 <= extra_rounds <= 2 * _NUM_FAULTS


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALING_BENCH") != "1",
    reason="resilience bench section; set REPRO_SCALING_BENCH=1 (the CI bench job does)",
)
def test_resilience_bench():
    """Record the ``resilience`` section of BENCH_streaming.json."""
    size, instances = 120, 4
    clean, faulted, extra_rounds = _chaos_differential(size, instances)
    respawn_seconds = faulted["respawn_seconds"] / faulted["respawns"]
    rounds_to_recover = extra_rounds / _NUM_FAULTS
    overhead = _deadline_overhead(size, instances)
    section = {
        "num_shards": NUM_SHARDS,
        "faults_injected": _NUM_FAULTS,
        "completed_with_faults": True,  # asserted in _chaos_differential
        "respawns": faulted["respawns"],
        "respawn_seconds": round(respawn_seconds, 6),
        "rounds_to_recover": rounds_to_recover,
        "deadline_overhead_ratio": round(overhead, 4),
        "deadline_overhead_ceil": DEADLINE_OVERHEAD_CEIL,
        "fault_wall_seconds": round(faulted["wall_seconds"], 6),
        "clean_wall_seconds": round(clean["wall_seconds"], 6),
    }
    assert overhead <= DEADLINE_OVERHEAD_CEIL, (
        f"no-fault polling overhead {overhead:.3f}x exceeds the "
        f"{DEADLINE_OVERHEAD_CEIL}x ceiling"
    )
    merge_bench_json("streaming", {"resilience": section})
    print(
        f"resilience: {faulted['respawns']} respawns at "
        f"{respawn_seconds * 1000:.1f} ms each, "
        f"{rounds_to_recover:.1f} rounds to recover per fault, "
        f"deadline overhead {overhead:.3f}x (ceiling {DEADLINE_OVERHEAD_CEIL}x)"
    )
