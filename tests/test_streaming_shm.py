"""Shared-memory hygiene for the fused process backend.

The contract under test: every ``multiprocessing.shared_memory``
segment the engine family creates is unlinked exactly once, by the
parent — on arena replacement, on engine close, or from the
registry's ``atexit`` hook — and the shared resource tracker never
prints a warning or a KeyError, *including* when a worker is
SIGKILLed mid-stream.  The subprocess tests run a whole engine
lifecycle in a fresh interpreter so the tracker's own shutdown output
is observable.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from multiprocessing.shared_memory import SharedMemory

from repro.core import MQAGreedy
from repro.streaming import (
    ShardingConfig,
    StreamConfig,
    prepared_engine,
)
from repro.streaming.shm import SegmentRegistry, _ShmArena, _pack_arrays, _take
from repro.workloads import BurstyWorkload, WorkloadParams

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_NOISE = ("resource_tracker", "leaked", "KeyError", "Traceback")


def _run_script(body: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=_REPO,
        env={**os.environ, "PYTHONPATH": os.path.join(_REPO, "src")},
    )


def _assert_clean(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    for needle in _NOISE:
        assert needle not in proc.stderr, proc.stderr
    assert "OK" in proc.stdout, proc.stdout


def _no_repro_segments() -> None:
    if os.path.isdir("/dev/shm"):
        leftovers = [n for n in os.listdir("/dev/shm") if n.startswith("repro-")]
        assert not leftovers, leftovers


_PRELUDE = """
    from repro.core import MQAGreedy
    from repro.streaming import (
        ShardingConfig, StreamConfig, prepared_engine,
    )
    from repro.workloads import BurstyWorkload, WorkloadParams

    workload = BurstyWorkload(
        WorkloadParams(num_workers=60, num_tasks=60, num_instances=3), seed=3
    )
    engine, _ = prepared_engine(
        workload,
        MQAGreedy(),
        config=StreamConfig(round_interval=0.5, budget=20.0),
        sharding=ShardingConfig(num_shards=4, backend="process"),
        seed=3,
    )
"""


class TestLifecycleHygiene:
    def test_kill_mid_stream_leaves_no_segments(self):
        """SIGKILL a pinned worker: the supervisor respawns it, the
        stream completes, close() still reclaims every segment, and
        the tracker stays silent."""
        proc = _run_script(
            _PRELUDE
            + """
    import os, signal

    engine.advance_to(1.0)
    runner = engine._fused_builder._runner
    victim = runner._procs[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()
    engine.advance_to(2.0)
    assert runner.respawns_total == 1, runner.respawns_total
    assert runner._procs[0].pid != victim.pid
    assert not engine.degraded
    engine.advance_to(3.0)
    engine.close()
    leftovers = [n for n in os.listdir("/dev/shm") if n.startswith("repro-")]
    assert not leftovers, leftovers
    print("OK")
"""
        )
        _assert_clean(proc)
        _no_repro_segments()

    def test_dropped_engine_cleans_up_at_exit(self):
        """An engine abandoned without close(): the registry's atexit
        hook unlinks everything before the tracker can complain."""
        proc = _run_script(
            _PRELUDE
            + """
    engine.advance_to(1.5)
    # Deliberately no close(): the pid-guarded atexit hook owns it.
    print("OK")
"""
        )
        _assert_clean(proc)
        _no_repro_segments()

    def test_context_manager_closes_runner(self):
        """with-block close stops the workers and unlinks segments."""
        proc = _run_script(
            _PRELUDE
            + """
    import os

    with engine:
        engine.advance_to(1.5)
        runner = engine._fused_builder._runner
        pids = [p.pid for p in runner._procs]
    assert runner._closed
    for p in runner._procs:
        assert not p.is_alive(), pids
    leftovers = [n for n in os.listdir("/dev/shm") if n.startswith("repro-")]
    assert not leftovers, leftovers
    print("OK")
"""
        )
        _assert_clean(proc)
        _no_repro_segments()


class TestArenaAndRegistry:
    def test_pack_take_roundtrip(self):
        registry = SegmentRegistry()
        arena = _ShmArena(prefix=f"repro-t{os.getpid()}-rt", registry=registry)
        arrays = [
            np.arange(5, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            np.linspace(0.0, 1.0, 7),
            None,
        ]
        descs = _pack_arrays(arena, arrays)
        segment = SharedMemory(name=arena.name)
        try:
            out = [_take(segment, d, copy=True) for d in descs]
        finally:
            segment.close()
        np.testing.assert_array_equal(out[0], arrays[0])
        assert out[1].size == 0 and out[1].dtype == np.float64
        np.testing.assert_array_equal(out[2], arrays[2])
        assert out[3] is None
        registry.close()

    def test_growth_replaces_and_unlinks_old_segment(self):
        registry = SegmentRegistry()
        arena = _ShmArena(prefix=f"repro-t{os.getpid()}-gr", registry=registry)
        arena.begin(16)
        first = arena.name
        arena.begin(1 << 20)  # forces a doubling past the first capacity
        second = arena.name
        assert second != first
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=first)
        registry.close()
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=second)

    def test_release_is_idempotent(self):
        registry = SegmentRegistry()
        registry.release("repro-never-created")
        arena = _ShmArena(prefix=f"repro-t{os.getpid()}-id", registry=registry)
        arena.begin(16)
        name = arena.name
        registry.release(name)
        registry.release(name)
        registry.close()
        registry.close()
