"""Checkpoint/restore crash recovery: the kill-and-replay contract.

The headline test SIGKILLs a subprocess *mid-round* — inside the build
phase, after the round's events were applied and the predictors
observed — and proves that :meth:`JournaledService.open` reconstructs
the engine to bit-identical state by replaying the journal tail over
the last checkpoint: every :func:`state_digest` component (pool CSR,
selection state, predictor windows, RNG, queue, entity pools, audit
log) matches an uninterrupted run, on both prediction legs.  The same
discipline as ``test_streaming_shm.py``: a fresh interpreter per
crash, so nothing survives but the recovery directory.

The unit classes cover the WAL/checkpoint machinery directly: torn
journal tails, corrupt checkpoints falling back to their predecessor,
retention pruning, and the journaled facade's cursor bookkeeping.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.streaming import (
    CheckpointWriter,
    JournaledService,
    OpJournal,
    RecoveryError,
    state_digest,
)

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One source of truth for the deterministic op schedule: the crash
# subprocess executes this string, and the in-process recovery and
# reference runs ``exec`` the very same string.
_SETUP = """
from repro.core import MQAGreedy
from repro.streaming import StreamConfig, StreamingService, workload_events
from repro.streaming.events import WorkerArrival
from repro.workloads import BurstyWorkload, WorkloadParams

USE_PREDICTION = {use_prediction}
workload = BurstyWorkload(
    WorkloadParams(num_workers=20, num_tasks=24, num_instances=5), seed=13
)
quality_model = workload.quality_model


def make_service():
    return StreamingService(
        MQAGreedy(),
        quality_model,
        config=StreamConfig(round_interval=0.5, use_prediction=USE_PREDICTION),
        seed=21,
    )


ops = []
boundary = 0.5
for event in workload_events(workload):
    while event.time > boundary:
        ops.append(("drain", boundary))
        boundary += 0.5
    if isinstance(event, WorkerArrival):
        ops.append(("worker", event.worker, event.time))
    else:
        ops.append(("task", event.task, event.time))
ops.append(("drain", boundary + 1.0))


def apply_op(svc, op):
    if op[0] == "drain":
        return svc.drain(op[1])
    if op[0] == "worker":
        return svc.submit_worker(op[1], op[2])
    return svc.submit_task(op[1], op[2])
"""

_CRASH_BODY = """
import os, signal
from repro.streaming import JournaledService
from repro.streaming.engine import StreamingEngine

# Die *inside* round {kill_at}'s build phase: by then the round has
# popped its events, mutated the pools and observed the predictors —
# the worst-possible partial state for a naive snapshotter.
calls = [0]
_orig_build = StreamingEngine._build_problem


def _lethal_build(self, *args, **kwargs):
    calls[0] += 1
    if calls[0] == {kill_at}:
        os.kill(os.getpid(), signal.SIGKILL)
    return _orig_build(self, *args, **kwargs)


StreamingEngine._build_problem = _lethal_build

svc = JournaledService.open(make_service, {directory!r}, checkpoint_every=2)
for op in ops:
    apply_op(svc, op)
raise SystemExit("expected SIGKILL before the schedule finished")
"""


def _run_script(body: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=_REPO,
        env={**os.environ, "PYTHONPATH": os.path.join(_REPO, "src")},
    )


def _load_schedule(use_prediction: bool) -> dict:
    namespace: dict = {}
    exec(textwrap.dedent(_SETUP.format(use_prediction=use_prediction)), namespace)
    return namespace


class TestKillAndReplay:
    @pytest.mark.parametrize("use_prediction", [True, False], ids=["pred", "nopred"])
    def test_sigkill_mid_round_recovers_bit_identical(
        self, tmp_path, use_prediction
    ):
        directory = str(tmp_path / "recovery")
        script = _SETUP.format(use_prediction=use_prediction) + _CRASH_BODY.format(
            kill_at=6, directory=directory
        )
        proc = _run_script(script)
        assert proc.returncode == -signal.SIGKILL, (proc.stdout, proc.stderr)
        # The crash must have left both halves of the durable state.
        assert list(Path(directory).glob("checkpoint-*.ckpt")), "no checkpoint written"
        assert (Path(directory) / "ops.journal").exists()

        ns = _load_schedule(use_prediction)
        recovered = JournaledService.open(
            ns["make_service"], directory, checkpoint_every=10_000
        )
        applied = recovered.ops_applied
        assert 0 < applied < len(ns["ops"]), applied
        for op in ns["ops"][applied:]:
            ns["apply_op"](recovered, op)

        reference = ns["make_service"]()
        for op in ns["ops"]:
            ns["apply_op"](reference, op)

        recovered_digest = state_digest(recovered.engine)
        reference_digest = state_digest(reference.engine)
        for component in sorted(reference_digest):
            assert recovered_digest[component] == reference_digest[component], (
                f"{component} diverged after kill-and-replay"
            )
        # The drain cursor survived too: nothing is re-delivered.
        assert recovered.service.drained_assignments == (
            recovered.engine.num_assignments
        )
        recovered.close(checkpoint=False)
        reference.close()


class TestOpJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal = OpJournal(path, fsync=False)
        ops = [("worker", 1, 0.5), ("task", 2, 0.75), ("drain", 1.0)]
        for op in ops:
            journal.append(op)
        journal.close()
        assert OpJournal.read_ops(path) == ops

    def test_missing_file_reads_empty(self, tmp_path):
        assert OpJournal.read_ops(tmp_path / "never-written") == []

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal = OpJournal(path, fsync=False)
        journal.append(("drain", 1.0))
        journal.append(("drain", 2.0))
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # a SIGKILL mid-write truncates the frame
        assert OpJournal.read_ops(path) == [("drain", 1.0)]

    def test_corrupt_frame_stops_the_read(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal = OpJournal(path, fsync=False)
        for stamp in (1.0, 2.0, 3.0):
            journal.append(("drain", stamp))
        journal.close()
        data = bytearray(path.read_bytes())
        # Flip a payload byte in the middle frame: its CRC fails, and
        # everything after it is unreachable (frame boundaries are gone).
        frame_len = struct.unpack_from("<I", data, 0)[0] + 8
        data[frame_len + 10] ^= 0xFF
        path.write_bytes(bytes(data))
        assert OpJournal.read_ops(path) == [("drain", 1.0)]

    def test_append_after_reopen_extends(self, tmp_path):
        path = tmp_path / "ops.journal"
        OpJournal(path, fsync=False).append(("drain", 1.0))
        journal = OpJournal(path, fsync=False)
        journal.append(("drain", 2.0))
        journal.close()
        assert OpJournal.read_ops(path) == [("drain", 1.0), ("drain", 2.0)]


class _FakeEngine:
    """Stands in for StreamingEngine in writer-only tests."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def export_state(self) -> bytes:
        return self.payload


class TestCheckpointWriter:
    def test_write_and_load_latest(self, tmp_path):
        writer = CheckpointWriter(tmp_path, fsync=False)
        writer.write(_FakeEngine(b"state-a"), journal_seq=3, drained_assignments=7)
        writer.write(_FakeEngine(b"state-b"), journal_seq=9, drained_assignments=11)
        record = CheckpointWriter.load_latest(tmp_path)
        assert record["journal_seq"] == 9
        assert record["drained_assignments"] == 11
        assert record["engine"] == b"state-b"

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointWriter.load_latest(tmp_path) is None
        assert CheckpointWriter.load_latest(tmp_path / "missing") is None

    def test_retention_prunes_oldest(self, tmp_path):
        writer = CheckpointWriter(tmp_path, keep=2, fsync=False)
        for seq in (1, 2, 3, 4):
            writer.write(_FakeEngine(b"s"), journal_seq=seq, drained_assignments=0)
        names = sorted(p.name for p in tmp_path.glob("checkpoint-*.ckpt"))
        assert names == ["checkpoint-000000000003.ckpt", "checkpoint-000000000004.ckpt"]

    def test_corrupt_latest_falls_back_to_predecessor(self, tmp_path):
        writer = CheckpointWriter(tmp_path, fsync=False)
        writer.write(_FakeEngine(b"good"), journal_seq=1, drained_assignments=0)
        newest = writer.write(_FakeEngine(b"bad"), journal_seq=2, drained_assignments=0)
        newest.write_bytes(newest.read_bytes()[: 40])  # torn at rest
        record = CheckpointWriter.load_latest(tmp_path)
        assert record["journal_seq"] == 1
        assert record["engine"] == b"good"

    def test_wrong_schema_is_skipped(self, tmp_path):
        writer = CheckpointWriter(tmp_path, fsync=False)
        writer.write(_FakeEngine(b"good"), journal_seq=1, drained_assignments=0)
        (tmp_path / "checkpoint-000000000009.ckpt").write_bytes(
            pickle.dumps({"schema": "something-else"})
        )
        assert CheckpointWriter.load_latest(tmp_path)["journal_seq"] == 1

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointWriter(tmp_path, keep=0)


class TestJournaledService:
    def _schedule(self):
        return _load_schedule(use_prediction=True)

    def test_fresh_directory_runs_factory(self, tmp_path):
        ns = self._schedule()
        svc = JournaledService.open(ns["make_service"], tmp_path, fsync=False)
        assert svc.ops_applied == 0
        assert svc.engine.rounds_run == 0
        svc.close()

    def test_reopen_resumes_where_it_left_off(self, tmp_path):
        ns = self._schedule()
        cut = len(ns["ops"]) // 2
        first = JournaledService.open(
            ns["make_service"], tmp_path, checkpoint_every=3, fsync=False
        )
        for op in ns["ops"][:cut]:
            ns["apply_op"](first, op)
        del first  # crash: no close, no final checkpoint

        second = JournaledService.open(
            ns["make_service"], tmp_path, checkpoint_every=3, fsync=False
        )
        assert second.ops_applied == cut
        for op in ns["ops"][cut:]:
            ns["apply_op"](second, op)

        reference = ns["make_service"]()
        for op in ns["ops"]:
            ns["apply_op"](reference, op)
        assert state_digest(second.engine) == state_digest(reference.engine)
        second.close()
        reference.close()

    def test_thread_backend_recovers_bit_identical(self, tmp_path):
        """A K = 2 thread-backed engine checkpoints (its live thread
        pool stays out of the blob and restarts on demand) and replays
        to the uninterrupted run's state."""
        from repro.core import MQAGreedy
        from repro.streaming import (
            ShardingConfig,
            StreamConfig,
            StreamingEngine,
            StreamingService,
        )

        ns = self._schedule()

        def make_service():
            return StreamingService.from_engine(
                StreamingEngine(
                    MQAGreedy(),
                    ns["quality_model"],
                    config=StreamConfig(round_interval=0.5),
                    seed=21,
                    sharding=ShardingConfig(num_shards=2, backend="thread"),
                )
            )

        cut = len(ns["ops"]) // 2
        first = JournaledService.open(
            make_service, tmp_path, checkpoint_every=3, fsync=False
        )
        for op in ns["ops"][:cut]:
            ns["apply_op"](first, op)
        assert CheckpointWriter.load_latest(tmp_path) is not None
        first.close(checkpoint=False)  # stop without a final checkpoint

        second = JournaledService.open(
            make_service, tmp_path, checkpoint_every=3, fsync=False
        )
        assert second.ops_applied == cut
        for op in ns["ops"][cut:]:
            ns["apply_op"](second, op)

        reference = make_service()
        for op in ns["ops"]:
            ns["apply_op"](reference, op)
        assert state_digest(second.engine) == state_digest(reference.engine)
        second.close()
        reference.close()

    def test_process_backend_is_not_exportable(self):
        from repro.core import MQAGreedy
        from repro.streaming import ShardingConfig, StreamConfig, prepared_engine
        from repro.workloads import BurstyWorkload, WorkloadParams

        workload = BurstyWorkload(
            WorkloadParams(num_workers=20, num_tasks=20, num_instances=2), seed=3
        )
        engine, _ = prepared_engine(
            workload,
            MQAGreedy(),
            config=StreamConfig(round_interval=0.5),
            sharding=ShardingConfig(num_shards=2, backend="process"),
        )
        with engine:
            engine.advance_to(0.5)
            with pytest.raises(ValueError, match="in-process build backends"):
                engine.export_state()

    def test_close_checkpoints_so_reopen_skips_replay(self, tmp_path):
        ns = self._schedule()
        svc = JournaledService.open(
            ns["make_service"], tmp_path, checkpoint_every=10_000, fsync=False
        )
        for op in ns["ops"]:
            ns["apply_op"](svc, op)
        rounds = svc.engine.rounds_run
        svc.close()  # final checkpoint covers the whole journal

        record = CheckpointWriter.load_latest(tmp_path)
        assert record["journal_seq"] == len(ns["ops"])
        reopened = JournaledService.open(ns["make_service"], tmp_path, fsync=False)
        assert reopened.engine.rounds_run == rounds
        reopened.close(checkpoint=False)

    def test_checkpoint_beyond_journal_raises(self, tmp_path):
        ns = self._schedule()
        svc = JournaledService.open(
            ns["make_service"], tmp_path, checkpoint_every=2, fsync=False
        )
        for op in ns["ops"]:
            ns["apply_op"](svc, op)
        svc.close()
        (tmp_path / "ops.journal").unlink()  # history mismatch
        with pytest.raises(RecoveryError, match="different histories"):
            JournaledService.open(ns["make_service"], tmp_path, fsync=False)

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        ns = self._schedule()
        with pytest.raises(ValueError, match="checkpoint_every"):
            JournaledService.open(
                ns["make_service"], tmp_path, checkpoint_every=0, fsync=False
            )

    def test_unknown_journal_op_raises(self, tmp_path):
        ns = self._schedule()
        OpJournal(tmp_path / "ops.journal", fsync=False).append(("frobnicate", 1))
        with pytest.raises(RecoveryError, match="unknown op kind"):
            JournaledService.open(ns["make_service"], tmp_path, fsync=False)


class TestStateDigest:
    def test_identical_runs_digest_equal(self):
        ns = _load_schedule(use_prediction=True)
        first = ns["make_service"]()
        second = ns["make_service"]()
        for op in ns["ops"]:
            ns["apply_op"](first, op)
            ns["apply_op"](second, op)
        assert state_digest(first.engine) == state_digest(second.engine)
        first.close()
        second.close()

    def test_different_histories_digest_differently(self):
        ns = _load_schedule(use_prediction=True)
        full = ns["make_service"]()
        partial = ns["make_service"]()
        for op in ns["ops"]:
            ns["apply_op"](full, op)
        for op in ns["ops"][:-4]:
            ns["apply_op"](partial, op)
        assert state_digest(full.engine) != state_digest(partial.engine)
        full.close()
        partial.close()

    def test_components_are_named(self):
        ns = _load_schedule(use_prediction=True)
        svc = ns["make_service"]()
        for op in ns["ops"]:
            ns["apply_op"](svc, op)
        digest = state_digest(svc.engine)
        assert set(digest) == {
            "pool",
            "selection",
            "predictors",
            "rng",
            "queue",
            "entities",
            "log",
        }
        assert all(len(v) == 64 for v in digest.values())
        svc.close()
