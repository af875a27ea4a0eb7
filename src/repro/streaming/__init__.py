"""Event-driven streaming assignment layer.

A second execution layer beside the batch framework loop
(:mod:`repro.simulation`): entity lifecycles are events on a
continuous timeline, assignment happens in configurable micro-batch
rounds, and candidate pairs are generated output-sensitively through
the spatial index into one fused per-tile build pipeline
(:mod:`repro.streaming.pipeline`), run inline or across ``K`` spatial
shards (:class:`ShardingConfig`).

With instance-aligned rounds the streaming engine reproduces the batch
engine's results exactly — the two layers are differentially tested
against each other — while finer intervals and the
:class:`StreamingService` facade open the online-serving scenarios the
batch loop cannot express.
"""

from repro.streaming.events import (
    Event,
    EventQueue,
    TaskArrival,
    TaskExpiry,
    WorkerArrival,
    WorkerRelease,
)
from repro.streaming.engine import ShardingConfig, StreamConfig, StreamingEngine
from repro.streaming.adapters import (
    load_workload,
    prepared_engine,
    run_stream,
    workload_events,
)
from repro.streaming.service import StreamSnapshot, StreamingService
from repro.streaming.recovery import (
    CheckpointWriter,
    JournaledService,
    OpJournal,
    RecoveryError,
    state_digest,
)
from repro.streaming.server import (
    AdmissionError,
    ServerConfig,
    StreamServer,
    TenantSpec,
)

__all__ = [
    "Event",
    "EventQueue",
    "WorkerArrival",
    "TaskArrival",
    "TaskExpiry",
    "WorkerRelease",
    "StreamConfig",
    "ShardingConfig",
    "StreamingEngine",
    "workload_events",
    "load_workload",
    "prepared_engine",
    "run_stream",
    "StreamSnapshot",
    "StreamingService",
    "OpJournal",
    "CheckpointWriter",
    "JournaledService",
    "RecoveryError",
    "state_digest",
    "AdmissionError",
    "ServerConfig",
    "StreamServer",
    "TenantSpec",
]
