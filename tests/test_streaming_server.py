"""The async multi-tenant serving layer.

Contracts under test, in order of importance:

- **Determinism under multiplexing**: four tenants replaying known
  schedules concurrently through the server reach engines
  bit-identical (:func:`state_digest`) to serial single-tenant runs —
  the per-tenant pump serializes each tenant's ops, so concurrency
  across tenants never leaks into any tenant's results.
- **Admission control**: bounded queues, token-bucket rate limits and
  closed/unknown tenants reject *immediately* with a typed
  :class:`AdmissionError`, and every rejection is counted per
  (tenant, reason).
- **SLO export**: per-tenant phase p50/p95/p99 gauges and admission
  wait histograms appear in one Prometheus scrape.

No pytest-asyncio in the image: every test drives its own loop with
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core import MQAGreedy
from repro.streaming import (
    AdmissionError,
    ServerConfig,
    StreamConfig,
    StreamingService,
    StreamServer,
    TenantSpec,
    state_digest,
    workload_events,
)
from repro.streaming.events import WorkerArrival
from repro.workloads import BurstyWorkload, WorkloadParams


def _schedule(seed: int):
    """A deterministic (factory, ops) pair for one tenant."""
    workload = BurstyWorkload(
        WorkloadParams(num_workers=18, num_tasks=22, num_instances=4), seed=seed
    )
    quality_model = workload.quality_model

    def factory():
        return StreamingService(
            MQAGreedy(),
            quality_model,
            config=StreamConfig(round_interval=0.5),
            seed=seed,
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
    return factory, ops


async def _replay(server: StreamServer, tenant: str, ops) -> None:
    for op in ops:
        if op[0] == "drain":
            await server.drain(tenant, op[1])
        elif op[0] == "worker":
            await server.submit_worker(tenant, op[1], op[2])
        else:
            await server.submit_task(tenant, op[1], op[2])


def _replay_serial(service: StreamingService, ops) -> None:
    for op in ops:
        if op[0] == "drain":
            service.drain(op[1])
        elif op[0] == "worker":
            service.submit_worker(op[1], op[2])
        else:
            service.submit_task(op[1], op[2])


class TestConcurrentTenants:
    def test_four_tenants_match_serial_references(self):
        """≥ 4 concurrent tenants over 2 slots == 4 serial runs."""
        tenants = {f"city-{i}": _schedule(seed=i) for i in range(4)}

        async def serve():
            digests = {}
            async with StreamServer(ServerConfig(num_workers=2)) as server:
                for name, (factory, _) in tenants.items():
                    server.add_tenant(TenantSpec(name=name, max_queue_depth=256), factory)
                await asyncio.gather(
                    *(_replay(server, n, ops) for n, (_, ops) in tenants.items())
                )
                for name in tenants:
                    digests[name] = state_digest(server.service(name).engine)
                assert server.tenants() == sorted(tenants)
            return digests

        served = asyncio.run(serve())
        for name, (factory, ops) in tenants.items():
            reference = factory()
            _replay_serial(reference, ops)
            assert served[name] == state_digest(reference.engine), name
            reference.close()

    def test_snapshot_is_read_only_and_admission_free(self):
        factory, ops = _schedule(seed=5)

        async def serve():
            async with StreamServer() as server:
                server.add_tenant(TenantSpec(name="t", max_queue_depth=256), factory)
                await _replay(server, "t", ops)
                snap = await server.snapshot("t")
                again = await server.snapshot("t")
                return snap, again

        snap, again = asyncio.run(serve())
        assert snap.rounds_run == again.rounds_run
        assert snap.assignments > 0
        assert snap.phase_latencies  # engine metrics flow through


class _GatedService:
    """Delegating wrapper whose mutating ops block on an event —
    deterministic backpressure for the queue_full tests."""

    def __init__(self, inner: StreamingService, gate: threading.Event) -> None:
        self._inner = inner
        self._gate = gate

    def submit_worker(self, worker, at=None):
        self._gate.wait(timeout=10)
        return self._inner.submit_worker(worker, at)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestAdmissionControl:
    def test_unknown_tenant(self):
        async def serve():
            async with StreamServer() as server:
                with pytest.raises(AdmissionError) as excinfo:
                    await server.submit_worker("ghost", None)
                assert excinfo.value.reason == "unknown_tenant"
                assert excinfo.value.tenant == "ghost"
                rejected = server.registry.find("server_rejected_total")
                assert [dict(c.labels) for c in rejected] == [
                    {"reason": "unknown_tenant", "tenant": "ghost"}
                ]

        asyncio.run(serve())

    def test_queue_full_rejects_typed(self):
        factory, ops = _schedule(seed=6)
        gate = threading.Event()
        workers = [op[1] for op in ops if op[0] == "worker"]

        async def serve():
            async with StreamServer(ServerConfig(num_workers=1)) as server:
                server.add_tenant(
                    TenantSpec(name="t", max_queue_depth=2),
                    lambda: _GatedService(factory(), gate),
                )
                # Op 1 occupies the pump (blocked on the gate): wait
                # until the admission-wait histogram records it as
                # *executing*, so the queue is empty again.
                first = asyncio.ensure_future(server.submit_worker("t", workers[0], 0.0))
                wait_hist = server.registry.histogram(
                    "server_admission_wait_seconds", {"tenant": "t"}
                )
                for _ in range(1000):
                    if wait_hist.count >= 1:
                        break
                    await asyncio.sleep(0.005)
                assert wait_hist.count == 1
                # Ops 2 and 3 fill the bounded queue; op 4 must bounce.
                pending = [
                    asyncio.ensure_future(server.submit_worker("t", w, 0.0))
                    for w in workers[1:3]
                ]
                await asyncio.sleep(0)  # let both reach put_nowait
                with pytest.raises(AdmissionError) as excinfo:
                    await server.submit_worker("t", workers[3], 0.0)
                assert excinfo.value.reason == "queue_full"
                gate.set()
                await asyncio.gather(first, *pending)
                counter = server.registry.counter(
                    "server_rejected_total", {"tenant": "t", "reason": "queue_full"}
                )
                assert counter.value == 1

        asyncio.run(serve())

    def test_rate_limit_rejects_typed(self):
        factory, ops = _schedule(seed=7)
        workers = [op[1] for op in ops if op[0] == "worker"]

        async def serve():
            async with StreamServer() as server:
                server.add_tenant(
                    TenantSpec(name="t", rate_limit=1e-6, burst=2), factory
                )
                await server.submit_worker("t", workers[0], 0.0)
                await server.submit_worker("t", workers[1], 0.0)
                with pytest.raises(AdmissionError) as excinfo:
                    await server.submit_worker("t", workers[2], 0.0)
                assert excinfo.value.reason == "rate_limited"

        asyncio.run(serve())

    def test_submit_after_close_rejects_closed(self):
        factory, _ = _schedule(seed=8)

        async def serve():
            server = StreamServer()
            await server.start()
            server.add_tenant(TenantSpec(name="t"), factory)
            await server.close()
            with pytest.raises(AdmissionError) as excinfo:
                await server.submit_worker("t", None)
            assert excinfo.value.reason == "closed"

        asyncio.run(serve())

    def test_engine_errors_propagate_not_wedge(self):
        """A bad op fails its caller's future; the pump keeps running."""
        from dataclasses import replace

        factory, ops = _schedule(seed=9)
        workers = [op[1] for op in ops if op[0] == "worker"]

        async def serve():
            async with StreamServer() as server:
                server.add_tenant(TenantSpec(name="t"), factory)
                await server.submit_worker("t", workers[0], 0.0)
                # The engine rejects predicted entities at submit time
                # — the error must reach this caller, not kill the pump.
                with pytest.raises(ValueError, match="predicted"):
                    await server.submit_worker(
                        "t", replace(workers[1], predicted=True), 0.0
                    )
                # Still serving after the failure:
                await server.submit_worker("t", workers[1], 0.0)
                await server.drain("t", 1.0)

        asyncio.run(serve())


class TestSpecValidation:
    def test_tenant_spec_bounds(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            TenantSpec(name="t", max_queue_depth=0)
        with pytest.raises(ValueError, match="rate_limit"):
            TenantSpec(name="t", rate_limit=0.0)
        with pytest.raises(ValueError, match="burst"):
            TenantSpec(name="t", burst=0)

    def test_server_config_bounds(self):
        with pytest.raises(ValueError, match="num_workers"):
            ServerConfig(num_workers=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            ServerConfig(checkpoint_every=0)

    def test_admission_reason_closed_set(self):
        with pytest.raises(ValueError, match="unknown admission reason"):
            AdmissionError("t", "because")

    def test_lifecycle_misuse(self):
        factory, _ = _schedule(seed=10)

        async def serve():
            server = StreamServer()
            with pytest.raises(RuntimeError, match="started"):
                server.add_tenant(TenantSpec(name="t"), factory)
            await server.start()
            with pytest.raises(RuntimeError, match="already started"):
                await server.start()
            server.add_tenant(TenantSpec(name="t"), factory)
            with pytest.raises(ValueError, match="already registered"):
                server.add_tenant(TenantSpec(name="t"), factory)
            await server.close()
            await server.close()  # idempotent

        asyncio.run(serve())


class TestSloExport:
    def test_prometheus_carries_tenant_labeled_slo(self):
        tenants = {f"city-{i}": _schedule(seed=20 + i) for i in range(2)}

        async def serve():
            async with StreamServer() as server:
                for name, (factory, _) in tenants.items():
                    server.add_tenant(TenantSpec(name=name, max_queue_depth=256), factory)
                await asyncio.gather(
                    *(_replay(server, n, ops) for n, (_, ops) in tenants.items())
                )
                return server.metrics_prometheus(), server.metrics_json()

        text, snapshot = asyncio.run(serve())
        for name in tenants:
            assert f'server_admitted_total{{tenant="{name}"}}' in text
            for quantile in ("p50", "p95", "p99"):
                assert (
                    f'tenant_phase_latency_ms{{phase="round",'
                    f'quantile="{quantile}",tenant="{name}"}}' in text
                )
            assert f'server_admission_wait_seconds_count{{tenant="{name}"}}' in text
        assert snapshot["schema"] == "repro.obs.metrics/v1"
        gauges = {
            (g["name"], tuple(sorted(g.get("labels", {}).items())))
            for g in snapshot["gauges"]
        }
        assert (
            "tenant_phase_latency_ms",
            (("phase", "round"), ("quantile", "p99"), ("tenant", "city-0")),
        ) in gauges


class _ThreadRecordingService:
    """Delegating wrapper that notes which thread reads its metrics."""

    def __init__(self, inner: StreamingService, readers: list[int]) -> None:
        self._inner = inner
        self._readers = readers

    def snapshot_metrics(self):
        self._readers.append(threading.get_ident())
        return self._inner.snapshot_metrics()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSloSnapshotThread:
    def test_drain_snapshot_never_runs_on_the_loop(self):
        """The SLO snapshot reads the engine's registry, so it must be
        taken on the drain op's worker thread: once the op's future
        resolves, the pump may already run the tenant's next op."""
        factory, ops = _schedule(seed=9)
        readers: list[int] = []

        async def serve():
            loop_thread = threading.get_ident()
            async with StreamServer(ServerConfig(num_workers=2)) as server:
                server.add_tenant(
                    TenantSpec(name="t", max_queue_depth=256),
                    lambda: _ThreadRecordingService(factory(), readers),
                )
                # Fire every op at once so later ops queue behind each
                # drain, the interleaving the loop-side read raced with.
                await asyncio.gather(*(_replay(server, "t", [op]) for op in ops))
                return loop_thread, server.metrics_prometheus()

        loop_thread, text = asyncio.run(serve())
        drains = sum(1 for op in ops if op[0] == "drain")
        assert len(readers) == drains > 0
        assert loop_thread not in readers
        assert 'tenant_phase_latency_ms{phase="round",quantile="p50",tenant="t"}' in text


class TestRecoveryIntegration:
    def test_tenant_with_recovery_dir_survives_restart(self, tmp_path):
        factory, ops = _schedule(seed=30)
        cut = len(ops) // 2
        spec = TenantSpec(
            name="t", max_queue_depth=256, recovery_dir=tmp_path / "t"
        )

        async def first_half():
            async with StreamServer() as server:
                server.add_tenant(spec, factory)
                await _replay(server, "t", ops[:cut])

        async def second_half():
            async with StreamServer() as server:
                server.add_tenant(spec, factory)
                assert server.service("t").ops_applied == cut
                await _replay(server, "t", ops[cut:])
                return state_digest(server.service("t").engine)

        asyncio.run(first_half())
        recovered = asyncio.run(second_half())

        reference = factory()
        _replay_serial(reference, ops)
        assert recovered == state_digest(reference.engine)
        reference.close()


class TestOpDeadlines:
    """``ServerConfig.op_timeout_s``: a wedged tenant cannot hold a
    worker slot, and its failure is contained to itself."""

    def test_stalled_op_times_out_and_wedges_only_its_tenant(self):
        from repro.faults import FaultPlan

        slow_factory, slow_ops = _schedule(seed=40)
        fast_factory, fast_ops = _schedule(seed=41)
        slow_workers = [op[1] for op in slow_ops if op[0] == "worker"]
        plan = FaultPlan.parse("delay op 2 of slow for 2s")
        config = ServerConfig(
            num_workers=2, op_timeout_s=0.25, faults=plan.injector()
        )

        async def serve():
            async with StreamServer(config) as server:
                server.add_tenant(
                    TenantSpec(name="slow", max_queue_depth=64), slow_factory
                )
                server.add_tenant(
                    TenantSpec(name="fast", max_queue_depth=256), fast_factory
                )
                await server.submit_worker("slow", slow_workers[0], 0.0)
                with pytest.raises(AdmissionError) as overrun:
                    await server.drain("slow", 0.5)  # op 2: stalled 30s
                assert overrun.value.reason == "timeout"
                assert overrun.value.tenant == "slow"
                # the wedged tenant now fails fast at admission
                with pytest.raises(AdmissionError) as rejected:
                    await server.submit_worker("slow", slow_workers[1], 0.0)
                assert rejected.value.reason == "timeout"
                # the healthy tenant is untouched by its neighbour
                await _replay(server, "fast", fast_ops)
                digest = state_digest(server.service("fast").engine)
                timeouts = sum(
                    c.value
                    for c in server.registry.find("server_op_timeouts_total")
                )
                assert timeouts == 1.0
            return digest

        digest = asyncio.run(serve())
        reference = fast_factory()
        _replay_serial(reference, fast_ops)
        assert digest == state_digest(reference.engine)
        reference.close()

    def test_queued_backlog_behind_a_wedge_fails_fast(self):
        from repro.faults import FaultPlan

        factory, ops = _schedule(seed=42)
        workers = [op[1] for op in ops if op[0] == "worker"]
        tasks = [op[1] for op in ops if op[0] == "task"]
        config = ServerConfig(
            num_workers=1,
            op_timeout_s=0.25,
            faults=FaultPlan.parse("delay op 1 of t for 2s").injector(),
        )

        async def serve():
            async with StreamServer(config) as server:
                server.add_tenant(
                    TenantSpec(name="t", max_queue_depth=64), factory
                )
                results = await asyncio.gather(
                    server.submit_worker("t", workers[0], 0.0),
                    server.submit_worker("t", workers[1], 0.0),
                    server.submit_task("t", tasks[0], 0.0),
                    return_exceptions=True,
                )
            return results

        results = asyncio.run(serve())
        assert len(results) == 3
        for outcome in results:
            assert isinstance(outcome, AdmissionError)
            assert outcome.reason == "timeout"

    def test_no_timeout_config_never_wedges(self):
        factory, ops = _schedule(seed=43)

        async def serve():
            async with StreamServer(ServerConfig()) as server:
                server.add_tenant(
                    TenantSpec(name="t", max_queue_depth=256), factory
                )
                await _replay(server, "t", ops)
                return state_digest(server.service("t").engine)

        digest = asyncio.run(serve())
        reference = factory()
        _replay_serial(reference, ops)
        assert digest == state_digest(reference.engine)
        reference.close()
