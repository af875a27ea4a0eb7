"""Async multi-tenant serving layer over the streaming service.

The paper's online MQA setting is a long-lived service absorbing
worker/task arrivals continuously; :class:`StreamServer` is that
front-end.  Each *tenant* (a city region) owns an independent
:class:`~repro.streaming.service.StreamingService` — its own engine,
pools, predictors and seed — and the server multiplexes all of them
over a bounded pool of execution slots:

- **Per-tenant submit queue + pump.**  Every tenant has one bounded
  ``asyncio.Queue`` drained by one pump task, so operations execute in
  submission order *per tenant* — preserving the engine's determinism
  guarantee tenant by tenant — while different tenants' ops run on
  worker threads.  Those threads share one GIL, so two tenants' rounds
  interleave rather than run in parallel: measured on the served
  benchmark inputs, a round that takes 7-15 ms alone takes 26-33 ms
  when both tenants' rounds overlap, most of it GIL wait.
- **Admission control.**  A full queue or an exhausted rate-limit
  token bucket rejects the call *immediately* with a typed
  :class:`AdmissionError` (``reason`` ∈ ``queue_full`` /
  ``rate_limited`` / ``unknown_tenant`` / ``closed``) instead of
  letting an overloaded tenant grow unbounded backlog or starve its
  neighbours.
- **SLO metrics.**  The server keeps its own
  :class:`~repro.obs.metrics.MetricsRegistry` with tenant-labeled
  instruments — admissions, typed rejections, queue depth, admission
  wait (enqueue → execution start) — and after every drain republishes
  each tenant's engine-side phase percentiles as
  ``tenant_phase_latency_ms{tenant=,phase=,quantile=}`` gauges, so one
  Prometheus scrape (:meth:`StreamServer.metrics_prometheus`) covers
  the whole fleet.
- **Durability (opt-in).**  A tenant configured with a
  ``recovery_dir`` is wrapped in :class:`~repro.streaming.recovery.
  JournaledService`: ops are write-ahead journaled and the engine is
  checkpointed, so a killed server process replays back to bit-identical
  state via :meth:`~repro.streaming.recovery.JournaledService.open`.

The event-loop side never touches an engine: pumps hand the actual
work to ``asyncio.to_thread`` and deliver results through futures, so
submits stay responsive while rounds run.  Anything read from an
engine — the drain's SLO snapshot included — is read inside the op on
its worker thread, because once the op's future resolves the pump may
already be running the tenant's next op.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.obs.export import registry_snapshot, to_prometheus_text
from repro.obs.metrics import MetricsRegistry, monotonic
from repro.simulation.metrics import AssignmentRecord
from repro.streaming.recovery import JournaledService
from repro.streaming.service import StreamingService, StreamSnapshot

__all__ = [
    "AdmissionError",
    "ServerConfig",
    "StreamServer",
    "TenantSpec",
]

#: The closed set of typed rejection reasons.
ADMISSION_REASONS = (
    "queue_full", "rate_limited", "unknown_tenant", "closed", "timeout",
)


class AdmissionError(Exception):
    """A request the server refused to enqueue or execute, and why.

    Attributes:
        tenant: the tenant the request addressed.
        reason: one of :data:`ADMISSION_REASONS` — ``queue_full``
            (bounded submit queue at capacity: shed load or drain),
            ``rate_limited`` (token bucket empty: slow down),
            ``unknown_tenant`` (no such tenant registered),
            ``closed`` (server or tenant already shut down), or
            ``timeout`` (an op overran ``ServerConfig.op_timeout_s``;
            the tenant is wedged and further requests fail fast so it
            cannot hold a worker slot hostage).
    """

    def __init__(self, tenant: str, reason: str) -> None:
        if reason not in ADMISSION_REASONS:
            raise ValueError(f"unknown admission reason {reason!r}")
        super().__init__(f"tenant {tenant!r}: admission rejected ({reason})")
        self.tenant = tenant
        self.reason = reason


@dataclass(frozen=True)
class TenantSpec:
    """Per-tenant admission and durability policy.

    Attributes:
        name: unique tenant key (also the metrics label value).
        max_queue_depth: bound on queued-but-unexecuted operations;
            the queue_full rejection threshold.
        rate_limit: sustained operations/second admitted, enforced by
            a token bucket; ``None`` disables rate limiting.
        burst: bucket capacity — how far above the sustained rate a
            short burst may go (ignored when ``rate_limit`` is None).
        recovery_dir: when set, the tenant's service is wrapped in a
            :class:`~repro.streaming.recovery.JournaledService` rooted
            here (write-ahead journal + periodic checkpoints).
    """

    name: str
    max_queue_depth: int = 64
    rate_limit: float | None = None
    burst: int = 8
    recovery_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError(f"rate_limit must be positive, got {self.rate_limit}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


@dataclass(frozen=True)
class ServerConfig:
    """Server-wide knobs.

    Attributes:
        num_workers: engine operations executing concurrently across
            all tenants (the thread-pool slot count).
        checkpoint_every: rounds between checkpoints for tenants that
            opted into recovery.
        op_timeout_s: per-operation execution deadline enforced by the
            pump; an op overrunning it resolves its future with a
            typed ``timeout`` :class:`AdmissionError`, releases the
            worker slot, and wedges the tenant (the runaway thread may
            still hold the engine, so further ops on that tenant fail
            fast rather than queue behind it).  ``None`` disables.
        faults: an armed :class:`repro.faults.FaultInjector` whose
            ``delay op`` faults stall chosen ops inside their worker
            thread — the deterministic way to exercise the timeout
            path; ``None`` injects nothing.
    """

    num_workers: int = 2
    checkpoint_every: int = 8
    op_timeout_s: float | None = None
    faults: object | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.op_timeout_s is not None and self.op_timeout_s <= 0:
            raise ValueError(
                f"op_timeout_s must be positive or None, got {self.op_timeout_s}"
            )


def _stalled(op: Callable, seconds: float) -> Callable:
    """Wrap an op to sleep inside its worker thread first (the
    ``delay op`` fault: deterministic wedged-tenant simulation)."""

    def call(service):
        time.sleep(seconds)
        return op(service)

    return call


class _TokenBucket:
    """Classic token bucket on the repo's sanctioned monotonic clock."""

    __slots__ = ("_rate", "_capacity", "_tokens", "_last")

    def __init__(self, rate: float, capacity: int) -> None:
        self._rate = float(rate)
        self._capacity = float(capacity)
        self._tokens = float(capacity)
        self._last = monotonic()

    def try_take(self) -> bool:
        now = monotonic()
        self._tokens = min(
            self._capacity, self._tokens + (now - self._last) * self._rate
        )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class _Tenant:
    """Server-side state for one tenant: service, queue, pump, bucket."""

    def __init__(
        self, spec: TenantSpec, service: StreamingService | JournaledService
    ) -> None:
        self.spec = spec
        self.service = service
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=spec.max_queue_depth)
        self.bucket = (
            _TokenBucket(spec.rate_limit, spec.burst) if spec.rate_limit else None
        )
        self.pump: asyncio.Task | None = None
        self.closed = False
        #: Set when an op overran the server's op deadline: the
        #: runaway thread may still hold the engine, so the tenant
        #: fails fast until the process is restarted or recovered.
        self.wedged = False
        self.ops_executed = 0


class StreamServer:
    """Asyncio front-end multiplexing tenant engines over worker slots.

    Lifecycle: construct, ``await start()`` (or ``async with``),
    :meth:`add_tenant` any time while running, ``await close()``.
    All request methods are coroutines and must run on the loop that
    started the server.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._tenants: dict[str, _Tenant] = {}
        self._slots: asyncio.Semaphore | None = None
        self._started = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "StreamServer":
        if self._started:
            raise RuntimeError("server already started")
        self._slots = asyncio.Semaphore(self.config.num_workers)
        self._started = True
        return self

    async def close(self) -> None:
        """Drain every queue, stop the pumps, close every tenant service.

        Queued operations finish executing (their futures resolve);
        operations submitted after close are rejected with
        ``reason='closed'``.  Idempotent.
        """
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        for tenant in self._tenants.values():
            tenant.closed = True
        for tenant in self._tenants.values():
            await tenant.queue.join()
            if tenant.pump is not None:
                tenant.pump.cancel()
                try:
                    await tenant.pump
                except asyncio.CancelledError:
                    pass
        for tenant in self._tenants.values():
            await asyncio.to_thread(tenant.service.close)

    async def __aenter__(self) -> "StreamServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- tenant management --------------------------------------------------

    def add_tenant(
        self, spec: TenantSpec, factory: Callable[[], StreamingService]
    ) -> None:
        """Register a tenant and start its pump.

        ``factory`` builds the tenant's pristine service.  With a
        ``recovery_dir`` in the spec it must be deterministic (the
        recovery layer replays the journal against its output) and it
        only runs when no checkpoint exists yet.
        """
        if not self._started or self._closed:
            raise RuntimeError("add_tenant requires a started, open server")
        if spec.name in self._tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        if spec.recovery_dir is not None:
            service: StreamingService | JournaledService = JournaledService.open(
                factory,
                spec.recovery_dir,
                checkpoint_every=self.config.checkpoint_every,
            )
        else:
            service = factory()
        tenant = _Tenant(spec, service)
        tenant.pump = asyncio.get_running_loop().create_task(
            self._pump(tenant), name=f"pump:{spec.name}"
        )
        self._tenants[spec.name] = tenant

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def service(self, name: str) -> StreamingService | JournaledService:
        """The tenant's service, for read-only inspection."""
        return self._require(name).service

    # -- admission + execution ----------------------------------------------

    def _require(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            self._reject(name, "unknown_tenant")
        return tenant

    def _admit(self, name: str) -> _Tenant:
        tenant = self._require(name)
        labels = {"tenant": name}
        if self._closed or tenant.closed:
            self._reject(name, "closed")
        if tenant.wedged:
            self._reject(name, "timeout")
        if tenant.bucket is not None and not tenant.bucket.try_take():
            self._reject(name, "rate_limited")
        if tenant.queue.full():
            self._reject(name, "queue_full")
        self.registry.counter("server_admitted_total", labels).inc()
        return tenant

    def _reject(self, name: str, reason: str) -> None:
        self.registry.counter(
            "server_rejected_total", {"tenant": name, "reason": reason}
        ).inc()
        raise AdmissionError(name, reason)

    async def _enqueue(self, name: str, op: Callable[[StreamingService], object]):
        tenant = self._admit(name)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        tenant.queue.put_nowait((op, future, monotonic()))
        self.registry.gauge("server_queue_depth", {"tenant": name}).set(
            tenant.queue.qsize()
        )
        return await future

    async def _pump(self, tenant: _Tenant) -> None:
        name = tenant.spec.name
        depth = self.registry.gauge("server_queue_depth", {"tenant": name})
        wait = self.registry.histogram(
            "server_admission_wait_seconds", {"tenant": name}
        )
        while True:
            op, future, enqueued = await tenant.queue.get()
            try:
                if tenant.wedged:
                    # The runaway thread may still hold the engine —
                    # running more ops against it is not safe.  Fail
                    # queued backlog fast instead of blocking close().
                    if not future.cancelled():
                        future.set_exception(AdmissionError(name, "timeout"))
                    continue
                assert self._slots is not None
                async with self._slots:
                    wait.observe(monotonic() - enqueued)
                    tenant.ops_executed += 1
                    call = op
                    if self.config.faults is not None:
                        delay = self.config.faults.delay_op(
                            tenant.ops_executed, name
                        )
                        if delay is not None:
                            call = _stalled(op, delay)
                    try:
                        work = asyncio.to_thread(call, tenant.service)
                        if self.config.op_timeout_s is not None:
                            result = await asyncio.wait_for(
                                work, self.config.op_timeout_s
                            )
                        else:
                            result = await work
                    except (asyncio.TimeoutError, TimeoutError):
                        # Deadline overrun: free the slot (leaving this
                        # block releases the semaphore), wedge the
                        # tenant, surface a typed op error.  The thread
                        # itself cannot be killed; wedging keeps it
                        # from being joined by more work.
                        tenant.wedged = True
                        self.registry.counter(
                            "server_op_timeouts_total", {"tenant": name}
                        ).inc()
                        if not future.cancelled():
                            future.set_exception(AdmissionError(name, "timeout"))
                    except BaseException as exc:
                        if not future.cancelled():
                            future.set_exception(exc)
                    else:
                        if not future.cancelled():
                            future.set_result(result)
            finally:
                tenant.queue.task_done()
                depth.set(tenant.queue.qsize())

    # -- the tenant-facing facade -------------------------------------------

    async def submit_worker(self, tenant: str, worker, at: float | None = None) -> None:
        await self._enqueue(tenant, lambda svc: svc.submit_worker(worker, at))

    async def submit_task(self, tenant: str, task, at: float | None = None) -> None:
        await self._enqueue(tenant, lambda svc: svc.submit_task(task, at))

    async def drain(
        self, tenant: str, until: float | None = None
    ) -> list[AssignmentRecord]:
        def drain_op(svc):
            # The SLO snapshot reads the engine's registry, so it is
            # taken here on the op's thread, never on the loop.
            return svc.drain(until), svc.snapshot_metrics().phase_latencies

        fresh, phases = await self._enqueue(tenant, drain_op)
        self._publish_slo(tenant, phases)
        return fresh

    async def snapshot(self, tenant: str) -> StreamSnapshot:
        """Point-in-time metrics view; read-only, bypasses admission."""
        service = self._require(tenant).service
        return await asyncio.to_thread(service.snapshot_metrics)

    # -- fleet metrics -------------------------------------------------------

    def _publish_slo(self, name: str, phases: dict[str, dict[str, float]]) -> None:
        """Republish the tenant's engine-phase percentiles as gauges.

        The engine's own registry is per tenant; lifting the p50/p95/
        p99 per phase into tenant-labeled gauges on the *server*
        registry gives one scrape endpoint for the whole fleet.
        ``phases`` is the snapshot the drain op took on its thread.
        """
        for phase, stats in phases.items():
            for quantile in ("p50", "p95", "p99"):
                self.registry.gauge(
                    "tenant_phase_latency_ms",
                    {"tenant": name, "phase": phase, "quantile": quantile},
                ).set(stats[quantile])

    def metrics_prometheus(self) -> str:
        """The server registry (admission + SLO gauges), scrape-ready."""
        return to_prometheus_text(self.registry)

    def metrics_json(self) -> dict:
        return registry_snapshot(self.registry)
