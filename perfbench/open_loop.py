"""Open-loop load generator of the served workloads.

A :class:`~repro.streaming.StreamServer` hosts one service per tenant:
on a journaled workload a :class:`~repro.streaming.JournaledService`
(write-ahead journal with fsync, a checkpoint every few rounds), else an
in-memory :class:`~repro.streaming.StreamingService`.  One asyncio
generator on the server's own event loop sends every tenant's ops at a
fixed per-tenant rate, whether or not earlier ops have been answered,
and times each op from its *due* time to its reply — so a stall is
charged to every op that queued behind it.  The generator's own
lateness is recorded as lag.  Each pass runs against a freshly started
server with fresh tenants.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from inputs import TenantInput, WorkloadSpec
from repro.streaming import ServerConfig, StreamServer, TenantSpec, state_digest

#: Bound on each tenant's submit queue: far above the few ops that
#: queue behind a round at the benchmark's rate, so admission control
#: never sheds load in a healthy run (a rejection counts as a failure).
QUEUE_DEPTH = 4096
#: Delay between the end of set-up and the first due op.
LEAD_S = 0.02


@dataclass
class PassResult:
    """What one pass over every tenant's ops measured and produced.

    Latency lists are in seconds.  ``services`` stay readable after the
    server closed them: their public counters and audit logs.
    """

    wall_s: float
    setup_s: float
    op_s: list[float]
    round_s: list[float]
    attempted: int
    failed: int
    arrivals: int
    services: dict[str, object]
    accepted_ops: dict[str, list[tuple]]
    lag_s: list[float]
    backlog_end: int
    tail_s: float
    sizes: dict[str, int]
    digests: dict[str, dict]
    registry: object
    queue_depth_max: float
    quality: float = field(init=False, default=0.0)
    assignments: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        engines = [service.engine for service in self.services.values()]
        self.quality = sum(e.total_quality for e in engines)
        self.assignments = sum(e.num_assignments for e in engines)

    def release(self) -> None:
        """Drop the services and the memory they hold."""
        self.services = {}


def _schedule(spec: WorkloadSpec, inputs: list[TenantInput]) -> list[tuple]:
    """``(offset_s, tenant_index, op_index)`` for every op, by due time.

    Tenant ``i`` sends op ``k`` at ``(k + i / tenants) / rate``: each
    tenant at the fixed rate, the tenants interleaved evenly.
    """
    rate = spec.rate_per_tenant
    count = len(inputs)
    due = [
        ((k + i / count) / rate, i, k)
        for i, tenant in enumerate(inputs)
        for k in range(len(tenant.ops))
    ]
    due.sort()
    return due


async def _start_server(spec: WorkloadSpec, inputs: list[TenantInput], workdir: Path):
    server = StreamServer(
        ServerConfig(num_workers=2, checkpoint_every=spec.checkpoint_every)
    )
    await server.start()
    for tenant in inputs:
        server.add_tenant(
            TenantSpec(
                name=tenant.name,
                max_queue_depth=QUEUE_DEPTH,
                recovery_dir=workdir / tenant.name if spec.journaled else None,
            ),
            functools.partial(tenant.make_service, spec),
        )
    return server


async def _send(server: StreamServer, name: str, op: tuple) -> None:
    kind = op[0]
    if kind == "worker":
        await server.submit_worker(name, op[1], op[2])
    elif kind == "task":
        await server.submit_task(name, op[1], op[2])
    else:
        await server.drain(name, op[1])


def _file_sizes(workdir: Path, inputs: list[TenantInput]) -> dict[str, int]:
    wal = 0
    checkpoint_last = 0
    for tenant in inputs:
        directory = workdir / tenant.name
        wal += (directory / "ops.journal").stat().st_size
        checkpoints = sorted(directory.glob("checkpoint-*.ckpt"))
        if checkpoints:
            checkpoint_last = max(checkpoint_last, checkpoints[-1].stat().st_size)
    return {"wal_bytes": wal, "checkpoint_bytes_last": checkpoint_last}


async def _serve_pass(spec, inputs, workdir, tracer) -> PassResult:
    gc.collect()
    started = perf_counter()
    server = await _start_server(spec, inputs, workdir)
    setup_s = perf_counter() - started

    plan = _schedule(spec, inputs)
    names = [tenant.name for tenant in inputs]
    n = len(plan)
    latency = [0.0] * n
    lag = [0.0] * n
    ok = [[False] * len(tenant.ops) for tenant in inputs]
    is_drain = [inputs[i].ops[k][0] == "drain" for _, i, k in plan]
    depth = [
        server.registry.gauge("server_queue_depth", {"tenant": name})
        for name in names
    ]
    state = {"done": 0, "failed": 0, "last_reply": 0.0, "depth_max": 0.0}

    async def send(j: int, i: int, k: int, due: float) -> None:
        try:
            await _send(server, names[i], inputs[i].ops[k])
            ok[i][k] = True
        except Exception:  # counted against the run, never fatal
            state["failed"] += 1
        finally:
            replied = perf_counter()
            latency[j] = replied - due
            state["done"] += 1
            state["last_reply"] = replied

    if tracer is not None:
        op_ids = iter(range(n))
        tracer.install(next_op=lambda: next(op_ids))
    tasks = []
    backlog_end = 0
    t0 = perf_counter() + LEAD_S
    try:
        for j, (offset, i, k) in enumerate(plan):
            due = t0 + offset
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag[j] = perf_counter() - due
            state["depth_max"] = max(state["depth_max"], depth[i].value)
            if j == n - 1:
                backlog_end = j - state["done"]
            tasks.append(asyncio.create_task(send(j, i, k, due)))
        await asyncio.gather(*tasks)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = state["last_reply"] - t0
    tail_s = state["last_reply"] - (t0 + plan[-1][0])

    # After the timed window: evidence for the checks and counters.
    services = {name: server.service(name) for name in names}
    digests = {name: state_digest(service.engine) for name, service in services.items()}
    sizes = _file_sizes(workdir, inputs) if spec.journaled else {}
    registry = server.registry
    await server.close()
    return PassResult(
        wall_s=wall_s,
        setup_s=setup_s,
        op_s=latency,
        round_s=[latency[j] for j in range(n) if is_drain[j]],
        attempted=n,
        failed=state["failed"],
        arrivals=sum(tenant.arrivals for tenant in inputs),
        services=services,
        accepted_ops={
            tenant.name: [op for op, accepted in zip(tenant.ops, ok[i]) if accepted]
            for i, tenant in enumerate(inputs)
        },
        lag_s=lag,
        backlog_end=backlog_end,
        tail_s=tail_s,
        sizes=sizes,
        digests=digests,
        registry=registry,
        queue_depth_max=state["depth_max"],
    )


def run_pass(spec: WorkloadSpec, inputs: list[TenantInput], workdir: Path, tracer=None):
    """One served pass over every tenant's ops; ``workdir`` is removed."""
    try:
        return asyncio.run(_serve_pass(spec, inputs, workdir, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


async def _setup_cycle(spec, inputs, workdir) -> float:
    gc.collect()
    started = perf_counter()
    server = await _start_server(spec, inputs, workdir)
    elapsed = perf_counter() - started
    await server.close()
    return elapsed


def setup_once(spec: WorkloadSpec, inputs: list[TenantInput], workdir: Path) -> float:
    """Seconds to start the server and its tenants (journaled: open
    every tenant's recovery dir)."""
    try:
        return asyncio.run(_setup_cycle(spec, inputs, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
