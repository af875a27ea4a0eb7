"""Seeded inputs of the benchmark's workloads.

Every tenant's input is a list of operations against the public service
facade, generated from the workload seed alone:

- ``("worker", worker, at)`` and ``("task", task, at)`` submit one
  arrival, stamped at its instance;
- ``("drain", t)`` advances the service to the round boundary ``t``.

Arrivals of every instance are submitted before the drain of the first
round at or after their stamp, so each drain runs exactly one round.
The program under test only ever sees these generated operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import MQAGreedy
from repro.streaming import StreamConfig, StreamingService
from repro.workloads import DriftingHotspotWorkload, WorkloadParams


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: the served traffic and how tenants keep state.

    Attributes:
        name: the workload name on the command line.
        journaled: each tenant is a ``JournaledService`` (write-ahead
            journal with fsync, a checkpoint every ``checkpoint_every``
            rounds); otherwise an in-memory ``StreamingService``.
        params: each tenant's ``DriftingHotspotWorkload`` size: entity
            counts, instances, velocity and deadline ranges.
        config: the engine configuration every service is built with.
        warmup_params: a small copy of ``params`` run untimed first.
        tenants: services behind the server.
        rate_per_tenant: ops/s sent to each tenant.
        checkpoint_every: rounds between checkpoints when journaled.
    """

    name: str
    journaled: bool
    params: WorkloadParams
    config: StreamConfig
    warmup_params: WorkloadParams
    tenants: int
    rate_per_tenant: float
    checkpoint_every: int

    def describe(self) -> dict:
        """The workload's parameters, as printed with every result."""
        p = self.params
        return {
            "generator": DriftingHotspotWorkload.__name__,
            "journaled": self.journaled,
            "tenants": self.tenants,
            "rate_per_tenant": self.rate_per_tenant,
            "checkpoint_every": self.checkpoint_every if self.journaled else None,
            "workers": p.num_workers,
            "tasks": p.num_tasks,
            "instances": p.num_instances,
            "velocity_range": list(p.velocity_range),
            "deadline_range": list(p.deadline_range),
            "round_interval": self.config.round_interval,
            "budget": self.config.budget,
            "unit_cost": self.config.unit_cost,
            "prediction": self.config.use_prediction,
            "window": self.config.window,
        }


_VELOCITY = (0.05, 0.08)
# A task lives one to two rounds.  Each drain costs a fixed ~30 ms plus
# ~1.3 ms per arrival, and it holds up its tenant's later ops, so one
# round per instance keeps a tenant's queue idle most of the time.
_DEADLINE = (1.0, 2.0)


def _served(name: str, journaled: bool) -> WorkloadSpec:
    """Both workloads send the same traffic; only the tenants differ."""
    return WorkloadSpec(
        name=name,
        journaled=journaled,
        params=WorkloadParams(
            num_workers=238,
            num_tasks=238,
            num_instances=25,
            velocity_range=_VELOCITY,
            deadline_range=_DEADLINE,
        ),
        config=StreamConfig(round_interval=1.0),
        warmup_params=WorkloadParams(
            num_workers=80,
            num_tasks=80,
            num_instances=5,
            velocity_range=_VELOCITY,
            deadline_range=_DEADLINE,
        ),
        tenants=2,
        rate_per_tenant=80.0,
        checkpoint_every=8,
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        _served("serve-journaled", journaled=True),
        _served("serve-memory", journaled=False),
    )
}


@dataclass
class TenantInput:
    """One service's generated input: its seed, quality model and ops."""

    name: str
    seed: int
    quality_model: object
    ops: list[tuple]
    arrivals: int

    def make_service(self, spec: WorkloadSpec) -> StreamingService:
        """A pristine service for this input (deterministic per seed)."""
        return StreamingService(
            MQAGreedy(), self.quality_model, config=spec.config, seed=self.seed
        )


def schedule(workload, round_interval: float) -> list[tuple]:
    """The workload as submit/drain ops, one drain per round boundary."""
    ops: list[tuple] = []
    rounds = round(workload.num_instances / round_interval)
    submitted = 0
    for k in range(rounds):
        boundary = k * round_interval
        while submitted < workload.num_instances and submitted <= boundary:
            stamp = float(submitted)
            workers, tasks = workload.arrivals(submitted)
            ops.extend(("worker", w, stamp) for w in workers)
            ops.extend(("task", t, stamp) for t in tasks)
            submitted += 1
        ops.append(("drain", boundary))
    return ops


def make_inputs(spec: WorkloadSpec, seed: int, warmup: bool = False) -> list[TenantInput]:
    """Every tenant's input for ``seed``.

    Tenant ``i`` draws from seed ``seed * 1000 + i``; the warm-up input
    uses the small parameters and a seed no timed input uses.
    """
    params = spec.warmup_params if warmup else spec.params
    base = seed * 1000 + (500 if warmup else 0)
    inputs = []
    for i in range(spec.tenants):
        tenant_seed = base + i
        workload = DriftingHotspotWorkload(params, seed=tenant_seed)
        ops = schedule(workload, spec.config.round_interval)
        inputs.append(
            TenantInput(
                name=f"tenant-{i}",
                seed=tenant_seed,
                quality_model=workload.quality_model,
                ops=ops,
                arrivals=sum(1 for op in ops if op[0] != "drain"),
            )
        )
    return inputs
