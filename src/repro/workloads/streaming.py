"""Streaming scenario workloads: bursty arrivals and drifting hotspots.

The Table IV synthetic streams spread arrivals smoothly, which is the
friendliest possible shape for a fixed per-instance budget.  Online
services see harsher traffic, and these two scenarios model the
canonical failure modes:

- :class:`BurstyWorkload` — long quiet stretches punctuated by
  synchronized arrival spikes (a concert lets out; a flash sale
  starts).  Stress-tests micro-batch cadence and budget pacing.
- :class:`DriftingHotspotWorkload` — demand concentrated in a compact
  hotspot that migrates across the region over time (lunch crowd
  moving between districts).  Stress-tests the spatial index and the
  grid predictor's ability to track non-stationary fields.

Both implement the :class:`~repro.workloads.base.Workload` protocol,
so they run unchanged through the batch engine, the streaming engine,
and the differential tests between them.  Entities are generated
eagerly and deterministically per seed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.workloads.base import WorkloadParams
from repro.workloads.quality import HashQualityModel
from repro.workloads.synthetic import _largest_remainder_round
from repro.workloads.distributions import make_sampler, truncated_gaussian


class _GeneratedStream:
    """Shared eager-generation machinery for the streaming scenarios.

    Subclasses provide per-instance arrival weights and a location
    sampler; this base splits the entity totals, draws velocities and
    deadlines from the Table IV ranges, and materializes the
    per-instance worker/task lists.
    """

    def __init__(self, params: WorkloadParams, seed: int) -> None:
        self._params = params
        self._quality_model = HashQualityModel(params.quality_range, seed=seed)
        rng = np.random.default_rng(seed)

        worker_totals = _largest_remainder_round(
            self._instance_weights(rng, phase=0), params.num_workers
        )
        task_totals = _largest_remainder_round(
            self._instance_weights(rng, phase=1), params.num_tasks
        )

        v_low, v_high = params.velocity_range
        e_low, e_high = params.deadline_range
        v_mean = (v_low + v_high) / 2.0
        v_std = v_high - v_low

        self._workers_by_instance: list[list[Worker]] = []
        self._tasks_by_instance: list[list[Task]] = []
        next_id = 0
        for instance in range(params.num_instances):
            count = int(worker_totals[instance])
            locations = self._locations(rng, instance, count, kind="worker")
            velocities = truncated_gaussian(rng, v_mean, v_std, v_low, v_high, count)
            self._workers_by_instance.append(
                [
                    Worker(
                        id=next_id + i,
                        location=location,
                        velocity=float(v),
                        arrival=float(instance),
                    )
                    for i, (location, v) in enumerate(zip(locations, velocities))
                ]
            )
            next_id += count
        for instance in range(params.num_instances):
            count = int(task_totals[instance])
            locations = self._locations(rng, instance, count, kind="task")
            remaining = rng.uniform(e_low, e_high, size=count)
            self._tasks_by_instance.append(
                [
                    Task(
                        id=next_id + j,
                        location=location,
                        deadline=float(instance) + float(e),
                        arrival=float(instance),
                    )
                    for j, (location, e) in enumerate(zip(locations, remaining))
                ]
            )
            next_id += count

    # -- subclass hooks -----------------------------------------------------

    def _instance_weights(self, rng: np.random.Generator, phase: int) -> np.ndarray:
        """Relative arrival intensity per instance (non-negative)."""
        raise NotImplementedError

    def _locations(
        self, rng: np.random.Generator, instance: int, count: int, kind: str
    ) -> list[Point]:
        """Entity locations for one instance."""
        raise NotImplementedError

    # -- Workload protocol --------------------------------------------------

    @property
    def params(self) -> WorkloadParams:
        return self._params

    @property
    def num_instances(self) -> int:
        return self._params.num_instances

    @property
    def quality_model(self) -> HashQualityModel:
        return self._quality_model

    def arrivals(self, instance: int) -> tuple[list[Worker], list[Task]]:
        if not 0 <= instance < self.num_instances:
            raise IndexError(f"instance {instance} outside [0, {self.num_instances})")
        return (
            list(self._workers_by_instance[instance]),
            list(self._tasks_by_instance[instance]),
        )


class BurstyWorkload(_GeneratedStream):
    """Quiet background traffic with periodic synchronized bursts.

    Every ``burst_period`` instances, one instance receives
    ``burst_multiplier`` times the baseline arrival intensity (both
    workers and tasks burst together — the hard case for a fixed
    per-round budget).  Spatial placement follows the configured
    worker/task distributions, like the Table IV streams.
    """

    def __init__(
        self,
        params: WorkloadParams,
        seed: int = 0,
        burst_period: int = 4,
        burst_multiplier: float = 8.0,
        burst_offset: int = 0,
    ) -> None:
        if burst_period < 1:
            raise ValueError(f"burst_period must be >= 1, got {burst_period}")
        if burst_multiplier < 1.0:
            raise ValueError(
                f"burst_multiplier must be >= 1, got {burst_multiplier}"
            )
        if not 0 <= burst_offset < burst_period:
            raise ValueError(
                f"burst_offset must be in [0, burst_period), got {burst_offset}"
            )
        self._burst_period = burst_period
        self._burst_multiplier = burst_multiplier
        self._burst_offset = burst_offset
        self._worker_sampler = make_sampler(
            params.worker_distribution, params.zipf_skew
        )
        self._task_sampler = make_sampler(params.task_distribution, params.zipf_skew)
        super().__init__(params, seed)

    def _instance_weights(self, rng: np.random.Generator, phase: int) -> np.ndarray:
        instances = np.arange(self._params.num_instances)
        weights = np.ones(self._params.num_instances)
        weights[
            instances % self._burst_period == self._burst_offset
        ] = self._burst_multiplier
        return weights

    def _locations(
        self, rng: np.random.Generator, instance: int, count: int, kind: str
    ) -> list[Point]:
        sampler = self._worker_sampler if kind == "worker" else self._task_sampler
        points = sampler.sample(rng, count)
        return [Point(float(x), float(y)) for x, y in points]


class CitywideMultiHotspotWorkload(_GeneratedStream):
    """Several dense, far-apart demand pockets active at once.

    Models a whole city at rush hour: ``num_hotspots`` compact
    Gaussian pockets sit on a jittered sub-grid spanning the region,
    and every instance's arrivals split across them (workers and tasks
    drawn around the same centers, so each pocket is locally dense).
    Reachability radii are small relative to the pocket spacing, which
    makes the assignment problem *spatially decomposable*: pockets
    rarely interact, but each one generates a heavy local candidate
    block.  This is the scenario built to separate a K-shard engine
    from the one-tile default — a single-tile round must grind through
    every pocket's candidates sequentially, while grid-partitioned
    shards price the pockets concurrently and only the thin border
    reconciliation runs globally.  (The bursty/drifting scenarios
    concentrate demand in one place at a time, which leaves most
    shards idle and shows little sharding benefit.)
    """

    def __init__(
        self,
        params: WorkloadParams,
        seed: int = 0,
        num_hotspots: int = 4,
        hotspot_std: float = 0.06,
        center_jitter: float = 0.05,
    ) -> None:
        if num_hotspots < 1:
            raise ValueError(f"num_hotspots must be >= 1, got {num_hotspots}")
        if hotspot_std <= 0.0:
            raise ValueError(f"hotspot_std must be positive, got {hotspot_std}")
        if center_jitter < 0.0:
            raise ValueError(f"center_jitter must be >= 0, got {center_jitter}")
        self._num_hotspots = num_hotspots
        self._hotspot_std = hotspot_std
        # Centers on the smallest sub-grid that fits, jittered per seed
        # so hotspots do not sit exactly on shard boundaries.
        grid = int(math.ceil(math.sqrt(num_hotspots)))
        center_rng = np.random.default_rng(seed ^ 0x5EED_C17D)
        centers = []
        for h in range(num_hotspots):
            row, col = divmod(h, grid)
            centers.append(
                (
                    float(np.clip((col + 0.5) / grid
                                  + center_rng.uniform(-center_jitter, center_jitter),
                                  0.05, 0.95)),
                    float(np.clip((row + 0.5) / grid
                                  + center_rng.uniform(-center_jitter, center_jitter),
                                  0.05, 0.95)),
                )
            )
        self._centers = centers
        super().__init__(params, seed)

    def _instance_weights(self, rng: np.random.Generator, phase: int) -> np.ndarray:
        return np.ones(self._params.num_instances)

    def _locations(
        self, rng: np.random.Generator, instance: int, count: int, kind: str
    ) -> list[Point]:
        centers = np.asarray(self._centers)
        which = rng.integers(0, self._num_hotspots, size=count)
        xs = np.clip(
            rng.normal(centers[which, 0], self._hotspot_std), 0.0, 1.0
        )
        ys = np.clip(
            rng.normal(centers[which, 1], self._hotspot_std), 0.0, 1.0
        )
        return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


class DriftingHotspotWorkload(_GeneratedStream):
    """A compact demand hotspot orbiting the region center.

    Arrivals are drawn from an isotropic Gaussian of width
    ``hotspot_std`` around a center that moves along a circle of
    radius ``orbit_radius`` by ``drift_rate`` radians per instance
    (clipped to the unit square).  Tasks lead the workers by
    ``task_lead`` radians, so the freshest demand is always slightly
    ahead of the supply that chased the previous position.
    """

    def __init__(
        self,
        params: WorkloadParams,
        seed: int = 0,
        orbit_radius: float = 0.3,
        hotspot_std: float = 0.08,
        drift_rate: float = 0.5,
        task_lead: float = 0.35,
    ) -> None:
        if not 0.0 <= orbit_radius <= 0.5:
            raise ValueError(f"orbit_radius must be in [0, 0.5], got {orbit_radius}")
        if hotspot_std <= 0.0:
            raise ValueError(f"hotspot_std must be positive, got {hotspot_std}")
        self._orbit_radius = orbit_radius
        self._hotspot_std = hotspot_std
        self._drift_rate = drift_rate
        self._task_lead = task_lead
        super().__init__(params, seed)

    def hotspot_center(self, instance: int, kind: str = "worker") -> Point:
        """Hotspot center at one instance (tasks lead by ``task_lead``)."""
        angle = self._drift_rate * instance
        if kind == "task":
            angle += self._task_lead
        return Point(
            0.5 + self._orbit_radius * math.cos(angle),
            0.5 + self._orbit_radius * math.sin(angle),
        )

    def _instance_weights(self, rng: np.random.Generator, phase: int) -> np.ndarray:
        return np.ones(self._params.num_instances)

    def _locations(
        self, rng: np.random.Generator, instance: int, count: int, kind: str
    ) -> list[Point]:
        center = self.hotspot_center(instance, kind)
        xs = np.clip(rng.normal(center.x, self._hotspot_std, size=count), 0.0, 1.0)
        ys = np.clip(rng.normal(center.y, self._hotspot_std, size=count), 0.0, 1.0)
        return [Point(float(x), float(y)) for x, y in zip(xs, ys)]
