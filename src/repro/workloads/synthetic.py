"""Synthetic worker/task streams over the Table IV parameter space.

Arrival model
-------------

Workers/tasks are split across the ``R`` time instances with a smooth
sinusoidal intensity wave.  *Spatially*, each stream follows a stable
per-cell intensity field derived from the configured distribution
(Uniform / Gaussian / Zipf): the per-instance per-cell counts are the
field scaled by the instance's intensity, perturbed by a small
multiplicative noise (``count_noise``) and rounded by largest
remainder.  Entities are placed uniformly inside their cell.

This *stable-field* model is what makes the paper's single-digit
prediction errors achievable (Fig. 10): with fully independent
per-instance placement, per-cell counts carry irreducible Poisson
noise of order ``1/sqrt(count-per-cell)`` — tens of percent at the
paper's own densities (~0.8 entities/cell/instance).  Real check-in
streams are temporally stable (people revisit the same haunts), and
the synthetic model mirrors that; EXPERIMENTS.md, "Deviation
analysis", discusses the choice.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.workloads.base import WorkloadParams
from repro.workloads.distributions import make_sampler, truncated_gaussian
from repro.workloads.quality import HashQualityModel

# Sampler draws used to estimate the stable per-cell intensity field.
_FIELD_ESTIMATION_DRAWS = 20000


def _intensity_field(sampler, rng: np.random.Generator, resolution: int) -> np.ndarray:
    """Per-cell probabilities of the spatial distribution.

    Estimated by histogramming a large reference sample on the
    ``resolution x resolution`` internal grid.
    """
    points = sampler.sample(rng, _FIELD_ESTIMATION_DRAWS)
    cols = np.minimum((points[:, 0] * resolution).astype(int), resolution - 1)
    rows = np.minimum((points[:, 1] * resolution).astype(int), resolution - 1)
    counts = np.bincount(rows * resolution + cols, minlength=resolution * resolution)
    field = counts / counts.sum()
    # A fixed per-cell jitter breaks the remainder ties of flat fields
    # deterministically: without it, largest-remainder rounding of a
    # near-uniform field would pick a *different* winning cell set each
    # instance (ties broken by the per-instance noise), destroying the
    # temporal stability the predictor relies on.
    jitter = 1.0 + 0.15 * rng.standard_normal(field.size)
    field = np.maximum(field * jitter, 0.0)
    return field / field.sum()


def _largest_remainder_round(expected: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``, proportional to ``expected``."""
    if total <= 0 or expected.sum() <= 0.0:
        return np.zeros_like(expected, dtype=np.int64)
    shares = expected / expected.sum() * total
    floors = np.floor(shares).astype(np.int64)
    deficit = total - int(floors.sum())
    if deficit > 0:
        remainders = shares - floors
        top = np.argsort(-remainders, kind="stable")[:deficit]
        floors[top] += 1
    return floors


class SyntheticWorkload:
    """Pre-generated synthetic arrivals for one experiment run.

    All entities are generated eagerly in the constructor so every
    algorithm sees the *same* stream for the same seed — the fair-
    comparison requirement of Section VI.
    """

    def __init__(self, params: WorkloadParams, seed: int = 0) -> None:
        self._params = params
        self._quality_model = HashQualityModel(params.quality_range, seed=seed)
        rng = np.random.default_rng(seed)
        resolution = params.intensity_resolution

        worker_sampler = make_sampler(params.worker_distribution, params.zipf_skew)
        task_sampler = make_sampler(params.task_distribution, params.zipf_skew)
        worker_field = _intensity_field(worker_sampler, rng, resolution)
        task_field = _intensity_field(task_sampler, rng, resolution)

        worker_totals = self._instance_totals(rng, params.num_workers, phase=0.0)
        task_totals = self._instance_totals(rng, params.num_tasks, phase=math.pi / 3.0)

        self._workers_by_instance: list[list[Worker]] = []
        self._tasks_by_instance: list[list[Task]] = []
        next_id = 0
        v_low, v_high = params.velocity_range
        e_low, e_high = params.deadline_range
        v_mean = (v_low + v_high) / 2.0
        v_std = v_high - v_low  # paper: N((v-+v+)/2, (v+-v-)^2)

        for instance in range(params.num_instances):
            locations = self._place_entities(
                rng, worker_field, int(worker_totals[instance]), resolution,
                params.count_noise,
            )
            count = len(locations)
            velocities = truncated_gaussian(rng, v_mean, v_std, v_low, v_high, count)
            workers = [
                Worker(
                    id=next_id + i,
                    location=location,
                    velocity=float(v),
                    arrival=float(instance),
                )
                for i, (location, v) in enumerate(zip(locations, velocities))
            ]
            next_id += count
            self._workers_by_instance.append(workers)

        for instance in range(params.num_instances):
            locations = self._place_entities(
                rng, task_field, int(task_totals[instance]), resolution,
                params.count_noise,
            )
            count = len(locations)
            remaining = rng.uniform(e_low, e_high, size=count)
            tasks = [
                Task(
                    id=next_id + j,
                    location=location,
                    deadline=float(instance) + float(e),
                    arrival=float(instance),
                )
                for j, (location, e) in enumerate(zip(locations, remaining))
            ]
            next_id += count
            self._tasks_by_instance.append(tasks)

    def _instance_totals(self, rng: np.random.Generator, total: int, phase: float) -> np.ndarray:
        """Split ``total`` arrivals across instances along a smooth wave."""
        instances = self._params.num_instances
        amplitude = self._params.arrival_wave_amplitude
        weights = 1.0 + amplitude * np.sin(
            2.0 * np.pi * np.arange(instances) / instances + phase
        )
        return _largest_remainder_round(weights, total)

    @staticmethod
    def _place_entities(
        rng: np.random.Generator,
        field: np.ndarray,
        total: int,
        resolution: int,
        count_noise: float,
    ) -> list[Point]:
        """Materialize one instance's arrivals from the intensity field.

        Per-cell expectations get a small multiplicative Gaussian noise
        before largest-remainder rounding, then entities are placed
        uniformly inside their cell.
        """
        if total <= 0:
            return []
        expected = field * total
        if count_noise > 0.0:
            expected = np.maximum(
                expected * (1.0 + count_noise * rng.standard_normal(field.size)), 0.0
            )
        counts = _largest_remainder_round(expected, total)
        side = 1.0 / resolution
        locations: list[Point] = []
        for cell in np.nonzero(counts)[0]:
            row, col = divmod(int(cell), resolution)
            xs = rng.uniform(col * side, (col + 1) * side, size=int(counts[cell]))
            ys = rng.uniform(row * side, (row + 1) * side, size=int(counts[cell]))
            locations.extend(Point(float(x), float(y)) for x, y in zip(xs, ys))
        return locations

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
        """Entities newly joining at time instance ``instance``."""
        if not 0 <= instance < self.num_instances:
            raise IndexError(f"instance {instance} outside [0, {self.num_instances})")
        return (
            list(self._workers_by_instance[instance]),
            list(self._tasks_by_instance[instance]),
        )

    def total_workers(self) -> int:
        """Workers generated across all instances (should equal ``n``)."""
        return sum(len(ws) for ws in self._workers_by_instance)

    def total_tasks(self) -> int:
        """Tasks generated across all instances (should equal ``m``)."""
        return sum(len(ts) for ts in self._tasks_by_instance)
