"""Deterministic hashed quality scores ``q_ij``.

The paper generates the quality score of every worker-and-task pair
from a Gaussian within ``[q-, q+]``.  Materializing an ``n x m`` matrix
per instance would be wasteful; instead the score of a pair is a pure
function of ``(worker.id, task.id, seed)`` via a SplitMix64-style
mixer, so any submatrix can be produced lazily, identically, on demand
— the same pair always scores the same, across algorithms and runs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.model.entities import Task, Worker

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_WORKER_SALT = np.uint64(0x8B72E7D8C27D3B4D)
_TASK_SALT = np.uint64(0xD6E8FEB86659FD93)

_TWO_POW_53 = float(1 << 53)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = values + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash_uniform(worker_ids: np.ndarray, task_ids: np.ndarray, salt) -> np.ndarray:
    """Uniforms in ``(0, 1]`` from broadcastable id arrays.

    Pass ``worker_ids[:, None]`` against ``task_ids`` for the full
    pairwise matrix, or two aligned 1-D arrays for elementwise pairs;
    a given ``(worker, task)`` id pair hashes to the same value either
    way (all operations are elementwise).  ``salt`` is one value or an
    array that broadcasts against the ids.
    """
    mixed_workers = _splitmix64(worker_ids.astype(np.uint64) * _WORKER_SALT + salt)
    mixed_tasks = _splitmix64(task_ids.astype(np.uint64) * _TASK_SALT + salt)
    combined = _splitmix64(mixed_workers ^ mixed_tasks)
    # Top 53 bits -> (0, 1]; +1 keeps log() finite in Box-Muller.
    return ((combined >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO_POW_53


class HashQualityModel:
    """Gaussian-in-range quality scores, deterministic per pair.

    Scores are ``N(center, ((q+ - q-) / 4)^2)`` clipped to
    ``[q-, q+]``, with ``center`` the range midpoint — a Gaussian
    "within the range" as the paper specifies, with the clipped tails
    carrying ~5% of the mass.
    """

    def __init__(self, quality_range: tuple[float, float], seed: int = 0) -> None:
        low, high = quality_range
        if low > high:
            raise ValueError(f"empty quality range [{low}, {high}]")
        self._low = float(low)
        self._high = float(high)
        self._center = (self._low + self._high) / 2.0
        self._std = (self._high - self._low) / 4.0
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    @property
    def quality_range(self) -> tuple[float, float]:
        return (self._low, self._high)

    def quality_matrix(self, workers: Sequence[Worker], tasks: Sequence[Task]) -> np.ndarray:
        """Dense score matrix for the given entities (vectorized)."""
        worker_ids = np.array([w.id for w in workers], dtype=np.int64)
        task_ids = np.array([t.id for t in tasks], dtype=np.int64)
        return self.quality_by_ids(worker_ids, task_ids)

    def quality_by_ids(self, worker_ids: np.ndarray, task_ids: np.ndarray) -> np.ndarray:
        """Score matrix keyed directly by id arrays."""
        worker_ids = np.abs(np.asarray(worker_ids, dtype=np.int64))
        task_ids = np.abs(np.asarray(task_ids, dtype=np.int64))
        if worker_ids.size == 0 or task_ids.size == 0:
            return np.zeros((worker_ids.size, task_ids.size))
        return self._scores(worker_ids[:, None], task_ids[None, :])

    def quality_pairs(self, workers: Sequence[Worker], tasks: Sequence[Task]) -> np.ndarray:
        """Elementwise scores for aligned worker/task sequences.

        ``workers[i]`` is paired with ``tasks[i]``; the result is the
        diagonal of :meth:`quality_matrix` without materializing the
        outer product — the hook the fused pipeline's cell-join path
        uses to price only reachable pairs.  Scores are bit-identical to the matrix
        entries for the same id pairs.
        """
        if len(workers) != len(tasks):
            raise ValueError(
                f"aligned sequences required, got {len(workers)} workers "
                f"and {len(tasks)} tasks"
            )
        worker_ids = np.abs(np.array([w.id for w in workers], dtype=np.int64))
        task_ids = np.abs(np.array([t.id for t in tasks], dtype=np.int64))
        if worker_ids.size == 0:
            return np.zeros(0)
        return self._scores(worker_ids, task_ids)

    def quality_pairs_by_ids(
        self, worker_ids: np.ndarray, task_ids: np.ndarray
    ) -> np.ndarray:
        """Elementwise scores keyed directly by aligned id arrays.

        Same contract as :meth:`quality_pairs` without the entity
        objects — the hook the sharded candidate builder uses so shard
        workers can price qualities from numpy id gathers instead of
        materializing per-pair Python lists.  Bit-identical to the
        matrix entries for the same id pairs.
        """
        worker_ids = np.abs(np.asarray(worker_ids, dtype=np.int64))
        task_ids = np.abs(np.asarray(task_ids, dtype=np.int64))
        if worker_ids.shape != task_ids.shape:
            raise ValueError(
                f"aligned id arrays required, got shapes {worker_ids.shape} "
                f"and {task_ids.shape}"
            )
        if worker_ids.size == 0:
            return np.zeros(0)
        return self._scores(worker_ids, task_ids)

    def _scores(self, worker_ids: np.ndarray, task_ids: np.ndarray) -> np.ndarray:
        """Gaussian-in-range scores for broadcastable id arrays."""
        # Both uniforms in one pass: the salts run along a new leading axis.
        salts = np.array([self._seed, self._seed + np.uint64(0x1234567)], dtype=np.uint64)
        ndim = max(np.ndim(worker_ids), np.ndim(task_ids))
        u1, u2 = _hash_uniform(worker_ids, task_ids, salts.reshape((2,) + (1,) * ndim))
        gaussians = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return np.clip(self._center + self._std * gaussians, self._low, self._high)

    def prior(self) -> tuple[float, float, float, float]:
        """``(mean, variance, lower, upper)`` of the score distribution."""
        return (self._center, self._std * self._std, self._low, self._high)
