"""Candidate worker-and-task pairs, scalar and columnar forms.

:class:`CandidatePair` is the user-facing object (what assignments are
reported as); :class:`PairPool` is the columnar (structure-of-arrays)
form the assignment algorithms operate on — one row per *valid* pair,
with the cost/quality summarized by (mean, variance, lower, upper)
columns and the existence probability of Section III-B attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.model.entities import Task, Worker
from repro.uncertainty.values import UncertainValue


@dataclass(frozen=True)
class DensePairMatrices:
    """Dense ``(worker, task)`` matrices over one pool row subset.

    The optimal-matching baselines and the micro-benches consume pairs
    as matrices; building those cell by cell from :class:`CandidatePair`
    objects was the old per-pair hot path.  This is the bulk form: one
    scatter from the pool columns produces every matrix at once, and
    the owning :class:`~repro.model.instance.ProblemInstance` caches the
    result so repeated candidate evaluations at the same time instance
    share it.

    Attributes:
        worker_ids / task_ids: sorted pool worker/task indices that
            appear in the subset; matrix axis ``0`` / ``1`` follows
            their order.
        row_index: pool row of each cell, ``-1`` where no valid pair.
        quality: expected quality per cell, ``-inf`` where no pair.
    """

    worker_ids: np.ndarray
    task_ids: np.ndarray
    row_index: np.ndarray
    quality: np.ndarray

    @cached_property
    def assignment_cost(self) -> np.ndarray:
        """Min-cost form of ``quality`` for the Hungarian solver.

        Precomputed once per instance so every ``hungarian_max_weight``
        call on the same matrices skips rebuilding the negation.
        """
        from repro.matching.hungarian import max_weight_cost_matrix

        return max_weight_cost_matrix(self.quality)

    def rows_of_cells(self, cells: list[tuple[int, int]]) -> list[int]:
        """Pool rows backing the given ``(row, col)`` matrix cells."""
        if not cells:
            return []
        index = np.asarray(cells, dtype=np.int64)
        return [int(r) for r in self.row_index[index[:, 0], index[:, 1]]]


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """A valid worker-and-task assignment pair ``<w_i, t_j>``.

    For current-current pairs ``cost`` and ``quality`` are certain and
    ``existence`` is 1; pairs involving predicted entities carry the
    derived distributions and existence probability.
    """

    worker: Worker
    task: Task
    cost: UncertainValue
    quality: UncertainValue
    existence: float = 1.0

    @property
    def is_current(self) -> bool:
        """True when both endpoints exist right now (materializable)."""
        return self.worker.is_current and self.task.is_current


class PoolPart(NamedTuple):
    """Aligned columns of some rows of a :class:`PairPool`.

    ``cost`` and ``quality`` are ``(mean, var, lb, ub)``;
    ``is_current`` is one flag for every row of the part, or one per row.
    """

    worker_idx: np.ndarray
    task_idx: np.ndarray
    cost: tuple
    quality: tuple
    existence: np.ndarray
    is_current: bool | np.ndarray


class PairPool:
    """Columnar pool of valid candidate pairs.

    Attributes (all numpy arrays of one row per pair):
        worker_idx / task_idx: indices into the owning problem's
            ``workers`` / ``tasks`` lists.
        cost_*: traveling-cost summary columns (already scaled by the
            unit price ``C``).
        quality_*: quality-score summary columns (already discounted by
            existence probabilities when the problem is built with
            discounting enabled).
        existence: existence probability of each pair.
        is_current: True where both endpoints are current entities.
    """

    __slots__ = (
        "worker_idx",
        "task_idx",
        "cost_mean",
        "cost_var",
        "cost_lb",
        "cost_ub",
        "quality_mean",
        "quality_var",
        "quality_lb",
        "quality_ub",
        "existence",
        "is_current",
    )

    def __init__(
        self,
        worker_idx: np.ndarray,
        task_idx: np.ndarray,
        cost_mean: np.ndarray,
        cost_var: np.ndarray,
        cost_lb: np.ndarray,
        cost_ub: np.ndarray,
        quality_mean: np.ndarray,
        quality_var: np.ndarray,
        quality_lb: np.ndarray,
        quality_ub: np.ndarray,
        existence: np.ndarray,
        is_current: np.ndarray,
    ) -> None:
        columns = [
            worker_idx,
            task_idx,
            cost_mean,
            cost_var,
            cost_lb,
            cost_ub,
            quality_mean,
            quality_var,
            quality_lb,
            quality_ub,
            existence,
            is_current,
        ]
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"column length mismatch: {sorted(lengths)}")
        self.worker_idx = np.asarray(worker_idx, dtype=np.int64)
        self.task_idx = np.asarray(task_idx, dtype=np.int64)
        self.cost_mean = np.asarray(cost_mean, dtype=float)
        self.cost_var = np.asarray(cost_var, dtype=float)
        self.cost_lb = np.asarray(cost_lb, dtype=float)
        self.cost_ub = np.asarray(cost_ub, dtype=float)
        self.quality_mean = np.asarray(quality_mean, dtype=float)
        self.quality_var = np.asarray(quality_var, dtype=float)
        self.quality_lb = np.asarray(quality_lb, dtype=float)
        self.quality_ub = np.asarray(quality_ub, dtype=float)
        self.existence = np.asarray(existence, dtype=float)
        self.is_current = np.asarray(is_current, dtype=bool)

    @classmethod
    def empty(cls) -> "PairPool":
        """A pool with zero pairs."""
        z = np.zeros(0)
        zi = np.zeros(0, dtype=np.int64)
        zb = np.zeros(0, dtype=bool)
        return cls(zi, zi, z, z, z, z, z, z, z, z, z, zb)

    @classmethod
    def from_parts(cls, parts: list["PoolPart"]) -> "PairPool":
        """One pool from its parts, in order, every column stacked once."""
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([part.worker_idx for part in parts]),
            np.concatenate([part.task_idx for part in parts]),
            *(np.concatenate([part.cost[i] for part in parts]) for i in range(4)),
            *(np.concatenate([part.quality[i] for part in parts]) for i in range(4)),
            np.concatenate([part.existence for part in parts]),
            np.concatenate([np.full(part.worker_idx.shape, part.is_current) for part in parts]),
        )

    @classmethod
    def concatenate(cls, pools: list["PairPool"]) -> "PairPool":
        """Stack several pools into one."""
        return cls.from_parts([
            PoolPart(
                p.worker_idx,
                p.task_idx,
                (p.cost_mean, p.cost_var, p.cost_lb, p.cost_ub),
                (p.quality_mean, p.quality_var, p.quality_lb, p.quality_ub),
                p.existence,
                p.is_current,
            )
            for p in pools
        ])

    def __len__(self) -> int:
        return len(self.worker_idx)

    def subset(self, selector: np.ndarray) -> "PairPool":
        """Pool restricted to a boolean mask or index array."""
        return PairPool(
            self.worker_idx[selector],
            self.task_idx[selector],
            self.cost_mean[selector],
            self.cost_var[selector],
            self.cost_lb[selector],
            self.cost_ub[selector],
            self.quality_mean[selector],
            self.quality_var[selector],
            self.quality_lb[selector],
            self.quality_ub[selector],
            self.existence[selector],
            self.is_current[selector],
        )

    def dense(self, rows: np.ndarray | None = None) -> DensePairMatrices:
        """Scatter a row subset into :class:`DensePairMatrices`.

        Args:
            rows: pool row indices to include (default: every row).
                Each ``(worker, task)`` cell may be backed by at most
                one row — guaranteed for pools built by
                ``build_problem``, which emits one row per valid cell.
        """
        if rows is None:
            rows = np.arange(len(self), dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        worker_ids = np.unique(self.worker_idx[rows])
        task_ids = np.unique(self.task_idx[rows])
        shape = (worker_ids.size, task_ids.size)
        worker_pos = np.searchsorted(worker_ids, self.worker_idx[rows])
        task_pos = np.searchsorted(task_ids, self.task_idx[rows])
        row_index = np.full(shape, -1, dtype=np.int64)
        quality = np.full(shape, -np.inf)
        row_index[worker_pos, task_pos] = rows
        quality[worker_pos, task_pos] = self.quality_mean[rows]
        return DensePairMatrices(
            worker_ids=worker_ids,
            task_ids=task_ids,
            row_index=row_index,
            quality=quality,
        )

    def order_by_weight(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` sorted by descending expected quality.

        Ties broken by lower expected cost, then by row index, so the
        order is a strict total order determined by the row *set*
        alone — the candidate-cap order of the selection algorithms.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return rows[np.lexsort((rows, self.cost_mean[rows], -self.quality_mean[rows]))]

    def cost_value(self, row: int) -> UncertainValue:
        """The cost of pair ``row`` as an :class:`UncertainValue`."""
        return UncertainValue(
            mean=float(self.cost_mean[row]),
            variance=float(self.cost_var[row]),
            lower=float(self.cost_lb[row]),
            upper=float(self.cost_ub[row]),
        )

    def quality_value(self, row: int) -> UncertainValue:
        """The quality of pair ``row`` as an :class:`UncertainValue`."""
        return UncertainValue(
            mean=float(self.quality_mean[row]),
            variance=float(self.quality_var[row]),
            lower=float(self.quality_lb[row]),
            upper=float(self.quality_ub[row]),
        )
