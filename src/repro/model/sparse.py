"""Cell-join candidate primitives of the incremental pool builders.

:class:`~repro.model.delta.DeltaPoolBuilder` and the fused round
pipeline (:mod:`repro.streaming.pipeline`) never materialize a
``W x T`` matrix.  They generate candidate pairs through a *cell join*:
query entities are bucketed by their grid cell, each occupied bucket
issues one gather against a cell-grouped CSR view of the candidate
columns (:class:`_CandidateCSR`, covering every member's reachability
disc at once), and the gathered cross product goes through a cheap
elementwise pass that evaluates the *exact* validity predicate (per-pair
horizon and box-gap lower-bound distance, the same float arithmetic as
the dense :func:`~repro.model.instance.build_problem`).  Only the
surviving, genuinely reachable pairs reach the expensive pricing
kernels, which is what :attr:`SparseBuildStats.candidates` counts; the
raw cross-product size is tracked separately as ``gathered``.

The cell filter is a superset of the exact predicate (slack
``_RADIUS_SLACK`` absorbs float rounding) and every per-pair quantity
is an elementwise function of the operands the dense kernel uses, so
the pools built from these primitives equal the dense kernel's bit for
bit.  The dense kernel is the oracle the differential tests compare
them against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.geo.grid import GridIndex
from repro.model.entities import Task, Worker
from repro.model.quality import QualityModel
from repro.uncertainty.vector import _interval_gap_vec

#: Multiplicative + additive slack on query radii and prefilter bounds
#: so float rounding can never exclude an exactly-reachable candidate.
_RADIUS_SLACK = 1e-9

_EMPTY_IDX = np.zeros(0, dtype=np.int64)


@dataclass
class SparseBuildStats:
    """Work counters of one (or many) round builds.

    Attributes:
        candidates: pairs that reached the expensive pricing kernels
            (delta-method distance statistics, quality scoring).  The
            cheap cell-join scan evaluates the exact validity predicate
            first, so this counts the genuinely reachable pairs.  A
            round built by the dense kernel counts every dense pair:
            its validity masks examine them all.
        gathered: cross-product pairs touched by the cheap cell-join
            scan (a few flops each) before the validity cut.
        emitted: valid pairs that entered the pool.
        dense_equivalent: pairs the dense builder would have
            materialized for the same inputs (``n*m + k*m + n*l`` and
            ``k*l`` when future-future pairs are enabled).
        queries: cell-join gathers issued, one per occupied query
            cell.
        price_seconds: wall-clock spent in the expensive pricing
            kernels (delta-method distance statistics and quality
            scoring) — the ``price_ms`` slice of the bench phase
            breakdown.  A dense-kernel round books its whole build.
    """

    candidates: int = 0
    gathered: int = 0
    emitted: int = 0
    dense_equivalent: int = 0
    queries: int = 0
    price_seconds: float = 0.0

    def merge(self, other: "SparseBuildStats") -> None:
        self.candidates += other.candidates
        self.gathered += other.gathered
        self.emitted += other.emitted
        self.dense_equivalent += other.dense_equivalent
        self.queries += other.queries
        self.price_seconds += other.price_seconds


def _reach(intervals, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Farthest-corner distance from each entity's location to its box.

    Zero for degenerate (current-entity) boxes; bounds how far the
    validity-relevant box can extend beyond the indexed location, so
    query radii inflated by it keep the cell filter a superset, and
    ``|a - b| - reach_a - reach_b`` lower-bounds the box distance
    (triangle inequality), which makes the center-distance prefilter a
    superset too.
    """
    x_lo, x_hi, y_lo, y_hi = intervals
    dx = np.maximum(np.abs(x_lo - xs), np.abs(x_hi - xs))
    dy = np.maximum(np.abs(y_lo - ys), np.abs(y_hi - ys))
    return np.hypot(dx, dy)


def _pair_quality(
    quality_model: QualityModel,
    workers: Sequence[Worker],
    tasks: Sequence[Task],
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Quality scores of the ``(rows[i], cols[i])`` pairs.

    Uses the model's elementwise ``quality_pairs`` hook when available
    (bit-identical to the matrix entries); otherwise falls back to one
    ``quality_matrix`` call per distinct worker run.  Both paths rely
    on the :class:`~repro.model.quality.QualityModel` contract that a
    score is a pure function of the pair — a position-dependent model
    would diverge silently here and must use the dense builder.
    """
    if rows.size == 0:
        return np.zeros(0)
    pairs_hook = getattr(quality_model, "quality_pairs", None)
    if pairs_hook is not None:
        return np.asarray(
            pairs_hook([workers[int(i)] for i in rows], [tasks[int(j)] for j in cols]),
            dtype=float,
        )
    values = np.empty(rows.size)
    boundaries = np.flatnonzero(np.diff(rows)) + 1
    for start, stop in zip(
        np.concatenate(([0], boundaries)), np.concatenate((boundaries, [rows.size]))
    ):
        worker = workers[int(rows[start])]
        run_tasks = [tasks[int(j)] for j in cols[start:stop]]
        values[start:stop] = quality_model.quality_matrix([worker], run_tasks)[0]
    return values


# ---------------------------------------------------------------------------
# Batched cell-join candidate generation
# ---------------------------------------------------------------------------


def _concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], ends[i])`` integer ranges, vectorized.

    The workhorse of the cell join: turns per-segment (cell window,
    bucket slice, per-entity candidate slice) bounds into one flat
    index array without a Python loop.
    """
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY_IDX
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return offsets + np.arange(total, dtype=np.int64)


@dataclass(frozen=True)
class _CandidateCSR:
    """Cell-grouped candidate columns: the batched query target.

    ``cols[starts[i]:starts[i+1]]`` are the candidate columns bucketed
    in occupied cell ``cells[i]`` (sorted).  Built from raw
    coordinates, then spliced in place of a rebuild as columns come
    and go.
    """

    grid: GridIndex
    cells: np.ndarray
    starts: np.ndarray
    cols: np.ndarray

    @classmethod
    def from_coordinates(cls, xs: np.ndarray, ys: np.ndarray, gamma: int) -> "_CandidateCSR":
        grid = GridIndex(gamma)
        cell_of_col = grid.cells_of_coordinates(xs, ys)
        order = np.argsort(cell_of_col, kind="stable").astype(np.int64)
        sorted_cells = cell_of_col[order]
        cells, first = np.unique(sorted_cells, return_index=True)
        starts = np.concatenate((first, [sorted_cells.size])).astype(np.int64)
        return cls(grid, cells, starts, order)

    @classmethod
    def empty(cls, grid: GridIndex) -> "_CandidateCSR":
        return cls(
            grid,
            np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )

    def remove_columns(self, keep: np.ndarray) -> "_CandidateCSR":
        """Splice out columns, renumbering the survivors.

        ``keep`` is a boolean mask over the column-id space; surviving
        column values compact to ``cumsum(keep) - 1``, matching a
        caller that drops the same rows from its aligned column
        arrays.  Emptied cells are dropped.  The delta pool builder
        uses this when entities expire or get assigned.
        """
        if self.cols.size == 0:
            return _CandidateCSR.empty(self.grid)
        keep = np.asarray(keep, dtype=bool)
        kept = keep[self.cols]
        lengths = np.add.reduceat(kept, self.starts[:-1])
        keep_cell = lengths > 0
        starts = np.zeros(int(keep_cell.sum()) + 1, dtype=np.int64)
        np.cumsum(lengths[keep_cell], out=starts[1:])
        cols = (np.cumsum(keep) - 1)[self.cols[kept]]
        return _CandidateCSR(
            self.grid,
            self.cells[keep_cell],
            starts,
            cols.astype(np.int64),
        )

    def insert_columns(self, cells_of_new: np.ndarray, new_cols: np.ndarray) -> "_CandidateCSR":
        """Splice new columns (cell of each in ``cells_of_new``) in.

        The merge re-groups by cell with one stable argsort over the
        combined entries; within-cell order is unspecified, which is
        fine for every caller — the batched joins canonicalize their
        output with a full ``(row, col)`` lexsort.
        """
        if new_cols.size == 0:
            return self
        lengths = np.diff(self.starts)
        combined_cells = np.concatenate(
            (np.repeat(self.cells, lengths), np.asarray(cells_of_new, dtype=np.int64))
        )
        combined_cols = np.concatenate((self.cols, np.asarray(new_cols, dtype=np.int64)))
        order = np.argsort(combined_cells, kind="stable").astype(np.int64)
        sorted_cells = combined_cells[order]
        cells, first = np.unique(sorted_cells, return_index=True)
        starts = np.concatenate((first, [sorted_cells.size])).astype(np.int64)
        return _CandidateCSR(self.grid, cells, starts, combined_cols[order])

    def join(
        self,
        qx: np.ndarray,
        qy: np.ndarray,
        radius: np.ndarray,
        stats: SparseBuildStats,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-level cell join: every (query row, candidate column)
        pair whose candidate cell intersects the row's query disc — the
        primitive the delta builder uses to (re)join individual rows
        against the maintained CSR."""
        return _cell_join(self, qx, qy, radius, stats)


def _cell_join(
    csr: _CandidateCSR,
    qx: np.ndarray,
    qy: np.ndarray,
    radius: np.ndarray,
    local: SparseBuildStats,
) -> tuple[np.ndarray, np.ndarray]:
    """All (query entity, candidate column) pairs at cell granularity.

    Query entities are grouped by their cell of the candidate grid;
    each occupied cell issues one gather covering every member's disc
    (group-max radius plus the cell's half diagonal, so the group
    gather is a superset of each member's own cell filter).  Returns
    the cross product of each group's members with its gathered
    candidates — a superset of every per-entity cell query, trimmed
    down by the callers' exact per-pair filters.
    """
    if qx.size == 0 or csr.cols.size == 0:
        return _EMPTY_IDX, _EMPTY_IDX
    grid = csr.grid
    gamma = grid.gamma
    side = grid.cell_side

    q_cell = grid.cells_of_coordinates(qx, qy)
    order = np.argsort(q_cell, kind="stable").astype(np.int64)
    sorted_cells = q_cell[order]
    group_cells, first = np.unique(sorted_cells, return_index=True)
    members_per_group = np.diff(np.concatenate((first, [sorted_cells.size])))
    num_groups = group_cells.size
    local.queries += int(num_groups)

    # Covering radius per group: any candidate within a member's disc
    # lies within group-max radius + half diagonal of the cell center.
    group_radius = np.maximum.reduceat(radius[order], first)
    cover = group_radius * (1.0 + _RADIUS_SLACK) + _RADIUS_SLACK + np.hypot(side, side) / 2.0

    # Window bounds need no extra cell of padding: ``cover`` carries an
    # absolute 1e-9 slack, orders of magnitude above the rounding of
    # the products below, so the floor can never fall short of a cell
    # that holds an in-radius candidate.
    g_row, g_col = np.divmod(group_cells, gamma)
    cx = (g_col + 0.5) * side
    cy = (g_row + 0.5) * side
    col_lo = np.clip(np.floor((cx - cover) * gamma).astype(np.int64), 0, gamma - 1)
    col_hi = np.clip(np.floor((cx + cover) * gamma).astype(np.int64), 0, gamma - 1)
    row_lo = np.clip(np.floor((cy - cover) * gamma).astype(np.int64), 0, gamma - 1)
    row_hi = np.clip(np.floor((cy + cover) * gamma).astype(np.int64), 0, gamma - 1)

    # Expand each group's cell window into (group, grid-row) segments,
    # then each segment into a run of occupied-cell positions.
    rows_per_group = row_hi - row_lo + 1
    g_of_seg = np.repeat(np.arange(num_groups, dtype=np.int64), rows_per_group)
    seg_row = _concat_ranges(row_lo, row_hi + 1)
    seg_start = np.searchsorted(csr.cells, seg_row * gamma + col_lo[g_of_seg], side="left")
    seg_end = np.searchsorted(csr.cells, seg_row * gamma + col_hi[g_of_seg], side="right")
    cell_pos = _concat_ranges(seg_start, seg_end)

    # Candidate columns of every gathered cell, still grouped by query
    # cell; count them per group through the nested segment sums.
    bucket_start = csr.starts[cell_pos]
    bucket_end = csr.starts[cell_pos + 1]
    cand_pos = _concat_ranges(bucket_start, bucket_end)

    cand_cum = np.concatenate(([0], np.cumsum(bucket_end - bucket_start)))
    seg_bounds = np.concatenate(([0], np.cumsum(seg_end - seg_start)))
    per_seg = cand_cum[seg_bounds[1:]] - cand_cum[seg_bounds[:-1]]
    seg_per_group = np.concatenate(([0], np.cumsum(rows_per_group)))
    per_seg_cum = np.concatenate(([0], np.cumsum(per_seg)))
    cand_per_group = per_seg_cum[seg_per_group[1:]] - per_seg_cum[seg_per_group[:-1]]

    # Cross product: every member of a group meets every candidate the
    # group gathered.
    group_of_member = np.repeat(np.arange(num_groups, dtype=np.int64), members_per_group)
    per_member = cand_per_group[group_of_member]
    group_offset = np.concatenate(([0], np.cumsum(cand_per_group)))[:-1]
    member_start = group_offset[group_of_member]
    pair_rows = np.repeat(order, per_member)
    pair_cols = csr.cols[cand_pos[_concat_ranges(member_start, member_start + per_member)]]
    return pair_rows, pair_cols


def _uncertain_pairs_batched(
    csr: _CandidateCSR,
    xs: np.ndarray,
    ys: np.ndarray,
    vel: np.ndarray,
    arr: np.ndarray,
    intervals,
    reach: np.ndarray,
    t_intervals,
    t_deadline: np.ndarray,
    t_arr: np.ndarray,
    deadline_max: float,
    target_reach: float,
    now: float,
    local: SparseBuildStats,
):
    """Batched generation of one predicted-pair family.

    One cell join per family.  The cheap scan evaluates the *exact*
    validity predicate over the cross product: the lower-bound box
    distance ``d_lb`` is a handful of elementwise gap operations (the
    same float arithmetic :func:`distance_stats_aligned` uses, so the
    decision is bit-identical to the dense builder's), leaving the
    delta-method moment pricing to run once over the surviving pairs.
    Returns ``(rows, cols)`` in row-major order, unpriced: the caller
    prices only the pairs that survive its reservation filter.
    """
    horizon_bound = np.maximum(0.0, deadline_max - np.maximum(now, arr))
    radius = vel * horizon_bound + reach + target_reach
    rows, cols = _cell_join(csr, xs, ys, radius, local)
    if rows.size == 0:
        return _EMPTY_IDX, _EMPTY_IDX
    local.gathered += int(rows.size)
    departure = np.maximum(now, np.maximum(arr[rows], t_arr[cols]))
    horizon = t_deadline[cols] - departure
    wx_lo, wx_hi, wy_lo, wy_hi = (axis[rows] for axis in intervals)
    tx_lo, tx_hi, ty_lo, ty_hi = (axis[cols] for axis in t_intervals)
    d_lb = np.hypot(
        _interval_gap_vec(wx_lo, wx_hi, tx_lo, tx_hi),
        _interval_gap_vec(wy_lo, wy_hi, ty_lo, ty_hi),
    )
    valid = (horizon > 0.0) & (d_lb <= horizon * vel[rows])
    rows, cols = rows[valid], cols[valid]
    local.candidates += int(rows.size)
    if rows.size == 0:
        return _EMPTY_IDX, _EMPTY_IDX
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]
