"""Output-sensitive candidate-pair construction via a spatial index.

:func:`build_problem_sparse` assembles the same four pair families as
:func:`repro.model.instance.build_problem` — and produces a pool that
is row-for-row, bit-for-bit identical to the dense builder's on the
same inputs — but never materializes a ``W x T`` matrix.

Candidate generation is *batched and cell-grouped*: query entities are
bucketed by their grid cell, each occupied bucket issues one cell-join
gather against a CSR view of the candidate index (covering every
member's reachability disc at once), and all (entity, candidate) pairs
of the whole family are prefiltered and priced in single NumPy calls.
A per-entity reference implementation (``batch_queries=False``) keeps
the original one-query-per-entity loops for differential testing.

The batched scan is two-tier: the *cell filter* gathers only candidate
cells intersecting each bucket's covering disc, and a cheap elementwise
pass evaluates the *exact* validity predicate (per-pair horizon and
box-gap lower-bound distance, the same float arithmetic as the dense
builder) over the gathered cross product.  Only the surviving —
genuinely reachable — pairs reach the expensive pricing kernels
(delta-method distance statistics, quality estimation), which is what
``SparseBuildStats.candidates`` counts; the raw cross-product size is
tracked separately as ``gathered``.

Bit-identity with the dense builder holds because every per-pair
quantity is an elementwise function of the same operands the dense
path uses (numpy elementwise kernels are value-deterministic across
shapes), both filters are provably supersets of the exact validity
predicate (slack ``_RADIUS_SLACK`` absorbs float rounding), pairs are
emitted in the dense builder's row-major order, and the Section III-B
sample statistics are produced by the shared
:func:`~repro.model.instance.quality_sample_stats` accumulator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.geo.grid import GridIndex
from repro.geo.spatial_index import SpatialIndex
from repro.model.entities import Task, Worker
from repro.model.instance import (
    ProblemInstance,
    _box_intervals,
    _predicted_family_coupling,
    _task_columns,
    _triplet_pool,
    _worker_columns,
    quality_sample_stats,
    validate_predicted_flags,
)
from repro.model.pairs import PairPool
from repro.obs.metrics import monotonic
from repro.model.quality import QualityModel
from repro.uncertainty.vector import (
    _interval_gap_vec,
    distance_stats_aligned,
    distance_stats_vec,
)

#: Multiplicative + additive slack on query radii and prefilter bounds
#: so float rounding can never exclude an exactly-reachable candidate.
_RADIUS_SLACK = 1e-9

_EMPTY_IDX = np.zeros(0, dtype=np.int64)


@dataclass
class SparseBuildStats:
    """Work counters of one (or many) sparse builds.

    Attributes:
        candidates: pairs that reached the expensive pricing kernels
            (delta-method distance statistics, quality scoring).  In
            batched mode the cheap cell-join scan evaluates the exact
            validity predicate first, so this counts the genuinely
            reachable pairs; the per-entity reference mode prices
            every cell-level candidate and counts them all.  A round
            built by the dense kernel counts every dense pair: its
            validity masks examine them all.
        gathered: cross-product pairs touched by the cheap cell-join
            scan (a few flops each) before the validity cut.  Equal to
            ``candidates`` in per-entity mode.
        emitted: valid pairs that entered the pool.
        dense_equivalent: pairs the dense builder would have
            materialized for the same inputs (``n*m + k*m + n*l`` and
            ``k*l`` when future-future pairs are enabled).
        queries: candidate-index gathers issued — one per query entity
            in per-entity mode, one per occupied query cell in batched
            mode.
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


def _default_index_gamma(count: int) -> int:
    """Grid resolution heuristic: about one bucket per indexed point."""
    return max(1, min(64, int(math.sqrt(max(count, 1)))))


def _build_task_index(xs: np.ndarray, ys: np.ndarray, gamma: int) -> SpatialIndex:
    index = SpatialIndex(GridIndex(gamma))
    for col in range(xs.size):
        # Points come from entity locations already validated to the
        # unit square by the workloads; cell_of re-checks.
        index.insert(col, _IndexPoint(float(xs[col]), float(ys[col])))
    return index


@dataclass(frozen=True, slots=True)
class _IndexPoint:
    """Minimal Point-alike so bulk inserts skip Point construction."""

    x: float
    y: float


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
    in occupied cell ``cells[i]`` (sorted).  Built either from raw
    coordinates (per-call indexes) or from a maintained
    :class:`SpatialIndex` snapshot (the streaming engine's incremental
    current-task index).
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

    @classmethod
    def from_index(cls, index: SpatialIndex, key_to_col: dict[int, int]) -> "_CandidateCSR":
        cells, starts, keys = index.snapshot()
        try:
            cols = np.fromiter(
                (key_to_col[int(k)] for k in keys), dtype=np.int64, count=keys.size
            )
        except KeyError as exc:
            raise ValueError(
                f"task_index contains key {exc.args[0]!r} that is not a current task id"
            ) from exc
        return cls(index.grid, cells, starts, cols)


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


def _current_pairs_batched(
    csr: _CandidateCSR,
    wx: np.ndarray,
    wy: np.ndarray,
    w_vel: np.ndarray,
    w_arr: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
    t_deadline: np.ndarray,
    t_arr: np.ndarray,
    t_deadline_max: float,
    now: float,
    local: SparseBuildStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched ``<w, t>`` generation: one cell join, one exact scan.

    The scan applies the dense builder's exact validity predicate
    (same float arithmetic) directly over the gathered cross product;
    survivors are the certain pairs whose quality gets priced.
    """
    horizon_bound = np.maximum(0.0, t_deadline_max - np.maximum(now, w_arr))
    radius = w_vel * horizon_bound
    rows, cols = _cell_join(csr, wx, wy, radius, local)
    if rows.size == 0:
        return _EMPTY_IDX, _EMPTY_IDX, np.zeros(0)
    local.gathered += int(rows.size)
    dist = np.hypot(wx[rows] - tx[cols], wy[rows] - ty[cols])
    departure = np.maximum(now, np.maximum(w_arr[rows], t_arr[cols]))
    horizon = t_deadline[cols] - departure
    valid = (horizon > 0.0) & (dist <= horizon * w_vel[rows])
    rows, cols, dist = rows[valid], cols[valid], dist[valid]
    local.candidates += int(rows.size)
    # Row-major order, matching the dense builder's np.nonzero walk.
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], dist[order]


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
    Returns ``(rows, cols, None)`` in row-major order — ``None``
    signals the caller to price after its reservation filter, via
    :func:`_price_distance`.
    """
    horizon_bound = np.maximum(0.0, deadline_max - np.maximum(now, arr))
    radius = vel * horizon_bound + reach + target_reach
    rows, cols = _cell_join(csr, xs, ys, radius, local)
    empty = (_EMPTY_IDX, _EMPTY_IDX, None)
    if rows.size == 0:
        return empty
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
        return empty
    order = np.lexsort((cols, rows))
    # Pricing is deferred (d_stats None): the caller runs the moment
    # kernels only on the pairs surviving the reservation filter.
    return rows[order], cols[order], None


def _price_distance(
    w_intervals,
    t_intervals,
    rows: np.ndarray,
    cols: np.ndarray,
    stats: SparseBuildStats | None = None,
):
    """Delta-method distance statistics of the ``(rows, cols)`` pairs.

    Recomputes the identical ``d_lb`` the validity scan used
    (elementwise, value-deterministic) along with mean/variance/upper.
    Accumulates its wall-clock into ``stats.price_seconds`` when given.
    """
    started = monotonic()
    w_iv = tuple(axis[rows] for axis in w_intervals)
    t_iv = tuple(axis[cols] for axis in t_intervals)
    priced = distance_stats_aligned(w_iv, t_iv)
    if stats is not None:
        stats.price_seconds += monotonic() - started
    return priced


# ---------------------------------------------------------------------------
# Per-entity reference loops (differential baseline for the batched path)
# ---------------------------------------------------------------------------


def _gather_candidates(
    index: SpatialIndex,
    key_to_col: dict[int, int] | None,
    x: float,
    y: float,
    radius: float,
) -> np.ndarray:
    """Sorted candidate columns for one query disc."""
    keys = index.candidates_in_radius(
        _IndexPoint(x, y), radius * (1.0 + _RADIUS_SLACK) + _RADIUS_SLACK
    )
    if key_to_col is None or keys.size == 0:
        return keys
    try:
        cols = np.fromiter(
            (key_to_col[int(k)] for k in keys), dtype=np.int64, count=keys.size
        )
    except KeyError as exc:
        raise ValueError(
            f"task_index contains key {exc.args[0]!r} that is not a current task id"
        ) from exc
    cols.sort()
    return cols


def _current_pairs_perentity(
    index: SpatialIndex,
    key_to_col: dict[int, int] | None,
    wx: np.ndarray,
    wy: np.ndarray,
    w_vel: np.ndarray,
    w_arr: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
    t_deadline: np.ndarray,
    t_arr: np.ndarray,
    t_deadline_max: float,
    now: float,
    local: SparseBuildStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference ``<w, t>`` loop: one index query per current worker."""
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    dist_parts: list[np.ndarray] = []
    for i in range(wx.size):
        horizon_bound = max(0.0, t_deadline_max - max(now, float(w_arr[i])))
        radius = float(w_vel[i]) * horizon_bound
        local.queries += 1
        cols = _gather_candidates(index, key_to_col, float(wx[i]), float(wy[i]), radius)
        if cols.size == 0:
            continue
        local.candidates += int(cols.size)
        local.gathered += int(cols.size)
        dist = np.hypot(wx[i] - tx[cols], wy[i] - ty[cols])
        departure = np.maximum(now, np.maximum(w_arr[i], t_arr[cols]))
        horizon = t_deadline[cols] - departure
        valid = (horizon > 0.0) & (dist <= horizon * w_vel[i])
        if not valid.any():
            continue
        rows_parts.append(np.full(int(valid.sum()), i, dtype=np.int64))
        cols_parts.append(cols[valid])
        dist_parts.append(dist[valid])
    if not rows_parts:
        return _EMPTY_IDX, _EMPTY_IDX, np.zeros(0)
    return (
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(dist_parts),
    )


def _reachable_uncertain_pairs(
    xs: np.ndarray,
    ys: np.ndarray,
    vel: np.ndarray,
    arr: np.ndarray,
    intervals,
    reach: np.ndarray,
    index: SpatialIndex,
    key_to_col: dict[int, int] | None,
    t_intervals,
    t_deadline: np.ndarray,
    t_arr: np.ndarray,
    deadline_max: float,
    target_reach: float,
    now: float,
    local: SparseBuildStats,
):
    """Reference query loop of the three predicted-pair families.

    For every query entity: bound the reachability radius (velocity x
    remaining horizon, inflated by the kernel-box reaches on both
    sides), gather candidate columns from the index, price them with
    ``distance_stats_vec``, and keep the pairs passing the dense
    builder's exact validity predicate ``d_lb <= horizon * velocity``.
    Returns ``(rows, cols, (d_mean, d_var, d_lb, d_ub))`` in row-major
    order — bit-identical to the batched path.
    """
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    d_parts: list[tuple[np.ndarray, ...]] = []
    for i in range(xs.size):
        horizon_bound = max(0.0, deadline_max - max(now, float(arr[i])))
        radius = float(vel[i]) * horizon_bound + float(reach[i]) + target_reach
        local.queries += 1
        cols = _gather_candidates(index, key_to_col, float(xs[i]), float(ys[i]), radius)
        if cols.size == 0:
            continue
        local.candidates += int(cols.size)
        local.gathered += int(cols.size)
        w_iv = tuple(axis[i : i + 1] for axis in intervals)
        t_iv = tuple(axis[cols] for axis in t_intervals)
        d_mean, d_var, d_lb, d_ub = (a[0] for a in distance_stats_vec(w_iv, t_iv))
        departure = np.maximum(now, np.maximum(arr[i], t_arr[cols]))
        horizon = t_deadline[cols] - departure
        valid = (horizon > 0.0) & (d_lb <= horizon * vel[i])
        if not valid.any():
            continue
        rows_parts.append(np.full(int(valid.sum()), i, dtype=np.int64))
        cols_parts.append(cols[valid])
        d_parts.append((d_mean[valid], d_var[valid], d_lb[valid], d_ub[valid]))
    if not rows_parts:
        return _EMPTY_IDX, _EMPTY_IDX, tuple(np.zeros(0) for _ in range(4))
    return (
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        tuple(np.concatenate([p[c] for p in d_parts]) for c in range(4)),
    )


def build_problem_sparse(
    current_workers: Sequence[Worker],
    current_tasks: Sequence[Task],
    predicted_workers: Sequence[Worker],
    predicted_tasks: Sequence[Task],
    quality_model: QualityModel,
    unit_cost: float,
    now: float,
    discount_by_existence: bool = True,
    reservation_filter: bool = True,
    include_future_future_pairs: bool = True,
    exact_predicted_quality: bool = False,
    task_index: SpatialIndex | None = None,
    index_gamma: int | None = None,
    stats: SparseBuildStats | None = None,
    batch_queries: bool = True,
) -> ProblemInstance:
    """Sparse, index-driven equivalent of ``build_problem``.

    Accepts the dense builder's arguments plus:

    Args:
        task_index: an incrementally maintained index over the
            *current tasks*, keyed by task id (the streaming engine's
            candidate index).  When omitted, a per-call cell-grouped
            view is built in O(|T|).
        index_gamma: grid resolution for per-call indexes (default: a
            square-root heuristic on the indexed count).
        stats: optional work counters, accumulated in place.
        batch_queries: generate candidates through bucketed cell-join
            queries priced in bulk (the default); ``False`` selects
            the per-entity reference loops, which emit a bit-identical
            pool at one index query per entity (the differential
            baseline; its ``stats.candidates`` counts cell-level
            candidates instead of prefiltered ones).

    Entity locations must lie in the unit square (the data space every
    workload maps into); the dense builder has no such requirement.
    """
    if unit_cost < 0.0:
        raise ValueError(f"unit cost must be non-negative, got {unit_cost}")
    validate_predicted_flags(predicted_workers, predicted_tasks)

    n, m = len(current_workers), len(current_tasks)
    k, l = len(predicted_workers), len(predicted_tasks)
    local = SparseBuildStats()
    local.dense_equivalent = n * m + k * m + n * l
    if include_future_future_pairs:
        local.dense_equivalent += k * l
    pools: list[PairPool] = []

    prior = quality_model.prior()

    ct_csr: _CandidateCSR | None = None
    if m:
        tx, ty, t_deadline, t_arr = _task_columns(current_tasks)
        t_intervals = _box_intervals(current_tasks)
        t_deadline_max = float(t_deadline.max())
        max_t_reach = float(_reach(t_intervals, tx, ty).max())
        if task_index is None:
            gamma = index_gamma or _default_index_gamma(m)
            key_to_col: dict[int, int] | None = None
            if batch_queries:
                ct_csr = _CandidateCSR.from_coordinates(tx, ty, gamma)
            else:
                task_index = _build_task_index(tx, ty, gamma)
        else:
            if len(task_index) != m:
                raise ValueError(
                    f"task_index holds {len(task_index)} entries for "
                    f"{m} current tasks"
                )
            key_to_col = {task.id: col for col, task in enumerate(current_tasks)}
            if batch_queries:
                ct_csr = _CandidateCSR.from_index(task_index, key_to_col)
    else:
        tx = ty = t_deadline = t_arr = np.zeros(0)
        t_intervals = (np.zeros(0),) * 4
        t_deadline_max = -np.inf
        max_t_reach = 0.0
        key_to_col = None

    if n:
        wx, wy, w_vel, w_arr = _worker_columns(current_workers)
    if k:
        pw_intervals = _box_intervals(predicted_workers)
        pwx, pwy, pw_vel, pw_arr = _worker_columns(predicted_workers)
        pw_reach = _reach(pw_intervals, pwx, pwy)

    # ---- current x current -------------------------------------------------
    if n and m:
        if batch_queries:
            cc_rows, cc_cols, cc_dist = _current_pairs_batched(
                ct_csr, wx, wy, w_vel, w_arr,
                tx, ty, t_deadline, t_arr, t_deadline_max, now, local,
            )
        else:
            cc_rows, cc_cols, cc_dist = _current_pairs_perentity(
                task_index, key_to_col, wx, wy, w_vel, w_arr,
                tx, ty, t_deadline, t_arr, t_deadline_max, now, local,
            )
    else:
        cc_rows = cc_cols = _EMPTY_IDX
        cc_dist = np.zeros(0)
    _price_started = monotonic()
    cc_quality = _pair_quality(
        quality_model, current_workers, current_tasks, cc_rows, cc_cols
    )
    local.price_seconds += monotonic() - _price_started
    if cc_rows.size:
        cost_cc = unit_cost * cc_dist
        zeros = np.zeros_like(cc_dist)
        pools.append(
            _triplet_pool(
                cc_rows,
                cc_cols,
                worker_offset=0,
                task_offset=0,
                cost=(cost_cc, zeros, cost_cc, cost_cc),
                quality=(cc_quality, zeros, cc_quality, cc_quality),
                existence=np.ones_like(cc_dist),
                is_current=True,
            )
        )
        local.emitted += int(cc_rows.size)

    # ---- quality samples from the current instance (Cases 1-3) ------------
    stats_cc = quality_sample_stats(cc_rows, cc_cols, cc_quality, n, m, prior)
    exist_task = np.minimum(stats_cc.task_count / max(n, 1), 1.0)
    exist_worker = np.minimum(stats_cc.worker_count / max(m, 1), 1.0)

    def _emit_predicted_block(
        rows: np.ndarray,
        cols: np.ndarray,
        d_stats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        quality: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        existence: np.ndarray,
        worker_offset: int,
        task_offset: int,
    ) -> None:
        d_mean, d_var, d_lb, d_ub = d_stats
        pools.append(
            _triplet_pool(
                rows,
                cols,
                worker_offset=worker_offset,
                task_offset=task_offset,
                cost=(
                    unit_cost * d_mean,
                    unit_cost**2 * d_var,
                    unit_cost * d_lb,
                    unit_cost * d_ub,
                ),
                quality=quality,
                existence=existence,
                is_current=False,
            )
        )
        local.emitted += int(rows.size)

    def _family(query_side, target_side):
        """Dispatch one predicted-pair family to the active query mode."""
        xs, ys, vel, arr, intervals, reach = query_side
        (csr, index, keys, t_iv, deadlines, arrivals,
         deadline_max, target_reach) = target_side
        if batch_queries:
            return _uncertain_pairs_batched(
                csr, xs, ys, vel, arr, intervals, reach,
                t_iv, deadlines, arrivals, deadline_max, target_reach,
                now, local,
            )
        return _reachable_uncertain_pairs(
            xs, ys, vel, arr, intervals, reach, index, keys,
            t_iv, deadlines, arrivals, deadline_max, target_reach,
            now, local,
        )

    # ---- predicted workers x current tasks --------------------------------
    if k and m:
        current_target = (
            ct_csr, task_index, key_to_col, t_intervals, t_deadline, t_arr,
            t_deadline_max, max_t_reach,
        )
        rows, cols, d_stats = _family(
            (pwx, pwy, pw_vel, pw_arr, pw_intervals, pw_reach), current_target
        )
        if rows.size:
            existence = exist_task[cols]
            exact_q = (
                _pair_quality(quality_model, predicted_workers, current_tasks, rows, cols)
                if exact_predicted_quality
                else None
            )
            quality, keep = _predicted_family_coupling(
                stats_cc, "task", cols, existence,
                discount_by_existence, reservation_filter, exact_q,
            )
            if keep is not None:
                rows, cols = rows[keep], cols[keep]
                if d_stats is not None:
                    d_stats = tuple(a[keep] for a in d_stats)
                quality = tuple(a[keep] for a in quality)
                existence = existence[keep]
            if d_stats is None:
                d_stats = _price_distance(pw_intervals, t_intervals, rows, cols, local)
            _emit_predicted_block(
                rows, cols, d_stats, quality, existence, worker_offset=n, task_offset=0
            )

    # ---- current workers x predicted tasks --------------------------------
    build_pt_blocks = l and (n or (k and include_future_future_pairs))
    if build_pt_blocks:
        ptx, pty, pt_deadline, pt_arr = _task_columns(predicted_tasks)
        pt_intervals = _box_intervals(predicted_tasks)
        pt_deadline_max = float(pt_deadline.max())
        max_pt_reach = float(_reach(pt_intervals, ptx, pty).max())
        pt_gamma = index_gamma or _default_index_gamma(l)
        if batch_queries:
            pt_csr = _CandidateCSR.from_coordinates(ptx, pty, pt_gamma)
            pt_index = None
        else:
            pt_csr = None
            pt_index = _build_task_index(ptx, pty, pt_gamma)
        predicted_target = (
            pt_csr, pt_index, None, pt_intervals, pt_deadline, pt_arr,
            pt_deadline_max, max_pt_reach,
        )
    if n and l:
        cw_intervals = _box_intervals(current_workers)
        cw_reach = _reach(cw_intervals, wx, wy)
        rows, cols, d_stats = _family(
            (wx, wy, w_vel, w_arr, cw_intervals, cw_reach), predicted_target
        )
        if rows.size:
            existence = exist_worker[rows]
            exact_q = (
                _pair_quality(quality_model, current_workers, predicted_tasks, rows, cols)
                if exact_predicted_quality
                else None
            )
            quality, keep = _predicted_family_coupling(
                stats_cc, "worker", rows, existence,
                discount_by_existence, reservation_filter, exact_q,
            )
            if keep is not None:
                rows, cols = rows[keep], cols[keep]
                if d_stats is not None:
                    d_stats = tuple(a[keep] for a in d_stats)
                quality = tuple(a[keep] for a in quality)
                existence = existence[keep]
            if d_stats is None:
                d_stats = _price_distance(cw_intervals, pt_intervals, rows, cols, local)
            _emit_predicted_block(
                rows, cols, d_stats, quality, existence, worker_offset=0, task_offset=m
            )

    # ---- predicted workers x predicted tasks -------------------------------
    if k and l and include_future_future_pairs:
        existence_value = min(stats_cc.total_valid / max(n * m, 1), 1.0)
        rows, cols, d_stats = _family(
            (pwx, pwy, pw_vel, pw_arr, pw_intervals, pw_reach), predicted_target
        )
        if rows.size:
            existence = np.full(rows.size, existence_value)
            exact_q = (
                _pair_quality(quality_model, predicted_workers, predicted_tasks, rows, cols)
                if exact_predicted_quality
                else None
            )
            quality, _ = _predicted_family_coupling(
                stats_cc, "global", rows, existence,
                discount_by_existence, reservation_filter, exact_q,
            )
            if d_stats is None:
                d_stats = _price_distance(pw_intervals, pt_intervals, rows, cols, local)
            _emit_predicted_block(
                rows, cols, d_stats, quality, existence, worker_offset=n, task_offset=m
            )

    if stats is not None:
        stats.merge(local)
    return ProblemInstance(
        workers=list(current_workers) + list(predicted_workers),
        tasks=list(current_tasks) + list(predicted_tasks),
        num_current_workers=n,
        num_current_tasks=m,
        pool=PairPool.concatenate(pools),
        now=now,
    )
