"""Sparse-native greedy selection over CSR-style pool triplets.

:class:`TripletSelection` runs the Fig. 5 selection loop without the
per-iteration full-pool rescans of the mask-based loop
(``repro.core.greedy._greedy_select_rescan``, which serves row sets
under ``TRIPLET_MIN_ROWS``): every iteration touches only the rows
whose state can actually have changed.  The selected rows are
*identical* to the rescan loop's — every stage below reproduces the
same candidate row set per iteration, and the shared
``probability_prune`` / ``select_best_row`` tail breaks ties
identically.

Both loops read one :class:`SelectionOrders`: the sorted orders,
occupancy groups and Eq. 9 lanes of the row set.  ``_merge_orders``
is the only code that sorts a selection's rows and derives its sweep
keys; a cold :func:`build_selection_orders` is its fresh-row half with
no survivor runs, and the warm repair below passes the survivors.

Per-iteration stages and why they are exact:

- **Budget feasibility** (Fig. 5 line 6) and the **deterministic
  Eq. 9 lanes** are monotone: budgets and headroom only shrink, so a
  row that fails once fails forever.  Rows sorted by expected cost are
  swept from the expensive end and killed permanently — each row is
  visited once across the whole run (amortized O(1)), and the kill
  condition is the same float comparison the rescan evaluates.
- **Stochastic Eq. 9 lanes** use the conservative z-thresholds of
  :func:`repro.core.selection._phi_threshold`: rows whose outcome is
  certain from ``z`` alone are swept with precomputed keys
  (``cost_mean + z * std``); only rows inside the narrow band around
  the threshold are re-tested with the exact ``phi_vec`` each
  iteration, and failures are permanent because ``phi`` is monotone in
  the spent budget.
- **Dominance pruning** (Lemma 4.1) uses fixed positions in the
  initial cost-upper-bound order, a live-value array updated on every
  kill, and a *stale* prefix-max that is only rebuilt periodically.
  Staleness is conservative (values only leave the live set, so the
  stale max is an upper bound): rows the stale max cannot dominate are
  accepted outright, and the rare "maybe dominated" rows fall back to
  an exact prefix scan over the live values.
- **Candidate cap**: candidates are collected by walking the fixed
  quality-weight order (the ``cap_candidates`` order) and skipping
  dead or dominated rows until ``candidate_cap`` survivors are found —
  exactly the top-``cap`` of the skyline.
- **Occupancy**: rows are grouped by worker and by task once; when a
  pair is selected, both groups are killed in bulk (Fig. 5 line 13).

The engine requires the z-threshold shortcut to be available for the
configured ``delta``; callers fall back to the rescan loop otherwise.

Persistent selection (the warm-start layer)
-------------------------------------------

The sorted orders and occupancy groups above are *structural*: they
depend only on the row set's values, not on the budgets of a
particular run, and :meth:`TripletSelection.run` never mutates them.
:class:`SelectionOrders` captures exactly that cacheable bundle, and
:class:`SelectionState` keeps it alive across streaming rounds.  Each
round the state maps the new pool's rows onto the previous round's
(via a trusted :class:`~repro.model.delta.ChurnRecord` origin hint
from the delta builder, or by self-diffing pair identities), verifies
that every surviving row's order-determining columns are unchanged
(mismatches are demoted to fresh rows), and then *repairs* each sorted
order: the survivors' sub-order is extracted in O(n), and
``_merge_orders`` sorts only the fresh rows (O(churn log churn)), with
the code of a cold build, and merges the two runs with
:func:`_merge_sorted_positions` — an exact stable merge whose
cross-run ties are re-sorted on the full lexicographic key.  Any guard
failure (non-monotone origin, inconsistent occupancy keys, churn past
``repair_ratio``) falls back to a full cold build, so warm selections
are bit-identical to cold ones by construction; the hypothesis suite
in ``tests/test_selection_state.py`` enforces it end to end.

How this layer composes with the delta pool and the sharded tile
pipelines is described in ``docs/architecture.md`` (the incremental
round pipeline section).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pruning import probability_prune, signs_decide
from repro.core.selection import (
    _EPS,
    _VARIANCE_FLOOR,
    _phi_threshold,
    eq9_lanes,
    select_best_row,
)
from repro.model.instance import _ids
from repro.model.pairs import PairPool
from repro.uncertainty.vector import phi_vec

#: Row-count floor at which ``greedy_select`` (and :meth:`SelectionState.
#: select`) dispatch to this engine instead of the rescan loop.  Both
#: produce identical selections, so this is purely a performance
#: crossover: below it the rescan loop's smaller setup cost wins.  Both
#: sites read it at call time, so tests may lower it with ``monkeypatch``.
TRIPLET_MIN_ROWS = 2048

#: Weight-order walk chunk: big enough that one chunk usually yields a
#: full candidate cap (and that mostly-dead pools cross the dead
#: regions in few python-loop iterations — the per-chunk array ops are
#: cheap next to the loop overhead), small enough that the wasted
#: dominance work past the cap stays bounded.
_WALK_CHUNK = 4096

#: Pair identity keys pack ``worker_id * 2**25 + task_id``.  The split
#: is asymmetric because worker ids reach high synthetic ranges (the
#: streaming engine re-materializes released workers at ids >= 2e10)
#: while task ids stay dense: 38 bits of worker id x 25 bits of task
#: id is collision-free in int64.  Out-of-range ids just disable the
#: self-diff origin (the state cold-primes), never corrupt it.
_ID_TASK_BITS = 25
_ID_BASE = np.int64(1) << np.int64(_ID_TASK_BITS)
_WORKER_ID_LIMIT = 1 << (63 - _ID_TASK_BITS)
_TASK_ID_LIMIT = 1 << _ID_TASK_BITS


def _regroup(keys: np.ndarray, members: np.ndarray):
    """Rebuild ``(uniq, starts, members)`` from pre-sorted members.

    ``members`` must already be sorted by ``(keys[member], member)``,
    so the group boundaries reduce to one run-length pass.  Returns
    ``(uniq, starts, members)``: group ``i`` holds the positions with
    key ``uniq[i]``, ``members[starts[i]:starts[i + 1]]``.
    """
    member_keys = keys[members]
    if member_keys.size == 0:
        return member_keys[:0], np.zeros(1, dtype=np.int64), members
    change = np.nonzero(member_keys[1:] != member_keys[:-1])[0] + 1
    starts = np.concatenate(([0], change, [member_keys.size])).astype(np.int64)
    return member_keys[starts[:-1]], starts, members


def _merge_sorted_positions(
    a: np.ndarray, b: np.ndarray, keys: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Merge two position runs sorted by ``(*keys, position)``.

    ``keys`` are full-length arrays indexed by position, most
    significant first; the position itself is the implicit final
    tiebreaker.  The merge is a stable O(n) two-run scatter on the
    primary key; primary-key values present in *both* runs are the
    only places where the secondary keys can disagree with the scatter
    order, so those tie blocks are re-sorted exactly on the full
    lexicographic tuple (O(t log t) over tied entries only).
    """
    if a.size == 0:
        return b.astype(np.int64, copy=False)
    if b.size == 0:
        return a.astype(np.int64, copy=False)
    primary = keys[0]
    ka = primary[a]
    kb = primary[b]
    out = np.empty(a.size + b.size, dtype=np.int64)
    # Binary-search the *small* run into the big one only; the big
    # run's slots are the complement, filled in order (the stable-merge
    # identity).  Searching big-into-small costs ~4x more here despite
    # the shallower per-needle search, so this asymmetry dominates the
    # steady-state repair bill.
    idx_b = np.searchsorted(ka, kb, side="right") + np.arange(b.size)
    keep = np.ones(out.size, dtype=bool)
    keep[idx_b] = False
    out[idx_b] = b
    out[keep] = a
    # Primary values shared by both runs (the only possible cross-run
    # ties).  ``kb`` is sorted, so consecutive dedup suffices.
    pos = np.searchsorted(ka, kb, side="left")
    clipped = np.minimum(pos, ka.size - 1)
    shared = kb[(pos < ka.size) & (ka[clipped] == kb)]
    if shared.size == 0:
        return out
    shared = shared[np.concatenate(([True], shared[1:] != shared[:-1]))]
    merged_keys = primary[out]
    lo = np.searchsorted(merged_keys, shared, side="left")
    hi = np.searchsorted(merged_keys, shared, side="right")
    marks = np.zeros(out.size + 1, dtype=np.int64)
    np.add.at(marks, lo, 1)
    np.add.at(marks, hi, -1)
    tied = np.cumsum(marks[:-1]) > 0
    sub = out[tied]
    order = np.lexsort((sub,) + tuple(k[sub] for k in reversed(keys)))
    out[tied] = sub[order]
    return out


def _sorted_by_key_then_position(keys: np.ndarray, seq: np.ndarray) -> bool:
    """Whether ``seq`` is sorted by ``(keys[seq], seq)`` (strictly)."""
    if seq.size < 2:
        return True
    k = keys[seq]
    return bool(
        np.all((k[1:] > k[:-1]) | ((k[1:] == k[:-1]) & (seq[1:] > seq[:-1])))
    )


class SelectionOrders:
    """The structural (cacheable) half of a selection.

    Sorted position orders, occupancy groups and Eq. 9 lanes of one row
    set; a position indexes the ascending row array.  Everything here
    is a pure function of the rows' values and ``delta``, and neither
    selection loop mutates these arrays, so the bundle can be reused
    across rounds and repaired incrementally by :class:`SelectionState`.
    ``std``, ``z_lo`` and ``z_hi`` are :func:`eq9_lanes` per position;
    the ``*_keys`` arrays are the stochastic sweeps' sorted Eq. 9 keys,
    which only the triplet engine reads (the rescan loop's orders leave
    the four stochastic sweep attributes unset).
    """

    __slots__ = (
        "weight_positions", "ub_order",
        "w_keys", "w_starts", "w_members", "t_keys", "t_starts", "t_members",
        "by_cost", "cur_sweep", "fut_sweep", "det_sweep",
        "std", "z_lo", "z_hi",
        "sto_fail_sweep", "sto_fail_keys", "band_entry", "band_entry_keys",
    )


def build_selection_orders(
    pool: PairPool, rows: np.ndarray, delta: float, stochastic_sweeps: bool = True
) -> SelectionOrders:
    """Cold-build the structural orders of ``rows`` (unique, ascending).

    Every position is fresh and no survivor run is merged in, so each
    order is :func:`_merge_orders`' fresh-row sort as it stands.
    """
    empty = np.zeros(0, dtype=np.int64)
    return _merge_orders(
        pool, rows, delta, np.arange(rows.size, dtype=np.int64), (empty,) * 7,
        stochastic_sweeps,
    )


def _merge_orders(
    pool: PairPool,
    rows: np.ndarray,
    delta: float,
    fresh: np.ndarray,
    kept: tuple[np.ndarray, ...],
    stochastic_sweeps: bool = True,
) -> SelectionOrders:
    """The orders of ``rows``: ``fresh`` sorted, then merged into ``kept``.

    The only code that sorts a selection's rows and derives its Eq. 9
    sweep keys.  ``kept`` holds one survivor run per sorted order, in
    the order worker members, task members, weight, cost upper bound,
    cost, Eq. 9 fail key, Eq. 9 pass key; each run is sorted by its
    order's key, then position, and disjoint from ``fresh``.  A cold
    build passes empty runs, which :func:`_merge_sorted_positions`
    returns the fresh sort for unchanged; :meth:`SelectionState._repair`
    passes the previous round's orders restricted to its survivors.
    ``stochastic_sweeps=False`` (the rescan loop) skips the two
    stochastic Eq. 9 sweeps.
    """
    # A full pool's positions are its rows: slice views, no copies.
    at = slice(None) if rows.size == len(pool) else rows
    worker = pool.worker_idx[at]
    task = pool.task_idx[at]
    cost = pool.cost_mean[at]
    neg_quality = -pool.quality_mean[at]
    cost_ub = pool.cost_ub[at]
    is_current = pool.is_current[at]
    variance = pool.cost_var[at]
    kept_worker, kept_task, kept_weight, kept_ub, kept_cost, kept_fail, kept_pass = kept
    # A cold build's fresh positions are all of them: sort without gathers.
    cold = fresh.size == rows.size

    def fresh_sorted(key):
        if cold:
            return np.argsort(key, kind="stable")
        return fresh[np.argsort(key[fresh], kind="stable")]

    orders = SelectionOrders()
    members = _merge_sorted_positions(kept_worker, fresh_sorted(worker), (worker,))
    orders.w_keys, orders.w_starts, orders.w_members = _regroup(worker, members)
    members = _merge_sorted_positions(kept_task, fresh_sorted(task), (task,))
    orders.t_keys, orders.t_starts, orders.t_members = _regroup(task, members)

    orders.weight_positions = _merge_sorted_positions(
        kept_weight,
        np.lexsort((cost, neg_quality))
        if cold
        else fresh[np.lexsort((fresh, cost[fresh], neg_quality[fresh]))],
        (neg_quality, cost),
    )
    orders.ub_order = _merge_sorted_positions(kept_ub, fresh_sorted(cost_ub), (cost_ub,))

    # The cost-ascending order is stored because the repair derives
    # the three filtered sweeps below from it with one merge and mask
    # filters: filtering a total order commutes with merging (both
    # sides are the (cost, position) order of the filtered set).
    by_cost = _merge_sorted_positions(kept_cost, fresh_sorted(cost), (cost,))
    orders.by_cost = by_cost
    current = is_current[by_cost]
    orders.cur_sweep = by_cost[current]
    orders.fut_sweep = by_cost[~current]
    deterministic = variance <= _VARIANCE_FLOOR
    orders.det_sweep = by_cost[deterministic[by_cost]]

    # Stochastic Eq. 9 lanes: conservative fail / pass keys from the
    # z-thresholds (a deterministic lane's keys are never read).
    orders.std, orders.z_lo, orders.z_hi = eq9_lanes(variance, delta)
    if not stochastic_sweeps:
        return orders
    fail_key = cost + orders.z_lo * orders.std
    pass_key = cost + orders.z_hi * orders.std
    fresh_sto = fresh[~deterministic[fresh]]
    orders.sto_fail_sweep = _merge_sorted_positions(
        kept_fail, fresh_sto[np.argsort(fail_key[fresh_sto], kind="stable")], (fail_key,)
    )
    orders.sto_fail_keys = fail_key[orders.sto_fail_sweep]
    orders.band_entry = _merge_sorted_positions(
        kept_pass, fresh_sto[np.argsort(pass_key[fresh_sto], kind="stable")], (pass_key,)
    )
    orders.band_entry_keys = pass_key[orders.band_entry]
    return orders


class TripletSelection:
    """One greedy selection run (see module docstring)."""

    def __init__(
        self,
        pool: PairPool,
        rows: np.ndarray,
        budget_current: float,
        budget_max: float,
        config,
        orders: SelectionOrders | None = None,
    ) -> None:
        self._pool = pool
        self._config = config
        self._budget_current = budget_current
        self._budget_max = budget_max
        self._budget_future = max(budget_max - budget_current, 0.0)

        # Canonical positions: index into the ascending row array.
        # When ``rows`` is the full pool (the streaming engines pass
        # the arange every round), the per-row gathers below are
        # slice views of the pool arrays.  Every one of them is
        # read-only here; the mutated ones (``_live_lb``) are copied
        # explicitly.
        self._rows = rows
        size = rows.size
        at = slice(None) if size == len(pool) else rows
        self._cost = pool.cost_mean[at]
        self._quality_ub = pool.quality_ub[at]
        self._dead = np.zeros(size, dtype=bool)

        # Structural orders: cold-built here, or injected (warm start).
        # Everything below derives the per-run state from them with
        # the exact same float operations either way, so a warm run is
        # bit-identical to a cold one by construction.
        if orders is None:
            orders = build_selection_orders(pool, rows, config.delta)

        # Occupancy groups: positions sharing a worker / a task.
        self._w_keys, self._w_starts = orders.w_keys, orders.w_starts
        self._w_members = orders.w_members
        self._t_keys, self._t_starts = orders.t_keys, orders.t_starts
        self._t_members = orders.t_members

        # Weight order (the candidate-cap order) as positions; with the
        # cost order it spares the sign guard its sorts.
        self._weight_positions = orders.weight_positions
        self._by_cost = orders.by_cost
        self._walk_start = 0

        # Dominance scaffolding in cost-ub order.  The cut (how many
        # rows have a cost upper bound strictly below a row's cost
        # lower bound) is filled in lazily, memoized per position: only
        # candidate positions ever consult it, so a budget-tight round
        # runs a few hundred cache-hot searches instead of a full-pool
        # searchsorted, and a selection-heavy run still pays at most
        # one search per row.
        order = orders.ub_order
        self._rank_of_pos = np.empty(size, dtype=np.int64)
        self._rank_of_pos[order] = np.arange(size)
        self._ub_sorted = pool.cost_ub[at][order]
        self._cost_lb = pool.cost_lb[at]
        self._cut_of_pos = np.full(size, -1, dtype=np.int64)
        self._live_lb = pool.quality_lb[at][order]
        self._stale_pmax = np.maximum.accumulate(self._live_lb) if size else self._live_lb
        # The prefix max stays exact until a kill removes a value that
        # was attaining it somewhere (a "load-bearing" kill); only then
        # does a dominance query need a rebuild.
        self._pmax_dirty = False

        # Budget sweep orders: positions ascending by their kill key.
        # Each sweep keeps an end pointer; per iteration one
        # searchsorted finds the new boundary and the crossed suffix is
        # killed in bulk — every row is killed at most once, so the
        # sweeps are amortized O(1) per iteration.
        self._cur_sweep = orders.cur_sweep
        self._cur_keys = self._cost[orders.cur_sweep]
        self._fut_sweep = orders.fut_sweep
        self._fut_keys = self._cost[orders.fut_sweep]
        self._cur_end = self._cur_sweep.size
        self._fut_end = self._fut_sweep.size

        # Eq. 9 sweep orders.  Deterministic lanes fail when their cost
        # exceeds the remaining headroom; stochastic lanes carry the
        # orders' conservative pass/fail keys.
        self._det_sweep = orders.det_sweep
        self._det_keys = self._cost[orders.det_sweep]
        self._det_end = self._det_sweep.size

        self._std = orders.std
        self._sto_fail_sweep = orders.sto_fail_sweep
        self._sto_fail_keys = orders.sto_fail_keys
        self._sto_fail_end = self._sto_fail_sweep.size
        # Band entry: once the headroom drops to a row's pass key the
        # outcome is no longer certain; the row joins the exact-phi
        # band until it passes no more (permanently killed).
        self._band_entry = orders.band_entry
        self._band_entry_keys = orders.band_entry_keys
        self._band_start = self._band_entry.size
        self._band: np.ndarray = np.zeros(0, dtype=np.int64)

        self._spent_current = 0.0
        self._spent_future = 0.0
        self._spent_lower_bound = 0.0

    # -- kills ---------------------------------------------------------------

    def _kill(self, positions: np.ndarray) -> None:
        if positions.size == 0:
            return
        fresh = positions[~self._dead[positions]]
        if fresh.size == 0:
            return
        self._dead[fresh] = True
        ranks = self._rank_of_pos[fresh]
        if not self._pmax_dirty and bool(
            (self._live_lb[ranks] >= self._stale_pmax[ranks]).any()
        ):
            # A killed value attained the running max at its position,
            # so some prefix maxima may have dropped.
            self._pmax_dirty = True
        self._live_lb[ranks] = -np.inf

    def _sweep_budgets(self) -> None:
        """Apply every monotone kill due at the current spend levels.

        Each kill condition is a comparison against a sorted key array,
        so the crossed rows form a suffix found by one ``searchsorted``
        per sweep — the same float comparisons the rescan loop
        evaluates, batched.
        """
        # Fig. 5 line 6 feasibility: kill when cost > remaining + EPS.
        limit = (self._budget_current - self._spent_current) + _EPS
        boundary = int(np.searchsorted(self._cur_keys[: self._cur_end], limit, side="right"))
        if boundary < self._cur_end:
            self._kill(self._cur_sweep[boundary : self._cur_end])
            self._cur_end = boundary
        limit = (self._budget_future - self._spent_future) + _EPS
        boundary = int(np.searchsorted(self._fut_keys[: self._fut_end], limit, side="right"))
        if boundary < self._fut_end:
            self._kill(self._fut_sweep[boundary : self._fut_end])
            self._fut_end = boundary

        # Eq. 9, deterministic lanes: kill when headroom - cost < 0,
        # i.e. cost > headroom (IEEE subtraction is sign-exact).
        headroom_base = self._budget_max - self._spent_lower_bound
        boundary = int(
            np.searchsorted(self._det_keys[: self._det_end], headroom_base, side="right")
        )
        if boundary < self._det_end:
            self._kill(self._det_sweep[boundary : self._det_end])
            self._det_end = boundary
        # Eq. 9, stochastic sure-fail lanes.
        boundary = int(
            np.searchsorted(
                self._sto_fail_keys[: self._sto_fail_end], headroom_base, side="right"
            )
        )
        if boundary < self._sto_fail_end:
            self._kill(self._sto_fail_sweep[boundary : self._sto_fail_end])
            self._sto_fail_end = boundary

        # Rows whose sure-pass key no longer clears the headroom enter
        # the exact-phi band (key >= headroom).
        boundary = int(
            np.searchsorted(
                self._band_entry_keys[: self._band_start], headroom_base, side="left"
            )
        )
        if boundary < self._band_start:
            entering = self._band_entry[boundary : self._band_start]
            self._band_start = boundary
            self._band = np.concatenate((self._band, entering))
        if self._band.size:
            band = self._band[~self._dead[self._band]]
            if band.size:
                z = (headroom_base - self._cost[band]) / self._std[band]
                failing = ~(phi_vec(z) > self._config.delta)
                self._kill(band[failing])
                band = band[~failing]
            self._band = band

    # -- dominance -----------------------------------------------------------

    def _not_dominated(self, positions: np.ndarray) -> np.ndarray:
        """Mask of ``positions`` surviving Lemma 4.1 against the live set."""
        cuts = self._cut_of_pos[positions]
        missing = cuts < 0
        if missing.any():
            mpos = positions[missing]
            mcut = np.searchsorted(self._ub_sorted, self._cost_lb[mpos], side="left")
            self._cut_of_pos[mpos] = mcut
            cuts[missing] = mcut
        stale_best = np.where(
            cuts > 0, self._stale_pmax[np.maximum(cuts - 1, 0)], -np.inf
        )
        clean = ~(stale_best > self._quality_ub[positions])
        if self._pmax_dirty and not clean.all():
            # The stale max is an upper bound (values only ever leave
            # the live set), so only flagged rows can be false alarms:
            # refresh the prefix max once and re-test them exactly.
            self._stale_pmax = np.maximum.accumulate(self._live_lb)
            self._pmax_dirty = False
            fresh_best = np.where(
                cuts > 0, self._stale_pmax[np.maximum(cuts - 1, 0)], -np.inf
            )
            clean = ~(fresh_best > self._quality_ub[positions])
        return clean

    # -- candidate walk ------------------------------------------------------

    def _collect_candidates(self) -> np.ndarray:
        """The iteration's candidate positions, in canonical order.

        Walks the weight order collecting live, non-dominated
        positions.  One extra row beyond the cap is gathered to learn
        whether the cap actually binds: the Eq. 10 scores downstream
        sum float probabilities in array order, so the order is part
        of the selection contract — quality-weight when the cap binds
        (``cap_candidates``' output order), ascending otherwise (the
        skyline's).
        """
        cap = self._config.candidate_cap + 1
        prune_dominated = self._config.use_dominance_pruning
        wpos = self._weight_positions
        picked: list[np.ndarray] = []
        count = 0
        start = self._walk_start
        while start < wpos.size and count < cap:
            chunk = wpos[start : start + _WALK_CHUNK]
            live = chunk[~self._dead[chunk]]
            if start == self._walk_start:
                # Advance the walk origin past the dead prefix so fully
                # selected regions are never rescanned (amortized).
                if live.size == 0:
                    self._walk_start = start + chunk.size
                else:
                    first_live = np.nonzero(~self._dead[chunk])[0][0]
                    self._walk_start = start + int(first_live)
            start += chunk.size
            if live.size == 0:
                continue
            if prune_dominated:
                live = live[self._not_dominated(live)]
            if live.size:
                picked.append(live[: cap - count])
                count += min(live.size, cap - count)
        if not picked:
            return np.zeros(0, dtype=np.int64)
        positions = np.concatenate(picked)
        if positions.size > self._config.candidate_cap:
            return positions[: self._config.candidate_cap]
        return np.sort(positions)

    # -- the loop ------------------------------------------------------------

    def run(self) -> list[int]:
        pool = self._pool
        config = self._config
        # Lemma 4.2's sign guard, decided once: every candidate window
        # is a subset of the selection's rows.
        signs_decided = config.use_probability_pruning and signs_decide(
            pool, self._rows, self._weight_positions, self._by_cost
        )
        selected: list[int] = []
        while True:
            self._sweep_budgets()
            positions = self._collect_candidates()
            if positions.size == 0:
                break
            candidate_rows = self._rows[positions]
            if config.use_probability_pruning:
                candidate_rows = probability_prune(pool, candidate_rows, signs_decided)
            best = select_best_row(pool, candidate_rows, config.selection_objective)
            selected.append(best)
            self._spent_lower_bound += float(pool.cost_lb[best])
            if pool.is_current[best]:
                self._spent_current += float(pool.cost_mean[best])
            else:
                self._spent_future += float(pool.cost_mean[best])
            w_slot = np.searchsorted(self._w_keys, pool.worker_idx[best])
            self._kill(
                self._w_members[self._w_starts[w_slot] : self._w_starts[w_slot + 1]]
            )
            t_slot = np.searchsorted(self._t_keys, pool.task_idx[best])
            self._kill(
                self._t_members[self._t_starts[t_slot] : self._t_starts[t_slot + 1]]
            )
        return selected


def triplet_greedy_select(
    pool: PairPool,
    rows: np.ndarray,
    budget_current: float,
    budget_max: float,
    config,
) -> list[int] | None:
    """Run the sparse-native engine, or ``None`` when not applicable.

    ``rows`` must be unique and ascending (the caller normalizes).
    Returns ``None`` when the configured ``delta`` is too extreme for
    the z-threshold shortcut — the caller then uses the rescan loop.
    """
    if _phi_threshold(config.delta) is None:
        return None
    return TripletSelection(pool, rows, budget_current, budget_max, config).run()


# ---------------------------------------------------------------------------
# Persistent selection state (round-over-round warm start)
# ---------------------------------------------------------------------------


@dataclass
class SelectionRepairStats:
    """Telemetry of a :class:`SelectionState` (mirrors DeltaBuildStats).

    Attributes:
        rounds: selection rounds routed through the state.
        primes: rounds solved with a cold structural build (first
            round, guard failures, churn overflows).
        repaired: rounds whose structural orders were repaired
            incrementally from the previous round's.
        declined: calls the state refused outright (pool below the
            engine floor, subset row sets, no z-threshold shortcut) —
            the caller falls back to the normal dispatch.
        guard_fallbacks: repairs abandoned because a verification
            guard failed (non-monotone origin, occupancy-key order
            broken); the round cold-primed instead.
        churn_fallbacks: repairs abandoned because the fresh-row share
            of the new pool exceeded ``repair_ratio``, or the old
            orders dwarfed the new pool (total fallback, like the
            delta builder).
        rows_survived: surviving rows across all repaired rounds.
        rows_fresh: fresh (re-sorted) rows across all repaired rounds.
    """

    rounds: int = 0
    primes: int = 0
    repaired: int = 0
    declined: int = 0
    guard_fallbacks: int = 0
    churn_fallbacks: int = 0
    rows_survived: int = 0
    rows_fresh: int = 0


def _pair_identity_keys(pool: PairPool, problem) -> tuple[np.ndarray, np.ndarray] | None:
    """``(positions, keys)`` identifying the current-current rows.

    Keys pack the *entity* ids (stable across rounds, unlike pool
    indices) of each current pair.  Returns ``None`` when ids do not
    fit the packing — the caller then skips self-diff.
    """
    wid = _ids(problem.current_workers)
    tid = _ids(problem.current_tasks)
    if wid.size and (wid.min() < 0 or wid.max() >= _WORKER_ID_LIMIT):
        return None
    if tid.size and (tid.min() < 0 or tid.max() >= _TASK_ID_LIMIT):
        return None
    positions = np.nonzero(pool.is_current)[0].astype(np.int64)
    keys = wid[pool.worker_idx[positions]] * _ID_BASE + tid[pool.task_idx[positions]]
    return positions, keys


class SelectionState:
    """Persistent, churn-repaired selection layer (see module docstring).

    Owned by the streaming engine and handed to the assigner each
    round via ``Assigner.begin_round``; :func:`repro.core.greedy.
    greedy_select` routes full-pool selections through :meth:`select`.
    The state repairs the previous round's :class:`SelectionOrders`
    in O(churn) instead of re-sorting the pool, and falls back to a
    cold build whenever any invariant cannot be proven — so its
    selections are bit-identical to cold solves on every round.

    Row origins come from one of two sources, mirroring the delta
    builder's trusted-hint / self-diff split:

    - **trusted**: a :class:`~repro.model.delta.ChurnRecord` whose
      ``row_origin`` maps each new pool row to the previous round's
      row.  The fused round pipeline (``repro.streaming.pipeline``,
      the streaming engine's build path for every tiling) composes
      it from the per-tile builders' emission-local origins — each
      tile's entity lists are monotone subsequences of the global
      ones, so the merged pool's rank order embeds every tile's, and
      the composed map is exactly what a whole-pool builder would
      have produced;
    - **self-diff**: current-current rows are matched by packed
      ``(worker_id, task_id)`` identity against the previous round's,
      which needs no builder cooperation (the fresh reference
      builders of ``repro.testing.ReferenceEngine`` use this mode).

    Either way every matched row's order-determining columns are
    verified against the cached copies and mismatches are demoted to
    fresh rows, so correctness never rests on the hint being right.
    """

    def __init__(self, repair_ratio: float = 0.5) -> None:
        if not 0.0 < repair_ratio <= 1.0:
            raise ValueError(f"repair_ratio must be in (0, 1], got {repair_ratio}")
        self._repair_ratio = repair_ratio
        self.stats = SelectionRepairStats()
        self._problem = None
        self._churn = None
        self._orders: SelectionOrders | None = None
        self._cols: tuple[np.ndarray, ...] | None = None
        self._n = 0
        self._delta: float | None = None
        self._key_rows: np.ndarray | None = None
        self._key_vals: np.ndarray | None = None
        # Trusted-origin carry: maps the most recently *observed*
        # pool's rows to the remembered orders' rows.  Composed from
        # each round's ChurnRecord even on declined rounds, so the
        # trusted chain survives small-pool gaps between engaged
        # rounds instead of forcing a cold prime after every gap.
        self._carry: np.ndarray | None = None
        self._last_n = 0

    # -- round plumbing ------------------------------------------------------

    def begin_round(self, problem, churn=None) -> None:
        """Arm the state for one round's full-pool selection."""
        self._problem = problem
        self._churn = churn

    def invalidate(self) -> None:
        """Drop all cached structure; the next round cold-primes."""
        self._orders = None
        self._cols = None
        self._n = 0
        self._delta = None
        self._key_rows = None
        self._key_vals = None
        self._carry = None
        self._last_n = 0

    # -- the warm entry point ------------------------------------------------

    def select(
        self,
        pool: PairPool,
        rows: np.ndarray,
        budget_current: float,
        budget_max: float,
        config,
    ) -> list[int] | None:
        """Warm-started selection, or ``None`` to decline.

        ``rows`` must be unique and ascending (``greedy_select``
        normalizes).  Declines — returning ``None`` so the caller runs
        its normal dispatch — when the call is not this round's
        full-pool selection, the pool is below the engine floor, or
        the z-threshold shortcut is unavailable.
        """
        problem, churn = self._problem, self._churn
        self._problem = None
        self._churn = None
        if problem is None or problem.pool is not pool or rows.size != len(pool):
            self.stats.declined += 1
            return None
        # Full-pool observation: fold this round's churn into the
        # trusted-origin carry even when the round is about to be
        # declined, so a later engaged round can still repair across
        # the gap.
        self._observe(pool, churn)
        if rows.size < TRIPLET_MIN_ROWS or _phi_threshold(config.delta) is None:
            self.stats.declined += 1
            return None
        self.stats.rounds += 1
        if self._delta is not None and self._delta != config.delta:
            # The stochastic sweep keys are delta-specific.
            self.invalidate()

        orders = None
        origin = self._derive_origin(pool, churn, problem)
        if origin is not None:
            orders = self._repair(pool, rows, origin, config.delta)
        if orders is None:
            orders = build_selection_orders(pool, rows, config.delta)
            self.stats.primes += 1
        else:
            self.stats.repaired += 1

        selected = TripletSelection(
            pool, rows, budget_current, budget_max, config, orders=orders
        ).run()
        self._remember(pool, problem, churn, orders, config.delta)
        return selected

    # -- origin derivation ---------------------------------------------------

    def _observe(self, pool: PairPool, churn) -> None:
        """Compose this round's trusted churn into the origin carry.

        After the call ``self._carry`` maps the *current* pool's rows
        to the remembered orders' rows (or is ``None`` when the
        trusted chain broke — a round without a usable hint).
        """
        if self._orders is None or self._carry is None:
            return
        if (
            churn is not None
            and churn.row_origin is not None
            and churn.prev_pool_rows == self._last_n
            and churn.row_origin.size == len(pool)
        ):
            origin = churn.row_origin
            carry = np.full(len(pool), -1, dtype=np.int64)
            known = (origin >= 0) & (origin < self._last_n)
            carry[known] = self._carry[origin[known]]
            self._carry = carry
            self._last_n = len(pool)
        else:
            self._carry = None

    def _derive_origin(self, pool: PairPool, churn, problem) -> np.ndarray | None:
        """Map each new row to the remembered round's row (or -1)."""
        if self._orders is None:
            return None
        if self._carry is not None and self._carry.size == len(pool):
            return self._carry
        return self._self_diff_origin(pool, problem)

    def _self_diff_origin(self, pool: PairPool, problem) -> np.ndarray | None:
        if self._key_vals is None:
            return None
        identity = _pair_identity_keys(pool, problem)
        if identity is None:
            return None
        positions, keys = identity
        origin = np.full(len(pool), -1, dtype=np.int64)
        old_vals = self._key_vals
        if old_vals.size:
            idx = np.searchsorted(old_vals, keys)
            clipped = np.minimum(idx, old_vals.size - 1)
            found = (idx < old_vals.size) & (old_vals[clipped] == keys)
            origin[positions[found]] = self._key_rows[clipped[found]]
        return origin

    # -- the repair ----------------------------------------------------------

    def _repair(
        self, pool: PairPool, rows: np.ndarray, origin: np.ndarray, delta: float
    ) -> SelectionOrders | None:
        """Repair the cached orders onto the new pool, or ``None``.

        Survivor sub-orders are exact because (a) the origin mapping
        is verified strictly increasing, so surviving rows keep their
        relative positions, and (b) every order-determining column is
        verified unchanged at surviving rows (mismatches are demoted
        to fresh).  :func:`_merge_orders` sorts the fresh rows and
        merges them in.
        """
        old = self._orders
        n_old = self._n
        surv_new = np.nonzero(origin >= 0)[0].astype(np.int64)
        surv_old = origin[surv_new]
        if surv_old.size and (
            surv_old[0] < 0
            or surv_old[-1] >= n_old
            or (np.diff(surv_old) <= 0).any()
        ):
            self.stats.guard_fallbacks += 1
            return None

        # Column verification: demote any matched row whose
        # order-determining values changed since the previous round.
        o_cost, o_var, o_ub, o_qual, o_cur = self._cols
        same = (
            (pool.cost_mean[surv_new] == o_cost[surv_old])
            & (pool.cost_var[surv_new] == o_var[surv_old])
            & (pool.cost_ub[surv_new] == o_ub[surv_old])
            & (pool.quality_mean[surv_new] == o_qual[surv_old])
            & (pool.is_current[surv_new] == o_cur[surv_old])
        )
        if not same.all():
            surv_new = surv_new[same]
            surv_old = surv_old[same]

        # Fallback economics: fresh rows are the actual re-sort work
        # (repairing a mostly-fresh pool approximates a cold build),
        # while dead rows only cost linear scans of the old orders —
        # mass-expiry rounds after a burst repair profitably even when
        # most of the old pool died.  The second bound caps those
        # scans when the old orders dwarf the new pool.
        n_new = len(pool)
        if (n_new - surv_new.size) > self._repair_ratio * n_new or n_old > 4 * n_new:
            self.stats.churn_fallbacks += 1
            return None

        survivor = np.zeros(n_new, dtype=bool)
        survivor[surv_new] = True
        fresh = np.nonzero(~survivor)[0].astype(np.int64)
        new_of_old = np.full(n_old, -1, dtype=np.int64)
        new_of_old[surv_old] = surv_new

        def surv_seq(old_order: np.ndarray) -> np.ndarray:
            mapped = new_of_old[old_order]
            return mapped[mapped >= 0]

        # Occupancy groups: pool indices are renumbered between rounds
        # (compaction), so instead of comparing key values the repair
        # verifies the surviving member runs are still sorted under
        # the *new* keys — renumbering is monotone when the builder
        # behaves, and the guard catches it when it does not.
        w_surv = surv_seq(old.w_members)
        t_surv = surv_seq(old.t_members)
        if not _sorted_by_key_then_position(pool.worker_idx, w_surv):
            self.stats.guard_fallbacks += 1
            return None
        if not _sorted_by_key_then_position(pool.task_idx, t_surv):
            self.stats.guard_fallbacks += 1
            return None

        self.stats.rows_survived += int(surv_new.size)
        self.stats.rows_fresh += int(fresh.size)
        kept = (w_surv, t_surv) + tuple(
            surv_seq(order)
            for order in (
                old.weight_positions,
                old.ub_order,
                old.by_cost,
                old.sto_fail_sweep,
                old.band_entry,
            )
        )
        return _merge_orders(pool, rows, delta, fresh, kept)

    # -- caching -------------------------------------------------------------

    def _remember(
        self, pool: PairPool, problem, churn, orders: SelectionOrders, delta: float
    ) -> None:
        self._orders = orders
        self._n = len(pool)
        self._delta = delta
        # The carry restarts from the identity of the round just
        # remembered; future rounds compose their churn onto it.
        self._carry = np.arange(len(pool), dtype=np.int64)
        self._last_n = len(pool)
        self._cols = (
            pool.cost_mean.copy(),
            pool.cost_var.copy(),
            pool.cost_ub.copy(),
            pool.quality_mean.copy(),
            pool.is_current.copy(),
        )
        trusted_next = churn is not None and churn.row_origin is not None
        if trusted_next:
            # Next round will carry a trusted origin hint; skip the
            # (python-loop) id harvest.  If the hint goes missing the
            # state simply cold-primes once and starts self-diffing.
            self._key_rows = None
            self._key_vals = None
            return
        identity = _pair_identity_keys(pool, problem)
        if identity is None:
            self._key_rows = None
            self._key_vals = None
            return
        positions, keys = identity
        order = np.argsort(keys, kind="stable")
        self._key_vals = keys[order]
        self._key_rows = positions[order]
