"""Engine-side glue: one observer per engine, one timer per round.

:class:`StreamObserver` owns a :class:`~repro.obs.metrics.
MetricsRegistry` and a :class:`~repro.obs.trace.TraceRecorder` and
translates what the streaming engine already measures into
instruments and trace events:

- phase durations → ``stream_*_seconds`` histograms + nested spans;
- pool/cache stats (:class:`~repro.model.sparse.SparseBuildStats`,
  :class:`~repro.model.delta.DeltaBuildStats`, :class:`~repro.core.
  triplet_select.SelectionRepairStats`) → counters, gauges and per-round
  instant events, by *diffing* the cumulative stats objects the
  layers already maintain — the lower layers stay observability-free;
- per-tile shard build phases → labeled histograms + parallel trace
  tracks.

:class:`RoundTimer` is the round's single timing source: the engine
starts/stops phases on it, and both the legacy
:class:`~repro.simulation.metrics.InstanceMetrics` fields and the
registry histograms are views over the one set of measurements — the
phase accounting cannot fork.  The timer always measures (the same
clock reads the engine made before this layer existed); only the
*recording* is gated, so a disabled observer costs one boolean check
per round.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, monotonic
from repro.obs.trace import TraceRecorder

__all__ = ["RoundTimer", "StreamObserver"]

#: Cumulative stat attributes diffed each round into registry counters
#: and (when the per-round delta is positive) trace instant events.
#: ``(stats_kind, attribute) -> (counter_name, instant_name | None)``.
_STAT_COUNTERS = {
    "delta": (
        ("primes", "delta_primes_total", "delta.prime"),
        ("incremental_rounds", "delta_incremental_rounds_total", "delta.repair"),
    ),
    "warm_select": (
        ("primes", "warm_select_primes_total", "warm_select.prime"),
        ("repaired", "warm_select_repaired_total", "warm_select.repair"),
        ("declined", "warm_select_declined_total", "warm_select.decline"),
        (
            "guard_fallbacks",
            "warm_select_guard_fallbacks_total",
            "warm_select.guard_fallback",
        ),
        (
            "churn_fallbacks",
            "warm_select_churn_fallbacks_total",
            "warm_select.churn_fallback",
        ),
    ),
}

#: Phases recorded as ``stream_<phase>_seconds`` histograms each round.
_PHASES = ("build", "price", "select", "finalize", "assign")
#: ``(kind, name)`` of the instruments :meth:`StreamObserver.end_round`
#: records into every round.
_ROUND_INSTRUMENTS = (
    *(("counter", f"stream_{name}_total") for name in ("rounds", "events", "assignments", "pairs")),
    ("gauge", "stream_available_workers"),
    ("gauge", "stream_available_tasks"),
    ("histogram", "stream_round_seconds"),
    *(("histogram", f"stream_{phase}_seconds") for phase in _PHASES),
)


class RoundTimer:
    """Phase stopwatch for one round (always measuring, never recording).

    ``phase_start``/``phase_end`` bracket measured phases; ``record``
    books *derived* durations (the select/finalize split of the assign
    phase, the price slice of the build phase) with an explicit start
    so trace spans still nest correctly.
    """

    __slots__ = ("round_index", "sim_time", "t0", "end", "_starts", "_durations")

    def __init__(self, round_index: int, sim_time: float):
        self.round_index = round_index
        self.sim_time = sim_time
        self.t0 = monotonic()
        self.end = self.t0
        self._starts: dict[str, float] = {}
        self._durations: dict[str, float] = {}

    def phase_start(self, name: str) -> None:
        self._starts[name] = monotonic()

    def phase_end(self, name: str) -> float:
        duration = monotonic() - self._starts[name]
        self._durations[name] = duration
        return duration

    def record(self, name: str, seconds: float, start: float | None = None) -> None:
        """Book a derived duration (optionally anchored at ``start``)."""
        self._durations[name] = seconds
        if start is not None:
            self._starts[name] = start

    def start_of(self, name: str) -> float:
        return self._starts.get(name, self.t0)

    def seconds(self, name: str) -> float:
        return self._durations.get(name, 0.0)

    def finish(self) -> float:
        """Stamp the round end; returns elapsed seconds since ``t0``."""
        self.end = monotonic()
        return self.end - self.t0


class StreamObserver:
    """Per-engine observability hub (metrics registry + trace recorder)."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry(False)
        self.trace = trace if trace is not None else TraceRecorder(False)
        self._prev: dict[tuple[str, str], float] = {}
        self._prev_price = 0.0
        self._active: RoundTimer | None = None
        # The per-round instruments by name, looked up on the first
        # recorded round (not here, which would move every engine's
        # set-up time).
        self._bound: dict | None = None

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.trace.enabled

    @property
    def wants_tile_phases(self) -> bool:
        """Whether per-tile shard timings would be recorded anywhere."""
        return self.enabled

    def begin_round(self, round_index: int, sim_time: float) -> RoundTimer:
        timer = RoundTimer(round_index, sim_time)
        self._active = timer
        return timer

    # -- shard tiles (called mid-build by the engine) -----------------------

    def record_tile_phases(self, entries: list[tuple[int, float]]) -> None:
        """Book per-tile build phases: ``(tile, seconds)``, tile ``-1``
        being the global reconcile pass.

        Tile spans are *end-anchored* at the record time: every tile
        ran to completion inside the enclosing build phase (serial
        backends sequentially, parallel backends concurrently), so
        ``[now - dur, now]`` always nests inside the build span
        regardless of backend — per-tile tracks then render the
        parallelism without needing cross-process clock plumbing.
        """
        if not entries or not self.enabled:
            return
        now = monotonic()
        for tile, seconds in entries:
            if tile < 0:
                self.metrics.histogram("stream_reconcile_seconds").observe(seconds)
                if self.trace.enabled:
                    self.trace.add_span(
                        "reconcile", now - seconds, seconds, cat="shard"
                    )
            else:
                self.metrics.histogram(
                    "stream_tile_build_seconds", labels={"tile": str(tile)}
                ).observe(seconds)
                if self.trace.enabled:
                    self.trace.add_span(
                        f"tile{tile}.build",
                        now - seconds,
                        seconds,
                        cat="shard",
                        tid=tile + 1,
                        args={"tile": tile},
                    )

    def record_tile_pool_events(self, events: list[tuple[int, str]]) -> None:
        """Book per-tile delta-pool lifecycle events on the shard tracks.

        Entries are ``(tile, kind)`` with kind ``"repair"`` (the tile's
        pool was served incrementally) or ``"prime"`` (full rebuild).
        Each books a tile-labelled counter (``tile_delta_repairs_total``
        / ``tile_delta_primes_total``) and an instant on the tile's
        trace track — the same ``tid`` convention as
        :meth:`record_tile_phases`, so the instants land on the
        existing shard rows.
        """
        if not events or not self.enabled:
            return
        counters = {
            "repair": "tile_delta_repairs_total",
            "prime": "tile_delta_primes_total",
        }
        for tile, kind in events:
            counter = counters.get(kind)
            if counter is None:
                continue
            if self.metrics.enabled:
                self.metrics.counter(counter, labels={"tile": str(tile)}).inc()
            if self.trace.enabled:
                self.trace.add_instant(
                    f"tile{tile}.{kind}",
                    cat="shard",
                    tid=tile + 1,
                    args={"tile": tile},
                )

    def record_supervision_events(self, events: list[tuple[str, dict]]) -> None:
        """Book shard-supervision fault events: ``(kind, detail)``.

        Kinds map to counters — ``deadline_timeout`` →
        ``shard_deadline_timeouts_total``, ``worker_death`` →
        ``shard_worker_deaths_total``, ``respawn`` →
        ``shard_respawns_total`` (plus ``shard_respawn_seconds_total``
        by the respawn's duration), ``backoff_wait`` →
        ``shard_backoff_seconds_total`` (by the wait), ``degraded`` →
        ``shard_degraded_total`` — and each books a trace instant on
        the affected worker's shard track (``tid`` convention of
        :meth:`record_tile_phases`), so a respawn is visible inline
        with the tile spans it interrupted.
        """
        if not events or not self.enabled:
            return
        counters = {
            "deadline_timeout": "shard_deadline_timeouts_total",
            "worker_death": "shard_worker_deaths_total",
            "respawn": "shard_respawns_total",
            "degraded": "shard_degraded_total",
        }
        for kind, detail in events:
            if self.metrics.enabled:
                counter = counters.get(kind)
                if counter is not None:
                    self.metrics.counter(counter).inc()
                if kind == "respawn":
                    self.metrics.counter("shard_respawn_seconds_total").inc(
                        float(detail.get("seconds", 0.0))
                    )
                elif kind == "backoff_wait":
                    self.metrics.counter("shard_backoff_seconds_total").inc(
                        float(detail.get("seconds", 0.0))
                    )
            if self.trace.enabled:
                worker = detail.get("worker")
                self.trace.add_instant(
                    f"supervision.{kind}",
                    cat="supervision",
                    tid=(worker + 1) if isinstance(worker, int) else 0,
                    args=dict(detail),
                )

    # -- round close-out ----------------------------------------------------

    def _diff(self, kind: str, stats) -> list[tuple[str, float]]:
        """Per-round increments of one cumulative stats object."""
        increments = []
        for attribute, counter_name, instant_name in _STAT_COUNTERS[kind]:
            value = float(getattr(stats, attribute))
            key = (kind, attribute)
            delta = value - self._prev.get(key, 0.0)
            self._prev[key] = value
            if delta > 0:
                if self.metrics.enabled:
                    self.metrics.counter(counter_name).inc(delta)
                if instant_name is not None:
                    increments.append((instant_name, delta))
        return increments

    def end_round(
        self,
        timer: RoundTimer,
        *,
        events_processed: float = 0.0,
        num_workers: int = 0,
        num_tasks: int = 0,
        num_pairs: int = 0,
        assigned: int = 0,
        build_stats=None,
        delta_stats=None,
        select_stats=None,
        cached_pairs: int | None = None,
    ) -> None:
        """Record one finished round into the registry and the trace.

        ``timer.finish()`` must have been called (the engine stamps
        the round end before committing assignments, preserving the
        pre-observability ``cpu_seconds`` measurement window).
        """
        self._active = None
        if build_stats is not None:
            price_total = float(build_stats.price_seconds)
            price_delta = max(price_total - self._prev_price, 0.0)
            self._prev_price = price_total
            timer.record("price", price_delta, start=timer.start_of("build"))
        if not self.enabled:
            return

        round_seconds = timer.end - timer.t0
        events_key = ("engine", "events_processed")
        events_delta = events_processed - self._prev.get(events_key, 0.0)
        self._prev[events_key] = events_processed

        metrics = self.metrics
        if metrics.enabled:
            bound = self._bound
            if bound is None:
                bound = self._bound = {
                    name: getattr(metrics, kind)(name) for kind, name in _ROUND_INSTRUMENTS
                }
            bound["stream_rounds_total"].inc()
            bound["stream_events_total"].inc(max(events_delta, 0.0))
            bound["stream_assignments_total"].inc(assigned)
            bound["stream_pairs_total"].inc(num_pairs)
            bound["stream_available_workers"].set(num_workers)
            bound["stream_available_tasks"].set(num_tasks)
            if cached_pairs is not None:
                if "stream_cached_pairs" not in bound:
                    bound["stream_cached_pairs"] = metrics.gauge("stream_cached_pairs")
                bound["stream_cached_pairs"].set(cached_pairs)
            bound["stream_round_seconds"].observe(round_seconds)
            for phase in _PHASES:
                bound[f"stream_{phase}_seconds"].observe(timer.seconds(phase))

        instants: list[tuple[str, float]] = []
        if delta_stats is not None:
            instants += self._diff("delta", delta_stats)
        if select_stats is not None:
            instants += self._diff("warm_select", select_stats)

        trace = self.trace
        if trace.enabled:
            trace.add_span(
                "round",
                timer.t0,
                round_seconds,
                cat="round",
                args={
                    "round": timer.round_index,
                    "sim_time": timer.sim_time,
                    "workers": num_workers,
                    "tasks": num_tasks,
                    "pairs": num_pairs,
                    "assigned": assigned,
                },
            )
            for phase in ("build", "price", "select", "finalize"):
                duration = timer.seconds(phase)
                if duration <= 0.0 and phase != "build":
                    continue
                start = timer.start_of(phase)
                # Derived durations (the price diff) come from clock
                # reads other than this span's anchors; clamp the span
                # into the round so nesting survives the skew.  The
                # histograms keep the unclamped measurement.
                duration = min(duration, max(timer.end - start, 0.0))
                trace.add_span(phase, start, duration)
            mid = timer.t0 + round_seconds / 2.0
            for name, count in instants:
                trace.add_instant(
                    name, ts=min(mid, timer.end), cat="cache", args={"count": count}
                )
