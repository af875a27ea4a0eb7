"""Per-round span tracing, exportable as Chrome trace-event JSON.

The recorder captures *complete* events (``ph: "X"`` — a name, a
start timestamp, a duration) and *instant* events (``ph: "i"``) into a
flat list, using the :func:`repro.obs.metrics.monotonic` clock
rebased to the first event so timestamps start near zero.  The
resulting file loads directly in ``chrome://tracing`` or Perfetto
(https://ui.perfetto.dev): each streaming round is one span on the
engine track with its build/price/select/finalize phases nested
inside, per-tile shard phases fan out on their own tracks, and cache
events (delta primes/repairs, warm-select decisions) appear as
instants within their round.

Disabled recorders drop everything at one boolean check, so a
trace-off engine pays no per-round cost; memory when enabled is one
small dict per event (bounded by ``max_events``, oldest-first drop is
*not* attempted — recording stops, and the export notes truncation —
so a long-lived service cannot leak unboundedly).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import monotonic

__all__ = ["TraceRecorder", "validate_chrome_trace"]

#: Default cap on recorded events; at ~10 events per round this is
#: ~100k rounds of trace — far beyond what a human inspects, small
#: enough (tens of MB) to always be writable.
DEFAULT_MAX_EVENTS = 1_000_000

_US = 1e6  # chrome trace timestamps are microseconds


class TraceRecorder:
    """Collects spans and instants; exports Chrome trace-event JSON.

    All ``ts``/``dur`` arguments are *seconds* on the
    :func:`~repro.obs.metrics.monotonic` clock; the recorder rebases
    them to its first event and converts to microseconds on export.
    ``tid`` selects the track: 0 is the engine's round track, shard
    tiles use ``tid = tile + 1`` so parallel tile phases render as
    parallel tracks.
    """

    def __init__(self, enabled: bool = True, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events < 1:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.enabled = bool(enabled)
        self.max_events = int(max_events)
        self.truncated = False
        # Events hold *raw* clock seconds in "ts"/"dur"; the export
        # rebases to the earliest timestamp and converts to µs —
        # events are not recorded in chronological order (a round span
        # lands after the tile spans it encloses), so the epoch is
        # only known at export time.
        self._events: list[dict] = []

    def __len__(self) -> int:
        return len(self._events)

    def _push(self, event: dict) -> bool:
        if len(self._events) >= self.max_events:
            self.truncated = True
            return False
        self._events.append(event)
        return True

    def add_span(
        self,
        name: str,
        ts: float,
        dur: float,
        cat: str = "phase",
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """Record a complete event covering ``[ts, ts + dur]`` seconds."""
        if not self.enabled:
            return
        self._push(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": ts,
                "dur": max(dur, 0.0),
                "pid": 0,
                "tid": tid,
                "args": args or {},
            }
        )

    def add_instant(
        self,
        name: str,
        ts: float | None = None,
        cat: str = "event",
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """Record a point event (``ts`` defaults to *now*)."""
        if not self.enabled:
            return
        self._push(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": monotonic() if ts is None else ts,
                "s": "t",  # thread-scoped instant
                "pid": 0,
                "tid": tid,
                "args": args or {},
            }
        )

    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Rebases every timestamp to the earliest recorded one and
        converts seconds to microseconds (the recorder keeps raw clock
        seconds internally).
        """
        epoch = min((e["ts"] for e in self._events), default=0.0)
        events = []
        for raw in self._events:
            event = dict(raw)
            event["ts"] = (raw["ts"] - epoch) * _US
            if "dur" in raw:
                event["dur"] = raw["dur"] * _US
            events.append(event)
        meta = {
            "format": "chrome-trace-events",
            "generator": "repro.obs",
            "truncated": self.truncated,
        }
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": meta,
        }

    def write(self, path: str | Path) -> Path:
        """Serialize the trace to ``path`` (creates parent dirs)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_chrome_trace(), indent=1), encoding="utf-8"
        )
        return path


def validate_chrome_trace(trace: dict) -> list[str]:
    """Structural validation of a Chrome trace-event object.

    Returns a list of human-readable problems (empty = valid):

    - the top level must carry a ``traceEvents`` list;
    - every event needs ``name``/``ph``/``ts``/``pid``/``tid``, with
      ``ts`` (and ``dur`` on complete events) finite and non-negative;
    - every non-round event on the engine's timeline must nest inside
      exactly the round span that contains its start — phases cannot
      leak across round boundaries.

    Used by the trace-schema tests and by ``python -m repro.obs`` (the
    CI smoke job validates the files the stream CLI wrote).
    """
    errors: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace has no 'traceEvents' list"]

    rounds: list[tuple[float, float, dict]] = []
    for i, event in enumerate(events):
        label = f"event[{i}] ({event.get('name', '?')!r})"
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                errors.append(f"{label}: missing {key!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0 or ts != ts:
            errors.append(f"{label}: ts {ts!r} is not a non-negative number")
            continue
        if event.get("ph") == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0 or dur != dur:
                errors.append(f"{label}: dur {dur!r} is not a non-negative number")
                continue
            if event.get("cat") == "round":
                rounds.append((ts, ts + dur, event))

    rounds.sort(key=lambda r: r[0])
    for (_, prev_end, _), (next_start, _, _) in zip(rounds, rounds[1:]):
        if next_start < prev_end - 1e-6:
            errors.append(
                f"round spans overlap near ts={next_start}: rounds must be "
                "disjoint"
            )
            break

    #: tolerance (µs) for nesting checks: phase and round endpoints are
    #: separate clock reads, so a sub-microsecond excess is measurement
    #: skew, not a structural violation.
    slack = 5.0
    if rounds:
        for i, event in enumerate(events):
            if event.get("cat") == "round" or event.get("ph") not in ("X", "i"):
                continue
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                continue
            dur = event.get("dur", 0) if event.get("ph") == "X" else 0
            if not isinstance(dur, (int, float)):
                continue
            enclosing = [
                r for r in rounds if r[0] - slack <= ts and ts + dur <= r[1] + slack
            ]
            if not enclosing:
                errors.append(
                    f"event[{i}] ({event.get('name', '?')!r}) at ts={ts} "
                    f"dur={dur} does not nest inside any round span"
                )
    return errors
