"""Per-individual activity and travel metrics over time windows.

For a window holding events e_i .. e_{j-1} of one individual:

  activity  A  = j - i, the event count
  mobility  M  = sqrt(sum of squared consecutive displacements / A)
  radius Rg    = sqrt(sum of squared distances to home / A)

Displacements are great-circle distances between consecutive events; only
pairs whose endpoints both fall in the window contribute. Dividing by the
event count rather than the pair count damps windows with very few events
(a two-event window scores d/sqrt(2), not d); divisor="pairs" switches to
the plain per-pair mean square.

Windows come in two flavours. Contiguous ones (year, month, day, explicit
range) select a single time span. Pooled ones aggregate a non-contiguous
union: "hour" pools 24 time-of-day bins, attributing each displacement to
the bin of its earlier event; "weekday" pools calendar days by day of week,
counting only within-day displacement pairs. Pooled mobility divides the
pooled squared displacement by the pooled event (or pair) count.

All computation runs off per-individual prefix sums, so any contiguous
window is O(log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .geo import haversine_km
from .ingest import Timeline
from .records import TowerRegistry, format_timestamp, year_bounds

WEEKDAY_IDS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
HOUR_IDS = tuple(f"h{h:02d}" for h in range(24))
GRANULARITIES = ("year", "month", "day", "hour", "weekday", "range")
DIVISORS = ("events", "pairs")

_EPOCH_ORD = date(1970, 1, 1).toordinal()
EPOCH_WEEKDAY = 3  # 1970-01-01 was a Thursday; weekday index 0 is Monday


def _day_epoch(d: date) -> int:
    return (d.toordinal() - _EPOCH_ORD) * 86400


@dataclass(frozen=True)
class WindowSpec:
    """Which windows a metrics pass produces. start/end (epoch seconds,
    half-open) apply only to granularity "range"."""

    granularity: str = "year"
    start: int | None = None
    end: int | None = None

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.granularity == "range":
            if self.start is None or self.end is None:
                raise ValueError("range windows need explicit start and end")
            if self.start >= self.end:
                raise ValueError("window start must precede end")
        elif self.start is not None or self.end is not None:
            raise ValueError("start/end are only valid with granularity 'range'")

    def contiguous_windows(self, year: int) -> list[tuple[str, int, int]] | None:
        """(window_id, t0, t1) spans, or None for pooled granularities."""
        ys, ye = year_bounds(year)
        if self.granularity == "year":
            return [(str(year), ys, ye)]
        if self.granularity == "month":
            starts = [_day_epoch(date(year, m, 1)) for m in range(1, 13)] + [ye]
            return [(f"{year}-{m:02d}", starts[m - 1], starts[m]) for m in range(1, 13)]
        if self.granularity == "day":
            d0 = date(year, 1, 1).toordinal()
            d1 = date(year + 1, 1, 1).toordinal()
            return [
                (date.fromordinal(o).isoformat(), (o - _EPOCH_ORD) * 86400, (o + 1 - _EPOCH_ORD) * 86400)
                for o in range(d0, d1)
            ]
        if self.granularity == "range":
            wid = f"{format_timestamp(self.start)}/{format_timestamp(self.end)}"
            return [(wid, self.start, self.end)]
        return None


@dataclass
class MetricRow:
    ego_id: str
    window: str
    activity: int
    mobility_km: float
    rg_km: float | None  # None when the home is unknown or the window is empty
    pairs: int


def rms(sq_sum, n, empty=0.0) -> np.ndarray:
    """sqrt(sq_sum / n) per bin, `empty` where n is 0. Negative sums (the
    rounding residue of prefix-sum differences) count as 0, so neither the
    division nor the root can warn."""
    return np.where(n > 0, np.sqrt(np.maximum(sq_sum, 0.0) / np.maximum(n, 1)), empty)


def _rows(ids, a, m, rg, pairs) -> list[MetricRow]:
    """MetricRows (ego_id blank) from per-window arrays; rg_km is None for
    empty windows and when rg is None (no home)."""
    return [
        MetricRow(
            "", wid, int(a[k]), float(m[k]),
            None if rg is None or a[k] == 0 else float(rg[k]), int(pairs[k]),
        )
        for k, wid in enumerate(ids)
    ]


class EgoMetrics:
    """Prefix-sum engine over one timeline.

    Holds squared consecutive displacements and squared home distances so
    that any contiguous window reduces to two array lookups.
    """

    def __init__(
        self,
        timeline: Timeline,
        registry: TowerRegistry,
        home: tuple[float, float] | None = None,
        divisor: str = "events",
    ):
        if divisor not in DIVISORS:
            raise ValueError(f"unknown mobility divisor {divisor!r}")
        self.divisor = divisor
        self.ts = timeline.ts
        lat, lon = timeline.positions(registry)
        if len(self.ts) > 1:
            d = haversine_km(lat[:-1], lon[:-1], lat[1:], lon[1:])
            self.d2 = d * d
        else:
            self.d2 = np.empty(0, dtype=float)
        self.cumd2 = np.concatenate(([0.0], np.cumsum(self.d2)))
        if home is not None:
            h = haversine_km(lat, lon, home[0], home[1])
            self.h2 = h * h
            self.cumh2 = np.concatenate(([0.0], np.cumsum(self.h2)))
        else:
            self.h2 = None
            self.cumh2 = None

    def __len__(self) -> int:
        return len(self.ts)

    def windows(self, bounds: np.ndarray):
        """Metrics for the half-open spans between consecutive bounds.

        Returns (activity, mobility, rg, pairs) arrays of length
        len(bounds)-1; rg is None when no home is set, and NaN for empty
        windows.
        """
        idx = np.searchsorted(self.ts, bounds, side="left")
        i, j = idx[:-1], idx[1:]
        a = j - i
        pairs = np.maximum(a - 1, 0)
        # cumd2 has one entry per event; indices are clipped because the
        # masked-out branch of the where is still evaluated
        top = len(self.cumd2) - 1
        d2 = np.where(
            pairs > 0,
            self.cumd2[np.clip(j - 1, 0, top)] - self.cumd2[np.minimum(i, top)],
            0.0,
        )
        h2 = None if self.cumh2 is None else self.cumh2[j] - self.cumh2[i]
        return self.from_sums(a, d2, h2, pairs)

    def from_sums(self, a, d2sum, h2sum, pairs):
        """(activity, mobility, rg, pairs) per bin from pooled sums, shaped
        as windows() returns them."""
        m = rms(d2sum, a if self.divisor == "events" else pairs)
        return a, m, None if h2sum is None else rms(h2sum, a, np.nan), pairs

    def window(self, t0: int, t1: int) -> MetricRow:
        return _rows([""], *self.windows(np.array([t0, t1], dtype=np.int64)))[0]

    def _pooled(self, bin_of_event: np.ndarray, nbins: int, pair_mask=None):
        """Pooled (activity, d2 sum, h2 sum, pair count) per bin. Each
        displacement goes to the bin of its earlier event; pair_mask can
        drop pairs (e.g. ones crossing a day boundary)."""
        a = np.bincount(bin_of_event, minlength=nbins)
        earlier = bin_of_event[:-1]
        d2 = self.d2
        if pair_mask is not None:
            earlier = earlier[pair_mask]
            d2 = d2[pair_mask]
        pairs = np.bincount(earlier, minlength=nbins)
        d2sum = np.bincount(earlier, weights=d2, minlength=nbins)
        h2sum = (
            np.bincount(bin_of_event, weights=self.h2, minlength=nbins)
            if self.h2 is not None
            else None
        )
        return a, d2sum, h2sum, pairs

    def time_of_day_bins(self, nbins: int = 24):
        """Pooled sums per time-of-day bin: (activity, d2sum, h2sum, pairs)."""
        if 86400 % nbins:
            raise ValueError("time-of-day bins must divide the day evenly")
        b = ((self.ts % 86400) // (86400 // nbins)).astype(np.int64)
        return self._pooled(b, nbins)

    def weekday_bins(self):
        """Pooled sums per weekday (0=Mon), within-day pairs only."""
        days = self.ts // 86400
        w = ((days + EPOCH_WEEKDAY) % 7).astype(np.int64)
        mask = days[1:] == days[:-1] if len(days) > 1 else None
        return self._pooled(w, 7, pair_mask=mask)


def metrics_rows(
    em: EgoMetrics, spec: WindowSpec, analysis_year: int
) -> list[MetricRow]:
    """All windows of one individual under a spec, in canonical window
    order (chronological, or h00..h23 / Mon..Sun). ego_id is left blank."""
    spans = spec.contiguous_windows(analysis_year)
    if spans is not None:
        ids = [wid for wid, _, _ in spans]
        bounds = np.array([spans[0][1]] + [t1 for _, _, t1 in spans], dtype=np.int64)
        return _rows(ids, *em.windows(bounds))
    if spec.granularity == "hour":
        return _rows(HOUR_IDS, *em.from_sums(*em.time_of_day_bins(24)))
    return _rows(WEEKDAY_IDS, *em.from_sums(*em.weekday_bins()))


def write_metrics_csv(rows, path) -> int:
    """Write a metric stream; floats keep full round-trip precision.
    Returns the row count."""
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("ego_id,window,activity,mobility_km,rg_km,pairs\n")
        for r in rows:
            rg = "" if r.rg_km is None else repr(float(r.rg_km))
            fh.write(f"{r.ego_id},{r.window},{r.activity},{float(r.mobility_km)!r},{rg},{r.pairs}\n")
            n += 1
    return n
