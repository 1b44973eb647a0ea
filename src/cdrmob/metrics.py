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

Squared consecutive displacements and squared home distances are
computed once over the flat EventTable (8 bytes per event each). Every
per-individual matrix is then built for one block of consecutive
individuals at a time, so what a pass holds beyond its result grows with
the block, not with the table. Prefix sums restart at each individual
(one cumulative sum per segment, laid end to end), so a contiguous window
is two lookups, and one searchsorted over an (individual, timestamp) key
finds every window bound of every individual of a block. Pooled windows
are bincounts over (individual, bin) keys. Each individual's values
depend only on its own segment, so they are the same for any blocking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import haversine_km
from .ingest import EventTable
from .records import (
    TowerRegistry,
    format_timestamp,
    month_starts,
    unique_sorted,
    weekday_of,
    year_bounds,
)

WEEKDAY_IDS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
HOUR_IDS = tuple(f"h{h:02d}" for h in range(24))
GRANULARITIES = ("year", "month", "day", "hour", "weekday", "range")
DIVISORS = ("events", "pairs")

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
            starts = month_starts(year)
            return [(f"{year}-{m + 1:02d}", starts[m], starts[m + 1]) for m in range(12)]
        if self.granularity == "day":
            return [(format_timestamp(t)[:10], t, t + 86400) for t in range(ys, ye, 86400)]
        if self.granularity == "range":
            wid = f"{format_timestamp(self.start)}/{format_timestamp(self.end)}"
            return [(wid, self.start, self.end)]
        return None


def rms(sq_sum, n, empty=0.0) -> np.ndarray:
    """sqrt(sq_sum / n) per bin, `empty` where n is 0. Negative sums (the
    rounding residue of prefix-sum differences) count as 0, so neither the
    division nor the root can warn."""
    return np.where(n > 0, np.sqrt(np.maximum(sq_sum, 0.0) / np.maximum(n, 1)), empty)


def segment_rows(offsets: np.ndarray):
    """Yield (segments, rows) once per distinct non-zero segment length:
    rows[r] lists the table rows of segments[r]. Reducing a gathered
    matrix along its rows adds in the same order as reducing each segment
    on its own."""
    sizes = np.diff(offsets)
    order = np.argsort(sizes, kind="stable")
    for seg in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        if len(seg) and sizes[seg[0]]:
            yield seg, offsets[seg][:, None] + np.arange(sizes[seg[0]])


def segment_cumsum(xs: list[np.ndarray], offsets: np.ndarray) -> list[np.ndarray]:
    """Inclusive cumulative sums of each array of xs, restarted at every
    segment start; one pass over the segments serves every array. The
    segments whose lengths round up to the same power of two are gathered
    as one matrix, each padded with repeats of its last row: a cumulative
    sum runs left to right, so the padding changes none of the sums kept."""
    outs = [np.empty_like(x) for x in xs]
    sizes = np.diff(offsets)
    width = np.frexp(np.maximum(sizes, 1) - 1)[1]  # log2 of each padded length
    for w in unique_sorted(width[sizes > 0]):
        seg = np.flatnonzero((width == w) & (sizes > 0))
        at = np.arange(1 << w)
        rows = offsets[seg][:, None] + np.minimum(at, sizes[seg][:, None] - 1)
        kept = at < sizes[seg][:, None]
        for x, out in zip(xs, outs):
            out[rows[kept]] = np.cumsum(x[rows], axis=1)[kept]
    return outs


def tod_bins(ts: np.ndarray, nbins: int) -> np.ndarray:
    """Time-of-day bin of each timestamp, for nbins that divide the day
    evenly."""
    b = ts // (86400 // nbins)
    b -= b // nbins * nbins  # b % nbins: numpy's floor division by a scalar is the faster
    return b


def _segment_index(offsets: np.ndarray) -> np.ndarray:
    """Segment index of every row between offsets[0] and offsets[-1]."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _squared_km(p, i, q, j, out) -> None:
    """Squared haversine distances from points p[i] to points q[j], where p
    and q are (lat, lon) arrays, written to out. They are gathered and
    computed 16k at a time: the dozen temporaries of a step then hold
    1.25 MiB, and 64k took the same time."""
    for s in range(0, len(out), 1 << 14):
        a, b = i[s:s + (1 << 14)], j[s:s + (1 << 14)]
        out[s:s + len(a)] = haversine_km(p[0][a], p[1][a], q[0][b], q[1][b]) ** 2


def _upto(cum, k, start):
    """Per-segment prefix sum before row k, from an inclusive segment_cumsum."""
    return np.where(k > start, cum[np.maximum(k - 1, 0)], 0.0)


# Every per-individual matrix is built for a block of consecutive
# individuals at a time: a block holds at most this many events and result
# cells (512 KiB per int64 or float64 column), or one individual. Every pass
# after ingest takes blocks of this size. On the benchmark corpora 2^16 took
# about the time 2^18 did, and the report's peak RSS read 80 MiB against 89
# on megarow and 70 against 76 on crowd (medians of 3 runs).
_BLOCK_CELLS = 1 << 16
# Whole-table windows of at most this many spans (a year, its months) are
# kept once built: year_rows, strata and metrics.csv share them.
_KEPT_SPANS = 12


def blocks(offsets: np.ndarray, width: int = 1):
    """(lo, hi) blocks of consecutive segments of a table with these
    offsets, in order, each with at most _BLOCK_CELLS rows and lo..hi-1 x
    width result cells, or a single segment; one empty block for a table
    without segments."""
    n = len(offsets) - 1
    step = max(1, _BLOCK_CELLS // max(width, 1))
    if not n:
        yield 0, 0
    lo = 0
    while lo < n:
        fit = int(np.searchsorted(offsets, offsets[lo] + _BLOCK_CELLS, side="right")) - 1
        hi = max(lo + 1, min(n, lo + step, fit))
        yield lo, hi
        lo = hi


class TableMetrics:
    """Window metrics of every individual of an EventTable, built one block
    of consecutive individuals at a time.

    d2[r] is the squared displacement from row r to row r+1, 0 after each
    individual's last event; h2[r] the squared distance of row r to its
    individual's home, NaN without one (None when no homes are given).
    Results are n x k matrices, one row per individual in id order; rg is NaN
    for empty windows and individuals without a home. Whole-table year and
    month windows are kept, and so are the month patterns' activity and
    mobility.
    """

    def __init__(self, table: EventTable, registry: TowerRegistry, homes=None,
                 divisor: str = "events", d2=None):
        if divisor not in DIVISORS:
            raise ValueError(f"unknown mobility divisor {divisor!r}")
        self.table = table
        self.divisor = divisor
        towers = (registry.lat, registry.lon)
        if d2 is None:
            d2 = np.zeros(len(table.ts))
            _squared_km(towers, table.tower[:-1], towers, table.tower[1:], out=d2[:-1])
            d2[table.offsets[1:] - 1] = 0.0  # no pair across individuals
        self.d2 = d2
        self.h2 = None
        if homes is not None:
            self.h2 = np.empty(len(table.ts))
            for lo, hi in self.blocks():
                r0, r1, off = self._rows(lo, hi)
                _squared_km(towers, table.tower[r0:r1], homes, lo + _segment_index(off),
                            out=self.h2[r0:r1])
        self._memo: dict = {}

    def blocks(self, width: int = 1):
        """(lo, hi) blocks of consecutive individuals, in id order (see
        blocks())."""
        return blocks(self.table.offsets, width)

    def _rows(self, lo, hi):
        """First and past-last table row of individuals lo..hi-1, and their
        segment offsets from the first."""
        off = self.table.offsets[lo:hi + 1]
        return int(off[0]), int(off[-1]), off - off[0]

    def stack(self, fn, width: int):
        """The arrays fn(lo, hi) returns for each block, laid end to end into
        whole-table arrays; width is that of blocks()."""
        out = None
        for lo, hi in self.blocks(width):
            part = fn(lo, hi)
            if out is None:
                out = [np.empty((len(self.table),) + p.shape[1:], p.dtype) for p in part]
            for o, p in zip(out, part):
                o[lo:hi] = p
        return tuple(out)

    def from_sums(self, a, d2sum, h2sum, pairs):
        """(activity, mobility, rg, pairs) from window or pooled sums."""
        m = rms(d2sum, a if self.divisor == "events" else pairs)
        rg = np.full(a.shape, np.nan) if h2sum is None else rms(h2sum, a, np.nan)
        return a, m, rg, pairs

    def windows(self, bounds: np.ndarray, lo: int = 0, hi: int | None = None):
        """Metrics of individuals lo..hi-1 (everyone when hi is None) for the
        half-open spans between consecutive bounds. A whole-table result is
        built block by block, and kept when it has at most _KEPT_SPANS spans."""
        key = bounds.tobytes()
        if key in self._memo:
            return tuple(x[lo:hi] for x in self._memo[key])
        if hi is not None:
            return self._windows(bounds, lo, hi)
        whole = self.stack(lambda a, b: self._windows(bounds, a, b), len(bounds) - 1)
        if len(bounds) - 1 <= _KEPT_SPANS:
            self._memo[key] = whole
        return whole

    def activity_mobility(self, bounds: np.ndarray):
        """Whole-table activity, in the smallest unsigned type that holds
        it, and mobility for the spans between bounds, as windows() gives
        them; built block by block and kept."""
        key = ("activity_mobility", bounds.tobytes())
        if key not in self._memo:
            count = np.min_scalar_type(int(np.diff(self.table.offsets).max(initial=0)))

            def block(lo, hi):
                a, m, _, _ = self._windows(bounds, lo, hi, rg=False)
                return a.astype(count), m

            self._memo[key] = self.stack(block, len(bounds) - 1)
        return self._memo[key]

    def _windows(self, bounds, lo, hi, rg: bool = True):
        """windows() of individuals lo..hi-1; rg is left NaN unless asked for."""
        r0, r1, off = self._rows(lo, hi)
        ts = self.table.ts[r0:r1]
        # one sorted (individual, time) key; bounds are clipped to the data's
        # time span [t0, t1], so every query stays in its individual's range
        t0, t1 = (int(ts.min()), int(ts.max()) + 1) if len(ts) else (0, 0)
        key = (_segment_index(off) << 40) + (ts - t0)
        seg = np.arange(hi - lo, dtype=np.int64)[:, None]
        idx = np.searchsorted(key, (seg << 40) + (np.clip(bounds, t0, t1) - t0), side="left")
        i, j = idx[:, :-1], idx[:, 1:]
        start = off[:-1, None]
        a = j - i
        pairs = np.maximum(a - 1, 0)
        cd, *ch = segment_cumsum(
            [x[r0:r1] for x in (self.d2, self.h2 if rg else None) if x is not None], off)
        d2 = np.where(pairs > 0, _upto(cd, j - 1, start) - _upto(cd, i, start), 0.0)
        h2 = None if not ch else _upto(ch[0], j, start) - _upto(ch[0], i, start)
        return self.from_sums(a, d2, h2, pairs)

    def pooled(self, bins: np.ndarray, nbins: int, lo: int, hi: int, pair_mask=None):
        """Pooled (activity, d2 sum, h2 sum, pair count) per individual of
        lo..hi-1 and bin, from the bin of each of their events. Each
        displacement goes to the bin of its earlier event; pair_mask can
        drop pairs (e.g. ones crossing a day boundary)."""
        r0, r1, off = self._rows(lo, hi)
        key = _segment_index(off) * nbins + bins
        pm = np.ones(len(key), dtype=bool)
        pm[off[1:] - 1] = False  # last event: no pair
        if pair_mask is not None:
            pm &= pair_mask
        pk = key[pm]

        def count(k, w=None):
            return np.bincount(k, weights=w, minlength=(hi - lo) * nbins).reshape(hi - lo, nbins)

        h2 = None if self.h2 is None else count(key, self.h2[r0:r1])
        return count(key), count(pk, self.d2[r0:r1][pm]), h2, count(pk)

    def time_of_day(self, nbins: int, lo: int, hi: int):
        """Pooled sums per time-of-day bin of individuals lo..hi-1:
        (activity, d2sum, h2sum, pairs)."""
        r0, r1, _ = self._rows(lo, hi)
        return self.pooled(tod_bins(self.table.ts[r0:r1], nbins), nbins, lo, hi)

    def weekday(self, lo: int, hi: int):
        """Pooled sums per weekday (0=Mon) of individuals lo..hi-1,
        within-day pairs only."""
        r0, r1, _ = self._rows(lo, hi)
        days = self.table.ts[r0:r1] // 86400
        same_day = np.append(days[1:] == days[:-1], False)[: len(days)]
        return self.pooled(weekday_of(days), 7, lo, hi, pair_mask=same_day)

    def event_counts(self, bin_of, nbins: int, lo: int, hi: int) -> np.ndarray:
        """Events of individuals lo..hi-1 per bin: bin_of maps an array of
        timestamps to bins, and an event it maps outside 0..nbins-1 is not
        counted."""
        r0, r1, off = self._rows(lo, hi)
        b = bin_of(self.table.ts[r0:r1])
        key = _segment_index(off) * nbins
        key += b
        inside = (b >= 0) & (b < nbins)
        if not inside.all():
            key = key[inside]
        return np.bincount(key, minlength=(hi - lo) * nbins).reshape(hi - lo, nbins)


# metrics.csv is yielded as columns of at most this many cells
_ROW_CELLS = 1 << 14


def metrics_rows(tm: TableMetrics, spec: WindowSpec, analysis_year: int):
    """Every individual's windows under a spec, as blocks of columns (ego
    id, window id, activity, mobility, rg, pairs): individuals in id order
    and windows in canonical order (chronological, or h00..h23 /
    Mon..Sun); rg is NaN for empty windows and individuals without a home."""
    spans = spec.contiguous_windows(analysis_year)
    if spans is None:
        hour = spec.granularity == "hour"
        wids = HOUR_IDS if hour else WEEKDAY_IDS
        blocks = ((lo, tm.from_sums(*(tm.time_of_day(24, lo, hi) if hour else tm.weekday(lo, hi))))
                  for lo, hi in tm.blocks(len(wids)))
    else:
        wids = [wid for wid, _, _ in spans]
        bounds = np.array([spans[0][1]] + [t1 for _, _, t1 in spans], dtype=np.int64)
        if len(wids) <= _KEPT_SPANS:
            tm.windows(bounds)  # kept, and shared with the other stages
        blocks = ((lo, tm.windows(bounds, lo, hi)) for lo, hi in tm.blocks(len(wids)))
    rows = max(1, _ROW_CELLS // len(wids))
    for lo, block in blocks:
        k = len(block[0])
        for s in range(0, k, rows):
            ids = tm.table.ids[lo + s:lo + min(s + rows, k)]
            yield ([e for e in ids for _ in wids], list(wids) * len(ids),
                   *(x[s:s + rows].ravel() for x in block))
