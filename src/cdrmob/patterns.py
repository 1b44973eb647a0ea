"""Cohort-level behaviour patterns along time axes and demographic strata.

A pattern series fixes an axis (month, dow, hour), a per-window value
(activity, mobility), and a statistic (mean, normalized_median), then
pools one sample per (individual, matching window) over a cohort:

  * month windows exist for every individual, so quiet months enter as
    zero activity / zero mobility samples, but a month in which nobody
    has an event is unobserved and its bins are blank;
  * dow pools every calendar day of the observed months by weekday,
    again keeping quiet days as zeros;
  * hour pools the 24 time-of-day bins, each individual contributing one
    pooled value per bin.

series() computes the kinds the report writes: dow and hour activity
means for the whole population only, whose every event lies in the
analysis year and so in a bin, and month series for the whole population
and each density class. Every bin of a series but an unobserved month
has a sample of every individual of its cohort.

The statistics are numpy's mean, std(ddof=1) and median of a bin's
samples pooled in one array, to the last bit, but no such array is
built: weekday and hour counts are made for one block of individuals at
a time, in one pass for the means and one for the squared deviations,
which are added in numpy's own summation order. Month samples are
columns of one table of every individual's month activity and mobility,
built once for all the month series.

normalized_median rescales the per-bin medians so their mean over the
observed bins is 1, which makes shapes comparable across cohorts of very
different overall levels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .metrics import HOUR_IDS, WEEKDAY_IDS, TableMetrics, WindowSpec, tod_bins
from .records import (
    AGE_GROUP_LABELS,
    Demographics,
    age_group_of,
    month_starts,
    weekday_of,
    year_bounds,
)


class PatternError(Exception):
    """The strata table cannot be formed: no individual has demographics."""


@dataclass
class PatternSeries:
    bins: tuple[str, ...]
    stat: np.ndarray
    n: np.ndarray
    se: np.ndarray | None  # standard error, mean statistic only; NaN for one sample


def _mean_se(x: np.ndarray) -> tuple[float, float | None]:
    m = float(x.mean())
    return m, (float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else None)


def _median(x: np.ndarray) -> float:
    """np.median of a float array, to the last bit: the mean of its middle
    one or two values after the partition np.median makes, or NaN if it
    holds one. np.median itself imports numpy.ma, 13-26 ms, on its first
    call."""
    lo, hi = (len(x) - 1) // 2, len(x) // 2
    part = np.partition(x, [lo, hi, len(x) - 1])
    return float("nan") if np.isnan(part[-1]) else float(part[lo:hi + 1].mean())


# numpy's add.reduce of a contiguous float64 run is a pairwise sum (Higham,
# SIAM J. Sci. Comput. 14(4), 1993): a run of more than 128 values splits
# at n // 2 rounded down to a multiple of 8. The split depends on a run's
# length alone, so every node of the tree is add.reduce of its own values,
# and a node of at most _NODE values, numpy's buffer size, is summed by one
# add.reduce. tests/test_patterns.py pins both facts to the numpy in use.
_NODE = 8192


@functools.cache
def _nodes(n: int) -> tuple[int, ...]:
    """The lengths of the nodes of numpy's summation tree over n values
    that hold at most _NODE values, in order."""
    if n <= _NODE:
        return (n,)
    half = n // 2 - n // 2 % 8
    return _nodes(half) + _nodes(n - half)


def _join(n: int, sums) -> np.float64:
    """The sum of n values from an iterator over the sums of their _nodes(n),
    added up the tree as numpy adds them."""
    if n <= _NODE:
        return next(sums)
    half = n // 2 - n // 2 % 8
    return _join(half, sums) + _join(n - half, sums)


class _PairwiseSum:
    """np.add.reduce of n float64 values that arrive in chunks, in order. A
    node of _nodes(n) is summed once its values are in, so what is held is
    a sum per node and fewer values than a node holds."""

    def __init__(self, n: int):
        self.n, self.nodes, self.sums = n, _nodes(n), []
        self.carry = np.empty(0)  # values fed past the nodes summed

    def add(self, x: np.ndarray) -> None:
        """Feed the next values: x, of any shape, read in row-major order."""
        v = np.concatenate((self.carry, x), axis=None)
        at, k = 0, len(self.sums)
        while k < len(self.nodes) and at + self.nodes[k] <= len(v):
            self.sums.append(np.add.reduce(v[at:at + self.nodes[k]]))
            at, k = at + self.nodes[k], k + 1
        # a copy, so that no view keeps the whole chunk alive
        self.carry = v[at:].copy()

    def total(self) -> np.float64:
        assert len(self.sums) == len(self.nodes), "values missing"
        return _join(self.n, iter(self.sums))


def _streamed_mean_se(tm: TableMetrics, bin_of, edges: np.ndarray):
    """(mean, n, se) of each bin of a whole-population activity series, in
    two passes over blocks of individuals. bin_of maps the table's
    timestamps to columns 0..edges[-1]-1, and bin b pools every event
    count in columns edges[b]..edges[b+1]-1: each individual's in column
    order, individuals in row order. The values are numpy's mean and
    std(ddof=1) / sqrt(n) of those samples: a mean is an exact integer
    total over n, and the squared deviations are added in numpy's order."""
    width, off, ts = int(edges[-1]), tm.table.offsets, tm.table.ts
    total = np.zeros(width, dtype=np.int64)
    for lo, hi in tm.blocks():
        total += np.bincount(bin_of(ts[off[lo]:off[hi]]), minlength=width)
    n = np.diff(edges) * len(tm.table)
    mean = np.add.reduceat(total, edges[:-1]) / n

    squares, deviation_of = [_PairwiseSum(k) for k in n], np.repeat(mean, np.diff(edges))
    for lo, hi in tm.blocks(width):
        x = np.subtract(tm.event_counts(bin_of, width, lo, hi), deviation_of, dtype=float)
        x *= x
        for s, a, b in zip(squares, edges[:-1], edges[1:]):
            s.add(x[:, a:b])
    se = np.array([np.sqrt(s.total() / (k - 1)) / math.sqrt(k) if k > 1 else np.nan
                   for s, k in zip(squares, n)])
    return mean, n, se


def _weekdays(tm: TableMetrics, analysis_year: int, observed: np.ndarray) -> PatternSeries:
    """The whole population's weekday activity means over the days of the
    observed months: those days are laid out weekday by weekday, each
    weekday's in date order. No event falls on a day of another month."""
    ys, ye = year_bounds(analysis_year)
    starts = np.arange(ys, ye, 86400)
    month = np.searchsorted(month_starts(analysis_year), starts, side="right") - 1
    days = np.flatnonzero(observed[month])
    wd = weekday_of(starts[days] // 86400)
    column = np.zeros(len(starts), dtype=np.int64)
    column[days[np.argsort(wd, kind="stable")]] = np.arange(len(days))
    edges = np.concatenate(([0], np.cumsum(np.bincount(wd, minlength=7))))
    stat, n, se = _streamed_mean_se(tm, lambda ts: column[(ts - ys) // 86400], edges)
    return PatternSeries(WEEKDAY_IDS, stat, n, se)


def _hours(tm: TableMetrics) -> PatternSeries:
    """The whole population's hour-of-day activity means."""
    stat, n, se = _streamed_mean_se(tm, lambda ts: tod_bins(ts, 24), np.arange(25))
    return PatternSeries(HOUR_IDS, stat, n, se)


def _month(ids, v: np.ndarray, rows, statistic: str,
           observed: np.ndarray) -> PatternSeries | None:
    """The month series of one statistic of v (individuals x months) over
    a cohort's rows, None for everyone; None for a normalized median whose
    level, the mean over the observed months, is zero. A month that is
    not observed is blank: NaN stat and se, and n 0."""
    stat = np.full(len(ids), np.nan)
    n = np.zeros(len(ids), dtype=np.int64)
    se = np.full(len(ids), np.nan) if statistic == "mean" else None
    for b in np.flatnonzero(observed):
        s = (v[:, b] if rows is None else v[rows, b]).astype(float)
        n[b] = len(s)
        if statistic == "mean":
            stat[b], e = _mean_se(s)
            if e is not None:
                se[b] = e
        else:
            stat[b] = _median(s)
    if statistic == "normalized_median":
        norm = float(np.mean(stat[observed]))
        if norm == 0:
            return None
        stat = stat / norm
    return PatternSeries(ids, stat, n, se)


def _months(tm: TableMetrics, areas: np.ndarray, analysis_year: int):
    """The month series of series() and which months are observed: one
    activity and mobility table of every individual serves them all, and
    each month's samples are a column of it. A month in which no individual
    has an event is not observed: the input holds none of it, so it has no
    samples, where a month that is quiet for some individuals has a zero
    sample of each."""
    ids = tuple(w for w, _, _ in WindowSpec("month").contiguous_windows(analysis_year))
    activity, mobility = tm.activity_mobility(np.array(month_starts(analysis_year)))
    observed = activity.any(axis=0)
    cohorts = [("all", None, {"activity": activity, "mobility": mobility})]
    cohorts += [(f"area{a}", a, {"activity": activity}) for a in range(1, 6)]
    out = {}
    for cohort, area, values in cohorts:
        rows = None if area is None else np.flatnonzero(areas == area)
        if rows is not None and not len(rows):
            continue
        for statistic in ("mean", "normalized_median"):
            for value, v in values.items():
                s = _month(ids, v, rows, statistic, observed)
                if s is not None:
                    out[cohort, "month", value, statistic] = s
    return out, observed


def series(tm: TableMetrics, areas: np.ndarray, analysis_year: int) -> dict:
    """Every pattern series of the report, {(cohort, axis, value,
    statistic): PatternSeries} in the order it writes them: the whole
    population's ("all") weekday and hour activity means and month
    activity and mobility means and normalized medians, then the month
    activity mean and normalized median of each density class ("area1"
    .."area5"). areas holds each individual's class, 0 for none, in id
    order. An empty cohort, or a normalized median whose level is zero,
    is left out."""
    # the month table is freed before the weekday and hour passes
    months, observed = _months(tm, areas, analysis_year)
    return {("all", "dow", "activity", "mean"): _weekdays(tm, analysis_year, observed),
            ("all", "hour", "activity", "mean"): _hours(tm), **months}


@dataclass
class StratumRow:
    area: str  # "1".."5" or "all"
    gender: str  # "female" | "male" | "all"
    age_group: str  # label or "all"
    n: int
    mean_activity: float
    se_activity: float | None
    mean_mobility_km: float
    se_mobility_km: float | None
    n_rg: int
    mean_rg_km: float | None
    se_rg_km: float | None


def demographic_table(
    ids: list[str],
    year_rows,
    demographics: Demographics,
    areas: np.ndarray,
) -> tuple[list[StratumRow], int]:
    """Whole-year means stratified by density class, gender, and age group.

    ids, year_rows (whole-year activity, mobility, rg and pairs) and areas
    (density class, 0 for none) each hold one entry per individual, in id
    order. Returns the populated strata and the count of individuals
    skipped for lacking demographics. Empty strata are omitted.
    """
    at = np.fromiter(map(demographics.index.get, ids, repeat(-1)), dtype=np.int16, count=len(ids))
    known = at >= 0
    skipped = len(ids) - int(np.count_nonzero(known))
    if skipped == len(ids):
        raise PatternError("no individuals with demographics")
    at[~known] = 0  # any row: every stratum leaves these individuals out
    activity, mobility, rg, _ = year_rows
    cols = (demographics.female[at], age_group_of(demographics.age).astype(np.int8)[at],
            activity.astype(float), mobility, rg)
    del at

    def take(cols, mask):
        """The rows of the columns where mask holds, in order: a stratum's
        values sum in the order of the whole table's."""
        rows = np.flatnonzero(mask)
        return [c[rows] for c in cols]

    # each level takes its rows from the level above, so that the masks of
    # the 21 strata of an area span that area's individuals only
    out: list[StratumRow] = []
    for ak in ["all"] + [str(a) for a in range(1, 6)]:
        in_area = take(cols, known if ak == "all" else known & (areas == int(ak)))
        for gk in ("all", "female", "male"):
            in_gender = in_area if gk == "all" else take(in_area, in_area[0] == (gk == "female"))
            for g, grk in enumerate(("all",) + AGE_GROUP_LABELS, start=-1):
                _, _, act, mob, rsel = (
                    in_gender if grk == "all" else take(in_gender, in_gender[1] == g))
                nsel = len(act)
                if nsel == 0:
                    continue
                ma, sa = _mean_se(act)
                mm, sm = _mean_se(mob)
                rsel = rsel[~np.isnan(rsel)]
                if len(rsel):
                    mr, sr = _mean_se(rsel)
                else:
                    mr = sr = None
                out.append(
                    StratumRow(ak, gk, grk, nsel, ma, sa, mm, sm, len(rsel), mr, sr)
                )
    return out, skipped
