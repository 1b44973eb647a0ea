"""Cohort-level behaviour patterns along time axes and demographic strata.

A pattern series fixes an axis (month, dow, hour), a per-window value
(activity, mobility), and a statistic (mean, normalized_median), then
pools one sample per (individual, matching window) over a cohort:

  * month windows exist for every individual, so quiet months enter as
    zero activity / zero mobility samples;
  * dow pools every calendar day of the year by weekday, again keeping
    quiet days as zeros;
  * hour pools the 24 time-of-day bins, each individual contributing one
    pooled value per bin.

series() computes the kinds the report writes: dow and hour activity
means for the whole population only, whose every event lies in the
analysis year and so in a bin, and month series for the whole population
and each density class. Every bin of a series has a sample of every
individual of its cohort.

The statistics are numpy's mean, std(ddof=1) and median of a bin's
samples pooled in one array, to the last bit, but no such array is
built: weekday and hour counts are made for one block of individuals at
a time, in one pass for the means and one for the squared deviations,
which are added in numpy's own summation order. Month samples are
columns of one table of every individual's month activity and mobility,
built once for all the month series.

normalized_median rescales the per-bin medians so their mean is 1, which
makes shapes comparable across cohorts of very different overall levels.
"""

from __future__ import annotations

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
    unique_sorted,
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
# SIAM J. Sci. Comput. 14(4), 1993): a run of more than _LEAF values splits
# at n // 2 rounded down to a multiple of 8, and each leaf of at most _LEAF
# values is summed by add.reduce itself, as one row of a matrix is.
# tests/test_patterns.py pins both facts to the numpy in use.
_LEAF = 128


def _tree(n: int):
    """numpy's summation tree over n values: which nodes of each level split,
    from the root down (a node that does not is carried to the next level
    as it is), and the bounds of the leaves, from 0 to n."""
    splits, bounds = [], np.array([0, n])
    while True:
        sizes = np.diff(bounds)
        split = sizes > _LEAF
        if not split.any():
            return splits, bounds
        half = sizes[split] // 2
        half -= half % 8
        splits.append(split)
        bounds = np.sort(np.concatenate((bounds, bounds[:-1][split] + half)))


class _PairwiseSums:
    """np.add.reduce of each of several float64 sequences, of lengths ns,
    whose values arrive in order: each add() passes the next chunk of every
    sequence. A leaf of numpy's tree is summed once its values are in, and
    the inner nodes are added level by level at the end, so what is held is
    a bound and a sum per leaf and less than a leaf of each sequence."""

    def __init__(self, ns):
        self.ns = list(ns)
        # the sequences are laid end to end, and so are their leaves:
        # leaf k holds positions bounds[k] .. bounds[k + 1] - 1
        pos = np.concatenate(([0], np.cumsum(self.ns)))
        leaves = {n: _tree(n)[1][:-1] for n in set(self.ns)}
        self.bounds = np.concatenate([p + leaves[n] for p, n in zip(pos, self.ns)] + [pos[-1:]])
        self.first = np.concatenate(([0], np.cumsum([len(leaves[n]) for n in self.ns])))
        self.sums = np.empty(len(self.bounds) - 1)
        self.start = pos[:-1]  # each sequence's first position
        self.done = self.first[:-1]  # its next leaf to sum
        self.seen = self.start  # and its values fed, as a position
        self.carry = [np.empty(0)] * len(self.ns)  # its values past the leaves summed

    def add(self, chunks) -> None:
        """Feed the next values of every sequence: chunks[s] holds those of
        sequence s, as an array of any shape read in row-major order."""
        held = np.array([len(x) for x in self.carry])
        fed = np.array([x.size for x in chunks])
        base = self.seen - held  # the position of each sequence's first value in buf
        # every leaf but a sequence's last holds a multiple of 8 values, so
        # each starts a row of 8 in buf when a sequence's values lie where
        # their position does, modulo 8; leaves are then gathered row-wise
        lead = (base - self.start) % 8
        room = (lead + held + fed + 7) // 8 * 8
        at = np.cumsum(room) - room + lead  # where each sequence goes in buf
        buf = np.empty(int(room.sum()))
        for a, h, x, y in zip(at, held, self.carry, chunks):
            buf[a:a + h] = x
            buf[a + h:a + h + y.size].reshape(y.shape)[...] = y
        self.seen = self.seen + fed
        k1 = np.searchsorted(self.bounds, self.seen, side="right") - 1
        count = k1 - self.done
        seq = np.repeat(np.arange(len(fed)), count)
        leaves = np.arange(count.sum()) + np.repeat(self.done - np.cumsum(count) + count, count)
        row = (self.bounds[leaves] - base[seq] + at[seq]) // 8
        size = self.bounds[leaves + 1] - self.bounds[leaves]
        rows = buf.reshape(-1, 8)
        for n in unique_sorted(size.copy()):
            k = np.flatnonzero(size == n)
            values = rows.take(row[k, None] + np.arange(-(-n // 8)), axis=0).reshape(len(k), -1)
            self.sums[leaves[k]] = np.add.reduce(values[:, :n], axis=1)
        self.done = k1
        self.carry = [buf[a:b].copy() for a, b in zip(self.bounds[k1] - base + at, at + held + fed)]

    def totals(self) -> list[np.float64]:
        assert (self.done == self.first[1:]).all(), "values missing"
        splits = {n: _tree(n)[0] for n in set(self.ns)}
        out = []
        for n, lo, hi in zip(self.ns, self.first[:-1], self.first[1:]):
            node = self.sums[lo:hi]
            for split in reversed(splits[n]):
                # the first child of each node on the level below
                child = np.cumsum(split + 1) - 1 - split
                node, below = node[child], node
                node[split] += below[child[split] + 1]
            out.append(node[0])
        return out


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

    squares, deviation_of = _PairwiseSums(n), np.repeat(mean, np.diff(edges))
    for lo, hi in tm.blocks(width):
        x = np.subtract(tm.event_counts(bin_of, width, lo, hi), deviation_of, dtype=float)
        x *= x
        squares.add([x[:, a:b] for a, b in zip(edges[:-1], edges[1:])])
    se = np.array([np.sqrt(s / (k - 1)) / math.sqrt(k) if k > 1 else np.nan
                   for s, k in zip(squares.totals(), n)])
    return mean, n, se


def _weekdays(tm: TableMetrics, analysis_year: int) -> PatternSeries:
    """The whole population's weekday activity means: the year's days are
    laid out weekday by weekday, each weekday's in date order."""
    ys, ye = year_bounds(analysis_year)
    wd = weekday_of(np.arange(ys, ye, 86400) // 86400)
    column = np.empty(len(wd), dtype=np.int64)
    column[np.argsort(wd, kind="stable")] = np.arange(len(wd))
    edges = np.concatenate(([0], np.cumsum(np.bincount(wd, minlength=7))))
    stat, n, se = _streamed_mean_se(tm, lambda ts: column[(ts - ys) // 86400], edges)
    return PatternSeries(WEEKDAY_IDS, stat, n, se)


def _hours(tm: TableMetrics) -> PatternSeries:
    """The whole population's hour-of-day activity means."""
    stat, n, se = _streamed_mean_se(tm, lambda ts: tod_bins(ts, 24), np.arange(25))
    return PatternSeries(HOUR_IDS, stat, n, se)


def _month(ids, v: np.ndarray, rows, statistic: str) -> PatternSeries | None:
    """The month series of one statistic of v (individuals x months) over
    a cohort's rows, None for everyone; None for a normalized median whose
    level is zero."""
    stat = np.empty(len(ids))
    n = np.empty(len(ids), dtype=np.int64)
    se = np.full(len(ids), np.nan) if statistic == "mean" else None
    for b in range(len(ids)):
        s = (v[:, b] if rows is None else v[rows, b]).astype(float)
        n[b] = len(s)
        if statistic == "mean":
            stat[b], e = _mean_se(s)
            if e is not None:
                se[b] = e
        else:
            stat[b] = _median(s)
    if statistic == "normalized_median":
        norm = float(np.mean(stat))
        if norm == 0:
            return None
        stat = stat / norm
    return PatternSeries(ids, stat, n, se)


def _months(tm: TableMetrics, areas: np.ndarray, analysis_year: int) -> dict:
    """The month series of series(): one activity and mobility table of
    every individual serves them all, and each month's samples are a
    column of it."""
    ids = tuple(w for w, _, _ in WindowSpec("month").contiguous_windows(analysis_year))
    activity, mobility = tm.activity_mobility(np.array(month_starts(analysis_year)))
    cohorts = [("all", None, {"activity": activity, "mobility": mobility})]
    cohorts += [(f"area{a}", a, {"activity": activity}) for a in range(1, 6)]
    out = {}
    for cohort, area, values in cohorts:
        rows = None if area is None else np.flatnonzero(areas == area)
        if rows is not None and not len(rows):
            continue
        for statistic in ("mean", "normalized_median"):
            for value, v in values.items():
                s = _month(ids, v, rows, statistic)
                if s is not None:
                    out[cohort, "month", value, statistic] = s
    return out


def series(tm: TableMetrics, areas: np.ndarray, analysis_year: int) -> dict:
    """Every pattern series of the report, {(cohort, axis, value,
    statistic): PatternSeries} in the order it writes them: the whole
    population's ("all") weekday and hour activity means and month
    activity and mobility means and normalized medians, then the month
    activity mean and normalized median of each density class ("area1"
    .."area5"). areas holds each individual's class, 0 for none, in id
    order. An empty cohort, or a normalized median whose level is zero,
    is left out."""
    return {("all", "dow", "activity", "mean"): _weekdays(tm, analysis_year),
            ("all", "hour", "activity", "mean"): _hours(tm),
            **_months(tm, areas, analysis_year)}


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
