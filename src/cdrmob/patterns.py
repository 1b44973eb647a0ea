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

Only the kinds in KINDS are computed. Every bin of such a series has a
sample of every individual of the cohort.

normalized_median rescales the per-bin medians so their mean is 1, which
makes shapes comparable across cohorts of very different overall levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import HOUR_IDS, WEEKDAY_IDS, TableMetrics, WindowSpec
from .records import AGE_GROUP_LABELS, EPOCH_WEEKDAY, Demographics, age_group_of, year_bounds

# The (axis, value, statistic) kinds of pattern series, in the order the
# report writes them for the whole population.
KINDS = (
    ("dow", "activity", "mean"),
    ("hour", "activity", "mean"),
    ("month", "activity", "mean"),
    ("month", "mobility", "mean"),
    ("month", "activity", "normalized_median"),
    ("month", "mobility", "normalized_median"),
)


class PatternError(Exception):
    """A series or table cannot be formed: an empty cohort, or a
    normalized series whose level is zero."""


@dataclass
class PatternSeries:
    axis: str
    value: str
    statistic: str
    bins: tuple[str, ...]
    stat: np.ndarray
    n: np.ndarray
    se: np.ndarray | None  # standard error, mean statistic only; NaN for one sample


def _mean_se(x: np.ndarray) -> tuple[float, float | None]:
    m = float(x.mean())
    return m, (float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else None)


def pattern(
    tm: TableMetrics,
    rows,
    axis: str,
    value: str,
    statistic: str = "mean",
    analysis_year: int = 2008,
) -> PatternSeries:
    """Pattern series of one of the KINDS for a cohort: rows of the table
    (individuals in id order, ascending), None for everyone."""
    if (axis, value, statistic) not in KINDS:
        raise ValueError(f"unknown pattern kind {axis}/{value}/{statistic}")
    rows = np.arange(len(tm.table)) if rows is None else np.asarray(rows, dtype=np.int64)
    if not len(rows):
        raise PatternError(f"no usable individuals for {value} pattern")

    def select(v):
        """The cohort's samples of a matrix of windows, row-major, as floats."""
        return (v if len(rows) == len(tm.table) else v[rows]).ravel().astype(float)

    if axis == "dow":
        ids: tuple[str, ...] = WEEKDAY_IDS
        ys, ye = year_bounds(analysis_year)
        wd = (np.arange(ys, ye, 86400) // 86400 + EPOCH_WEEKDAY) % 7
        counts, = tm.stack(lambda lo, hi: (tm.day_counts(analysis_year, lo, hi),), len(wd))
        samples = (select(counts[:, wd == w]) for w in range(7))
    elif axis == "hour":
        ids = HOUR_IDS
        counts, = tm.stack(lambda lo, hi: (tm.time_of_day_counts(24, lo, hi),), 24)
        samples = (select(counts[:, b]) for b in range(24))
    else:
        spans = WindowSpec("month").contiguous_windows(analysis_year)
        ids = tuple(w for w, _, _ in spans)
        a, m, _, _ = tm.windows(np.array([spans[0][1]] + [t1 for _, _, t1 in spans]))
        v = a if value == "activity" else m
        samples = (select(v[:, b]) for b in range(len(ids)))

    stat = np.empty(len(ids))
    n = np.empty(len(ids), dtype=np.int64)
    se = np.full(len(ids), np.nan) if statistic == "mean" else None
    for b, s in enumerate(samples):
        n[b] = len(s)
        if statistic == "mean":
            stat[b], e = _mean_se(s)
            if e is not None:
                se[b] = e
        else:
            stat[b] = float(np.median(s))
    if statistic == "normalized_median":
        norm = float(np.mean(stat))
        if norm == 0:
            raise PatternError("cannot normalize: median level is zero")
        stat = stat / norm
    return PatternSeries(axis, value, statistic, ids, stat, n, se)


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
    tm: TableMetrics,
    demographics: Demographics,
    areas: np.ndarray | None,
    analysis_year: int = 2008,
) -> tuple[list[StratumRow], int]:
    """Whole-year means stratified by density class, gender, and age group.

    areas holds each individual's density class in id order (0 for none).
    Returns the populated strata and the count of individuals skipped for
    lacking demographics. Empty strata are omitted.
    """
    people = [demographics.by_id.get(e) for e in tm.table.ids]
    rows = np.flatnonzero([p is not None for p in people])
    skipped = len(people) - len(rows)
    if not len(rows):
        raise PatternError("no individuals with demographics")
    female, age = np.array([people[k] for k in rows], dtype=np.int64).T
    female, group = female == 1, age_group_of(age)
    a, mob, rg, _ = (x[rows, 0] for x in tm.windows(np.array(year_bounds(analysis_year))))
    act = a.astype(float)
    area = np.zeros(len(rows), dtype=np.int64) if areas is None else areas[rows]

    out: list[StratumRow] = []
    area_keys = ["all"] + [str(a) for a in range(1, 6)]
    for ak in area_keys:
        am = np.ones(len(rows), dtype=bool) if ak == "all" else area == int(ak)
        for gk in ("all", "female", "male"):
            gm = am if gk == "all" else am & (female == (gk == "female"))
            for g, grk in enumerate(("all",) + AGE_GROUP_LABELS, start=-1):
                m = gm if grk == "all" else gm & (group == g)
                nsel = int(m.sum())
                if nsel == 0:
                    continue
                ma, sa = _mean_se(act[m])
                mm, sm = _mean_se(mob[m])
                rsel = rg[m]
                rsel = rsel[~np.isnan(rsel)]
                if len(rsel):
                    mr, sr = _mean_se(rsel)
                else:
                    mr = sr = None
                out.append(
                    StratumRow(ak, gk, grk, nsel, ma, sa, mm, sm, len(rsel), mr, sr)
                )
    return out, skipped
