"""Cohort pattern series and demographic strata."""

import math
import zipfile
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from conftest import table_metrics, traced_peak

from cdrmob import metrics
from cdrmob.ingest import EventTable, IngestResult, IngestStats, write_spool
from cdrmob.metrics import TableMetrics
from cdrmob.patterns import (
    PatternError,
    PatternSeries,
    _median,
    _PairwiseSums,
    demographic_table,
    series,
)
from cdrmob.pipeline import WRITERS, _write_csv
from cdrmob.records import (
    AGE_GROUP_LABELS,
    EPOCH_WEEKDAY,
    TowerRegistry,
    age_group_of,
    load_demographics,
    month_starts,
    year_bounds,
)

REG = TowerRegistry({"T1": (40.0, 20.0), "T2": (40.1, 20.1)})


def _one_tower(stamps):
    """One individual's events, all at the first tower."""
    return stamps, [0] * len(stamps)


def _metrics(events, homes=None, year=2008):
    return table_metrics(REG, events, homes or {}, year=year)


def _series(tm, areas=None):
    """series() of a table's individuals in 2008; without areas, none has
    a density class."""
    if areas is None:
        areas = np.zeros(len(tm.table), dtype=np.int64)
    return series(tm, np.asarray(areas), 2008)


def _whole(events, axis, statistic="mean"):
    """The whole population's activity series of one axis and statistic."""
    return _series(_metrics(events))["all", axis, "activity", statistic]


def _strata(tm, demographics, areas=None):
    """demographic_table of a table's individuals, from their year rows;
    without areas, none has a density class."""
    year = tuple(x[:, 0] for x in tm.windows(np.array(year_bounds(2008))))
    if areas is None:
        areas = np.zeros(len(tm.table), dtype=np.int64)
    return demographic_table(tm.table.ids, year, demographics, areas)


def _demographics(tmp_path, rows):
    """Demographics loaded from a file of (ego_id, gender, age) rows."""
    path = tmp_path / "demographics.csv"
    path.write_text("".join(f"{e},{g},{a}\n" for e, g, a in rows))
    return load_demographics(path)


def test_dow_pattern_pools_calendar_days():
    # 2008-01-01 was a Tuesday; 2008 has 53 Tuesdays and Wednesdays and
    # 52 of every other weekday
    events = {
        "a": _one_tower(["2008-01-04T10:00:00", "2008-01-04T11:00:00", "2008-01-06T10:00:00"])
    }
    s = _whole(events, "dow")
    assert s.bins == ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
    by = dict(zip(s.bins, s.stat))
    n_by = dict(zip(s.bins, s.n))
    assert n_by == {"Mon": 52, "Tue": 53, "Wed": 53, "Thu": 52, "Fri": 52, "Sat": 52, "Sun": 52}
    assert by["Fri"] == pytest.approx(2 / 52)  # one Friday with 2 events
    assert by["Sun"] == pytest.approx(1 / 52)
    assert by["Mon"] == 0.0


def test_hour_pattern_one_pooled_sample_per_individual():
    events = {
        "a": _one_tower(["2008-01-01T10:05:00", "2008-02-01T10:10:00", "2008-03-01T10:15:00"]),
        "b": _one_tower(["2008-01-01T10:30:00"]),
    }
    s = _whole(events, "hour")
    assert s.bins[10] == "h10"
    assert s.n[10] == 2  # both individuals contribute one pooled sample
    assert s.stat[10] == pytest.approx((3 + 1) / 2)
    assert s.stat[11] == 0.0 and s.n[11] == 2


def test_month_pattern_counts_quiet_months_as_zero():
    events = {"a": _one_tower(["2008-03-05T12:00:00", "2008-03-20T12:00:00"])}
    s = _whole(events, "month")
    assert len(s.bins) == 12 and s.bins[2] == "2008-03"
    assert np.all(s.n == 1)
    assert s.stat[2] == 2.0 and s.stat[0] == 0.0


def test_cohort_selection_and_validation():
    events = {"a": _one_tower(["2008-03-05T12:00:00"]), "b": _one_tower(["2008-04-05T12:00:00"])}
    got = _series(_metrics(events), [0, 3])  # classes follow id order: a, b
    only_b = got["area3", "month", "activity", "mean"]
    assert only_b.stat[3] == 1.0 and only_b.stat[2] == 0.0 and only_b.n.tolist() == [1] * 12
    # an empty cohort is left out, and so is the median of a mobility that
    # is zero; a cohort has month activity series only, and weekday and
    # hour series are the whole population's
    assert list(got) == [
        ("all", "dow", "activity", "mean"),
        ("all", "hour", "activity", "mean"),
        ("all", "month", "activity", "mean"),
        ("all", "month", "mobility", "mean"),
        ("all", "month", "activity", "normalized_median"),
        ("area3", "month", "activity", "mean"),
        ("area3", "month", "activity", "normalized_median"),
    ]
    assert got["all", "hour", "activity", "mean"].n.tolist() == [2] * 24


def _spread(rng, n):
    """n floats of magnitudes from 1e-8 to 1e8, so that the order in which
    they are added shows in their sum."""
    return rng.random(n) * 10.0 ** rng.integers(-8, 9, size=n)


def test_the_streamed_sum_is_numpys_pairwise_sum():
    rng = np.random.default_rng(3)
    # a leaf of numpy's tree is summed as one row of a matrix is
    for n in range(1, 129):
        x = _spread(rng, 5 * n).reshape(5, n)
        rows = np.array([np.add.reduce(r) for r in x])
        assert np.add.reduce(x, axis=1).tobytes() == rows.tobytes()
    # every length to 300, then long ones, each fed in random chunks
    for lengths, most in ((range(1, 301), 40), ([1023, 4097, 65537, 999_983, 2_000_003], 300_000)):
        xs = [_spread(rng, n) for n in lengths]
        sums = _PairwiseSums([len(x) for x in xs])
        fed = np.zeros(len(xs), dtype=np.int64)
        while (fed < lengths).any():
            step = np.minimum(rng.integers(0, most, size=len(xs)), np.array(lengths) - fed)
            sums.add([x[f:f + k] for x, f, k in zip(xs, fed, step)])
            fed += step
        assert [float(t) for t in sums.totals()] == [float(np.add.reduce(x)) for x in xs]
    # which a plain left-to-right sum would not give
    assert np.cumsum(xs[-1])[-1] != np.add.reduce(xs[-1])


def test_the_median_is_numpys_median():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 7, 8, 1000, 1001):
        for x in (_spread(rng, n), rng.integers(0, 3, size=n).astype(float)):
            assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()
            x[rng.integers(n)] = np.nan
            assert math.isnan(_median(x)) and math.isnan(np.median(x))


@pytest.mark.parametrize("block", [7, 1 << 12, None])
def test_pattern_series_are_numpys_statistics_of_their_samples(block):
    """Every series, for everyone and for each density class, against
    numpy's mean, std(ddof=1) / sqrt(n) and median of its samples pooled
    in one array, to the last bit; the blocks are as small as 7 cells."""
    rng = np.random.default_rng(11)
    ys, ye = year_bounds(2008)
    n = 400
    sizes = rng.integers(1, 150, size=n)
    # each individual's events fall on some days, so day counts vary
    ts = np.concatenate([
        np.sort(ys + 86400 * rng.integers(0, 366, size=d)[rng.integers(0, d, size=k)]
                + rng.integers(0, 86400, size=k))
        for k, d in zip(sizes, rng.integers(1, 40, size=n))
    ])
    reg = TowerRegistry({f"T{k}": (40.0 + 0.13 * k, 20.0 + 0.07 * k * k) for k in range(5)})
    tab = EventTable(
        ids=[f"u{k:03d}" for k in range(n)], offsets=np.concatenate(([0], np.cumsum(sizes))), ts=ts,
        tower=rng.integers(0, len(reg), size=len(ts)).astype(np.int32),
    )
    tm = TableMetrics(tab, reg)
    seg = np.repeat(np.arange(n), sizes)
    day, hour = np.zeros((n, 366)), np.zeros((n, 24))
    np.add.at(day, (seg, (ts - ys) // 86400), 1)
    np.add.at(hour, (seg, ts % 86400 // 3600), 1)
    weekday = (np.arange(ys, ye, 86400) // 86400 + EPOCH_WEEKDAY) % 7
    act, mob, _, _ = tm.windows(np.array(month_starts(2008)))

    def samples(axis, value, rows):
        if axis == "dow":
            return [day[rows][:, weekday == w].ravel() for w in range(7)]
        if axis == "hour":
            return [hour[rows][:, b] for b in range(24)]
        return [(act if value == "activity" else mob)[rows][:, b].astype(float) for b in range(12)]

    areas = rng.integers(0, 6, size=n)
    with mock.patch.object(metrics, "_BLOCK_CELLS", block or metrics._BLOCK_CELLS):
        got = _series(tm, areas)
    # six series of everyone, and two month series of each density class
    assert len(got) == 16
    cases = [(None if c == "all" else np.flatnonzero(areas == int(c[4:])), (axis, value, statistic))
             for c, axis, value, statistic in got]
    for s, (rows, (axis, value, statistic)) in zip(got.values(), cases):
        xs = samples(axis, value, slice(None) if rows is None else rows)
        assert s.n.tolist() == [len(x) for x in xs]
        if statistic == "mean":
            assert s.stat.tobytes() == np.array([np.mean(x) for x in xs]).tobytes()
            se = np.array([x.std(ddof=1) / math.sqrt(len(x)) for x in xs])
            assert s.se.tobytes() == se.tobytes()
        else:
            median = np.array([np.median(x) for x in xs])
            assert s.stat.tobytes() == (median / np.mean(median)).tobytes()


def test_normalized_median_mean_is_one():
    rng = np.random.default_rng(4)
    events = {}
    for k in range(12):
        stamps = [
            f"2008-{m:02d}-{int(d):02d}T{int(h):02d}:00:00"
            for m in range(1, 13)
            for d, h in zip(rng.integers(1, 28, size=k + 1), rng.integers(0, 24, size=k + 1))
        ]
        events[f"u{k}"] = _one_tower(stamps)
    s = _whole(events, "month", "normalized_median")
    assert s.se is None
    assert float(np.mean(s.stat[s.n > 0])) == pytest.approx(1.0, abs=1e-12)


def test_normalized_median_rejects_zero_level():
    # each month's median over three individuals, two of them quiet, is 0
    events = {e: _one_tower([f"2008-{m:02d}-05T12:00:00"])
              for e, m in (("a", 3), ("b", 4), ("c", 5))}
    got = _series(_metrics(events), [1, 1, 1])
    assert {("all", "month", "activity", "mean"), ("area1", "month", "activity", "mean")} <= set(got)
    assert not [k for k in got if k[3] == "normalized_median"]


def test_write_pattern_csv_handles_labels_and_gaps(tmp_path):
    events = {"a": _one_tower(["2008-03-05T12:00:00"])}
    s1 = _whole(events, "month")
    # a series with empty bins and no standard error: blank cells
    stat = np.full(12, np.nan)
    stat[2] = 1.0
    s2 = PatternSeries(s1.bins, stat, (stat == 1.0).astype(np.int64), None)
    name, header, columns = WRITERS["patterns"]
    p = tmp_path / name
    bundle = {("all", "month", "activity", "mean"): s1,
              ("area3", "month", "activity", "normalized_median"): s2}
    _write_csv(p, header, columns(SimpleNamespace(patterns_bundle=bundle)))
    lines = p.read_text().splitlines()
    assert lines[0] == "cohort,axis,value,statistic,bin,stat,n,se"
    assert len(lines) == 25
    assert lines[1].startswith("all,month,activity,mean,2008-01,")
    assert lines[13] == "area3,month,activity,normalized_median,2008-01,,0,"
    assert lines[15] == "area3,month,activity,normalized_median,2008-03,1.0,1,"


def test_demographic_table_strata(tmp_path):
    events = {
        "u1": _one_tower([f"2008-01-{d:02d}T10:00:00" for d in (1, 2, 3, 4)]),
        "u2": _one_tower([f"2008-01-{d:02d}T10:00:00" for d in (1, 2)]),
        "u3": _one_tower([f"2008-01-{d:02d}T10:00:00" for d in (1, 2, 3, 4, 5, 6)]),
        "u4": _one_tower(["2008-01-01T10:00:00"]),  # no demographics: skipped
    }
    demo = _demographics(tmp_path, [("u3", "f", 25), ("u1", "f", 30), ("u2", "m", 40)])
    areas = np.array([1, 1, 2, 0])  # density class per individual, u1..u4
    rows, skipped = _strata(_metrics(events), demo, areas)
    assert skipped == 1
    cell = {(r.area, r.gender, r.age_group): r for r in rows}
    assert cell[("all", "all", "all")].n == 3
    assert cell[("all", "all", "all")].mean_activity == pytest.approx(4.0)
    assert cell[("1", "all", "all")].n == 2
    assert cell[("1", "all", "all")].mean_activity == pytest.approx(3.0)
    one_female = cell[("1", "female", "all")]
    assert one_female.n == 1 and one_female.mean_activity == 4.0
    assert one_female.se_activity is None
    # ages 30 and 25 share a band, 40 is in the next one
    assert cell[("all", "all", "early_adult")].n == 2
    assert cell[("all", "all", "early_adult")].mean_activity == pytest.approx(5.0)
    assert cell[("all", "all", "early_middle")].n == 1
    # empty strata are omitted entirely
    assert ("2", "male", "all") not in cell
    # individuals seen at one tower never move
    assert cell[("all", "all", "all")].mean_mobility_km == 0.0


def test_demographic_table_age_bands_at_their_bounds(tmp_path):
    ages = (10, 18, 19, 35, 36, 45, 46, 55, 56, 65, 66, 110)
    events = {f"u{k:02d}": _one_tower(["2008-01-01T10:00:00"]) for k in range(len(ages) + 1)}
    demo = _demographics(tmp_path, [(f"u{k:02d}", "m", a) for k, a in enumerate(ages)])
    rows, skipped = _strata(_metrics(events), demo)
    assert skipped == 1
    got = {r.age_group: r.n for r in rows if r.area == "all" and r.gender == "all"}
    want = Counter(AGE_GROUP_LABELS[age_group_of(a)] for a in ages)
    assert got == {"all": len(ages), **want}


def test_demographic_table_requires_overlap(tmp_path):
    events = {"u1": _one_tower(["2008-01-01T10:00:00"])}
    tm = _metrics(events)
    with pytest.raises(PatternError):
        _strata(tm, _demographics(tmp_path, []))
    # demographics of other individuals only
    with pytest.raises(PatternError):
        _strata(tm, _demographics(tmp_path, [("u2", "f", 30)]))


def test_one_long_id_costs_its_own_bytes_only(tmp_path):
    # fixed-width id text costs 4 bytes times the longest id for every id:
    # here 20 MB for each of the table, the demographics and the spool
    ids = [f"u{k:03d}" for k in range(500)] + ["x" * 10_000]
    events = {e: _one_tower(["2008-01-01T10:00:00"]) for e in ids}
    tm = _metrics(events)
    path = tmp_path / "demographics.csv"
    path.write_text("".join(f"{e},f,30\n" for e in ids))
    assert traced_peak(lambda: load_demographics(path)) < 1 << 20
    demo = load_demographics(path)
    assert traced_peak(lambda: _strata(tm, demo)) < 1 << 20
    result = IngestResult(tm.table, IngestStats(), 2008, "none")
    write_spool(result, REG, tmp_path / "spool")
    with zipfile.ZipFile(tmp_path / "spool" / "events.npz") as z:
        # the ids' text and a NUL between each two, after a .npy header
        assert z.getinfo("ids.npy").file_size <= len("\0".join(ids)) + 128
