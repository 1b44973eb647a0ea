"""Cohort pattern series and demographic strata."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import table_metrics

from cdrmob.patterns import (
    PatternError,
    PatternSeries,
    demographic_table,
    pattern,
)
from cdrmob.pipeline import WRITERS, _write_csv
from cdrmob.records import AGE_GROUP_LABELS, TowerRegistry, age_group_of, load_demographics

REG = TowerRegistry({"T1": (40.0, 20.0), "T2": (40.1, 20.1)})


def _one_tower(stamps):
    """One individual's events, all at the first tower."""
    return stamps, [0] * len(stamps)


def _metrics(events, homes=None, year=2008):
    return table_metrics(REG, events, homes or {}, year=year)


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
    s = pattern(_metrics(events), None, "dow", "activity")
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
    s = pattern(_metrics(events), None, "hour", "activity")
    assert s.bins[10] == "h10"
    assert s.n[10] == 2  # both individuals contribute one pooled sample
    assert s.stat[10] == pytest.approx((3 + 1) / 2)
    assert s.stat[11] == 0.0 and s.n[11] == 2


def test_month_pattern_counts_quiet_months_as_zero():
    events = {"a": _one_tower(["2008-03-05T12:00:00", "2008-03-20T12:00:00"])}
    s = pattern(_metrics(events), None, "month", "activity")
    assert len(s.bins) == 12 and s.bins[2] == "2008-03"
    assert np.all(s.n == 1)
    assert s.stat[2] == 2.0 and s.stat[0] == 0.0


def test_cohort_selection_and_validation():
    events = {"a": _one_tower(["2008-03-05T12:00:00"]), "b": _one_tower(["2008-04-05T12:00:00"])}
    tm = _metrics(events)
    only_b = pattern(tm, [1], "month", "activity")  # rows follow id order: a, b
    assert only_b.stat[3] == 1.0 and only_b.stat[2] == 0.0
    with pytest.raises(PatternError):
        pattern(tm, [], "month", "activity")
    # only the kinds the report writes: no rg, no year axis, no plain
    # median, and no weekday or hour mobility
    for kind in (("decade", "activity"), ("month", "happiness"), ("month", "activity", "mode"),
                 ("month", "rg"), ("year", "activity"), ("month", "activity", "median"),
                 ("dow", "mobility"), ("hour", "mobility")):
        with pytest.raises(ValueError):
            pattern(tm, None, *kind)


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
    s = pattern(_metrics(events), None, "month", "activity", "normalized_median")
    assert s.se is None
    assert float(np.mean(s.stat[s.n > 0])) == pytest.approx(1.0, abs=1e-12)


def test_normalized_median_rejects_zero_level():
    # the only individual has no events inside the analysis year
    events = {"a": _one_tower(["2009-03-05T12:00:00"])}
    tm = _metrics(events, year=2009)
    with pytest.raises(PatternError):
        pattern(tm, None, "month", "activity", "normalized_median", 2008)


def test_write_pattern_csv_handles_labels_and_gaps(tmp_path):
    events = {"a": _one_tower(["2008-03-05T12:00:00"])}
    s1 = pattern(_metrics(events), None, "month", "activity")
    # a series with empty bins and no standard error: blank cells
    stat = np.full(12, np.nan)
    stat[2] = 1.0
    s2 = PatternSeries("month", "activity", "normalized_median", s1.bins, stat,
                       (stat == 1.0).astype(np.int64), None)
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
    tm = _metrics(events)
    rows, skipped = demographic_table(tm, demo, areas)
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
    rows, skipped = demographic_table(_metrics(events), demo, None)
    assert skipped == 1
    got = {r.age_group: r.n for r in rows if r.area == "all" and r.gender == "all"}
    want = Counter(AGE_GROUP_LABELS[age_group_of(a)] for a in ages)
    assert got == {"all": len(ages), **want}


def test_demographic_table_requires_overlap(tmp_path):
    events = {"u1": _one_tower(["2008-01-01T10:00:00"])}
    tm = _metrics(events)
    with pytest.raises(PatternError):
        demographic_table(tm, _demographics(tmp_path, []), None)
    # demographics of other individuals only
    with pytest.raises(PatternError):
        demographic_table(tm, _demographics(tmp_path, [("u2", "f", 30)]), None)
