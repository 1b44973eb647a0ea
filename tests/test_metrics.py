"""Window metrics engine: prefix sums, pooled bins, window algebra."""

import csv
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haversine_km, table_metrics

from cdrmob.ingest import EventTable
from cdrmob.metrics import (
    TableMetrics,
    WindowSpec,
    metrics_rows,
    tod_bins,
)
from cdrmob.pipeline import WRITERS, _write_csv
from cdrmob.records import EPOCH_WEEKDAY, TowerRegistry, parse_timestamp, year_bounds

REG = TowerRegistry({"T1": (40.0, 20.0), "T2": (40.1, 20.1), "T3": (40.3, 20.4)})
HOME = (40.0, 20.0)


def _tm(ts, towers, home=HOME, divisor="events"):
    """TableMetrics of one individual "e"."""
    return table_metrics(REG, {"e": (ts, towers)}, {"e": home}, divisor)


class Row(NamedTuple):
    ego_id: str
    window: str
    activity: int
    mobility_km: float
    rg_km: float | None  # None when the home is unknown or the window is empty
    pairs: int


def _rows(tm, spec) -> list[Row]:
    """The rows of metrics_rows' blocks of columns."""
    return [
        Row(e, w, a, m, None if math.isnan(rg) else rg, p)
        for cols in metrics_rows(tm, spec, 2008)
        for e, w, a, m, rg, p in zip(*(c if isinstance(c, list) else c.tolist() for c in cols))
    ]


def _window(tm, t0, t1, row=0, home=HOME) -> Row:
    """The row of window [t0, t1); rg only when the individual has a home."""
    a, m, rg, pairs = (x[row, 0] for x in tm.windows(np.array([t0, t1], dtype=np.int64)))
    homed = home is not None and a > 0
    return Row(tm.table.ids[row], "", int(a), float(m), float(rg) if homed else None, int(pairs))


def _d(i, j):
    return float(haversine_km(REG.lat[i], REG.lon[i], REG.lat[j], REG.lon[j]))


def test_three_event_window_by_hand():
    ys, _ = year_bounds(2008)
    tm = _tm([ys + 100, ys + 200, ys + 300], [0, 1, 2])
    row = _window(tm, ys, ys + 1000)
    d01, d12 = _d(0, 1), _d(1, 2)
    h1 = float(haversine_km(REG.lat[1], REG.lon[1], *HOME))
    h2 = float(haversine_km(REG.lat[2], REG.lon[2], *HOME))
    assert row.activity == 3 and row.pairs == 2
    assert row.mobility_km == pytest.approx(math.sqrt((d01**2 + d12**2) / 3), rel=1e-12)
    assert row.rg_km == pytest.approx(math.sqrt((h1**2 + h2**2) / 3), rel=1e-12)


def test_divisor_pairs_changes_the_denominator():
    ys, _ = year_bounds(2008)
    d = _d(0, 1)
    by_events = _window(_tm([ys + 100, ys + 200], [0, 1], None), ys, ys + 1000, home=None)
    by_pairs = _window(_tm([ys + 100, ys + 200], [0, 1], None, "pairs"), ys, ys + 1000, home=None)
    assert by_events.mobility_km == pytest.approx(d / math.sqrt(2), rel=1e-12)
    assert by_pairs.mobility_km == pytest.approx(d, rel=1e-12)
    with pytest.raises(ValueError):
        _tm([ys + 100, ys + 200], [0, 1], None, "median")


def test_empty_and_homeless_windows():
    ys, _ = year_bounds(2008)
    tm = _tm([ys + 100], [0])
    empty = _window(tm, ys + 500, ys + 600)
    assert empty.activity == 0 and empty.mobility_km == 0.0 and empty.rg_km is None
    single = _window(tm, ys, ys + 200)
    assert single.activity == 1 and single.mobility_km == 0.0
    assert single.rg_km == pytest.approx(0.0)
    no_home = _window(_tm([ys + 100], [1], None), ys, ys + 200, home=None)
    assert no_home.rg_km is None


def test_pairs_never_cross_individuals():
    # a's last event and b's first are far apart but belong to two people
    ys, _ = year_bounds(2008)
    tm = table_metrics(REG, {"a": ([ys + 10, ys + 20], [0, 0]), "b": ([ys + 30], [2])})
    assert tm.d2.tolist() == [0.0, 0.0, 0.0]
    a, m, _, pairs = tm.windows(np.array([ys, ys + 100]))
    assert a[:, 0].tolist() == [2, 1] and pairs[:, 0].tolist() == [1, 0]
    assert m[:, 0].tolist() == [0.0, 0.0]


_TS = st.lists(
    st.integers(parse_timestamp("2008-01-01T00:00:00"), parse_timestamp("2008-12-30T00:00:00")),
    min_size=0,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(_TS, st.data())
def test_window_split_algebra(raw_ts, data):
    """Splitting a window at t keeps activity and pooled squared home
    distance additive, and mobility loses exactly the crossing pair."""
    ts = np.sort(np.asarray(raw_ts, dtype=np.int64))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    tm = _tm(ts, rng.integers(0, 3, size=len(ts)))
    if not len(ts):
        assert len(tm.table) == 0
        return
    towers = tm.table.tower  # ties on a timestamp are ordered by tower
    ys, ye = year_bounds(2008)
    cut = data.draw(st.integers(ys, ye))
    whole = _window(tm, ys, ye)
    left = _window(tm, ys, cut)
    right = _window(tm, cut, ye)
    assert whole.activity == left.activity + right.activity

    def h2sum(r):
        return (r.rg_km or 0.0) ** 2 * r.activity

    assert h2sum(whole) == pytest.approx(h2sum(left) + h2sum(right), abs=1e-7)

    k = int(np.searchsorted(ts, cut, side="left"))
    cross = 0.0
    if left.activity and right.activity:
        cross = _d(int(towers[k - 1]), int(towers[k])) ** 2
    whole_d2 = whole.mobility_km**2 * whole.activity
    parts_d2 = left.mobility_km**2 * left.activity + right.mobility_km**2 * right.activity
    assert whole_d2 == pytest.approx(parts_d2 + cross, abs=1e-7)


def test_month_windows_partition_the_year():
    ys, ye = year_bounds(2008)
    rng = np.random.default_rng(9)
    ts = np.sort(rng.integers(ys, ye, size=500))
    tm = _tm(ts, rng.integers(0, 3, size=500))
    months = _rows(tm, WindowSpec("month"))
    assert [r.window for r in months] == [f"2008-{m:02d}" for m in range(1, 13)]
    assert sum(r.activity for r in months) == 500
    days = _rows(tm, WindowSpec("day"))
    assert len(days) == 366  # leap year
    assert sum(r.activity for r in days) == 500
    year = _rows(tm, WindowSpec("year"))
    assert len(year) == 1 and year[0].activity == 500


def test_range_window_spec():
    s = parse_timestamp("2008-03-01T00:00:00")
    e = parse_timestamp("2008-04-01T00:00:00")
    spec = WindowSpec("range", s, e)
    [(wid, t0, t1)] = spec.contiguous_windows(2008)
    assert wid == "2008-03-01T00:00:00/2008-04-01T00:00:00"
    assert (t0, t1) == (s, e)
    with pytest.raises(ValueError):
        WindowSpec("range")
    with pytest.raises(ValueError):
        WindowSpec("range", e, s)
    with pytest.raises(ValueError):
        WindowSpec("year", s, e)
    with pytest.raises(ValueError):
        WindowSpec("fortnight")


def test_hour_bins_attribute_pairs_to_the_earlier_event():
    t0 = parse_timestamp("2008-06-01T10:59:00")
    t1 = parse_timestamp("2008-06-01T11:01:00")
    rows = _rows(_tm([t0, t1], [0, 1]), WindowSpec("hour"))
    assert [r.window for r in rows] == [f"h{h:02d}" for h in range(24)]
    by_id = {r.window: r for r in rows}
    assert by_id["h10"].activity == 1 and by_id["h11"].activity == 1
    assert by_id["h10"].pairs == 1 and by_id["h11"].pairs == 0
    assert by_id["h10"].mobility_km == pytest.approx(_d(0, 1), rel=1e-12)  # one event, one pair


def test_weekday_bins_skip_day_crossing_pairs():
    # 2008-01-01 was a Tuesday
    t0 = parse_timestamp("2008-01-01T23:50:00")
    t1 = parse_timestamp("2008-01-02T00:10:00")
    rows = {r.window: r for r in _rows(_tm([t0, t1], [0, 2]), WindowSpec("weekday"))}
    assert rows["Tue"].activity == 1 and rows["Wed"].activity == 1
    assert all(r.pairs == 0 for r in rows.values())
    # same-day pair does count
    t2 = parse_timestamp("2008-01-01T10:00:00")
    rows2 = {r.window: r for r in _rows(_tm([t2, t0], [0, 1]), WindowSpec("weekday"))}
    assert rows2["Tue"].pairs == 1


def test_metrics_table_and_csv_round_trip(tmp_path):
    ys, _ = year_bounds(2008)
    tm = table_metrics(
        REG,
        {"u2": ([ys + 10, ys + 7200], [0, 1]), "u1": ([ys + 50], [2])},
        {"u1": HOME, "u2": None},
    )
    rows = _rows(tm, WindowSpec("year"))
    assert [(r.ego_id, r.activity) for r in rows] == [("u1", 1), ("u2", 2)]
    assert rows[1].rg_km is None
    path = tmp_path / "metrics.csv"
    _, header, _ = WRITERS["metrics"]
    _write_csv(path, header, metrics_rows(tm, WindowSpec("year"), 2008))
    with open(path, newline="", encoding="utf-8") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["ego_id", "window", "activity", "mobility_km", "rg_km", "pairs"]
    assert len(back) == 3
    for r, line in zip(rows, back[1:]):
        # floats are written at full precision, a missing rg as a blank
        assert line[:3] == [r.ego_id, "2008", str(r.activity)]
        assert float(line[3]) == r.mobility_km
        assert line[4] == ("" if r.rg_km is None else repr(r.rg_km))
        assert int(line[5]) == r.pairs


def test_hour_and_weekday_bins_equal_the_remainder():
    # the bins come from floor division; numpy's % is the reference, on
    # negative times, day and week edges, and times far from the epoch
    rng = np.random.default_rng(23)
    edges = np.array([0, 1, 3599, 3600, 86399, 86400, 7 * 86400 - 1, 7 * 86400])
    ts = np.sort(np.concatenate([
        edges, -edges, edges - 1, edges + parse_timestamp("2008-03-03T00:00:00"),
        rng.integers(-2**40, 2**40, 2000), rng.integers(-2**62, 2**62, 200),
    ]))
    tab = EventTable(["e"], np.array([0, len(ts)]), ts, np.zeros(len(ts), dtype=np.int32))
    tm = TableMetrics(tab, REG)
    for nbins in (1, 24, 48, 96, 1440):
        assert (tod_bins(ts, nbins) == (ts % 86400) // (86400 // nbins)).all(), nbins
    bins = []
    tm.pooled = lambda b, *args, **kw: bins.append(b)
    tm.weekday(0, 1)
    assert (bins[0] == (ts // 86400 + EPOCH_WEEKDAY) % 7).all()
