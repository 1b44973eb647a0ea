"""The flat event table against a direct per-individual computation.

The reference below handles one individual at a time, with its own
arrays and prefix sums, the way the metrics were defined. The table
computes blocks of consecutive individuals at once, and for any block
size the two must agree to the last bit: same rows, same floats, same
homes.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_table, haversine_km, traced_peak

from cdrmob import metrics
from cdrmob.home import compute_homes, daily_profile, night_mask
from cdrmob.ingest import EventTable
from cdrmob.metrics import (
    HOUR_IDS,
    WEEKDAY_IDS,
    TableMetrics,
    WindowSpec,
    metrics_rows,
    rms,
)
from cdrmob.patterns import _hours, _months, _weekdays, series
from cdrmob.pipeline import _cells
from cdrmob.records import EPOCH_WEEKDAY, TowerRegistry, year_bounds

REG = TowerRegistry({f"T{k}": (40.0 + 0.13 * k, 20.0 + 0.07 * k * k) for k in range(5)})
YS, YE = year_bounds(2008)


def _text(blocks) -> list[tuple[str, ...]]:
    """The metrics.csv cells of blocks of columns."""
    return [row for cols in blocks for row in zip(*map(_cells, cols))]


def _reference_cells(column) -> list[str]:
    """The one cell rule, value by value: empty for None and NaN, the
    round-trip repr of a float, str of anything else."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return ["" if x is None or x != x else repr(float(x)) if isinstance(x, float) else str(x)
            for x in column]


# NaN with another payload, the smallest subnormal, and float extremes
_ODD_NAN = np.array([np.nan]).view(np.int64) | 1
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, float(_ODD_NAN.view(np.float64)[0]),
                     5e-324, -5e-324, 1.7976931348623157e308, 2.0 ** -1022]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=20),
    st.lists(_FLOATS, max_size=20),
    st.lists(_FLOATS, min_size=1, max_size=3, unique_by=lambda x: np.float64(x).tobytes()),
    st.lists(st.integers(0, 2), min_size=7, max_size=40),
    st.lists(st.one_of(st.none(), st.text(max_size=3), st.integers(), _FLOATS), max_size=10),
)
def test_cells_follow_the_one_cell_rule(ints, floats, pool, picks, mixed):
    # ints take map(str); floats with more distinct values than repeats
    # are formatted one by one; a column of at most three distinct floats
    # and at least seven values is formatted once per distinct bit pattern,
    # which keeps -0.0 apart from 0.0 and blanks every NaN
    repeated = np.array([pool[k % len(pool)] for k in picks], dtype=np.float64)
    with np.errstate(over="ignore"):
        narrow = repeated.astype(np.float32)
    columns = [np.array(ints, dtype=np.int64), np.array(floats, dtype=np.float64), repeated,
               repeated[::-2], narrow, mixed, [str(x) for x in mixed]]
    for column in columns:
        assert _cells(column) == _reference_cells(column)


def _reference_rows(ego, ts, tower, home, spec, divisor):
    """One individual's metrics.csv cells, computed from its own events only."""
    lat, lon = REG.lat[tower], REG.lon[tower]
    d = haversine_km(lat[:-1], lon[:-1], lat[1:], lon[1:])
    d2 = d * d
    cumd2 = np.concatenate(([0.0], np.cumsum(d2)))
    h2 = cumh2 = None
    if home is not None:
        h = haversine_km(lat, lon, home[0], home[1])
        h2 = h * h
        cumh2 = np.concatenate(([0.0], np.cumsum(h2)))
    spans = spec.contiguous_windows(2008)
    if spans is not None:
        wids = [w for w, _, _ in spans]
        bounds = np.array([spans[0][1]] + [t1 for _, _, t1 in spans], dtype=np.int64)
        idx = np.searchsorted(ts, bounds, side="left")
        i, j = idx[:-1], idx[1:]
        a = j - i
        pairs = np.maximum(a - 1, 0)
        top = len(cumd2) - 1
        d2sum = np.where(pairs > 0, cumd2[np.clip(j - 1, 0, top)] - cumd2[np.minimum(i, top)], 0.0)
        h2sum = None if cumh2 is None else cumh2[j] - cumh2[i]
    else:
        if spec.granularity == "hour":
            wids, nbins = HOUR_IDS, 24
            b = ts % 86400 // 3600
            keep = np.ones(len(d2), dtype=bool)
        else:
            wids, nbins = WEEKDAY_IDS, 7
            days = ts // 86400
            b = (days + EPOCH_WEEKDAY) % 7
            keep = days[1:] == days[:-1]
        a = np.bincount(b, minlength=nbins)
        pairs = np.bincount(b[:-1][keep], minlength=nbins)
        d2sum = np.bincount(b[:-1][keep], weights=d2[keep], minlength=nbins)
        h2sum = None if h2 is None else np.bincount(b, weights=h2, minlength=nbins)
    m = rms(d2sum, a if divisor == "events" else pairs)
    rg = None if h2sum is None else rms(h2sum, a, np.nan)
    return _text([(
        [ego] * len(wids), wids, a.tolist(), m.tolist(),
        [None if rg is None or a[k] == 0 else float(rg[k]) for k in range(len(wids))],
        pairs.tolist(),
    )])


_EVENTS = st.dictionaries(
    st.sampled_from([f"u{k}" for k in range(8)]),
    st.lists(
        st.tuples(
            # few distinct instants, so that timestamps repeat
            st.sampled_from(range(YS + 3000, YE, 86400 * 37 + 5400)),
            st.integers(0, len(REG) - 1),
        ),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=6,
)

_SPECS = [WindowSpec(g) for g in ("year", "month", "day", "hour", "weekday")] + [
    WindowSpec("range", YS + 86400 * 40, YS + 86400 * 200 + 7),
]


def _reference_profile(own, nbins):
    """Time-of-day activity and mobility profiles: each individual's own
    pooled sums, added one individual after another in id order."""
    a, d2sum, pairs = np.zeros(nbins, dtype=np.int64), np.zeros(nbins), np.zeros(nbins, dtype=np.int64)
    for evs in own.values():
        ts = np.array([t for t, _ in evs], dtype=np.int64)
        tower = np.array([w for _, w in evs])
        b = ts % 86400 // (86400 // nbins)
        d = haversine_km(REG.lat[tower][:-1], REG.lon[tower][:-1], REG.lat[tower][1:], REG.lon[tower][1:])
        a = a + np.bincount(b, minlength=nbins)
        d2sum = d2sum + np.bincount(b[:-1], weights=d * d, minlength=nbins)
        pairs = pairs + np.bincount(b[:-1], minlength=nbins)
    return a / max(len(own), 1), rms(d2sum, pairs)


def _series(tm):
    """Every pattern series' key and (stat, n, se) bytes, with individuals
    in density classes 0..5 in turn."""
    areas = np.arange(len(tm.table)) % 6
    return [(key, s.stat.tobytes(), s.n.tobytes(), None if s.se is None else s.se.tobytes())
            for key, s in series(tm, areas, 2008).items()]


_DEFAULT_BLOCK = metrics._BLOCK_CELLS


@settings(max_examples=60, deadline=None)
@given(
    _EVENTS,
    st.data(),
    st.sampled_from(["events", "pairs"]),
    st.sampled_from([1, 7, _DEFAULT_BLOCK]),
)
def test_table_matches_per_individual_computation(events, data, divisor, block):
    raw = {e: ([t for t, _ in evs], [w for _, w in evs]) for e, evs in events.items()}
    tab = event_table(REG, raw)
    assert tab.ids == sorted(events)
    homes = {
        e: data.draw(st.none() | st.tuples(st.floats(39.0, 41.0), st.floats(19.0, 22.0)))
        for e in tab.ids
    }
    pts = np.array([homes[e] or (np.nan, np.nan) for e in tab.ids], dtype=float)
    homes_arg = (pts[:, 0].copy(), pts[:, 1].copy())
    with mock.patch.object(metrics, "_BLOCK_CELLS", block):
        tm = TableMetrics(tab, REG, homes_arg, divisor)
    own = {e: sorted(zip(*raw[e])) for e in tab.ids}  # ingest order: (ts, tower)

    # daily profiles against individual sums added in id order, and every
    # pattern series against the same series built in a single block
    whole = TableMetrics(tab, REG, homes_arg, divisor)
    with mock.patch.object(metrics, "_BLOCK_CELLS", block):
        act, mob = daily_profile(tm)
        got_series = _series(tm)
    want_act, want_mob = _reference_profile(own, 48)
    assert act.tobytes() == want_act.tobytes()
    assert mob.tobytes() == want_mob.tobytes()
    with mock.patch.object(metrics, "_BLOCK_CELLS", 1 << 40):
        assert got_series == _series(whole)

    for spec in _SPECS:
        with mock.patch.object(metrics, "_BLOCK_CELLS", block), \
                mock.patch.object(metrics, "_ROW_CELLS", block):
            got = _text(metrics_rows(tm, spec, 2008))
        want = [
            row
            for e in tab.ids
            for row in _reference_rows(
                e,
                np.array([t for t, _ in own[e]], dtype=np.int64),
                np.array([w for _, w in own[e]], dtype=np.int64),
                homes[e], spec, divisor,
            )
        ]
        assert got == want, spec

    for window in ((1.0, 7.0), (20.0, 3.0)):
        lat, lon, counts = compute_homes(tab, REG, window)
        for k, e in enumerate(tab.ids):
            ts = np.array([t for t, _ in own[e]], dtype=np.int64)
            tower = np.array([w for _, w in own[e]], dtype=np.int64)
            m = night_mask(ts, window)
            assert counts[k] == m.sum()
            if m.any():
                assert (lat[k], lon[k]) == (REG.lat[tower][m].mean(), REG.lon[tower][m].mean())
            else:
                assert np.isnan(lat[k]) and np.isnan(lon[k])


@pytest.mark.parametrize("what, budget", [
    # a pattern holds one sum per node of 8,192 samples of its summation
    # tree and fewer than a node's samples per bin, and no other sample
    # outlives its block; the month series share one table of each
    # individual's activity and mobility (9-16 B per month)
    ("dow", 256),
    ("hour", 256),
    ("month", 256),
    # nothing per individual outlives a block
    ("profile", 256),
])
def test_block_memory_does_not_grow_with_individuals_times_bins(what, budget):
    n = 20_000
    rng = np.random.default_rng(5)
    ts = np.sort(rng.integers(YS, YE, size=(n, 2)), axis=1).ravel()
    tab = EventTable(
        ids=[f"u{k:05d}" for k in range(n)], offsets=np.arange(0, 2 * n + 1, 2), ts=ts,
        tower=rng.integers(0, len(REG), size=2 * n).astype(np.int32),
    )
    with mock.patch.object(metrics, "_BLOCK_CELLS", 4096):
        tm = TableMetrics(tab, REG)
        if what == "profile":
            peak = traced_peak(lambda: daily_profile(tm))
        else:
            areas = rng.integers(0, 6, size=n)
            peak = traced_peak({"dow": lambda: _weekdays(tm, 2008, np.ones(12, bool)),
                                "hour": lambda: _hours(tm),
                                "month": lambda: _months(tm, areas, 2008)}[what])
    assert peak / n < budget, f"{what}: {peak / n:.0f} B per individual"


def _beyond_result(fn):
    """(fn(), the bytes fn allocated at its peak beyond what it returns)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
        return out, peak - held
    finally:
        tracemalloc.stop()


def test_whole_table_passes_hold_a_few_blocks_beyond_their_results():
    # homes, the distances and the year windows of a million events are
    # built block by block: no temporary spans the table
    n_ind, per = 5000, 200
    n = n_ind * per
    rng = np.random.default_rng(5)
    tab = EventTable(
        ids=[f"u{k:05d}" for k in range(n_ind)], offsets=np.arange(0, n + 1, per),
        ts=np.sort(rng.integers(YS, YE, size=(n_ind, per)), axis=1).ravel(),
        tower=rng.integers(0, len(REG), size=n).astype(np.int32),
    )
    # eight float64 columns of a block of 2^16 events: the table's own
    # columns take 14 MiB
    budget = 8 * 8 << 16
    homes, extra = _beyond_result(lambda: compute_homes(tab, REG, (1.0, 7.0)))
    assert extra <= budget, f"compute_homes: {extra / 2**20:.1f} MiB"
    tm, extra = _beyond_result(lambda: TableMetrics(tab, REG, homes[:2]))
    assert extra <= budget, f"TableMetrics: {extra / 2**20:.1f} MiB"
    _, extra = _beyond_result(lambda: tm.windows(np.array([YS, YE])))
    assert extra <= budget, f"year windows: {extra / 2**20:.1f} MiB"


def test_metrics_rows_keeps_only_a_window_of_one_span():
    # metrics.csv's month windows are built block by block and dropped
    # once written; the year window is kept, and the whole-table call that
    # year_rows makes shares it
    n_ind, per = 5000, 12
    n = n_ind * per
    rng = np.random.default_rng(8)
    tab = EventTable(
        ids=[f"u{k:05d}" for k in range(n_ind)], offsets=np.arange(0, n + 1, per),
        ts=np.sort(rng.integers(YS, YE, size=(n_ind, per)), axis=1).ravel(),
        tower=rng.integers(0, len(REG), size=n).astype(np.int32),
    )
    tm = TableMetrics(tab, REG)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in metrics_rows(tm, WindowSpec("month"), 2008))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the four month matrices of everyone take 5000 x 12 x 4 x 8 bytes
    assert held < 4 * 8 * n_ind, f"month windows: {held / 2**20:.2f} MiB held"
    assert sum(1 for _ in metrics_rows(tm, WindowSpec("year"), 2008))
    year = np.array([YS, YE])
    assert all(map(np.shares_memory, tm.windows(year), tm.windows(year)))
