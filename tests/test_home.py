"""Daily rhythm fitting, inactivity window, and home detection."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_table, haversine_km

from cdrmob.home import (
    BIN_CENTERS_H,
    UnimodalProfileError,
    _curve_fit,
    _two_gauss,
    compute_homes,
    daily_profile,
    find_inactive_window,
    fit_bimodal,
    flag_at_sea,
    night_mask,
)
from cdrmob.geo import EARTH_RADIUS_KM, _unit_vectors
from cdrmob.metrics import TableMetrics
from cdrmob.pipeline import WRITERS, _write_csv
from cdrmob.records import TowerRegistry, parse_timestamp

REG = TowerRegistry({"T1": (40.0, 20.0), "T2": (40.4, 20.0), "T3": (40.0, 20.3)})


def _table(events):
    """Event table of {ego: ([timestamps], [tower indices])}."""
    return event_table(REG, events)


def test_daily_profile_activity_means():
    tab = _table({
        "a": (["2008-01-01T03:10:00", "2008-01-01T03:20:00"], [0, 0]),
        "b": (["2008-02-05T03:00:00", "2008-02-05T05:30:00"], [1, 2]),
    })
    prof, mob = daily_profile(TableMetrics(tab, REG))
    assert len(prof) == len(mob) == 48
    assert prof[6] == pytest.approx(1.5)  # 3 events over 2 individuals in 03:00-03:30
    assert prof[11] == pytest.approx(0.5)
    assert prof[7] == 0.0
    assert BIN_CENTERS_H[0] == pytest.approx(0.25)
    # mobility is the RMS over pairs starting in the bin: a's and b's both
    # start at 03:00-03:30, and only b's (to 05:30) has a length
    d = float(haversine_km(REG.lat[1], REG.lon[1], REG.lat[2], REG.lon[2]))
    assert mob[6] == pytest.approx(d / np.sqrt(2))
    assert mob[11] == 0.0


def _mixture(t, mu1, s1, a1, mu2, s2, a2, floor):
    return (
        floor
        + a1 * np.exp(-0.5 * ((t - mu1) / s1) ** 2)
        + a2 * np.exp(-0.5 * ((t - mu2) / s2) ** 2)
    )


def test_fit_recovers_constructed_two_peak_profile():
    t = (np.arange(48) + 0.5) * 0.5
    y = _mixture(t, 12.97, 2.36, 1.0, 19.72, 2.31, 0.85, 0.05)
    fit = fit_bimodal(y)
    assert fit.mu_day_h == pytest.approx(12.97, abs=1e-3)
    assert fit.mu_evening_h == pytest.approx(19.72, abs=1e-3)
    assert fit.sigma_day_h == pytest.approx(2.36, abs=1e-3)
    assert fit.sigma_evening_h == pytest.approx(2.31, abs=1e-3)
    assert fit.amp_day == pytest.approx(1.0, abs=1e-3)
    assert fit.amp_evening == pytest.approx(0.85, abs=1e-3)
    assert fit.rmse < 1e-6
    # components come back ordered by hour even when the evening peak wins
    y2 = _mixture(t, 11.0, 2.0, 0.6, 20.0, 2.0, 1.0, 0.02)
    fit2 = fit_bimodal(y2)
    assert fit2.mu_day_h < fit2.mu_evening_h


def test_fit_rejects_degenerate_profiles():
    t = (np.arange(48) + 0.5) * 0.5
    with pytest.raises(UnimodalProfileError):
        fit_bimodal(np.ones(48))
    one_peak = 0.05 + np.exp(-0.5 * ((t - 14.0) / 2.5) ** 2)
    with pytest.raises(UnimodalProfileError):
        fit_bimodal(one_peak)


def test_find_inactive_window_plain_and_wrapped():
    y = np.ones(48)
    y[2:14] = 0.1  # quiet 01:00-07:00
    assert find_inactive_window(y) == (1.0, 7.0)
    z = np.ones(48)
    z[46:] = 0.1  # quiet 23:00-05:00, wrapping midnight
    z[:10] = 0.1
    assert find_inactive_window(z) == (23.0, 5.0)
    # ties resolve to the earliest clock start
    assert find_inactive_window(np.ones(48)) == (0.0, 6.0)


def test_night_mask_boundaries():
    ts = np.array(
        [parse_timestamp(s) for s in (
            "2008-03-01T01:00:00",  # exactly at start: in
            "2008-03-01T06:59:59",
            "2008-03-01T07:00:00",  # exactly at end: out
            "2008-03-01T12:00:00",
        )],
        dtype=np.int64,
    )
    assert night_mask(ts, (1.0, 7.0)).tolist() == [True, True, False, False]
    wrapped = night_mask(ts, (23.0, 7.0))
    assert wrapped.tolist() == [True, True, False, False]
    late = np.array([parse_timestamp("2008-03-01T23:30:00")], dtype=np.int64)
    assert night_mask(late, (23.0, 7.0)).tolist() == [True]


@given(
    st.floats(0.0, 23.9999),
    st.floats(0.0, 23.9999),
    st.lists(st.integers(0, 86399), min_size=1, max_size=50),
)
def test_night_mask_complement_partitions_the_day(a, b, tods):
    if a == b:
        return
    ts = np.asarray(tods, dtype=np.int64)
    m1 = night_mask(ts, (a, b))
    m2 = night_mask(ts, (b, a))
    assert np.all(m1 ^ m2)  # every event is in exactly one of the two arcs


def test_compute_homes_and_counts():
    tab = _table({
        # two night events at T1, day events elsewhere
        "a": (["2008-01-01T02:00:00", "2008-01-02T03:30:00", "2008-01-02T14:00:00"], [0, 0, 1]),
        # night events at two different towers: home is their mean
        "b": (["2008-01-01T02:00:00", "2008-01-01T03:00:00"], [0, 1]),
        # day-only individual: no home
        "c": (["2008-01-01T12:00:00"], [2]),
    })
    lat, lon, counts = compute_homes(tab, REG, (1.0, 7.0))
    assert (lat[0], lon[0]) == (40.0, 20.0)
    assert (lat[1], lon[1]) == (pytest.approx(40.2), pytest.approx(20.0))
    assert np.isnan(lat[2]) and np.isnan(lon[2])
    assert counts.tolist() == [2, 2, 0]


def test_flag_at_sea_uses_nearest_tower():
    # towers T1/T2 are ~44 km apart; their midpoint is ~22 km from each
    # mid, anchored, and one individual without a home (never flagged)
    lat, lon = np.array([40.2, 40.0, np.nan]), np.array([20.0, 20.0, np.nan])
    flags = flag_at_sea(lat, lon, REG, cutoff_km=10.0)
    assert flags.dtype == bool and flags.tolist() == [True, False, False]
    assert flag_at_sea(lat, lon, REG, cutoff_km=30.0).tolist() == [False, False, False]
    assert flag_at_sea(lat[2:], lon[2:], REG).tolist() == [False]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.floats(0.2, 50.0), st.integers(-3, 3))
def test_flag_at_sea_matches_ckdtree_at_the_cutoff(seed, n_towers, radius, ulps):
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    tlat, tlon = rng.uniform(40.0, 41.0, n_towers), rng.uniform(20.0, 21.3, n_towers)
    reg = TowerRegistry({f"t{i}": (a, o) for i, (a, o) in enumerate(zip(tlat, tlon))})
    # homes about `radius` km from a random tower, then a few ulps off
    k = rng.integers(n_towers, size=300)
    ang = rng.uniform(0.0, 2.0 * np.pi, 300)
    deg = np.degrees(radius / EARTH_RADIUS_KM)
    lat = tlat[k] + deg * np.sin(ang)
    lon = tlon[k] + deg * np.cos(ang) / np.cos(np.radians(tlat[k]))
    lat += ulps * np.spacing(lat)
    chord, _ = cKDTree(_unit_vectors(reg.lat, reg.lon)).query(_unit_vectors(lat, lon))
    km = EARTH_RADIUS_KM * (2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))
    # cutoffs on some home distances exactly and a few ulps either side
    for cutoff in (radius, km[0], np.nextafter(km[1], 0.0), np.nextafter(km[2], np.inf),
                   km[3] + 2 * np.spacing(km[3]), float(np.median(km))):
        assert np.array_equal(flag_at_sea(lat, lon, reg, float(cutoff)), km > cutoff)


_LOWER = [0.0, 0.0, 0.3, 0.0, 0.0, 0.3, 0.0]
_UPPER = [np.inf, 24.0, 8.0, np.inf, 24.0, 8.0, np.inf]
_AMP, _HOUR, _WIDTH = st.floats(0.0, 3.0), st.floats(0.0, 24.0), st.floats(0.3, 8.0)


def _fit_or_error(fit):
    try:
        return fit()
    except (RuntimeError, ValueError) as e:
        return type(e)


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([24, 48, 96]),
    st.tuples(_AMP, st.floats(5.0, 14.0), _WIDTH, _AMP, st.floats(15.0, 23.0), _WIDTH,
              st.floats(0.0, 1.0)),
    st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.5]),
    st.booleans(),
    # the floor start may be negative, which curve_fit refuses
    st.tuples(_AMP, _HOUR, _WIDTH, _AMP, _HOUR, _WIDTH, st.floats(-0.5, 1.0)),
    st.sampled_from([2, 5, 12, 20000]),
    st.integers(0, 2**32 - 1),
)
def test_curve_fit_port_matches_scipy_bit_for_bit(nbins, shape, noise, flat, p0, maxfev, seed):
    from scipy.optimize import curve_fit

    t = (np.arange(nbins) + 0.5) * 24.0 / nbins
    a1, mu1, s1, a2, mu2, s2, floor = shape
    y = 0.3 if flat else _mixture(t, mu1, s1, a1, mu2, s2, a2, floor)
    y = y + np.random.default_rng(seed).normal(0.0, noise, nbins)
    want = _fit_or_error(lambda: curve_fit(_two_gauss, t, y, p0=list(p0), bounds=(_LOWER, _UPPER),
                                           maxfev=maxfev)[0])
    got = _fit_or_error(lambda: _curve_fit(lambda p: _two_gauss(t, *p) - y, list(p0),
                                           _LOWER, _UPPER, max_nfev=maxfev))
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type) and got.tobytes() == want.tobytes()


def test_homes_csv_round_trip(tmp_path):
    lat, lon = np.array([40.123456789, np.nan]), np.array([20.987654321, np.nan])
    pipe = SimpleNamespace(
        ingest=SimpleNamespace(table=SimpleNamespace(ids=["a", "b"])),
        home_points=(lat, lon, np.array([7, 0])),
        at_sea=np.array([False, False]),
    )
    name, header, columns = WRITERS["homes"]
    p = tmp_path / name
    _write_csv(p, header, columns(pipe))
    assert p.read_text().splitlines() == [
        "ego_id,home_lat,home_lon,night_events,at_sea",
        "a,40.123456789,20.987654321,7,0",
        "b,,,0,",
    ]
