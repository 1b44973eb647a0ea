"""Distance, grid, and placement primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haversine_km

from cdrmob import metrics
from cdrmob.geo import (
    EARTH_RADIUS_KM,
    GridSpec,
    far_from_towers,
    offset_km,
)

LAT = st.floats(min_value=-80.0, max_value=80.0)
LON = st.floats(min_value=-179.0, max_value=179.0)

# one degree of latitude for this earth radius
KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0


def test_haversine_fixed_points():
    assert haversine_km(12.5, 44.25, 12.5, 44.25) == 0.0
    assert haversine_km(10.0, 20.0, 11.0, 20.0) == pytest.approx(KM_PER_DEG_LAT, rel=1e-12)
    assert haversine_km(-45.0, 30.0, -46.0, 30.0) == pytest.approx(KM_PER_DEG_LAT, rel=1e-12)
    # a degree of longitude shrinks with latitude; the parallel at 60 is
    # not a great circle, so the factor-two rule holds only to first order
    at_equator = haversine_km(0.0, 10.0, 0.0, 11.0)
    at_60 = haversine_km(60.0, 10.0, 60.0, 11.0)
    assert at_equator == pytest.approx(KM_PER_DEG_LAT, rel=1e-12)
    assert at_60 == pytest.approx(KM_PER_DEG_LAT / 2.0, rel=1e-4)
    exact = 2.0 * EARTH_RADIUS_KM * math.asin(math.cos(math.radians(60.0))
                                              * math.sin(math.radians(0.5)))
    assert at_60 == pytest.approx(exact, rel=1e-12)


def test_haversine_antipodal_is_half_circumference():
    # exercises the clip guard where rounding can push the haversine
    # argument just past 1
    d = haversine_km(0.0, 0.0, 0.0, 180.0)
    assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)
    d2 = haversine_km(45.0, 30.0, -45.0, -150.0)
    assert d2 == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-9)


def test_haversine_array_broadcast():
    lats = np.array([0.0, 10.0, 20.0])
    lons = np.array([0.0, 0.0, 0.0])
    d = haversine_km(lats, lons, 0.0, 0.0)
    assert d.shape == (3,)
    for k in range(3):
        assert d[k] == pytest.approx(float(haversine_km(lats[k], 0.0, 0.0, 0.0)))


@given(LAT, LON, LAT, LON)
def test_haversine_symmetry_and_bounds(lat1, lon1, lat2, lon2):
    d = float(haversine_km(lat1, lon1, lat2, lon2))
    assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM * (1 + 1e-12)
    assert d == float(haversine_km(lat2, lon2, lat1, lon1))


@settings(max_examples=200)
@given(LAT, LON, LAT, LON, LAT, LON)
def test_haversine_triangle_inequality(lat1, lon1, lat2, lon2, lat3, lon3):
    ab = float(haversine_km(lat1, lon1, lat2, lon2))
    bc = float(haversine_km(lat2, lon2, lat3, lon3))
    ac = float(haversine_km(lat1, lon1, lat3, lon3))
    assert ac <= ab + bc + 1e-9


# antipodal pairs whose haversine argument rounds to just past 1 (on at
# least one of them), so that the clip acts
ANTIPODES = [((lat, 20.0), (-lat, -160.0)) for lat in (2.5, 5.5, 8.0, 12.0, 15.25)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_per_place_kernel_is_the_squared_reference_bit_for_bit(drawn, seed):
    # tower r and home r are antipodes for r < k, then the same place; the
    # last home is NaN, as for an individual without one
    k = len(ANTIPODES)
    same = [(12.5, 44.25)] + drawn
    towers = np.array([p for p, _ in ANTIPODES] + same)
    homes = np.array([q for _, q in ANTIPODES] + same + [(np.nan, np.nan)])
    n = len(towers)
    # those pairs first, then random ones: more than one 16k step
    rng = np.random.default_rng(seed)
    i = np.concatenate([np.arange(n), [0], rng.integers(0, n, 40_000)])
    j = np.concatenate([np.arange(n), [n], rng.integers(0, n + 1, 40_000)])
    out = np.empty(len(i))
    metrics._squared_km(metrics._places(*towers.T), i, metrics._places(*homes.T), j, out)
    want = haversine_km(towers[i, 0], towers[i, 1], homes[j, 0], homes[j, 1]) ** 2
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    assert np.array_equal(out[k:n], np.zeros(n - k))
    assert np.isnan(out[n])
    # unclipped, the argument of some antipodes is past 1
    (lat1, lon1), (lat2, lon2) = np.radians(towers[:k].T), np.radians(homes[:k].T)
    arg = (np.sin((lat2 - lat1) / 2.0) ** 2
           + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    assert (arg > 1.0).any()
    assert (out[:k][arg > 1.0] == (math.pi * EARTH_RADIUS_KM) ** 2).all()


def test_grid_cell_boundaries():
    # a binary-representable step, so edge coordinates are exact and the
    # half-open rule is actually observable
    g = GridSpec(0.25)
    assert g.cells_of(40.0, 20.0) == (160, 80)
    assert g.cells_of(40.25, 20.0) == (161, 80)
    assert g.cells_of(40.249999, 20.499999) == (160, 81)
    assert g.cells_of(39.999999, 20.0) == (159, 80)
    assert g.cells_of(39.75, 20.0) == (159, 80)
    assert g.cells_of(-0.25, -0.000001) == (-1, -1)


@given(st.integers(-500, 500), st.integers(-500, 500))
def test_grid_center_round_trip(i, j):
    g = GridSpec(0.05)
    lat, lon = g.cell_center(240 + i, -140 + j)  # around (12, -7)
    assert g.cells_of(lat, lon) == (240 + i, -140 + j)


def test_cells_of_matches_scalar():
    rng = np.random.default_rng(5)
    g = GridSpec(0.05)
    lats = rng.uniform(39.0, 43.0, size=200)
    lons = rng.uniform(19.0, 24.0, size=200)
    vi, vj = g.cells_of(lats, lons)
    for k in range(200):
        assert (vi[k], vj[k]) == (math.floor(lats[k] / 0.05), math.floor(lons[k] / 0.05))


def test_cell_area_against_tangent_plane():
    g = GridSpec(0.05)
    for i in (800, 810, 840):
        mid = (i + 0.5) * 0.05
        planar = (KM_PER_DEG_LAT * 0.05) ** 2 * math.cos(math.radians(mid))
        assert g.cell_area_km2(i) == pytest.approx(planar, rel=1e-5)
    # area depends only on the latitude band
    assert g.cell_area_km2(7) == g.cell_area_km2(7)


def test_grid_rejects_bad_steps():
    # a step from 1e-6 to 90 degrees keeps cell indices under 2^31
    for bad in (0.0, -1.0, float("nan"), float("inf"), 1e-300, 9.9e-7, 90.5, 1e300):
        with pytest.raises(ValueError, match="from 1e-6 to 90"):
            GridSpec(bad)
    assert GridSpec(1e-6).step == 1e-6 and GridSpec(90.0).cell_area_km2(0) > 0


@pytest.mark.parametrize("step", [0.07, 7.5, 50.0, 60.0, 90.0])
def test_cell_areas_cover_the_sphere_once(step):
    # the bands that hold a latitude from -90 to 90 make one lune of dlon;
    # a band that runs past a pole counts only its part on the sphere
    grid = GridSpec(step)
    bands = range(math.floor(-90 / step), math.ceil(90 / step))
    areas = [grid.cell_area_km2(i) for i in bands]
    assert min(areas) > 0
    lune = 2 * EARTH_RADIUS_KM ** 2 * math.radians(step)
    assert sum(areas) == pytest.approx(lune, rel=1e-9)
    # a home at 70N with step 60 lies in [60, 120]: measured as [60, 90]
    if step == 60.0:
        cap = EARTH_RADIUS_KM ** 2 * math.radians(60) * (1 - math.sin(math.radians(60)))
        assert grid.cell_area_km2(int(grid.cells_of(70.0, 0.0)[0])) == pytest.approx(cap)
    # the band that starts at the north pole holds only the pole: it
    # takes the area of the band below it
    top = math.floor(90 / step)
    if top * step == 90.0:
        assert grid.cell_area_km2(top) == grid.cell_area_km2(top - 1)


def test_far_from_towers_matches_brute_force():
    rng = np.random.default_rng(77)
    tlat = rng.uniform(35.0, 45.0, size=30)
    tlon = rng.uniform(15.0, 25.0, size=30)
    qlat = rng.uniform(35.0, 45.0, size=100)
    qlon = rng.uniform(15.0, 25.0, size=100)
    nearest = np.array([
        min(float(haversine_km(qlat[k], qlon[k], tlat[t], tlon[t])) for t in range(30))
        for k in range(100)
    ])
    for cutoff in (0.0, 5.0, 20.0, 50.0, float(np.median(nearest)), 5000.0, 30000.0):
        far = far_from_towers(qlat, qlon, tlat, tlon, cutoff)
        # haversine and chord agree to far better than this
        clear = np.abs(nearest - cutoff) > 1e-9
        assert far.dtype == bool and clear.sum() >= 99
        assert np.array_equal(far[clear], (nearest > cutoff)[clear])
    # a tower is within any cutoff of itself, and nothing is within a
    # negative one
    assert not far_from_towers(tlat, tlon, tlat, tlon, 0.0).any()
    assert far_from_towers(tlat, tlon, tlat, tlon, -1.0).all()
    assert far_from_towers(qlat[:0], qlon[:0], tlat, tlon, 10.0).shape == (0,)


def test_offset_km_inverts_through_haversine():
    lat, lon = 42.3, 21.7
    for north in (0.5, 2.0, 5.0):
        nlat, nlon = offset_km(lat, lon, 0.0, north)
        assert float(haversine_km(lat, lon, nlat, nlon)) == pytest.approx(north, rel=1e-3)
    for east in (0.5, 2.0, 5.0):
        elat, elon = offset_km(lat, lon, east, 0.0)
        assert float(haversine_km(lat, lon, elat, elon)) == pytest.approx(east, rel=5e-3)
