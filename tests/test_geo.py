"""Distance, grid, and placement primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrmob.geo import (
    EARTH_RADIUS_KM,
    GridSpec,
    far_from_towers,
    haversine_km,
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


def test_grid_cell_boundaries():
    # binary-representable step and origin, so edge coordinates are exact
    # and the half-open rule is actually observable
    g = GridSpec(0.25, 0.25, lat0=40.0, lon0=20.0)
    assert g.cell_of(40.0, 20.0) == (0, 0)
    assert g.cell_of(40.25, 20.0) == (1, 0)
    assert g.cell_of(40.249999, 20.499999) == (0, 1)
    assert g.cell_of(39.999999, 20.0) == (-1, 0)
    assert g.cell_of(39.75, 20.0) == (-1, 0)


@given(st.integers(-500, 500), st.integers(-500, 500))
def test_grid_center_round_trip(i, j):
    g = GridSpec(0.05, 0.05, lat0=12.0, lon0=-7.0)
    lat, lon = g.cell_center(i, j)
    assert g.cell_of(lat, lon) == (i, j)


def test_cells_of_matches_scalar():
    rng = np.random.default_rng(5)
    g = GridSpec(0.05, 0.05, lat0=40.0, lon0=20.0)
    lats = rng.uniform(39.0, 43.0, size=200)
    lons = rng.uniform(19.0, 24.0, size=200)
    vi, vj = g.cells_of(lats, lons)
    for k in range(200):
        assert (vi[k], vj[k]) == g.cell_of(lats[k], lons[k])


def test_cell_area_against_tangent_plane():
    g = GridSpec(0.05, 0.05, lat0=40.0, lon0=20.0)
    for i in (0, 10, 40):
        mid = 40.0 + (i + 0.5) * 0.05
        planar = (KM_PER_DEG_LAT * 0.05) ** 2 * math.cos(math.radians(mid))
        assert g.cell_area_km2(i) == pytest.approx(planar, rel=1e-5)
    # area depends only on the latitude band
    assert g.cell_area_km2(7) == g.cell_area_km2(7)


def test_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.05)
    with pytest.raises(ValueError):
        GridSpec(0.05, -1.0)


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
