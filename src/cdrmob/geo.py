"""Geodesic distance, grid binning, and nearest-tower lookup.

Distances are great-circle (haversine) in kilometers; grids are plain
lat/lon lattices with half-open cells. Homes average longitudes
arithmetically, which is fine for a country-scale bounding box away from
the antimeridian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between two points in decimal degrees.

    Accepts scalars or numpy arrays (broadcasting as usual); symmetric and
    non-negative.
    """
    lat1 = np.radians(lat1)
    lon1 = np.radians(lon1)
    lat2 = np.radians(lat2)
    lon2 = np.radians(lon2)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    # clip guards against rounding pushing a slightly above 1 for antipodes
    return EARTH_RADIUS_KM * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


@dataclass(frozen=True)
class GridSpec:
    """Lat/lon lattice: half-open cells of lat_step x lon_step degrees
    anchored at a lower-left origin. The coarse analysis grid uses 0.05
    degree steps; the fine per-km2 reporting grid uses 0.01."""

    lat_step: float = 0.05
    lon_step: float = 0.05
    lat0: float = 0.0
    lon0: float = 0.0

    def __post_init__(self):
        if self.lat_step <= 0 or self.lon_step <= 0:
            raise ValueError("grid steps must be positive")

    def cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        """Cell index (i, j) of a point; cells are half-open so a point on a
        boundary belongs to the higher cell."""
        i = math.floor((lat - self.lat0) / self.lat_step)
        j = math.floor((lon - self.lon0) / self.lon_step)
        return i, j

    def cells_of(self, lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized cell_of."""
        i = np.floor((np.asarray(lats) - self.lat0) / self.lat_step).astype(np.int64)
        j = np.floor((np.asarray(lons) - self.lon0) / self.lon_step).astype(np.int64)
        return i, j

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (
            self.lat0 + (i + 0.5) * self.lat_step,
            self.lon0 + (j + 0.5) * self.lon_step,
        )

    def cell_area_km2(self, i: int) -> float:
        """Spherical area of any cell in latitude band i.

        Exact on the sphere: R^2 * dlon * (sin(top) - sin(bottom)). Depends
        only on the latitude band, not on j.
        """
        bottom = math.radians(self.lat0 + i * self.lat_step)
        top = math.radians(self.lat0 + (i + 1) * self.lat_step)
        dlon = math.radians(self.lon_step)
        return EARTH_RADIUS_KM ** 2 * dlon * abs(math.sin(top) - math.sin(bottom))


class NearestTowerIndex:
    """Nearest-tower lookup on the unit sphere.

    Embeds tower coordinates as 3D unit vectors so that euclidean nearest
    neighbour equals great-circle nearest neighbour; chord length converts
    back to arc distance exactly.
    """

    def __init__(self, lats: np.ndarray, lons: np.ndarray):
        from scipy.spatial import cKDTree

        self._xyz = _unit_vectors(np.asarray(lats, float), np.asarray(lons, float))
        self._tree = cKDTree(self._xyz)

    def distance_km(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Great-circle distance from each query point to its nearest tower."""
        q = _unit_vectors(np.asarray(lats, float), np.asarray(lons, float))
        chord, _ = self._tree.query(q)
        arc = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
        return EARTH_RADIUS_KM * arc


def _unit_vectors(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    phi = np.radians(lats)
    lam = np.radians(lons)
    return np.column_stack(
        (np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi))
    )


def offset_km(lat: float, lon: float, east_km: float, north_km: float) -> tuple[float, float]:
    """Point displaced by the given local east/north offsets in km.

    Small-offset tangent-plane approximation; adequate for placing synthetic
    towers a few km apart.
    """
    dlat = north_km / (EARTH_RADIUS_KM * math.pi / 180.0)
    dlon = east_km / (EARTH_RADIUS_KM * math.pi / 180.0 * math.cos(math.radians(lat)))
    return lat + dlat, lon + dlon
