"""The earth's radius, grid binning, and the test for points far from every tower.

Distances are great-circle in kilometers, computed in metrics with the
trigonometry of each place done once; grids are plain lat/lon lattices
with half-open cells. Homes average longitudes arithmetically, which is
fine for a country-scale bounding box away from the antimeridian.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class GridSpec:
    """Lat/lon lattice: half-open square cells of step degrees, anchored at
    (0, 0) so cell indices are absolute. The coarse analysis grid uses
    0.05 degree steps; the fine per-km2 reporting grid uses 0.01."""

    step: float

    def __post_init__(self):
        # 1e-6 keeps every |i| and |j| under 2^31, as rows_of's key needs;
        # 90 degrees is the coarsest grid the analysis has use for
        if not 1e-6 <= self.step <= 90:
            raise ValueError("grid step must be a number of degrees from 1e-6 to 90")

    def cells_of(self, lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell indices (i, j) of points; cells are half-open, so a point on
        a boundary belongs to the higher cell."""
        i = np.floor(np.asarray(lats) / self.step).astype(np.int64)
        j = np.floor(np.asarray(lons) / self.step).astype(np.int64)
        return i, j

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (i + 0.5) * self.step, (j + 0.5) * self.step

    def cell_area_km2(self, i: int) -> float:
        """Spherical area of the part on the sphere of any cell in latitude
        band i.

        Exact: R^2 * dlon * (sin(top) - sin(bottom)), with a band that runs
        past a pole cut at it. The band that starts at the north pole holds
        only the pole itself and is measured as the band below it. Depends
        only on the latitude band, not on j.
        """
        if i * self.step >= 90.0:
            i -= 1
        bottom = math.radians(max(i * self.step, -90.0))
        top = math.radians(min((i + 1) * self.step, 90.0))
        dlon = math.radians(self.step)
        return EARTH_RADIUS_KM ** 2 * dlon * (math.sin(top) - math.sin(bottom))


# Candidate (point, tower) pairs that far_from_towers compares at a time:
# a few arrays of 8 or 24 bytes per pair.
_PAIR_BLOCK = 1 << 18


def far_from_towers(lats, lons, tower_lats, tower_lons, cutoff_km: float) -> np.ndarray:
    """True for each point (finite coordinates) farther than cutoff_km
    from every tower.

    Points and towers are embedded as 3D unit vectors, where euclidean
    nearest is great-circle nearest and the chord converts back to arc
    distance exactly. Towers are bucketed in cubic cells at least one
    cutoff chord wide, so a tower within the cutoff of a point lies in one
    of the 27 cells around the point's cell. The nearest of those gives the
    distance: squared chords summed as ((dx*dx + dy*dy) + dz*dz), the order
    of scipy's cKDTree, so the flags are the ones its nearest-tower query
    gives, bit for bit.
    """
    q = _unit_vectors(np.asarray(lats, float), np.asarray(lons, float))
    t = _unit_vectors(np.asarray(tower_lats, float), np.asarray(tower_lons, float))
    arc = min(max(cutoff_km, 0.0) / EARTH_RADIUS_KM, math.pi)
    # at most 2^20 cells a side, so a cell key fits in an int64
    width = 1.001 * max(2.0 * math.sin(arc / 2.0), 2.0 ** -19)
    shift = int(1.0 / width) + 3
    base = 2 * shift + 2
    tkey = _cell_keys(t, width, shift, base)
    order = np.argsort(tkey, kind="stable")
    tkey, t = tkey[order], t[order]
    # the towers around each distinct cell of the points, laid end to end
    cells, cell_of = np.unique(_cell_keys(q, width, shift, base), return_inverse=True)
    near = cells[:, None] + np.array([(i * base + j) * base + k
                                      for i, j, k in itertools.product((-1, 0, 1), repeat=3)])
    first = np.searchsorted(tkey, near, side="left")
    count = np.searchsorted(tkey, near, side="right") - first
    around = _ranges(first.ravel(), count.ravel())
    per_cell = count.sum(axis=1)
    cell_start = np.cumsum(per_cell) - per_cell
    per_point = per_cell[cell_of]
    ends = np.cumsum(per_point)
    best = np.full(len(q), np.inf)  # nearest squared chord
    lo = 0
    while lo < len(q):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - per_point[lo] + _PAIR_BLOCK, "right")))
        n = per_point[lo:hi]
        tw = around[_ranges(cell_start[cell_of[lo:hi]], n)]
        qi = np.repeat(np.arange(lo, hi), n)
        dx, dy, dz = (q[qi, c] - t[tw, c] for c in range(3))
        d2 = (dx * dx + dy * dy) + dz * dz
        has = n > 0
        if has.any():
            best[lo:hi][has] = np.minimum.reduceat(d2, (np.cumsum(n) - n)[has])
        lo = hi
    chord = np.sqrt(best)
    return EARTH_RADIUS_KM * (2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))) > cutoff_km


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + counts[i] - 1, end to end."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _cell_keys(xyz: np.ndarray, width: float, shift: int, base: int) -> np.ndarray:
    """One int64 per row: its cell's (i, j, k), shifted to 1..base-2."""
    c = np.floor(xyz / width).astype(np.int64) + shift
    return (c[:, 0] * base + c[:, 1]) * base + c[:, 2]


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
