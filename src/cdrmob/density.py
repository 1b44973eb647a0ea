"""Population density grids and their relationship to behaviour.

Inhabited grid cells are ranked by population density (rank 1 = densest,
ties share their average rank). On top of that ranking:

  * overall and rank-band Spearman correlations between cell density and
    cell-mean behaviour (activity, mobility, radius of gyration); bands
    span a factor of two in rank and overlap their neighbours by half,
    so trends confined to one density regime stay visible,
  * a power-law fit to the rank-size tail (log density vs log rank,
    deep ranks only),
  * a five-class split of cells by density rank, class 1 being the
    densest handful of cells and class 5 the long sparse tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import GridSpec

DEFAULT_AREA_BOUNDARIES = (30, 100, 1000, 10000)


class DensityError(Exception):
    """Not enough usable cells for the requested statistic."""


@dataclass
class GridDensity:
    """Per-cell aggregates over individuals whose home falls in the cell.
    Rows are sorted by (cell_i, cell_j); only inhabited cells appear."""

    grid: GridSpec
    cell_i: np.ndarray
    cell_j: np.ndarray
    population: np.ndarray
    area_km2: np.ndarray
    density: np.ndarray  # individuals per km^2
    row: np.ndarray  # each individual's row, -1 for one without a home
    mean_activity: np.ndarray | None = None
    mean_mobility: np.ndarray | None = None
    mean_rg: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.population)

    def rows_of(self, ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
        """Grid row of each cell (ci, cj), -1 where the cell is not inhabited.
        (i << 32) + j orders cells as the rows are sorted, by (i, j)."""
        key = (self.cell_i.astype(np.int64) << 32) + self.cell_j
        q = (np.asarray(ci, dtype=np.int64) << 32) + cj
        r = np.minimum(np.searchsorted(key, q), len(key) - 1)
        return np.where(key[r] == q, r, -1)


def build_density(lat: np.ndarray, lon: np.ndarray, grid: GridSpec, year=None) -> GridDensity:
    """Aggregate homes (and optionally whole-year metrics) onto a grid.

    lat/lon hold one home per individual, NaN without one; those
    individuals are skipped. With year = the whole-year (activity,
    mobility, rg, ...) arrays in the same order, means of activity,
    mobility and rg are computed per cell over its residents.
    """
    homed = ~np.isnan(lat)
    if not homed.any():
        raise DensityError("no homed individuals to grid")
    ci, cj = grid.cells_of(lat[homed], lon[homed])
    cells = np.stack((ci, cj), axis=1)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    row = np.full(len(lat), -1, dtype=np.int64)
    row[homed] = inverse
    pop = np.bincount(inverse, minlength=len(uniq))
    area = np.array([grid.cell_area_km2(int(i)) for i in uniq[:, 0]])
    ma = mm = mr = None
    if year is not None:
        act, mob, rg = (np.asarray(x, dtype=float)[homed] for x in year[:3])
        ma = np.bincount(inverse, weights=act, minlength=len(uniq)) / pop
        mm = np.bincount(inverse, weights=mob, minlength=len(uniq)) / pop
        ok = ~np.isnan(rg)
        nrg = np.bincount(inverse[ok], minlength=len(uniq))
        with np.errstate(invalid="ignore"):
            mr = np.where(
                nrg > 0,
                np.bincount(inverse[ok], weights=rg[ok], minlength=len(uniq)) / np.maximum(nrg, 1),
                np.nan,
            )
    return GridDensity(grid, uniq[:, 0], uniq[:, 1], pop, area, pop / area, row, ma, mm, mr)


def rank_desc(values: np.ndarray) -> np.ndarray:
    """Average-tie ranks, rank 1 for the largest value: a tie group
    holding sorted positions start..end-1 shares rank (start + end + 1) / 2."""
    x = -np.asarray(values, dtype=float)
    order = np.argsort(x, kind="stable")
    s = x[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def spearman(x, y) -> float:
    """Rank correlation via Pearson on average-tie ranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError("length mismatch")
    if len(x) < 3:
        raise DensityError("need at least 3 points")
    rx = rank_desc(x)
    ry = rank_desc(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise DensityError("zero rank variance")
    # identical or exactly reversed rankings are +-1 by definition; the
    # Pearson route loses an ulp to sqrt rounding
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(rx + ry, np.full(len(rx), len(rx) + 1.0)):
        return -1.0
    c = np.corrcoef(rx, ry)[0, 1]
    return float(c)


@dataclass
class BandCorrelation:
    band: int
    rank_lo: float
    rank_hi: float
    center_rank: float  # geometric mean of the band edges
    n_cells: int
    corr: float | None
    note: str = ""


def sliding_correlation(density: np.ndarray, values: np.ndarray) -> list[BandCorrelation]:
    """Spearman correlation inside half-overlapping rank bands
    [2^(k/2), 2^(k/2+1)). Bands with fewer than 3 cells or degenerate
    ranks are kept in the output with corr=None and a note."""
    density = np.asarray(density, dtype=float)
    values = np.asarray(values, dtype=float)
    ranks = rank_desc(density)
    n = len(density)
    out: list[BandCorrelation] = []
    k = 0
    while 2 ** (k / 2) <= n:
        lo = 2 ** (k / 2)
        hi = 2 ** (k / 2 + 1)
        m = (ranks >= lo) & (ranks < hi)
        ok = m & ~np.isnan(values)
        nc = int(ok.sum())
        center = math.sqrt(lo * hi)
        if nc < 3:
            out.append(BandCorrelation(k, lo, hi, center, nc, None, "too_few_cells"))
        else:
            try:
                c = spearman(density[ok], values[ok])
                out.append(BandCorrelation(k, lo, hi, center, nc, c))
            except DensityError:
                out.append(BandCorrelation(k, lo, hi, center, nc, None, "degenerate"))
        k += 1
    return out


@dataclass
class RankSizeFit:
    exponent: float  # negative slope of log density vs log rank
    intercept: float
    r2: float
    n_cells: int
    n_tail: int
    min_rank: int


def rank_size(density: np.ndarray, min_rank: int = 100, min_cells: int = 200) -> RankSizeFit:
    """Power-law exponent of the deep rank-size tail.

    Ordinary least squares of log(density) on log(rank), using only ranks
    beyond min_rank where the tail is clear of the flat dense head.
    """
    d = np.sort(np.asarray(density, dtype=float))[::-1]
    n = len(d)
    if n < min_cells:
        raise DensityError(f"need at least {min_cells} inhabited cells, have {n}")
    r = np.arange(1, n + 1)
    m = (r > min_rank) & (d > 0)
    if int(m.sum()) < 3:
        raise DensityError("tail too short for a fit")
    x = np.log(r[m])
    y = np.log(d[m])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RankSizeFit(float(-slope), float(intercept), r2, n, int(m.sum()), min_rank)


def validate_boundaries(boundaries) -> tuple[int, ...]:
    b = tuple(int(x) for x in boundaries)
    if len(b) != 4 or any(x <= 0 for x in b) or any(b[i] >= b[i + 1] for i in range(3)):
        raise ValueError("area boundaries must be 4 strictly increasing positive ranks")
    return b


def classify_areas(density: np.ndarray, boundaries=DEFAULT_AREA_BOUNDARIES) -> np.ndarray:
    """Density class 1..5 of each cell of a density array: class 1 holds
    ranks up to the first boundary, class 5 everything past the last. Tied
    densities share a rank and therefore a class."""
    b = validate_boundaries(boundaries)
    ranks = rank_desc(density)
    labels = np.full(len(ranks), len(b) + 1, dtype=np.int64)
    for bound in b:
        labels -= (ranks <= bound).astype(np.int64)
    return labels


def ego_areas(gd: GridDensity, labels: np.ndarray) -> np.ndarray:
    """Density class of each individual via their home cell (labels holds
    the class of each grid row); 0 for an individual without a home."""
    return np.where(gd.row >= 0, labels[gd.row], 0)


def area_summary(
    labels: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    fine_grid: GridSpec,
    areas: np.ndarray,
) -> dict[int, dict[str, float]]:
    """Per class: cell count, resident count, and the mean fine-grid
    density experienced by residents (each individual weighted once).
    labels and areas are the classes of the coarse grid's rows and of each
    individual (ego_areas, 0 for none)."""
    fine = build_density(lat, lon, fine_grid)
    classed = areas > 0
    area = areas[classed]
    count = np.bincount(area, minlength=6).tolist()
    dsum = np.bincount(area, weights=fine.density[fine.row[classed]], minlength=6).tolist()
    out: dict[int, dict[str, float]] = {}
    for a in range(1, 6):
        out[a] = {
            "cells": int((labels == a).sum()),
            "residents": count[a],
            "mean_density_km2": (dsum[a] / count[a]) if count[a] else float("nan"),
        }
    return out
