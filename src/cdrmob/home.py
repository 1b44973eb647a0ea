"""Daily rhythm profiles, night-window detection, and home locations.

The home of an individual is the plain mean of the positions of their
events inside the nightly inactivity window. The window itself is found
from the population's daily activity profile: fit a two-peak day/evening
model to confirm the rhythm is bimodal, then take the quietest fixed-width
stretch of the circular day.

Homes are averages of tower coordinates, so one can land on water; such
homes are flagged (nearest tower beyond a cutoff), never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import NearestTowerIndex
from .ingest import EventTable
from .metrics import TableMetrics, rms, segment_rows
from .records import TowerRegistry


class UnimodalProfileError(Exception):
    """The daily profile does not show two separated peaks."""


@dataclass
class DailyProfile:
    """Population daily rhythm: one value per time-of-day bin.

    activity is the mean event count per individual per bin; mobility is
    the root mean square displacement over all pooled displacement pairs
    in the bin.
    """

    bin_minutes: int
    values: np.ndarray
    n_individuals: int

    @property
    def nbins(self) -> int:
        return len(self.values)

    def bin_centers_hours(self) -> np.ndarray:
        w = self.bin_minutes / 60.0
        return (np.arange(self.nbins) + 0.5) * w


def daily_profile(tm: TableMetrics, bin_minutes: int = 60) -> tuple[DailyProfile, DailyProfile]:
    """Pool every individual's events into time-of-day bins; returns the
    (activity, mobility) profiles. Per-individual sums are added up row by
    row in id order, one block of individuals at a time."""
    if 1440 % bin_minutes:
        raise ValueError("bin width must divide the day evenly")
    nbins = 1440 // bin_minutes
    a, d2sum, pairs = np.zeros(nbins, dtype=np.int64), np.zeros(nbins), np.zeros(nbins, dtype=np.int64)
    for lo, hi in tm.blocks(nbins):
        ba, bd2, _, bpairs = tm.time_of_day(nbins, lo, hi)
        # one sequential sum over the rows, continued from the previous blocks
        a, d2sum, pairs = (np.add.reduce(np.vstack((t[None], b)), axis=0)
                           for t, b in ((a, ba), (d2sum, bd2), (pairs, bpairs)))
    n = len(tm.table)
    return (
        DailyProfile(bin_minutes, a / max(n, 1), n),
        DailyProfile(bin_minutes, rms(d2sum, pairs), n),
    )


@dataclass
class BimodalFit:
    """Two-Gaussian-plus-floor description of a daily profile, components
    ordered by hour (day peak first). Hours are clock hours in [0, 24)."""

    mu_day_h: float
    sigma_day_h: float
    amp_day: float
    mu_evening_h: float
    sigma_evening_h: float
    amp_evening: float
    floor: float
    rmse: float


def _two_gauss(t, a1, mu1, s1, a2, mu2, s2, base):
    return (
        base
        + a1 * np.exp(-0.5 * ((t - mu1) / s1) ** 2)
        + a2 * np.exp(-0.5 * ((t - mu2) / s2) ** 2)
    )


def fit_bimodal(profile: DailyProfile) -> BimodalFit:
    """Fit floor + two Gaussians to the profile at bin centers.

    Raises UnimodalProfileError when the optimizer cannot place two
    separated, non-vanishing components (peaks closer than 2 h, or the
    smaller amplitude under 5% of the larger).
    """
    from scipy.optimize import curve_fit  # costs most of the package's import time

    t = profile.bin_centers_hours()
    y = np.asarray(profile.values, dtype=float)
    span = float(y.max() - y.min())
    if span <= 0:
        raise UnimodalProfileError("profile is flat")
    base0 = float(y.min())

    def peak_in(lo, hi):
        m = (t >= lo) & (t < hi)
        if not m.any():
            return (lo + hi) / 2.0, span * 0.5
        k = np.flatnonzero(m)[np.argmax(y[m])]
        return float(t[k]), float(y[k] - base0)

    starts = []
    for day_span, eve_span in (((8, 16), (16, 23)), ((6, 14), (14, 22)), ((9, 15), (17, 23))):
        (m1, a1), (m2, a2) = peak_in(*day_span), peak_in(*eve_span)
        starts.append([max(a1, span * 0.1), m1, 2.5, max(a2, span * 0.1), m2, 2.5, base0])

    lower = [0.0, 0.0, 0.3, 0.0, 0.0, 0.3, 0.0]
    upper = [np.inf, 24.0, 8.0, np.inf, 24.0, 8.0, np.inf]
    best = None
    for p0 in starts:
        try:
            popt, _ = curve_fit(_two_gauss, t, y, p0=p0, bounds=(lower, upper), maxfev=20000)
        except (RuntimeError, ValueError):
            continue
        sse = float(np.sum((_two_gauss(t, *popt) - y) ** 2))
        if best is None or sse < best[0]:
            best = (sse, popt)
    if best is None:
        raise UnimodalProfileError("two-peak fit did not converge")
    sse, p = best
    a1, mu1, s1, a2, mu2, s2, base = (float(v) for v in p)
    if mu2 < mu1:
        a1, mu1, s1, a2, mu2, s2 = a2, mu2, s2, a1, mu1, s1
    if abs(mu2 - mu1) < 2.0 or min(a1, a2) < 0.05 * max(a1, a2):
        raise UnimodalProfileError(
            f"components degenerate: peaks at {mu1:.2f}h/{mu2:.2f}h, amps {a1:.3g}/{a2:.3g}"
        )
    rmse = math.sqrt(sse / len(t))
    return BimodalFit(mu1, s1, a1, mu2, s2, a2, base, rmse)


def find_inactive_window(profile: DailyProfile, window_hours: float = 6.0) -> tuple[float, float]:
    """Start/end clock hours of the quietest window of the given width.

    The window slides circularly in whole bins; ties resolve to the
    earliest clock start. End may exceed 24 only conceptually; it is
    reported modulo 24 (e.g. (23.0, 5.0)).
    """
    wbins = round(window_hours * 60 / profile.bin_minutes)
    if wbins < 1 or wbins > profile.nbins:
        raise ValueError("window width out of range")
    y = np.asarray(profile.values, dtype=float)
    wrapped = np.concatenate((y, y[: wbins - 1]))
    sums = np.convolve(wrapped, np.ones(wbins), mode="valid")
    start_bin = int(np.argmin(sums))  # first minimum = earliest clock start
    w = profile.bin_minutes / 60.0
    start = start_bin * w
    end = (start + window_hours) % 24.0
    return start, (24.0 if end == 0 else end)


def night_mask(ts: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Boolean mask of events whose time of day falls in [start, end).
    Windows crossing midnight wrap."""
    start, end = window
    hours = (ts % 86400) / 3600.0
    if start <= end:
        return (hours >= start) & (hours < end)
    return (hours >= start) | (hours < end)


def compute_homes(
    table: EventTable,
    registry: TowerRegistry,
    window: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean event position inside the night window and the number of night
    events, per individual in id order: (lat, lon, night events), with
    NaN coordinates for an individual without night events."""
    m = night_mask(table.ts, window)
    counts = np.add.reduceat(m, table.offsets[:-1], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    tower = table.tower[m]
    lat, lon = registry.lat[tower], registry.lon[tower]
    hlat, hlon = np.full((2, len(table)), np.nan)
    for seg, rows in segment_rows(offsets):
        hlat[seg] = lat[rows].mean(axis=1)
        hlon[seg] = lon[rows].mean(axis=1)
    return hlat, hlon, counts


def flag_at_sea(
    lat: np.ndarray,
    lon: np.ndarray,
    registry: TowerRegistry,
    cutoff_km: float = 10.0,
) -> np.ndarray:
    """True for homes farther than cutoff_km from every tower, False for
    the rest and for individuals without a home (NaN coordinates). With no
    coastline data this distance is the practical offshore signal."""
    homed = ~np.isnan(lat)
    out = np.zeros(len(lat), dtype=bool)
    if homed.any():
        index = NearestTowerIndex(registry.lat, registry.lon)
        out[homed] = index.distance_km(lat[homed], lon[homed]) > cutoff_km
    return out
