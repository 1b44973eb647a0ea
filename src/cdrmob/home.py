"""Daily rhythm profiles, night-window detection, and home locations.

The home of an individual is the plain mean of the positions of their
events inside the nightly inactivity window. The window itself is found
from the population's daily activity profile: fit a two-peak day/evening
model to confirm the rhythm is bimodal, then take the quietest fixed-width
stretch of the circular day. The fit is bounded nonlinear least squares,
a numpy port of the trust region reflective path of scipy's curve_fit
(BSD-licensed optimize/_lsq/trf.py, see _curve_fit) that gives the same
bits without importing scipy.

Homes are averages of tower coordinates, so one can land on water; such
homes are flagged (no tower within a cutoff), never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm

from .geo import far_from_towers
from .ingest import EventTable
from .metrics import TableMetrics, blocks, rms, segment_rows
from .records import TowerRegistry


# The daily profile has 30-minute bins, each fitted at its centre hour, and
# the inactivity window is 6 hours wide.
BIN_MINUTES = 30
BIN_CENTERS_H = (np.arange(1440 // BIN_MINUTES) + 0.5) * (BIN_MINUTES / 60.0)
NIGHT_HOURS = 6.0


class UnimodalProfileError(Exception):
    """The daily profile does not show two separated peaks."""


def daily_profile(tm: TableMetrics) -> tuple[np.ndarray, np.ndarray]:
    """Population daily rhythm, one value per bin of BIN_CENTERS_H:
    (activity, mobility). Activity is the mean event count per individual
    in the bin; mobility the root mean square displacement over all pooled
    displacement pairs starting in the bin. Per-individual sums are added
    up row by row in id order, one block of individuals at a time."""
    nbins = len(BIN_CENTERS_H)
    a, d2sum, pairs = np.zeros(nbins, dtype=np.int64), np.zeros(nbins), np.zeros(nbins, dtype=np.int64)
    for lo, hi in tm.blocks(nbins):
        ba, bd2, _, bpairs = tm.time_of_day(nbins, lo, hi)
        # one sequential sum over the rows, continued from the previous blocks
        a, d2sum, pairs = (np.add.reduce(np.vstack((t[None], b)), axis=0)
                           for t, b in ((a, ba), (d2sum, bd2), (pairs, bpairs)))
    return a / max(len(tm.table), 1), rms(d2sum, pairs)


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


# curve_fit(f, t, y, p0, bounds=(lb, ub), maxfev=N) runs scipy's least_squares
# with method="trf", the trust region reflective method of Branch, Coleman
# and Li (SIAM J. Sci. Comput. 21(1), 1999), linear loss, unit x_scale, the
# exact trust-region solver (one SVD per step) and a '2-point' Jacobian kept
# inside the bounds. The functions below port that one path from scipy 1.17.1
# (optimize/_lsq/trf.py and common.py, optimize/_numdiff.py; BSD-3-Clause,
# Copyright the SciPy Developers) operation for operation, so each start ends
# on the same bits and the same start wins. The unit x_scale multiplies by
# 1.0, which is exact, so it is left out.

_EPS = np.finfo(float).eps
_TOL = 1e-8  # ftol, xtol and gtol


def _curve_fit(fun, p0, lb, ub, max_nfev=20000):
    """Parameters in [lb, ub] that minimize the sum of squares of fun(p).

    Raises ValueError for a start outside the bounds, residuals that are
    not finite at the start, or a Jacobian that is not finite (scipy's SVD
    refuses it), and RuntimeError when max_nfev evaluations end the search.
    """
    x = np.atleast_1d(p0).astype(float)
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    if not np.all((x >= lb) & (x <= ub)):
        raise ValueError("initial guess is outside of the bounds")
    x = _strictly_feasible(x, lb, ub, 1e-10)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite in the initial point")
    J = _jacobian(fun, x, f, lb, ub)
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, _ = _scaling(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_aug, J_aug = np.zeros(m + n), np.empty((m + n, n))
    alpha, nfev, done = 0.0, 1, False
    while True:
        v, dv = _scaling(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        done = done or g_norm < _TOL
        if done or nfev == max_nfev:
            break
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_aug[:m] = f
        J_aug[:m] = J * d
        J_h = J_aug[:m]
        J_aug[m:] = np.diag(diag_h**0.5)
        if not np.all(np.isfinite(J_aug)):
            raise ValueError("Jacobian is not finite")
        U, s, Vt = np.linalg.svd(J_aug, full_matrices=False)
        # scipy's SVD returns Fortran-ordered factors; the layout fixes the
        # summation order of the products below
        V = np.asfortranarray(Vt).T
        uf = np.asfortranarray(U).T.dot(f_aug)
        theta = max(0.995, 1 - g_norm)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _trust_region_step(n, m, uf, s, V, Delta, alpha)
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, d * p_h, p_h, d, Delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub, 0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new = Delta * 2.0
            done = ((actual_reduction < _TOL * cost and ratio > 0.25)
                    or norm(step) < _TOL * (_TOL + norm(x)))
            if done:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)
    if not done:
        raise RuntimeError(f"no convergence within {max_nfev} evaluations")
    if not np.all(np.isfinite(J)):
        raise ValueError("Jacobian is not finite at the solution")
    return x


def _strictly_feasible(x, lb, ub, rstep):
    """x moved off any bound it is on or within rstep (relative) of; with
    rstep 0, to the next float inside."""
    x_new = x.copy()
    if rstep == 0:
        lower, upper = x <= lb, x >= ub
    else:
        lower_dist, upper_dist = x - lb, ub - x
        lower = np.isfinite(lb) & (lower_dist <= np.minimum(upper_dist, rstep * np.maximum(1, np.abs(lb))))
        upper = np.isfinite(ub) & (upper_dist <= np.minimum(lower_dist, rstep * np.maximum(1, np.abs(ub))))
    lower &= ~upper
    if rstep == 0:
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight = (x_new < lb) | (x_new > ub)
    x_new[tight] = 0.5 * (lb[tight] + ub[tight])
    return x_new


def _jacobian(fun, x, f, lb, ub):
    """Forward differences, each step flipped or shortened to stay inside
    the bounds, laid out column-major as scipy builds it."""
    h = _EPS**0.5 * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    lower_dist, upper_dist = x - lb, ub - x
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[((x + h < lb) | (x + h > ub)) & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]
    J_t = np.empty((len(x), len(f)))
    for i in range(len(x)):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        J_t[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
    return J_t.T


def _scaling(x, g, lb, ub):
    """Coleman-Li scaling vector v and its derivative dv."""
    v, dv = np.ones_like(x), np.zeros_like(x)
    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _trust_region_step(n, m, uf, s, V, Delta, alpha):
    """Solution of the trust-region subproblem from one SVD, with More's
    root finding for the Levenberg-Marquardt parameter alpha."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    elif alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / norm(p)
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """(step, scaled step, predicted reduction): the trust-region step if
    it stays inside the bounds, else the best of that step cut short of the
    bound, its reflection off the bound, and scaled steepest descent."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -_quadratic(J_h, g_h, p_h, diag_h)
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    to_tr = _trust_region_exit(p_h, r_h, Delta)
    to_bound, _ = _step_to_bound(x + p, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    r_value = np.inf
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    p *= theta
    p_h *= theta
    p_value = _quadratic(J_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _step_to_bound(x, s, lb, ub):
    """Smallest t >= 0 that puts x + t*s on a bound, and which bounds it hits."""
    nz = np.nonzero(s)
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[nz] = np.maximum((lb - x)[nz] / s[nz], (ub - x)[nz] / s[nz])
    t = np.min(steps)
    return t, np.equal(steps, t) * np.sign(s).astype(int)


def _trust_region_exit(x, s, Delta):
    """Positive t with ||x + t*s|| = Delta, for x inside the trust region."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    q = -(b + math.copysign(np.sqrt(b * b - a * c), b))
    t1, t2 = q / a, c / q
    return t2 if t1 < t2 else t1


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients (a, b[, c]) of the model cost along s0 + t*s."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lb, ub, c=0):
    """Minimum point and value of a*t^2 + b*t + c on [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    k = np.argmin(y)
    return t[k], y[k]


def _quadratic(J, g, s, diag):
    """Model cost change 0.5 * s'(J'J + diag)s + g's of a step s."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def fit_bimodal(profile: np.ndarray) -> BimodalFit:
    """Fit floor + two Gaussians to a daily profile at BIN_CENTERS_H, by
    bounded least squares from three starts; the start with the smallest
    sum of squares wins.

    Raises UnimodalProfileError when the optimizer cannot place two
    separated, non-vanishing components (peaks closer than 2 h, or the
    smaller amplitude under 5% of the larger).
    """
    t = BIN_CENTERS_H
    y = np.asarray(profile, dtype=float)
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
            popt = _curve_fit(lambda p: _two_gauss(t, *p) - y, p0, lower, upper)
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


def find_inactive_window(profile: np.ndarray) -> tuple[float, float]:
    """Start/end clock hours of the quietest NIGHT_HOURS of a daily profile.

    The window slides circularly in whole bins; ties resolve to the
    earliest clock start. End may exceed 24 only conceptually; it is
    reported modulo 24 (e.g. (23.0, 5.0)).
    """
    wbins = round(NIGHT_HOURS * 60 / BIN_MINUTES)
    y = np.asarray(profile, dtype=float)
    wrapped = np.concatenate((y, y[: wbins - 1]))
    sums = np.convolve(wrapped, np.ones(wbins), mode="valid")
    start_bin = int(np.argmin(sums))  # first minimum = earliest clock start
    start = start_bin * (BIN_MINUTES / 60.0)
    end = (start + NIGHT_HOURS) % 24.0
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
    NaN coordinates for an individual without night events. Computed one
    block of individuals at a time (see metrics.blocks), so that no
    temporary spans the table."""
    hlat, hlon = np.full((2, len(table)), np.nan)
    counts = np.empty(len(table), dtype=np.int64)
    for lo, hi in blocks(table.offsets):
        r0, r1 = table.offsets[lo], table.offsets[hi]
        m = night_mask(table.ts[r0:r1], window)
        counts[lo:hi] = np.add.reduceat(m, table.offsets[lo:hi] - r0, dtype=np.int64)
        tower = table.tower[r0:r1][m]
        lat, lon = registry.lat[tower], registry.lon[tower]
        for seg, rows in segment_rows(np.concatenate(([0], np.cumsum(counts[lo:hi])))):
            hlat[lo + seg] = lat[rows].mean(axis=1)
            hlon[lo + seg] = lon[rows].mean(axis=1)
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
    out[homed] = far_from_towers(lat[homed], lon[homed], registry.lat, registry.lon, cutoff_km)
    return out
