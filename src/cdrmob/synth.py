"""Synthetic CDR generator with planted, recoverable structure.

The generator builds a small world of settlements on a coarse lattice of
grid cells with Zipf-distributed populations, then simulates one event
stream per individual:

  * event times follow a day/evening two-Gaussian daily rhythm over a
    small constant floor, wrapped around midnight, modulated by
    day-of-week and per-month multipliers (month tables differ between
    dense and sparse density classes, planting an August dip only where
    configured);
  * event counts scale with settlement density as (rho/rho_mean)^beta,
    and with gender/age multipliers; an optional rank-dependent override
    plants a sign flip of the activity-density coupling at a chosen rank;
  * positions sit on the home tower, or on one of the settlement's
    satellite towers at distances proportional to
    lambda(rho) = lambda0 * (rho/rho_mean)^-gamma, so travel shrinks with
    density; night events anchor to the home tower with probability
    p_home_night;
  * every genuine individual's first two raw events form an
    outgoing/incoming pair with one fixed partner, so the reciprocity
    filter provably keeps them; spam ids only ever call out.

Every quantity needed to score the pipeline is written to a ground-truth
file next to the corpus. Determinism: the world derives from seed stream
(seed, 0) and each individual from (seed, 1_000_000 + index), so output
bytes depend only on the config.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .density import DensityError, classify_areas, rank_desc, validate_boundaries
from .geo import GridSpec, offset_km
from .records import (
    CdrError,
    age_group_of,
    format_timestamp,
    month_starts,
    ordered_map,
    read_json_object,
    weekday_of,
    write_json,
)

CDR_FILE = "cdr.csv"
TOWERS_FILE = "towers.csv"
DEMOGRAPHICS_FILE = "demographics.csv"
TRUTH_FILE = "truth.json"
CONFIG_FILE = "genconfig.json"

# The world every corpus shares: settlement layout, daily rhythm, week,
# travel and demography. GenConfig holds the settings that corpora vary.
ZIPF_EXPONENT = 1.0
ORIGIN_LAT = 40.0
ORIGIN_LON = 20.0
CELL_SPACING = 3  # lattice pitch between settlements, in cells

MU_DAY_H = 12.97
SIGMA_DAY_H = 2.36
AMP_DAY = 1.0
MU_EVE_H = 19.72
SIGMA_EVE_H = 2.31
AMP_EVE = 0.85

DOW_MULT = (0.98, 1.00, 1.02, 1.06, 1.15, 1.04, 0.80)  # Mon..Sun
DENSE_AREA_MAX = 3  # density classes 1..this use the dense month table
NIGHT_WINDOW_H = (1.0, 7.0)  # clock hours in which events anchor to home

LAMBDA0_KM = 3.0
LAMBDA_MIN_KM = 0.5
LAMBDA_MAX_KM = 12.0
SATELLITE_RINGS = (0.6, 0.9, 1.2, 1.5)
MOBILITY_MONTH_MULT = (1.25, 1.0, 0.99, 0.98, 0.97, 0.96, 1.15, 1.18, 0.93, 0.92, 0.91, 0.90)

SMS_FRACTION = 0.3
FEMALE_FRACTION = 0.5
# by age group, in records.AGE_GROUPS order (teen .. senior)
AGE_EXCESS_SCALE = (2.0, 0.5, 1.0, 1.5, 1.0, 0.8)
AGE_ACTIVITY_MULT = (0.9, 1.2, 1.05, 0.95, 0.8, 0.65)
AGE_MIN = 13
AGE_MAX = 85

SPAM_EVENTS_BASE = 20
SPAM_EVENTS_POISSON = 30
OUTSIDER_ID = "x0001"  # the partner of a corpus's only genuine individual
# The most events one individual may be expected to make in the year, about
# 2,700 a day. numpy refuses a Poisson rate above about 9.2e18, but at this
# rate one individual's draws already take about 56 MB.
MAX_YEAR_EVENTS = 1e6


class RateError(ValueError):
    """Settings under which some individual's expected events fall outside
    0 to MAX_YEAR_EVENTS."""


def _finite(x) -> bool:
    """Whether a setting that is a number converts to a finite float (an
    int past float's range does not); other values are checked by field."""
    try:
        return not isinstance(x, numbers.Real) or math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GenConfig:
    """The settings that corpora vary; the constants above fix the rest.
    Defaults give a ~2.8M-row corpus whose every planted effect clears its
    recovery tolerance with margin."""

    n_individuals: int = 10_000
    n_cells: int = 400
    grid_step: float = 0.05

    night_floor: float = 0.04
    base_daily_events: float = 0.75
    month_mult_dense: tuple = (1.02, 1.0, 1.0, 0.99, 1.0, 1.01, 1.0, 0.80, 1.0, 1.0, 0.99, 1.01)
    month_mult_sparse: tuple = (1.02, 1.0, 1.0, 0.99, 1.0, 1.01, 1.0, 1.0, 1.0, 1.0, 0.99, 1.01)

    beta: float = 0.15  # activity ~ (rho/rho_mean)^beta
    gamma: float = 0.5  # displacement scale ~ (rho/rho_mean)^-gamma
    # replace the beta coupling by a rank-driven one with a sign flip:
    # (head_exponent, tail_exponent, pivot_rank)
    activity_flip: tuple | None = None

    p_home_night: float = 0.95
    p_away_day: float = 0.5

    female_activity_excess: tuple = (0.36, 0.28, 0.21, 0.14, 0.07)  # by density class
    female_mobility_excess: float = 0.06

    spam_fraction: float = 0.05

    area_boundaries: tuple = (12, 40, 120, 260)
    analysis_year: int = 2008
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(map(_finite, value if isinstance(value, (tuple, list)) else (value,))):
                raise ValueError(f"{f.name} must be finite")
        for name in ("n_individuals", "n_cells", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n_cells < 1:
            raise ValueError("need at least one settlement cell")
        if self.n_individuals < 1:
            raise ValueError("need at least one individual")
        if not (0 <= self.spam_fraction < 1):
            raise ValueError("spam fraction must be in [0, 1)")
        if self.n_real < self.n_cells:
            raise ValueError("fewer genuine individuals than settlements")
        if self.base_daily_events <= 0:
            raise ValueError("base_daily_events must be positive")
        if self.night_floor < 0:
            raise ValueError("night_floor must be non-negative")
        GridSpec(self.grid_step)  # refuses a step outside 1e-6 to 90 degrees
        for p in ("p_home_night", "p_away_day"):
            if not (0 <= getattr(self, p) <= 1):
                raise ValueError(f"{p} must be in [0, 1]")
        if any(m <= 0 for m in self.month_mult_dense + self.month_mult_sparse):
            raise ValueError("all rate multipliers must be positive")
        if len(self.month_mult_dense) != 12 or len(self.month_mult_sparse) != 12:
            raise ValueError("month multiplier tables have 12 entries")
        if len(self.female_activity_excess) != 5:
            raise ValueError("female_activity_excess has one entry per density class (5)")
        validate_boundaries(self.area_boundaries)
        month_starts(self.analysis_year)  # refuses a year outside 1-9998
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        flip = self.activity_flip
        if flip is not None and not (
            isinstance(flip, (tuple, list))
            and len(flip) == 3
            and all(isinstance(x, numbers.Real) for x in flip)
            and flip[2] > 0
        ):
            raise ValueError(
                "activity_flip must be three finite numbers "
                "(head_exponent, tail_exponent, pivot_rank) with pivot_rank > 0"
            )

    @property
    def n_spam(self) -> int:
        return int(round(self.n_individuals * self.spam_fraction))

    @property
    def n_real(self) -> int:
        return self.n_individuals - self.n_spam

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        kw = dict(d)
        for k, v in kw.items():
            if isinstance(v, list):
                kw[k] = tuple(v)
        return cls(**kw)


@dataclass
class GroundTruth:
    """Everything needed to score a pipeline run of the generated corpus."""

    analysis_year: int
    seed: int
    night_window: tuple
    circadian: dict
    dow_mult: tuple
    month_mult_dense: tuple
    month_mult_sparse: tuple
    dense_area_max: int
    mobility_month_mult: tuple
    beta: float
    gamma: float
    zipf_exponent: float
    activity_flip: tuple | None
    female_activity_excess: tuple
    female_mobility_excess: float
    area_boundaries: tuple
    grid_step: float
    settlements: list
    egos: dict
    spam_ids: list

    @classmethod
    def from_json(cls, path) -> "GroundTruth":
        d = read_json_object(path, "ground truth", [f.name for f in fields(cls)])
        for k, shape in _TRUTH_SHAPES.items():
            if not _fits(d[k], shape):
                raise CdrError(f"{path}: malformed ground truth: "
                               f"{k} has the wrong JSON type or length")
            if isinstance(d[k], list) and k not in ("settlements", "spam_ids"):
                d[k] = tuple(d[k])  # as GenConfig holds it
        try:  # the settings the corpus's pipeline is set up with
            month_starts(d["analysis_year"])
            GridSpec(d["grid_step"])
            validate_boundaries(d["area_boundaries"])
        except ValueError as e:
            raise CdrError(f"{path}: malformed ground truth: {e}")
        return cls(**d)


def _fits(value, shape) -> bool:
    """Whether a JSON value has a shape: a type (float takes any number), a
    tuple of shapes it may take, [element shape, length or None] for a list,
    or {key: shape} for an object holding those keys ({str: shape}: any keys)."""
    if isinstance(shape, tuple):
        return any(_fits(value, s) for s in shape)
    if isinstance(shape, list):
        return (isinstance(value, list) and shape[1] in (None, len(value))
                and all(_fits(v, shape[0]) for v in value))
    if isinstance(shape, dict):
        return isinstance(value, dict) and (
            all(_fits(v, shape[str]) for v in value.values()) if str in shape
            else all(k in value and _fits(value[k], s) for k, s in shape.items()))
    if shape is None:
        return value is None
    if shape is bool or isinstance(value, bool):
        return shape is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if shape is float else shape)


_CELL = [int, 2]
# the JSON shape of each truth.json field; of an individual or a settlement,
# the keys that the scorecard reads
_TRUTH_SHAPES = {
    "analysis_year": int, "seed": int, "night_window": [float, 2],
    "circadian": {k: float for k in ("mu_day_h", "sigma_day_h", "amp_day", "mu_eve_h",
                                     "sigma_eve_h", "amp_eve", "floor")},
    "dow_mult": [float, 7], "month_mult_dense": [float, 12], "month_mult_sparse": [float, 12],
    "dense_area_max": int, "mobility_month_mult": [float, 12], "beta": float, "gamma": float,
    "zipf_exponent": float, "activity_flip": (None, [float, 3]),
    "female_activity_excess": [float, 5], "female_mobility_excess": float,
    "area_boundaries": [int, 4], "grid_step": float,
    "settlements": [{"cell": _CELL, "density": float}, None],
    "egos": {str: {"cell": _CELL, "spam": bool}}, "spam_ids": [str, None],
}


def _mixture_pdf_hours(t_h: np.ndarray, cfg: GenConfig) -> np.ndarray:
    """Daily intensity at clock hour t, wrapped so mass crossing midnight
    reappears on the other side (keeps the early morning the true
    minimum)."""
    f = np.full(t_h.shape, cfg.night_floor, dtype=float)
    for mu, sig, amp in ((MU_DAY_H, SIGMA_DAY_H, AMP_DAY), (MU_EVE_H, SIGMA_EVE_H, AMP_EVE)):
        for k in (-24.0, 0.0, 24.0):
            f += amp * np.exp(-0.5 * ((t_h - mu + k) / sig) ** 2)
    return f


def _tod_quantiles(cfg: GenConfig, npts: int = 2881) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, hours) table: draw u~U(0,1), time = interp(u, cdf, hours)."""
    t = np.linspace(0.0, 24.0, npts)
    f = _mixture_pdf_hours(t, cfg)
    cdf = np.concatenate(([0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * np.diff(t))))
    cdf /= cdf[-1]
    return cdf, t


def _byte_table(strings: list[str]) -> np.ndarray:
    """One row of ASCII bytes per string, NUL-padded to the longest."""
    return np.array(strings, dtype=bytes).view(np.uint8).reshape(len(strings), -1)


def _id_table(n: int) -> np.ndarray:
    """The byte table of ids u1..un, zero-padded to one width, and of
    OUTSIDER_ID after them: a few bytes per individual, where a Python
    string of each took about 63."""
    width = len(str(n))
    out = np.zeros((n + 1, max(1 + width, len(OUTSIDER_ID))), dtype=np.uint8)
    out[:n, 0] = ord("u")
    number = np.arange(1, n + 1)
    for k in range(width, 0, -1):  # the digits from the last
        out[:n, k] = number % 10 + ord("0")
        number //= 10
    out[n, :len(OUTSIDER_ID)] = np.frombuffer(OUTSIDER_ID.encode(), np.uint8)
    return out


class _World:
    """Deterministic world shared by all per-individual workers."""

    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
        grid = GridSpec(cfg.grid_step)
        self.grid = grid
        n = cfg.n_cells
        side = math.ceil(math.sqrt(n))
        base_i = round(ORIGIN_LAT / cfg.grid_step)
        base_j = round(ORIGIN_LON / cfg.grid_step)

        # Zipf population quotas summing exactly to n_real, all >= 1
        w = np.arange(1, n + 1, dtype=float) ** (-ZIPF_EXPONENT)
        raw = cfg.n_real * w / w.sum()
        pop = np.floor(raw).astype(np.int64)
        frac = raw - pop
        deficit = cfg.n_real - int(pop.sum())
        order = np.argsort(-frac, kind="stable")
        pop[order[:deficit]] += 1
        while (pop == 0).any():
            z = int(np.argmin(pop))
            pop[int(np.argmax(pop))] -= 1
            pop[z] += 1
        self.pop = pop

        tower_width = len(str(5 * n))
        self.cells: list[tuple[int, int]] = []
        self.center_ids: list[str] = []
        self.center_pos: list[tuple[float, float]] = []
        tower_ids: list[str] = []  # centres 1..n, then each settlement's satellites
        tower_rows: list[str] = []
        areas_km2 = np.empty(n)
        next_tower = 1
        for k in range(n):
            r, c = divmod(k, side)
            ci = base_i + r * CELL_SPACING
            cj = base_j + c * CELL_SPACING
            self.cells.append((ci, cj))
            areas_km2[k] = grid.cell_area_km2(ci)
            # home tower inside the central 80% of its cell
            u, v = rng.random(2)
            lat = float((ci + 0.1 + 0.8 * u) * cfg.grid_step)
            lon = float((cj + 0.1 + 0.8 * v) * cfg.grid_step)
            tid = f"T{next_tower:0{tower_width}d}"
            next_tower += 1
            self.center_ids.append(tid)
            self.center_pos.append((lat, lon))
            tower_ids.append(tid)
            tower_rows.append(f"{tid},{lat!r},{lon!r}\n")

        rho = pop / areas_km2
        self.rho = rho
        rho_mean = float(rho.mean())
        self.rank = rank_desc(rho)
        self.area = classify_areas(rho, cfg.area_boundaries)
        self.dense = self.area <= DENSE_AREA_MAX
        with np.errstate(over="ignore"):  # the rate check refuses an infinite rate
            self.lam = np.clip(
                LAMBDA0_KM * (rho / rho_mean) ** (-cfg.gamma),
                LAMBDA_MIN_KM,
                LAMBDA_MAX_KM,
            )
            self.act_density_mult = (rho / rho_mean) ** cfg.beta
            if cfg.activity_flip is not None:
                head, tail, pivot = cfg.activity_flip
                rel = self.rank / float(pivot)
                self.act_density_mult = np.where(
                    self.rank <= pivot, rel**head, rel**tail
                )

        # satellite towers on rings around each settlement
        for k in range(n):
            lat0, lon0 = self.center_pos[k]
            bearings = rng.random(len(SATELLITE_RINGS)) * 2.0 * math.pi
            for ring, th in zip(SATELLITE_RINGS, bearings):
                d = ring * float(self.lam[k])
                lat, lon = offset_km(lat0, lon0, d * math.sin(th), d * math.cos(th))
                lat, lon = float(lat), float(lon)
                tid = f"T{next_tower:0{tower_width}d}"
                next_tower += 1
                tower_ids.append(tid)
                tower_rows.append(f"{tid},{lat!r},{lon!r}\n")
        self.tower_rows = tower_rows
        self.tower_bytes = _byte_table(tower_ids)

        # individual ids, genuine first and spam last, then the outsider
        self.id_bytes = _id_table(cfg.n_individuals)
        self.settlement_of = np.repeat(np.arange(n), pop)  # genuine egos only

        # the month, weekday and YYYY-MM-DDT text of each day of the year
        starts = month_starts(cfg.analysis_year)
        month_days = np.diff(starts) // 86400
        self.day_month = np.repeat(np.arange(12), month_days)
        days = starts[0] // 86400 + np.arange(month_days.sum())
        self.day_wd = weekday_of(days)
        self.date_bytes = _byte_table([format_timestamp(d * 86400)[:11] for d in days.tolist()])

        # each day's weight under the sparse (row 0) and the dense (row 1)
        # month table; settlement s follows row self.dense[s]
        months = np.asarray([cfg.month_mult_sparse, cfg.month_mult_dense])
        day_weight = np.asarray(DOW_MULT)[self.day_wd] * months[:, self.day_month]
        row_sum = np.array([v.sum() for v in day_weight])  # sum(axis=1) rounds otherwise
        # the day CDF of each row, as Generator.choice builds it from p
        self.day_cdf = (day_weight / row_sum[:, None]).cumsum(axis=1)
        self.day_cdf /= self.day_cdf[:, -1:]
        year = row_sum[self.dense.astype(np.intp)]

        # expected events in the year of a genuine individual, by settlement,
        # sex (men, women) and age group: the rates drawn and the rates checked
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            daily = np.outer(cfg.base_daily_events * self.act_density_mult, AGE_ACTIVITY_MULT)
            lift = 1.0 + np.outer(np.asarray(cfg.female_activity_excess)[self.area - 1],
                                  AGE_EXCESS_SCALE)
            rate = np.stack([daily, daily * lift], axis=1) * year[:, None, None]
        if not ((rate >= 0) & (rate <= MAX_YEAR_EVENTS)).all():
            raise RateError(f"an individual's expected events in the year must be from 0 to "
                            f"{MAX_YEAR_EVENTS:g}; these settings give rates from "
                            f"{rate.min():g} to {rate.max():g}")
        self.rate = rate.tolist()  # read once per individual
        # the age group of each age the generator draws, from AGE_MIN
        self.age_group = age_group_of(np.arange(AGE_MIN, AGE_MAX + 1)).tolist()

        self.tod_cdf, self.tod_hours = _tod_quantiles(cfg)

    def ego_ids(self, lo: int, hi: int) -> list[str]:
        """The ids of individuals lo..hi-1, as text."""
        rows = self.id_bytes[lo:hi]
        return rows.view(f"S{rows.shape[1]}")[:, 0].astype(str).tolist()


def _partner_ring(idx: np.ndarray, n_real: int, outsider: int) -> np.ndarray:
    """The partners of genuine individuals idx, one sorted row each: the
    distinct other genuine individuals within two places on a ring of
    n_real, or the outsider alone when there is no other."""
    if n_real == 1:
        return np.full((len(idx), 1), outsider)
    ring = (idx[:, None] + np.array([-2, -1, 1, 2])) % n_real
    ring.sort(axis=1)
    drop = ring == idx[:, None]
    drop[:, 1:] |= ring[:, 1:] == ring[:, :-1]
    ring[drop] = n_real  # past every genuine index, so it sorts last
    ring.sort(axis=1)
    return ring[:, : min(4, n_real - 1)]


def _clock_bytes(sec: np.ndarray) -> np.ndarray:
    """HH:MM:SS of each second of the day, one row of 8 bytes each."""
    hms = np.stack([sec // 3600, sec // 60 % 60, sec % 60], axis=1)
    out = np.empty((len(sec), 8), dtype=np.uint8)
    out[:, 0::3] = hms // 10 + ord("0")
    out[:, 1::3] = hms % 10 + ord("0")
    out[:, 2::3] = ord(":")
    return out


def _join_fields(fields: list) -> bytes:
    """Rows made of fields side by side: (n, width) byte tables, or byte
    strings that every row shares. NUL padding is dropped."""
    n = next(len(f) for f in fields if isinstance(f, np.ndarray))
    widths = [len(f) if isinstance(f, bytes) else f.shape[1] for f in fields]
    buf = np.empty((n, sum(widths)), dtype=np.uint8)
    col = 0
    for f, w in zip(fields, widths):
        buf[:, col : col + w] = np.frombuffer(f, np.uint8) if isinstance(f, bytes) else f
        col += w
    flat = buf.ravel()
    return flat[flat != 0].tobytes()


def _dumps(doc) -> str:
    """truth.json's encoding: compact, keys sorted. dumps runs the C
    encoder, where dump streams through Python."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _ego_chunk(world: _World, lo: int, hi: int) -> tuple[bytes, list[str], str]:
    """Generate individuals [lo, hi): returns (csv_bytes, demo_rows,
    truth_text), the last their truth.json entries without the enclosing
    braces. All randomness comes from per-individual substreams, drawn one
    individual at a time; the rest runs once over the chunk."""
    cfg = world.cfg
    n_real = cfg.n_real
    n_sat = len(SATELLITE_RINGS)
    # genuine individuals lead the chunk, spam ids trail it
    ring = _partner_ring(np.arange(lo, min(hi, n_real)), n_real, cfg.n_individuals)
    g = len(ring)
    areas = world.area.tolist()
    settle, n_ev, female, age, rate = [], [], [], [], []
    u3, sat, pick, u_out, u_sms = [], [], [], [], []
    for i in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1_000_000 + i)))
        if i >= n_real:
            s = int(rng.integers(0, cfg.n_cells))
            k = SPAM_EVENTS_BASE + int(rng.poisson(SPAM_EVENTS_POISSON))
            fem, a, r = False, None, float(k)
        else:
            s = int(world.settlement_of[i])
            fem = bool(rng.random() < FEMALE_FRACTION)
            a = int(rng.integers(AGE_MIN, AGE_MAX + 1))
            r = world.rate[s][fem][world.age_group[a - AGE_MIN]]
            k = max(int(rng.poisson(r)), 2)
        settle.append(s)
        n_ev.append(k)
        female.append(fem)
        age.append(a)
        rate.append(r)
        u3.append(rng.random((3, k)))  # day (Generator.choice's draw), time of day, at home
        sat.append(rng.integers(0, n_sat, size=k))
        if i >= n_real:
            pick.append(rng.integers(0, n_real, size=k))  # the spam's victims
        else:
            pick.append(rng.integers(0, ring.shape[1], size=k))
            u_out.append(rng.random(k))
        u_sms.append(rng.random(k))

    counts = np.array(n_ev)
    who = np.repeat(np.arange(hi - lo), counts)
    first = np.cumsum(counts) - counts
    s_ev = np.array(settle)[who]
    u_day, u_tod, u_home = np.concatenate(u3, axis=1)
    days = np.where(
        world.dense[s_ev],
        world.day_cdf[1].searchsorted(u_day, side="right"),
        world.day_cdf[0].searchsorted(u_day, side="right"),
    )
    tod = np.minimum(
        (np.interp(u_tod, world.tod_cdf, world.tod_hours) * 3600.0).astype(np.int64), 86399
    )

    night = (tod >= NIGHT_WINDOW_H[0] * 3600) & (tod < NIGHT_WINDOW_H[1] * 3600)
    p_away = cfg.p_away_day * np.asarray(MOBILITY_MONTH_MULT)[world.day_month[days]]
    p_away = p_away * np.where(np.array(female)[who], 1.0 + cfg.female_mobility_excess, 1.0)
    p_home = np.where(night, cfg.p_home_night, 1.0 - np.minimum(p_away, 0.95))
    # row s of tower_bytes is settlement s's centre; its satellites follow all centres
    tower = np.where(u_home < p_home, s_ev, cfg.n_cells + n_sat * s_ev + np.concatenate(sat))

    partner = np.concatenate(pick)
    outgoing = np.ones(len(partner), dtype=bool)  # spam only ever calls out
    if g:
        n_g = int(counts[:g].sum())
        partner[:n_g] = ring[who[:n_g], partner[:n_g]]
        outgoing[:n_g] = np.concatenate(u_out) < 0.5
        # first two raw events: a guaranteed reciprocal pair
        head = first[:g]
        partner[head] = ring[:, 0]
        partner[head + 1] = ring[:, 0]
        outgoing[head] = True
        outgoing[head + 1] = False
    sms = np.concatenate(u_sms) < SMS_FRACTION

    o = np.lexsort((days * 86400 + tod, who))  # stable: ties keep draw order
    text = _join_fields([
        world.id_bytes[lo + who[o]], b",", world.id_bytes[partner[o]], b",",
        world.date_bytes[days[o]], _clock_bytes(tod[o]), b",",
        world.tower_bytes[tower[o]], b",",
        _byte_table(["call", "sms"])[sms[o].astype(np.intp)], b",",
        _byte_table(["in", "out"])[outgoing[o].astype(np.intp)], b"\n",
    ])

    ids = world.ego_ids(lo, hi)
    demo = [
        f"{ego},{'F' if fem else 'M'},{cfg.analysis_year - a}\n"
        for ego, fem, a in zip(ids[:g], female, age)
    ]
    truth: dict[str, dict] = {}
    for i, ego, s, fem, a, r in zip(range(lo, hi), ids, settle, female, age, rate):
        spam = i >= n_real
        truth[ego] = {
            "settlement": s + 1,
            "cell": list(world.cells[s]),
            "home_tower": None if spam else world.center_ids[s],
            "gender": None if spam else ("female" if fem else "male"),
            "age": a,
            "area": areas[s],
            "rate": r,
            "spam": spam,
        }
    return text, demo, _dumps(truth)[1:-1]


# individuals generated, and their text held, at a time
_CHUNK = 512


# the world of the corpus that generate is writing, set for the length of
# the call: forked workers inherit it, so only bounds go in and results
# come out
_world: _World | None = None


def _world_chunk(bounds: tuple[int, int]) -> tuple[bytes, list[str], str]:
    return _ego_chunk(_world, *bounds)


def generate(cfg: GenConfig, out_dir, threads: int = 1) -> None:
    """Write cdr.csv, towers.csv, demographics.csv, truth.json and
    genconfig.json under out_dir; GroundTruth.from_json reads the truth
    back. One worker process per CPU this process may run on builds the
    chunks of _CHUNK individuals, their rows and their truth.json entries,
    and this process writes them in order, so the bytes do not depend on
    the number of workers and no more than a few chunks are held at once.
    Where there is one CPU or no fork, the chunks are built here.
    `threads` is accepted and ignored."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    os.makedirs(out_dir, exist_ok=True)
    world = _World(cfg)

    with open(os.path.join(out_dir, TOWERS_FILE), "w", encoding="utf-8") as fh:
        fh.write("tower_id,lat,lon\n")
        fh.writelines(world.tower_rows)

    # ids have one width, so chunk order is the key order sort_keys gives
    head, tail = _dumps(vars(_world_truth(world))).split('"egos":{}')
    n = cfg.n_individuals
    bounds = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    # with fork, the executor starts all its workers before its manager
    # thread, at the first submit: on entry, before these files open, so
    # the workers hold none of them
    fork = "fork" in multiprocessing.get_all_start_methods()
    pool = fork and partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    global _world
    _world = world
    try:
        with (
            ordered_map(_world_chunk, bounds, len(bounds), pool) as (_, chunks),
            open(os.path.join(out_dir, CDR_FILE), "wb") as cdr,
            open(os.path.join(out_dir, DEMOGRAPHICS_FILE), "w", encoding="utf-8") as dem,
            open(os.path.join(out_dir, TRUTH_FILE), "w", encoding="utf-8") as truth,
        ):
            cdr.write(b"ego_id,peer_id,timestamp,tower_id,kind,direction\n")
            dem.write("ego_id,gender,birth_year\n")
            truth.write(head + '"egos":{')
            for i, (text, demo, entries) in enumerate(chunks):
                cdr.write(text)
                dem.writelines(demo)
                truth.write(("," if i else "") + entries)
            truth.write("}" + tail + "\n")
    finally:
        _world = None
    write_json(os.path.join(out_dir, CONFIG_FILE), asdict(cfg))


def _world_truth(world: _World) -> GroundTruth:
    """The world's ground truth, with no individual in `egos`."""
    cfg = world.cfg
    settlements = [
        {
            "k": k + 1,
            "tower": world.center_ids[k],
            "lat": world.center_pos[k][0],
            "lon": world.center_pos[k][1],
            "cell": list(world.cells[k]),
            "population": int(world.pop[k]),
            "density": float(world.rho[k]),
            "rank": float(world.rank[k]),
            "area": int(world.area[k]),
            "lambda_km": float(world.lam[k]),
        }
        for k in range(cfg.n_cells)
    ]
    return GroundTruth(
        analysis_year=cfg.analysis_year,
        seed=cfg.seed,
        night_window=NIGHT_WINDOW_H,
        circadian={
            "mu_day_h": MU_DAY_H,
            "sigma_day_h": SIGMA_DAY_H,
            "amp_day": AMP_DAY,
            "mu_eve_h": MU_EVE_H,
            "sigma_eve_h": SIGMA_EVE_H,
            "amp_eve": AMP_EVE,
            "floor": cfg.night_floor,
        },
        dow_mult=DOW_MULT,
        month_mult_dense=cfg.month_mult_dense,
        month_mult_sparse=cfg.month_mult_sparse,
        dense_area_max=DENSE_AREA_MAX,
        mobility_month_mult=MOBILITY_MONTH_MULT,
        beta=cfg.beta,
        gamma=cfg.gamma,
        zipf_exponent=ZIPF_EXPONENT,
        activity_flip=cfg.activity_flip,
        female_activity_excess=cfg.female_activity_excess,
        female_mobility_excess=cfg.female_mobility_excess,
        area_boundaries=cfg.area_boundaries,
        grid_step=cfg.grid_step,
        settlements=settlements,
        egos={},
        spam_ids=world.ego_ids(cfg.n_real, cfg.n_individuals),
    )


# ----------------------------------------------------------- scorecard


@dataclass
class Check:
    """One planted-structure recovery check."""

    name: str
    passed: bool
    value: object
    target: str
    note: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"{mark}  {self.name}: {self.value}  [target: {self.target}]{note}"


@dataclass
class Scorecard:
    """The checks of a corpus, and whether all of them passed; asdict()
    of it is scorecard.json."""

    checks: list[Check]
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _aug_ratio(stat: np.ndarray) -> float:
    """August against the mean of its neighbors (month series, Jan..Dec)."""
    return float(stat[7] / ((stat[6] + stat[8]) / 2.0))


def _strata_cell(rows, area: str, gender: str):
    for r in rows:
        if r.area == area and r.gender == gender and r.age_group == "all":
            return r
    return None


def corpus_pipeline(corpus_dir, settings: GenConfig | GroundTruth, reciprocity: str = "pair"):
    """The Pipeline of a generated corpus, set up with the year, grid step
    and area boundaries it was generated with: those of its GenConfig or
    its GroundTruth."""
    from .pipeline import AnalysisConfig, Pipeline

    cfg = AnalysisConfig(
        analysis_year=settings.analysis_year,
        grid_step=settings.grid_step,
        area_boundaries=settings.area_boundaries,
        reciprocity=reciprocity,
    )
    paths = (os.path.join(corpus_dir, f) for f in (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE))
    return Pipeline(*paths, cfg)


def validate_corpus(corpus_dir, reciprocity: str = "pair") -> Scorecard:
    """Run the full pipeline on a generated corpus and score, against its
    truth.json, every planted structure that the config actually planted.
    Checks that do not apply to the given config (no spam, no flip,
    coupling zeroed) are either skipped or replaced by their null
    counterparts. Passing a weaker reciprocity rule is the hook for
    negative controls (spam kept in)."""
    truth = GroundTruth.from_json(os.path.join(corpus_dir, TRUTH_FILE))
    pipe = corpus_pipeline(corpus_dir, truth, reciprocity)
    checks: list[Check] = []

    # --- filtering: planted spam out, nothing genuine lost
    removed = set(pipe.ingest.removed_ids)
    spam = set(truth.spam_ids)
    tp = len(removed & spam)
    fp = len(removed - spam)
    fn = len(spam - removed)
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    checks.append(
        Check(
            "spam_filter",
            fp == 0 and fn == 0,
            {"precision": precision, "recall": recall, "removed": len(removed)},
            "precision = recall = 1.0",
        )
    )

    # --- circadian fit and detected inactivity window
    planted = truth.circadian
    try:
        fit = pipe.circadian_fit
        mu_ok = (
            abs(fit.mu_day_h - planted["mu_day_h"]) <= 10 / 60
            and abs(fit.mu_evening_h - planted["mu_eve_h"]) <= 10 / 60
        )
        sig_ok = (
            abs(fit.sigma_day_h - planted["sigma_day_h"]) <= 0.3
            and abs(fit.sigma_evening_h - planted["sigma_eve_h"]) <= 0.3
        )
        checks.append(
            Check(
                "circadian_mu",
                mu_ok,
                {"day_h": round(fit.mu_day_h, 4), "evening_h": round(fit.mu_evening_h, 4)},
                f"{planted['mu_day_h']} / {planted['mu_eve_h']} each within 10 min",
            )
        )
        checks.append(
            Check(
                "circadian_sigma",
                sig_ok,
                {"day_h": round(fit.sigma_day_h, 4), "evening_h": round(fit.sigma_evening_h, 4)},
                f"{planted['sigma_day_h']} / {planted['sigma_eve_h']} each within 0.3 h",
            )
        )
        window = pipe.night_window
        checks.append(
            Check(
                "night_window",
                tuple(window) == tuple(truth.night_window),
                list(window),
                f"exactly {list(truth.night_window)}",
            )
        )
    except Exception as e:  # fit failure is a scorecard failure, not a crash
        checks.append(Check("circadian_mu", False, None, "fit succeeds", str(e)))
        return Scorecard(checks)

    # --- home recovery: detected cell within one cell of the planted cell.
    # Egos with no event inside the night window have no home; they are
    # reported but only detected homes enter the accuracy fraction.
    genuine = sum(1 for t in truth.egos.values() if not t["spam"])
    lat, lon, _ = pipe.home_points
    planted = [truth.egos.get(e) for e in pipe.ingest.table.ids]
    genuine_row = np.array([t is not None and not t["spam"] for t in planted], dtype=bool)
    rows = np.flatnonzero(genuine_row & ~np.isnan(lat))
    homed = len(rows)
    ci, cj = pipe.grid.cells_of(lat[rows], lon[rows])
    ti, tj = np.array([planted[k]["cell"] for k in rows.tolist()], dtype=np.int64).reshape(-1, 2).T
    good = int(np.count_nonzero((np.abs(ci - ti) <= 1) & (np.abs(cj - tj) <= 1)))
    frac = good / homed if homed else 0.0
    checks.append(
        Check(
            "home_cells",
            frac >= 0.99,
            {"within_one_cell": round(frac, 6), "homed": homed,
             "homeless": genuine - homed},
            ">= 0.99 of detected homes within one grid cell of the planted home",
        )
    )

    # --- density coupling signs
    corr = pipe.correlations
    act = corr["activity"]["value"]
    mob = corr["mobility"]["value"]
    coupling_null = (
        truth.beta == 0
        and truth.activity_flip is None
        and tuple(truth.month_mult_dense) == tuple(truth.month_mult_sparse)
    )
    if truth.activity_flip is None and truth.beta > 0:
        checks.append(
            Check(
                "activity_coupling",
                act is not None and act > 0,
                None if act is None else round(act, 4),
                "> 0",
            )
        )
    if truth.gamma > 0:
        checks.append(
            Check(
                "mobility_coupling",
                mob is not None and mob < 0,
                None if mob is None else round(mob, 4),
                "< 0",
            )
        )
    if coupling_null and truth.gamma == 0:
        checks.append(
            Check(
                "null_mobility",
                mob is not None and abs(mob) < 0.05,
                None if mob is None else round(mob, 4),
                "|corr| < 0.05",
            )
        )
        checks.append(
            Check(
                "null_activity",
                act is not None and abs(act) < 0.05,
                None if act is None else round(act, 4),
                "|corr| < 0.05",
            )
        )

    # --- planted sign flip of the activity coupling across rank bands
    if truth.activity_flip is not None:
        pivot = truth.activity_flip[2]
        bad = []
        seen_head = seen_tail = 0
        for b in pipe.bands["activity"]:
            if b.corr is None:
                continue
            if b.rank_hi <= pivot:
                seen_head += 1
                if b.corr >= 0:
                    bad.append((b.band, round(b.corr, 3)))
            elif b.rank_lo >= pivot:
                seen_tail += 1
                if b.corr <= 0:
                    bad.append((b.band, round(b.corr, 3)))
        checks.append(
            Check(
                "flip_bands",
                not bad and seen_head > 0 and seen_tail > 0,
                {"head_bands": seen_head, "tail_bands": seen_tail, "wrong_sign": bad},
                f"negative above rank {pivot}, positive below, flip inside one band",
            )
        )

    # --- weekly extremes
    bundle = pipe.patterns_bundle
    dow = bundle["all", "dow", "activity", "mean"]
    want_max = int(np.argmax(truth.dow_mult))
    want_min = int(np.argmin(truth.dow_mult))
    got_max = int(np.nanargmax(dow.stat))
    got_min = int(np.nanargmin(dow.stat))
    checks.append(
        Check(
            "weekly_extremes",
            got_max == want_max and got_min == want_min,
            {"max": dow.bins[got_max], "min": dow.bins[got_min]},
            f"max {dow.bins[want_max]}, min {dow.bins[want_min]}",
        )
    )

    # --- August dip confined to the dense classes that plant it
    for a in range(1, 6):
        s = bundle.get((f"area{a}", "month", "activity", "mean"))
        if s is None or np.isnan(s.stat[6:9]).any():
            continue
        table = truth.month_mult_dense if a <= truth.dense_area_max else truth.month_mult_sparse
        planted_ratio = table[7] / ((table[6] + table[8]) / 2.0)
        measured = _aug_ratio(s.stat)
        if planted_ratio < 0.95:
            checks.append(
                Check(f"seasonal_dip_area{a}", measured < 0.9, round(measured, 4), "< 0.9 (dip planted)")
            )
        else:
            checks.append(
                Check(f"seasonal_dip_area{a}", measured > 0.95, round(measured, 4), "> 0.95 (no dip planted)")
            )

    # --- normalized medians average to one by construction; the series is
    # left out when its level is zero
    norm = bundle.get(("all", "month", "activity", "normalized_median"))
    m = None if norm is None else float(np.mean(norm.stat[norm.n > 0]))
    checks.append(Check("normalized_median", m is not None and abs(m - 1.0) < 1e-12, m,
                        "mean = 1 within 1e-12"))

    # --- gender contrasts across density classes
    rows = pipe.strata
    excess = truth.female_activity_excess
    deltas = []
    ses = []
    dm = []
    for a in range(1, 6):
        f = _strata_cell(rows, str(a), "female")
        mrow = _strata_cell(rows, str(a), "male")
        if f is None or mrow is None or f.se_activity is None or mrow.se_activity is None:
            deltas.append(None)
            ses.append(None)
            dm.append(None)
            continue
        deltas.append(f.mean_activity - mrow.mean_activity)
        ses.append(math.hypot(f.se_activity, mrow.se_activity))
        dm.append(
            (
                f.mean_mobility_km - mrow.mean_mobility_km,
                math.hypot(f.se_mobility_km or 0.0, mrow.se_mobility_km or 0.0),
            )
        )
    # the ordered-contrast claim presumes comparable base activity across
    # classes, which a planted flip deliberately breaks
    if (
        truth.activity_flip is None
        and any(x > 0 for x in excess)
        and all(excess[i] > excess[i + 1] for i in range(len(excess) - 1))
    ):
        ok = all(d is not None and d > 0 for d in deltas) and all(
            deltas[i] > deltas[i + 1] for i in range(4)
        )
        checks.append(
            Check(
                "gender_activity",
                ok,
                [None if d is None else round(d, 2) for d in deltas],
                "all > 0, strictly decreasing from class 1 to class 5",
            )
        )
    if all(x == 0 for x in excess) and truth.female_mobility_excess == 0:
        ok = all(
            d is not None and se is not None and abs(d) < 3 * se for d, se in zip(deltas, ses)
        ) and all(t is not None and abs(t[0]) < 3 * t[1] for t in dm)
        checks.append(
            Check(
                "gender_null",
                ok,
                {
                    "activity_z": [
                        None if (d is None or not se) else round(d / se, 2)
                        for d, se in zip(deltas, ses)
                    ],
                    "mobility_z": [
                        None if (t is None or not t[1]) else round(t[0] / t[1], 2) for t in dm
                    ],
                },
                "|delta| < 3 SE for activity and mobility in every class",
            )
        )

    # --- rank-size tail exponent over the planted settlement cells.
    # Integer population quotas flatten the deep tail on small corpora, so
    # the target is the exponent actually planted, not the ideal value the
    # quotas were drawn from; and the detected fit is restricted to the
    # settlement cells, because a handful of drifted homes otherwise add
    # spurious one-resident cells below the real tail (the home_cells
    # check already bounds that drift).
    from .density import rank_size as _rank_size

    gd = pipe.grid_density
    rows = gd.rows_of(*np.array([s["cell"] for s in truth.settlements], dtype=np.int64).T)
    rows = rows[rows >= 0]
    detected = gd.density[rows][gd.population[rows] > 0]
    planted_density = np.array([s["density"] for s in truth.settlements])
    try:
        planted_fit = _rank_size(planted_density)
        detected_fit = _rank_size(detected)
    except DensityError:
        planted_fit = detected_fit = None
    if planted_fit is not None and detected_fit is not None:
        checks.append(
            Check(
                "zipf_tail",
                abs(detected_fit.exponent - planted_fit.exponent) <= 0.10,
                {"exponent": round(detected_fit.exponent, 4), "r2": round(detected_fit.r2, 4)},
                f"within 0.1 of the planted tail exponent "
                f"{round(planted_fit.exponent, 4)} (ideal {truth.zipf_exponent})",
            )
        )

    return Scorecard(checks)
