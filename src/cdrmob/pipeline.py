"""End-to-end orchestration of the analysis stages.

A Pipeline lazily computes each stage the first time something needs it
(ingest -> daily profile -> rhythm fit -> night window -> homes -> window
metrics -> grid density -> correlations -> patterns -> strata), so every
CLI subcommand runs exactly the stages it needs and `report` runs them
all. Every per-individual stage is a vectorised pass over the one event
table that ingest builds, and the whole-year window matrix is computed
once and shared. Stage results are deterministic functions of the input
files and the config. Only ingest runs threads, to parse the CDR file's
blocks, and the manifest records how many.

Reference values quoted in reports (correlation magnitudes, per-class
densities) come from a large-scale reference dataset and are printed for
orientation only, never asserted.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import os
import resource
import time
from dataclasses import asdict, astuple, dataclass, field
from itertools import islice

import numpy as np

from . import __version__
from .density import (
    DEFAULT_AREA_BOUNDARIES,
    DensityError,
    area_summary,
    build_density,
    classify_areas,
    ego_areas,
    rank_size,
    sliding_correlation,
    spearman,
    validate_boundaries,
)
from .geo import GridSpec
from .home import (
    BIN_CENTERS_H,
    BIN_MINUTES,
    compute_homes,
    daily_profile,
    find_inactive_window,
    fit_bimodal,
    flag_at_sea,
)
from .ingest import IngestResult, ingest_file
from .metrics import TableMetrics, WindowSpec, metrics_rows
from .patterns import demographic_table, series
from .records import load_demographics, load_towers, unique_sorted, write_json, year_bounds

log = logging.getLogger(__name__)

REFERENCE_CORR_ACTIVITY = 0.38
REFERENCE_CORR_MOBILITY = -0.11
REFERENCE_AREA_DENSITY_KM2 = (1252.9, 418.7, 83.2, 10.0, 1.5)

# Fixed analysis settings: the cell size of the fine grid that measures
# each density class (degrees), and how far from every tower a home counts
# as at sea (km).
FINE_STEP = 0.01
AT_SEA_KM = 10.0


class PipelineError(Exception):
    """A stage cannot proceed on this input (maps to the data exit code)."""


# The likely cause of each reason for rejecting a CDR row, named when the
# reason rejects most of a file's rows
_REJECT_CAUSES = {
    "bad_encoding": "is the CDR file UTF-8 text?",
    "missing_column": "does each row hold ego_id,peer_id,timestamp,tower_id,kind,direction?",
    "self_call": "do the ego and peer columns hold the same ids?",
    "bad_timestamp": "are the timestamps YYYY-MM-DD[T ]HH:MM[:SS]?",
    "bad_kind": "is the fifth column call or sms?",
    "bad_direction": "is the sixth column in or out?",
    "unknown_tower": "is --towers the tower file of this CDR?",
}


def check_ingest(result: IngestResult) -> None:
    """Refuse an ingest that rejected more than half of the rows read for
    one reason, or that kept no individual: its outputs would look
    plausible and describe the wrong input. A file that holds several
    years is valid input for one of them, so outside_year alone does not
    refuse it. A reason that rejected more than 1% of the rows is logged
    as a warning."""
    st = result.stats
    for reason, count in sorted(st.rows_rejected.items()):
        if 2 * count > st.rows_read and reason != "outside_year":
            raise PipelineError(
                f"{reason}: {count} of {st.rows_read} rows rejected; "
                f"{_REJECT_CAUSES.get(reason, 'is this a CDR file?')}")
        if 100 * count > st.rows_read:
            log.warning("ingest: %s rejected %d of %d rows", reason, count, st.rows_read)
    if not len(result.table):
        raise PipelineError("no surviving individuals after filtering")


@dataclass
class AnalysisConfig:
    """Everything that shapes an analysis run. Grid cells are anchored at
    (0, 0) so cell indices are absolute and comparable across runs."""

    analysis_year: int = 2008
    grid_step: float = 0.05
    window: WindowSpec = field(default_factory=WindowSpec)
    night_window: tuple[float, float] | None = None  # override detection
    area_boundaries: tuple = DEFAULT_AREA_BOUNDARIES
    divisor: str = "events"
    reciprocity: str = "pair"

    def __post_init__(self):
        validate_boundaries(self.area_boundaries)
        GridSpec(self.grid_step)  # refuses a step outside 1e-6 to 90 degrees
        w, (ys, ye) = self.window, year_bounds(self.analysis_year)
        if w.granularity == "range" and not (w.start < ye and w.end > ys):
            raise ValueError(f"window range lies outside the analysis year {self.analysis_year}")


def _hhmm(h: float) -> str:
    m = int(round(h * 60)) % 1440
    return f"{m // 60:02d}:{m % 60:02d}"


def window_label(window: tuple[float, float]) -> str:
    return f"{_hhmm(window[0])}-{_hhmm(window[1])}"


def _resident_mib() -> float | None:
    """The process's resident size in MiB, from /proc/self/statm; None
    where that file cannot be read."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return round(pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20), 1)


class Pipeline:
    def __init__(
        self,
        cdr_path,
        towers_path,
        demographics_path,
        config: AnalysisConfig,
        threads: int = 1,  # accepted and ignored: bench/trace_report.py passes it
    ):
        self.cdr_path = cdr_path
        self.towers_path = towers_path
        self.demographics_path = demographics_path
        self.config = config
        self.timings: dict[str, float] = {}
        # seconds of each stage or write with the stages nested in it
        self.inclusive: dict[str, float] = {}
        # peak RSS of the process after each stage or write, in MiB
        self.rss_mib: dict[str, float] = {}
        # RSS of the process after each stage or write, in MiB, where
        # /proc/self/statm can be read
        self.rss_end_mib: dict[str, float] = {}
        self._peak_mib = 0.0
        self._cache: dict[str, object] = {}
        # seconds spent in nested stages, one entry per stage or write being timed
        self._nested: list[float] = []

    def _timed(self, name: str, fn):
        """Run fn and record its own seconds under name. Stages pull their
        inputs in lazily, so one may run inside another (or inside a
        write); each timing excludes the stages nested in it."""
        self._nested.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            total = time.perf_counter() - t0
            nested = self._nested.pop()
            if self._nested:
                self._nested[-1] += total
        self.timings[name] = round(total - nested, 3)
        self.inclusive[name] = round(total, 3)
        # The kernel keeps its high-water mark from approximate per-CPU
        # counts, and statm can read above it (by 0.2 MiB on Linux 6.18,
        # whose statm sums them), so the peak also takes each size read.
        end = _resident_mib()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self._peak_mib = max(self._peak_mib, peak, end or 0.0)
        self.rss_mib[name] = round(self._peak_mib, 1)
        if end is not None:
            self.rss_end_mib[name] = end
        return result

    def _stage(self, name: str, fn):
        """Compute a stage once, timed."""
        if name not in self._cache:
            self._cache[name] = self._timed(name, fn)
        return self._cache[name]

    # ------------------------------------------------------------- inputs
    @property
    def registry(self):
        return self._stage("towers", lambda: load_towers(self.towers_path))

    @property
    def demographics(self):
        if self.demographics_path is None:
            return None
        return self._stage(
            "demographics",
            lambda: load_demographics(self.demographics_path, self.config.analysis_year),
        )

    @property
    def ingest(self):
        def run():
            res = ingest_file(
                self.cdr_path,
                self.registry,
                analysis_year=self.config.analysis_year,
                reciprocity=self.config.reciprocity,
            )
            check_ingest(res)
            return res

        return self._stage("ingest", run)

    # ------------------------------------------------- rhythm and window
    @property
    def steps(self) -> TableMetrics:
        """Consecutive displacements over the event table, before homes:
        the daily profile's and the patterns' metrics."""
        return self._stage("steps", lambda: TableMetrics(
            self.ingest.table, self.registry, divisor=self.config.divisor))

    @property
    def profiles(self):
        return self._stage("profile", lambda: daily_profile(self.steps))

    @property
    def activity_profile(self):
        return self.profiles[0]

    @property
    def circadian_fit(self):
        return self._stage("fit", lambda: fit_bimodal(self.activity_profile))

    @property
    def night_window(self) -> tuple[float, float]:
        def run():
            if self.config.night_window is not None:
                return self.config.night_window
            # confirm the rhythm is two-peaked before trusting its minimum
            self.circadian_fit
            return find_inactive_window(self.activity_profile)

        return self._stage("window", run)

    # --------------------------------------------------------------- homes
    @property
    def home_points(self):
        """(lat, lon, night events) per individual in id order."""
        return self._stage(
            "homes",
            lambda: compute_homes(self.ingest.table, self.registry, self.night_window),
        )

    @functools.cached_property
    def homes(self) -> dict[str, tuple[float, float] | None]:
        """{id: (lat, lon) or None}, for callers outside the pipeline; no
        stage reads it."""
        lat, lon, _ = self.home_points
        return {
            e: None if math.isnan(a) else (a, b)
            for e, a, b in zip(self.ingest.table.ids, lat.tolist(), lon.tolist())
        }

    @property
    def at_sea(self) -> np.ndarray:
        return self._stage(
            "at_sea",
            lambda: flag_at_sea(*self.home_points[:2], self.registry, AT_SEA_KM),
        )

    # ------------------------------------------------------------- metrics
    @property
    def metrics(self) -> TableMetrics:
        return self._stage(
            "metrics",
            lambda: TableMetrics(
                self.ingest.table, self.registry, self.home_points[:2], self.config.divisor,
                d2=self.steps.d2,
            ),
        )

    @property
    def year_rows(self):
        """Whole-year (activity, mobility, rg, pairs) per individual in id order."""
        return self._stage("year_rows", lambda: tuple(
            x[:, 0] for x in self.metrics.windows(np.array(year_bounds(self.config.analysis_year)))
        ))

    def iter_metric_rows(self):
        return metrics_rows(self.metrics, self.config.window, self.config.analysis_year)

    # ------------------------------------------------------------- density
    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.config.grid_step)

    @property
    def grid_density(self):
        def run():
            try:
                return build_density(*self.home_points[:2], self.grid, self.year_rows)
            except DensityError as e:
                raise PipelineError(str(e))

        return self._stage("density", run)

    @property
    def labels(self):
        return self._stage(
            "areas", lambda: classify_areas(self.grid_density.density, self.config.area_boundaries)
        )

    @property
    def ego_area(self):
        return self._stage(
            "ego_area", lambda: ego_areas(self.grid_density, self.labels)
        )

    @property
    def correlations(self):
        def run():
            gd = self.grid_density
            out = {}
            for name, vals in (
                ("activity", gd.mean_activity),
                ("mobility", gd.mean_mobility),
                ("rg", gd.mean_rg),
            ):
                try:
                    ok = ~np.isnan(vals)
                    out[name] = {
                        "value": spearman(gd.density[ok], vals[ok]),
                        "n_cells": int(ok.sum()),
                    }
                except DensityError as e:
                    out[name] = {"value": None, "n_cells": len(gd), "note": str(e)}
            return out

        return self._stage("correlations", run)

    @property
    def bands(self):
        def run():
            gd = self.grid_density
            return {
                "activity": sliding_correlation(gd.density, gd.mean_activity),
                "mobility": sliding_correlation(gd.density, gd.mean_mobility),
            }

        return self._stage("bands", run)

    @property
    def ranksize(self):
        def run():
            try:
                return rank_size(self.grid_density.density)
            except DensityError as e:
                return str(e)  # reported, not fatal: small grids have no tail

        return self._stage("ranksize", run)

    @property
    def area_table(self):
        return self._stage(
            "area_table",
            lambda: area_summary(
                self.labels,
                *self.home_points[:2],
                GridSpec(FINE_STEP),
                self.ego_area,
            ),
        )

    # ------------------------------------------------------------ patterns
    @property
    def patterns_bundle(self) -> dict:
        """{(cohort, axis, value, statistic): PatternSeries}, in the order
        the report writes them; cohort is "all" or "area1".."area5"."""
        return self._stage("patterns", lambda: series(
            self.steps, self.ego_area, self.config.analysis_year))

    @property
    def strata(self):
        def run():
            if self.demographics is None:
                return None
            rows, skipped = demographic_table(
                self.ingest.table.ids, self.year_rows, self.demographics, self.ego_area
            )
            if skipped:
                log.info("strata: %d individuals lack demographics", skipped)
            return rows

        return self._stage("strata", run)


# ---------------------------------------------------------------- writers


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# CSV lines joined into one string at a time
_WRITE_LINES = 1 << 16


def _cells(column) -> list[str]:
    """The CSV text of each value of a column (a list or numpy array):
    empty for None and NaN, the round-trip repr of any other float, str of
    everything else. This is the one cell format of every CSV output.

    An integer array is formatted by map(str). A float array is formatted
    once per distinct bit pattern, which keeps -0.0 apart from 0.0 and
    comes from a sort and a neighbour compare (records.unique_sorted):
    homes.csv's means of tower positions repeat, about 2,500 distinct
    values in 304,000 at 320k individuals. A float array with more distinct
    values than repeats is formatted value by value, and a column of text,
    such as the ids, is its own cells."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iub":
        return list(map(str, column.tolist()))
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        bits = column.view(f"i{column.itemsize}")
        distinct = unique_sorted(bits.copy())
        if 2 * len(distinct) > len(bits):
            return _float_cells(column.tolist())
        text = _float_cells(distinct.view(column.dtype).tolist())
        return list(map(text.__getitem__, np.searchsorted(distinct, bits).tolist()))
    if isinstance(column, np.ndarray):
        column = column.tolist()
    elif set(map(type, column)) <= {str}:
        return list(column)
    return ["" if x is None or x != x else repr(float(x)) if isinstance(x, float) else str(x)
            for x in column]


def _float_cells(values: list[float]) -> list[str]:
    """The cells of floats: empty for NaN, else the round-trip repr."""
    return [repr(x) if x == x else "" for x in values]


def _write_csv(path, header: str, blocks) -> None:
    """Write a header line, then the rows of each block of equal-length
    columns, formatted a whole column at a time and written _WRITE_LINES
    lines at a time: one join of many lines costs less than a string per
    line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for cols in blocks:
            lines = map(",".join, zip(*map(_cells, cols)))
            while part := list(islice(lines, _WRITE_LINES)):
                fh.write("\n".join(part))
                fh.write("\n")


def _fit_doc(pipe: Pipeline) -> dict | None:
    """The fitted rhythm, or None when the night window was overridden."""
    return None if pipe.config.night_window is not None else asdict(pipe.circadian_fit)


def window_doc(pipe: Pipeline) -> dict:
    w = pipe.night_window
    return {
        "window_start_h": w[0],
        "window_end_h": w[1],
        "label": window_label(w),
        "source": "override" if pipe.config.night_window is not None else "detected",
        "daily_fit": _fit_doc(pipe),
        "bin_minutes": BIN_MINUTES,
    }


def area_doc(pipe: Pipeline) -> dict:
    """Per-class table as written to areas.json and echoed in the summary."""
    area_tab = pipe.area_table
    areas = {}
    for a in range(1, 6):
        entry = dict(area_tab[a])
        if isinstance(entry.get("mean_density_km2"), float) and math.isnan(
            entry["mean_density_km2"]
        ):
            entry["mean_density_km2"] = None
        entry["reference_density_km2"] = REFERENCE_AREA_DENSITY_KM2[a - 1]
        areas[str(a)] = entry
    return areas


def build_summary(pipe: Pipeline) -> dict:
    w = pipe.night_window
    fit = _fit_doc(pipe)
    if fit is not None:
        del fit["amp_day"], fit["amp_evening"]
    n = len(pipe.ingest.table)
    with_home = int(np.count_nonzero(~np.isnan(pipe.home_points[0])))
    at_sea = int(np.count_nonzero(pipe.at_sea))
    residents = int(pipe.grid_density.population.sum())
    st = pipe.ingest.stats
    demo = pipe.demographics
    corr = pipe.correlations
    areas = area_doc(pipe)

    def table(axis, value):
        """A whole-population mean series by bin, empty when left out."""
        s = pipe.patterns_bundle.get(("all", axis, value, "mean"))
        return {} if s is None else {
            b: (None if np.isnan(x) else float(x)) for b, x in zip(s.bins, s.stat)
        }

    rs = pipe.ranksize
    rank_size_doc = {"skipped": rs} if isinstance(rs, str) else asdict(rs)
    return {
        "package_version": __version__,
        "analysis_year": pipe.config.analysis_year,
        "ingest": asdict(pipe.ingest.stats),
        "daily_fit": fit,
        "inactivity_window": {
            "start_h": w[0],
            "end_h": w[1],
            "label": window_label(w),
            "source": "override" if pipe.config.night_window is not None else "detected",
        },
        "homes": {
            "individuals": n,
            "with_home": with_home,
            "without_home": n - with_home,
            "at_sea": at_sea,
        },
        "grid": {
            "step_deg": pipe.config.grid_step,
            "inhabited_cells": len(pipe.grid_density),
            "residents": residents,
        },
        "funnel": {
            "rows_read": st.rows_read,
            "rows_rejected": st.rows_rejected,
            "events_filtered": st.events_valid - st.events_kept,
            "events_kept": st.events_kept,
            "individuals_kept": st.individuals_kept,
            "individuals_removed": st.individuals_removed,
            "homed": with_home,
            "at_sea": at_sea,
            "gridded": residents,
            "residents_by_class": {a: areas[a]["residents"] for a in areas},
            "demographics_rejected": None if demo is None else demo.rejected,
            # the first stratum, all/all/all, counts the individuals with
            # demographics
            "individuals_without_demographics": None if demo is None else n - pipe.strata[0].n,
        },
        "correlations": {
            "activity": {**corr["activity"], "reference": REFERENCE_CORR_ACTIVITY},
            "mobility": {**corr["mobility"], "reference": REFERENCE_CORR_MOBILITY},
            "rg": corr["rg"],
        },
        "rank_size": rank_size_doc,
        "areas": areas,
        "weekly_activity": table("dow", "activity"),
        "monthly_activity": table("month", "activity"),
        "monthly_mobility": table("month", "mobility"),
    }


def _profile_columns(pipe: Pipeline) -> list:
    return [(BIN_CENTERS_H, *pipe.profiles)]


def _homes_columns(pipe: Pipeline) -> list:
    """Blank coordinates and at_sea for an individual without a home (who
    has no night events either)."""
    lat, lon, night = pipe.home_points
    # at_sea's cells, as _cells gives None, 0 and 1: blank without a home
    sea = np.where(np.isnan(lat), 0, 1 + pipe.at_sea.astype(np.int64))
    sea = list(map(("", "0", "1").__getitem__, sea.tolist()))
    return [(pipe.ingest.table.ids, lat, lon, night, sea)]


def _grid_columns(pipe: Pipeline) -> list:
    gd = pipe.grid_density
    lat, lon = gd.grid.cell_center(gd.cell_i, gd.cell_j)
    return [(gd.cell_i, gd.cell_j, lat, lon, gd.area_km2, gd.population, gd.density,
             gd.mean_activity, gd.mean_mobility, gd.mean_rg, pipe.labels)]


def _band_columns(pipe: Pipeline) -> list:
    rows = [(name, *astuple(b)) for name in ("activity", "mobility") for b in pipe.bands[name]]
    return [list(zip(*rows))]


def _pattern_columns(pipe: Pipeline):
    """One block per series; se is blank for statistics without one."""
    for key, s in pipe.patterns_bundle.items():
        k = len(s.bins)
        yield (*([x] * k for x in key), s.bins, s.stat, s.n, [None] * k if s.se is None else s.se)


# stage -> (output file, CSV header or None for JSON, content(pipe): the
# CSV's blocks of columns or the JSON document), in writing order
WRITERS = {
    "profile": ("daily_profile.csv", "bin_center_h,activity_mean,mobility_rms_km", _profile_columns),
    "window": ("window.json", None, window_doc),
    "homes": ("homes.csv", "ego_id,home_lat,home_lon,night_events,at_sea", _homes_columns),
    "metrics": ("metrics.csv", "ego_id,window,activity,mobility_km,rg_km,pairs",
                Pipeline.iter_metric_rows),
    "grid": ("grid.csv", "cell_i,cell_j,center_lat,center_lon,area_km2,population,density_km2,"
             "mean_activity,mean_mobility_km,mean_rg_km,area_class", _grid_columns),
    "areas": ("areas.json", None, area_doc),
    "correlations": ("correlations.csv",
                     "variable,band,rank_lo,rank_hi,center_rank,n_cells,corr,note", _band_columns),
    "patterns": ("patterns.csv", "cohort,axis,value,statistic,bin,stat,n,se", _pattern_columns),
    "strata": ("strata.csv", "area,gender,age_group,n,mean_activity,se_activity,mean_mobility_km,"
               "se_mobility_km,n_rg,mean_rg_km,se_rg_km",
               lambda pipe: [list(zip(*map(astuple, pipe.strata)))]),
    "summary": ("summary.json", None, build_summary),
}
STAGE_OUTPUTS = {stage: name for stage, (name, _, _) in WRITERS.items()}


def write_outputs(pipe: Pipeline, out_dir, stages) -> dict[str, str]:
    """Write the requested stage outputs; returns {file name: sha256}.
    Each write, digest included, is timed as write_<stage> and runs on
    every call. Strata need demographics."""
    os.makedirs(out_dir, exist_ok=True)
    done: dict[str, str] = {}
    for stage, (name, header, content) in WRITERS.items():
        if stage not in stages or (stage == "strata" and pipe.demographics_path is None):
            continue

        def run():
            path = os.path.join(out_dir, name)
            if header is None:
                write_json(path, content(pipe))
            else:
                _write_csv(path, header, content(pipe))
            return {name: _sha256(path)}

        done.update(pipe._timed(f"write_{stage}", run))
    return done


def input_digests(known: dict | None = None, **paths) -> dict:
    """{name: {path, sha256}} for each input given; directories (spools)
    get no digest. `known` maps names to digests already taken, which are
    not taken again."""
    known = known or {}

    def digest(name, p):
        return known.get(name) or (_sha256(p) if os.path.isfile(p) else None)

    return {name: {"path": str(p), "sha256": digest(name, p)}
            for name, p in paths.items() if p is not None}


def save_manifest(out_dir, command: str, outputs: dict[str, str], **fields) -> None:
    """Write manifest.json: the command, package version and output digests,
    plus whatever provenance `fields` the command has (inputs, config,
    timings). The manifest is the one output that may differ between
    identical reruns (it carries timings)."""
    doc = {"command": command, "package_version": __version__, "outputs": outputs, **fields}
    write_json(os.path.join(out_dir, "manifest.json"), doc)


def write_manifest(pipe: Pipeline, out_dir, outputs: dict[str, str], command: str) -> None:
    """Manifest of an analysis run: inputs, config, output digests, the
    exclusive and inclusive seconds of each stage, the process's peak and
    current RSS once each stage was done, and the threads that parsed the
    CDR file."""
    save_manifest(
        out_dir, command, outputs,
        config=asdict(pipe.config),
        inputs=input_digests(
            # ingest hashes the CDR file as it reads it
            {"cdr": pipe.ingest.sha256} if "ingest" in pipe._cache else None,
            cdr=pipe.cdr_path, towers=pipe.towers_path, demographics=pipe.demographics_path,
        ),
        timings_s=pipe.timings,
        inclusive_s=pipe.inclusive,
        rss_mib=pipe.rss_mib,
        rss_end_mib=pipe.rss_end_mib,
        ingest_stats=asdict(pipe.ingest.stats) if "ingest" in pipe._cache else None,
        threads=pipe.ingest.threads if "ingest" in pipe._cache else None,
    )
