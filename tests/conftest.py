"""Shared fixtures: session-scoped synthetic corpora and pipelines.

Corpora are generated once per session into the pytest tmp factory. Each
fixture returns (directory, ground truth). Pipelines are cached so the
expensive stages run once and are shared by every test that reads them.
event_table and table_metrics build small event tables for unit tests:
write_rows writes their rows as a CSV file, which ingest_file reads.
traced_peak measures what a call allocates, and force_workers sets the
CPU count that the ordered worker map sees. haversine_km is the textbook
great-circle distance that the metrics' per-place kernel must equal.
"""

import csv
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from cdrmob import records
from cdrmob.geo import EARTH_RADIUS_KM
from cdrmob.ingest import ingest_file
from cdrmob.metrics import TableMetrics
from cdrmob.records import format_timestamp
from cdrmob.synth import TRUTH_FILE, GenConfig, GroundTruth, corpus_pipeline, generate

# month table with no August dip, for control corpora
_FLAT_MONTHS = (1.02, 1.0, 1.0, 0.99, 1.0, 1.01, 1.0, 1.0, 1.0, 1.0, 0.99, 1.01)


@pytest.fixture
def force_workers(monkeypatch):
    """force_workers(k): records.ordered_map sees k CPUs, whatever this
    host has; k = 1 maps in the calling thread. A caller's cap still holds."""
    def force(k: int) -> None:
        monkeypatch.setattr(records, "cpus", lambda: k)

    return force


def _make_corpus(tmp_path_factory, name: str, cfg: GenConfig):
    out = tmp_path_factory.mktemp(name)
    generate(cfg, out)
    return out, GroundTruth.from_json(out / TRUTH_FILE)


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    """The stock world: 10k individuals, 400 settlements, every effect on."""
    return _make_corpus(tmp_path_factory, "default_corpus", GenConfig())


@pytest.fixture(scope="session")
def default_pipeline(default_corpus):
    corpus, truth = default_corpus
    return corpus_pipeline(corpus, truth), truth


@pytest.fixture(scope="session")
def null_corpus(tmp_path_factory):
    """Couplings zeroed: no density effect on activity or travel, same
    month table everywhere, symmetric genders, no spam. Most of the 10000
    settlements hold a single resident, so activity is kept high enough
    that nobody lacks night events and every cell stays occupied; pushing
    the floor much higher instead would drown the inactivity-window
    contrast in noise."""
    cfg = GenConfig(
        n_individuals=20_000,
        n_cells=10_000,
        beta=0.0,
        gamma=0.0,
        base_daily_events=1.0,
        night_floor=0.12,
        month_mult_dense=_FLAT_MONTHS,
        month_mult_sparse=_FLAT_MONTHS,
        female_activity_excess=(0.0, 0.0, 0.0, 0.0, 0.0),
        female_mobility_excess=0.0,
        spam_fraction=0.0,
        area_boundaries=(30, 100, 1000, 4000),
        seed=11,
    )
    return _make_corpus(tmp_path_factory, "null_corpus", cfg)


@pytest.fixture(scope="session")
def null_pipeline(null_corpus):
    corpus, truth = null_corpus
    return corpus_pipeline(corpus, truth), truth


@pytest.fixture(scope="session")
def flip_corpus(tmp_path_factory):
    """Activity-density coupling flips sign at density rank 100. The
    raised night floor keeps every ego's night-event count healthy, so
    home survival cannot correlate with activity."""
    cfg = GenConfig(
        n_individuals=10_000,
        n_cells=400,
        beta=0.0,
        activity_flip=(0.4, -0.5, 100),
        base_daily_events=1.0,
        night_floor=0.12,
        month_mult_dense=_FLAT_MONTHS,
        month_mult_sparse=_FLAT_MONTHS,
        female_activity_excess=(0.0, 0.0, 0.0, 0.0, 0.0),
        female_mobility_excess=0.0,
        spam_fraction=0.0,
        seed=23,
    )
    return _make_corpus(tmp_path_factory, "flip_corpus", cfg)


@pytest.fixture(scope="session")
def flip_pipeline(flip_corpus):
    corpus, truth = flip_corpus
    return corpus_pipeline(corpus, truth), truth


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Cheap corpus for CLI and plumbing tests."""
    return _make_corpus(tmp_path_factory, "small_corpus", GenConfig(n_individuals=800, seed=42))


@pytest.fixture(scope="session")
def megarow_corpus(tmp_path_factory):
    """Roughly a million rows for the throughput and determinism checks."""
    cfg = GenConfig(n_individuals=5_000, base_daily_events=0.45, seed=5)
    return _make_corpus(tmp_path_factory, "megarow_corpus", cfg)


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


def write_rows(path, rows):
    """Write CDR rows to a CSV file at path, one line each; returns path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def event_table(registry, events, year=2008):
    """EventTable of {ego: (timestamps, tower indices)}, ingested from a
    CSV file of their rows with no reciprocity filter; timestamps are epoch
    seconds or ISO text."""
    rows = [
        [ego, "peer", t if isinstance(t, str) else format_timestamp(int(t)),
         registry.ids[int(w)], "call", "out"]
        for ego, (stamps, towers) in events.items()
        for t, w in zip(stamps, towers)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_rows(os.path.join(tmp, "cdr.csv"), rows)
        return ingest_file(path, registry, analysis_year=year, reciprocity="none").table


def table_metrics(registry, events, homes=None, divisor="events", year=2008):
    """TableMetrics of event_table(); homes maps ego -> (lat, lon)."""
    tab = event_table(registry, events, year)
    if homes is not None:
        pts = np.array([homes.get(e) or (np.nan, np.nan) for e in tab.ids], float).reshape(-1, 2)
        homes = (pts[:, 0].copy(), pts[:, 1].copy())
    return TableMetrics(tab, registry, homes, divisor)


def traced_peak(fn) -> int:
    """Bytes fn() allocates at its peak beyond what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
