"""Corpus generator: determinism, planted structure, config handling."""

import filecmp
import functools
import hashlib
import io
import json
import multiprocessing
import os
import signal
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, replace
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrmob import synth
from cdrmob.cli import main
from cdrmob.geo import GridSpec
from cdrmob.home import compute_homes
from cdrmob.ingest import ingest_file
from cdrmob.records import CdrError, age_group_of, load_towers, write_json, year_bounds
from cdrmob.synth import (
    AGE_ACTIVITY_MULT,
    AGE_EXCESS_SCALE,
    AGE_MAX,
    AGE_MIN,
    CDR_FILE,
    CONFIG_FILE,
    DEMOGRAPHICS_FILE,
    DENSE_AREA_MAX,
    DOW_MULT,
    FEMALE_FRACTION,
    MAX_YEAR_EVENTS,
    MOBILITY_MONTH_MULT,
    SATELLITE_RINGS,
    SMS_FRACTION,
    SPAM_EVENTS_BASE,
    SPAM_EVENTS_POISSON,
    TOWERS_FILE,
    TRUTH_FILE,
    GenConfig,
    GroundTruth,
    _ego_chunk,
    generate,
    validate_corpus,
)

_FILES = (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE, TRUTH_FILE, CONFIG_FILE)


@functools.cache
def _clock_strings() -> list[str]:
    return [f"{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}" for s in range(86400)]


def _reference_chunk(world, lo, hi):
    """The per-row writer the numpy chunk writer replaced, kept as its
    oracle: a generator, a dozen numpy calls and one f-string per event,
    one individual at a time. Same contract as synth._ego_chunk."""
    cfg = world.cfg
    n = cfg.n_cells
    n_sat = len(SATELLITE_RINGS)
    tower_ids = [row.split(",", 1)[0] for row in world.tower_rows]
    sat_ids = [tower_ids[n + n_sat * k : n + n_sat * (k + 1)] for k in range(n)]
    d0 = date(cfg.analysis_year, 1, 1).toordinal()
    date_strs = [date.fromordinal(d0 + d).isoformat() for d in range(len(world.day_month))]
    year_start, _ = year_bounds(cfg.analysis_year)
    dowv = np.asarray(DOW_MULT)[world.day_wd]
    day_probs, year_weight = {}, {}
    for klass, table in (("dense", cfg.month_mult_dense), ("sparse", cfg.month_mult_sparse)):
        v = dowv * np.asarray(table)[world.day_month]
        day_probs[klass] = v / v.sum()
        year_weight[klass] = float(v.sum())
    tod_str = _clock_strings()

    out: list[str] = []
    demo: list[str] = []
    truth: dict[str, dict] = {}
    n_real = cfg.n_real
    for i in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1_000_000 + i)))
        ego = world.ego_ids[i]
        spam = i >= n_real
        if spam:
            s = int(rng.integers(0, cfg.n_cells))
            n_ev = SPAM_EVENTS_BASE + int(rng.poisson(SPAM_EVENTS_POISSON))
            female = False
            age = None
            rate = float(n_ev)
        else:
            s = int(world.settlement_of[i])
            female = bool(rng.random() < FEMALE_FRACTION)
            age = int(rng.integers(AGE_MIN, AGE_MAX + 1))
            group = age_group_of(age)
            area = int(world.area[s])
            klass = "dense" if area <= DENSE_AREA_MAX else "sparse"
            daily = cfg.base_daily_events * float(world.act_density_mult[s])
            daily *= AGE_ACTIVITY_MULT[group]
            if female:
                excess = cfg.female_activity_excess[area - 1] * AGE_EXCESS_SCALE[group]
                daily *= 1.0 + excess
            rate = daily * year_weight[klass]
            n_ev = max(int(rng.poisson(rate)), 2)

        klass = "dense" if int(world.area[s]) <= DENSE_AREA_MAX else "sparse"
        days = rng.choice(len(day_probs[klass]), size=n_ev, p=day_probs[klass])
        tod_sec = np.minimum(
            (np.interp(rng.random(n_ev), world.tod_cdf, world.tod_hours) * 3600.0).astype(np.int64),
            86399,
        )
        ts = year_start + days * 86400 + tod_sec

        night = (tod_sec >= 3600) & (tod_sec < 7 * 3600)
        p_away_day = cfg.p_away_day * np.asarray(MOBILITY_MONTH_MULT)[world.day_month[days]]
        if not spam and female:
            p_away_day = p_away_day * (1.0 + cfg.female_mobility_excess)
        p_home = np.where(night, cfg.p_home_night, 1.0 - np.minimum(p_away_day, 0.95))
        at_home = rng.random(n_ev) < p_home
        sat = rng.integers(0, n_sat, size=n_ev)

        if spam:
            victims = rng.integers(0, n_real, size=n_ev)
            partners = [world.ego_ids[int(v)] for v in victims]
            outgoing = np.ones(n_ev, dtype=bool)
        else:
            if n_real >= 2:
                ring = sorted({(i + d) % n_real for d in (-2, -1, 1, 2)} - {i})
                plist = [world.ego_ids[j] for j in ring]
            else:
                plist = ["x0001"]
            pick = rng.integers(0, len(plist), size=n_ev)
            partners = [plist[int(p)] for p in pick]
            outgoing = rng.random(n_ev) < 0.5
            partners[0] = plist[0]
            partners[1] = plist[0]
            outgoing[0] = True
            outgoing[1] = False
        sms = rng.random(n_ev) < SMS_FRACTION

        order = np.argsort(ts, kind="stable")
        center_id = world.center_ids[s]
        sats = sat_ids[s]
        for k in order:
            tower = center_id if at_home[k] else sats[sat[k]]
            out.append(
                f"{ego},{partners[k]},{date_strs[days[k]]}T{tod_str[tod_sec[k]]},"
                f"{tower},{'sms' if sms[k] else 'call'},{'out' if outgoing[k] else 'in'}\n"
            )

        if not spam:
            demo.append(f"{ego},{'F' if female else 'M'},{cfg.analysis_year - age}\n")
        truth[ego] = {
            "settlement": s + 1,
            "cell": list(world.cells[s]),
            "home_tower": None if spam else center_id,
            "gender": None if spam else ("female" if female else "male"),
            "age": age,
            "area": int(world.area[s]),
            "rate": rate,
            "spam": spam,
        }
    return "".join(out).encode("ascii"), demo, truth


def _corpus_bytes(cfg: GenConfig, out) -> dict[str, bytes]:
    generate(cfg, out)
    return {name: (Path(out) / name).read_bytes() for name in _FILES}


def _oracle_bytes(cfg: GenConfig, out) -> dict[str, bytes]:
    with mock.patch.object(synth, "_ego_chunk", _reference_chunk):
        return _corpus_bytes(cfg, out)


@st.composite
def _small_configs(draw):
    n = draw(st.integers(1, 60))
    spam = draw(st.sampled_from((0.0, 0.3)))
    n_real = n - int(round(n * spam))
    cells = draw(st.integers(1, n_real))
    flip = draw(st.none() | st.tuples(st.just(0.4), st.just(-0.5), st.integers(1, cells)))
    return GenConfig(
        n_individuals=n,
        n_cells=cells,
        spam_fraction=spam,
        activity_flip=flip,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(_small_configs())
# the outsider partner of a lone genuine individual, called by spam; the 1-,
# 2- and 3-partner rings of 2 to 4 genuine individuals
@example(GenConfig(n_individuals=2, n_cells=1, spam_fraction=0.3, seed=3))
@example(GenConfig(n_individuals=2, n_cells=2, spam_fraction=0.0, seed=4))
@example(GenConfig(n_individuals=3, n_cells=1, spam_fraction=0.0, seed=5))
@example(GenConfig(n_individuals=6, n_cells=2, spam_fraction=0.3, activity_flip=(0.4, -0.5, 1)))
def test_generate_writes_the_bytes_of_the_per_row_oracle(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        got = _corpus_bytes(cfg, Path(tmp) / "numpy")
        want = _oracle_bytes(cfg, Path(tmp) / "oracle")
    for name in _FILES:
        assert got[name] == want[name], name


def _force_workers(monkeypatch, workers: int) -> list:
    """Build the chunks in `workers` processes, whatever the CPU count;
    one means in this process. Returns the list of every pool made: while
    the caller holds it, only generate's own cleanup, not garbage
    collection, can stop the workers."""
    monkeypatch.setattr(synth, "_workers", lambda n_chunks: min(workers, n_chunks))
    pools = []
    init = ProcessPoolExecutor.__init__

    def kept(pool, *args, **kwargs):
        pools.append(pool)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", kept)
    return pools


def test_chunk_size_does_not_change_the_bytes(tmp_path, monkeypatch):
    # 135 genuine and 15 spam individuals: chunks of 7 straddle the boundary
    cfg = GenConfig(n_individuals=150, n_cells=12, spam_fraction=0.1, seed=13)
    want = _oracle_bytes(cfg, tmp_path / "oracle")
    for workers in (1, 2, 3):
        pools = _force_workers(monkeypatch, workers)
        for chunk in (1, 7, synth._CHUNK):
            monkeypatch.setattr(synth, "_CHUNK", chunk)
            with warnings.catch_warnings():
                # Python 3.12 on warns of a fork in a process that runs threads
                warnings.simplefilter("error")
                got = _corpus_bytes(cfg, tmp_path / f"w{workers}-chunk{chunk}")
            assert not multiprocessing.active_children()
            for name in _FILES:
                assert got[name] == want[name], (workers, chunk, name)
        assert len(pools) == (2 if workers > 1 else 0)  # chunks of 7 and of 1


def _failing_chunk(world, lo, hi):
    """_ego_chunk for the first chunk; for any other, an error naming the
    process that raised it."""
    if lo:
        raise CdrError(f"chunk at {lo} failed in process {os.getpid()}")
    return _ego_chunk(world, lo, hi)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_chunk_that_fails_fails_generate_and_leaves_no_worker(tmp_path, monkeypatch, workers):
    pools = _force_workers(monkeypatch, workers)
    monkeypatch.setattr(synth, "_ego_chunk", _failing_chunk)
    monkeypatch.setattr(synth, "_CHUNK", 100)
    cfg = GenConfig(n_individuals=300, n_cells=12, seed=13)  # chunks at 0, 100 and 200
    with pytest.raises(CdrError, match=r"chunk at (100|200) failed in process \d+") as e:
        generate(cfg, tmp_path)
    assert not multiprocessing.active_children()
    in_here = e.value.args[0].endswith(f" {os.getpid()}")
    assert in_here == (workers == 1) == (not pools)


def _dying_chunk(world, lo, hi):
    """_ego_chunk for the first chunk; for any other, the process exits at
    once, with neither a result nor an error."""
    if lo:
        os._exit(9)
    return _ego_chunk(world, lo, hi)


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the body once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def test_a_worker_that_dies_fails_generate_and_leaves_no_worker(tmp_path, monkeypatch):
    # a pool that replaced the dead worker waited for its chunk forever
    pools = _force_workers(monkeypatch, 2)
    monkeypatch.setattr(synth, "_ego_chunk", _dying_chunk)
    cfg = GenConfig(n_individuals=1200, n_cells=12, seed=13)  # chunks at 0, 512 and 1024
    with _deadline(10), pytest.raises(BrokenProcessPool):
        generate(cfg, tmp_path / "direct")
    assert len(pools) == 1 and not multiprocessing.active_children()
    out = tmp_path / "corpus"
    with _deadline(10), pytest.raises(BrokenProcessPool):
        main(["generate", "--out", str(out), "--n", "1200", "--cells", "12"])
    assert len(pools) == 2 and not multiprocessing.active_children()
    assert not out.exists() and not list(tmp_path.glob(".cdrmob-*"))


# sha256 of each file of a small corpus: spam, a planted flip and all five
# density classes, with more individuals than a chunk of the writers
_PINNED_CONFIG = GenConfig(n_individuals=600, n_cells=30, base_daily_events=0.2,
                           activity_flip=(0.4, -0.5, 10), area_boundaries=(2, 5, 10, 20), seed=3)
_PINNED_SHA256 = {
    CDR_FILE: "db972557998adac7a2e1905106d4ed6c3d8c45bee2e17cd78f54d57a355cab8e",
    TOWERS_FILE: "1f538ed11a6c30acd3718e18bdeced0183db5abb5d18af19ed58654ac68928a5",
    DEMOGRAPHICS_FILE: "e0ef2d41a18a73f55fecdec73ab8c8d603bfaf3d98b891b64a9426bfd614c120",
    TRUTH_FILE: "633f2789964d01d51832834348085d7172d8a1210d090cd2777fe33bd488a56d",
    CONFIG_FILE: "8c85e5819030bc2c8229946fe531935c786833b7cf7b3aaef964b23bb971aee7",
}


def test_generated_files_keep_their_bytes(tmp_path):
    generate(_PINNED_CONFIG, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _FILES}
    assert got == _PINNED_SHA256


def test_each_drawn_rate_is_the_checked_table_entry(tmp_path):
    # the rate check multiplied in another order than the draws did, so
    # about 40% of the rates it checked differed from the drawn ones
    generate(_PINNED_CONFIG, tmp_path)
    egos = json.loads((tmp_path / TRUTH_FILE).read_text())["egos"].values()
    assert {t["area"] for t in egos} == {1, 2, 3, 4, 5} and any(t["spam"] for t in egos)
    rate = synth._World(_PINNED_CONFIG).rate
    assert np.shape(rate) == (_PINNED_CONFIG.n_cells, 2, 6)
    for t in egos:
        if not t["spam"]:
            sex = t["gender"] == "female"
            assert t["rate"] == rate[t["settlement"] - 1][sex][age_group_of(t["age"])]


@pytest.mark.parametrize("factor, refused", [(1 + 1e-9, True), (1 - 1e-9, False)])
def test_the_rate_check_bounds_the_largest_table_entry(factor, refused):
    cfg = _PINNED_CONFIG
    base = cfg.base_daily_events * MAX_YEAR_EVENTS / np.max(synth._World(cfg).rate) * factor
    edge = replace(cfg, base_daily_events=base)
    if refused:
        with pytest.raises(synth.RateError):
            synth._World(edge)
    else:
        assert np.max(synth._World(edge).rate) <= MAX_YEAR_EVENTS


def test_truth_file_holds_the_streaming_encoders_bytes(tmp_path):
    truth = generate(GenConfig(n_individuals=60, n_cells=6, spam_fraction=0.1, seed=21), tmp_path)
    buf = io.StringIO()
    json.dump(vars(truth), buf, separators=(",", ":"), sort_keys=True)
    assert (tmp_path / TRUTH_FILE).read_text(encoding="utf-8") == buf.getvalue() + "\n"


def test_noise_free_individual_lives_at_the_planted_tower(tmp_path):
    # one settlement, one resident, never away from home: the detected
    # home must be the settlement tower itself
    cfg = GenConfig(
        n_individuals=1,
        n_cells=1,
        p_home_night=1.0,
        p_away_day=0.0,
        spam_fraction=0.0,
        seed=5,
    )
    truth = generate(cfg, tmp_path)
    [(ego, info)] = truth.egos.items()
    assert not info["spam"]
    reg = load_towers(tmp_path / TOWERS_FILE)
    res = ingest_file(tmp_path / CDR_FILE, reg)
    assert res.table.ids == [ego]
    home = reg.index_of(info["home_tower"])
    lat, lon, _ = compute_homes(res.table, reg, truth.night_window)
    assert lat[0] == pytest.approx(reg.lat[home], abs=1e-9)
    assert lon[0] == pytest.approx(reg.lon[home], abs=1e-9)
    grid = GridSpec(truth.grid_step)
    assert grid.cells_of(lat[0], lon[0]) == tuple(info["cell"])


def test_generation_is_deterministic_across_runs_and_threads(tmp_path):
    cfg = GenConfig(n_individuals=300, n_cells=40, seed=9)
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    generate(cfg, a, threads=1)
    generate(cfg, b, threads=1)
    generate(cfg, c, threads=5)
    for name in _FILES:
        assert filecmp.cmp(a / name, b / name, shallow=False), name
        assert filecmp.cmp(a / name, c / name, shallow=False), name


def test_every_genuine_individual_survives_the_pair_filter(tmp_path):
    cfg = GenConfig(n_individuals=120, n_cells=10, spam_fraction=0.1, seed=3)
    truth = generate(cfg, tmp_path)
    reg = load_towers(tmp_path / TOWERS_FILE)
    res = ingest_file(tmp_path / CDR_FILE, reg)
    genuine = {e for e, t in truth.egos.items() if not t["spam"]}
    assert set(res.table.ids) == genuine
    assert set(res.removed_ids) == set(truth.spam_ids)
    assert len(truth.spam_ids) == 12


def test_genconfig_validation():
    bad = [
        dict(n_cells=0),
        dict(n_individuals=0),
        dict(spam_fraction=1.0),
        dict(spam_fraction=-0.1),
        dict(n_individuals=30, n_cells=50),  # fewer genuine than settlements
        dict(base_daily_events=-1.0),
        dict(p_home_night=1.5),
        dict(month_mult_dense=(1.0,) * 11),
        dict(month_mult_sparse=(1.0,) * 7 + (0.0,) + (1.0,) * 4),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            GenConfig(**kw)


@pytest.mark.parametrize(
    "flip",
    [
        (0.4, -0.5, 0),  # a zero pivot: every genuine rate divides by zero
        (0.4, -0.5, -3),  # a negative pivot: a negative Poisson rate
        (0.4, -0.5),  # two numbers where three are unpacked
        (0.4, -0.5, 1, 2),
        (float("nan"), -0.5, 100),
        (0.4, float("inf"), 100),
        (0.4, -0.5, "100"),
        100,
    ],
)
def test_activity_flip_is_three_finite_numbers_with_a_positive_pivot(flip):
    with pytest.raises(ValueError, match="activity_flip"):
        GenConfig(n_individuals=50, n_cells=5, activity_flip=flip)


def test_genconfig_json_round_trip(tmp_path):
    cfg = GenConfig(n_individuals=50, n_cells=5, beta=0.3, seed=77)
    p = tmp_path / "cfg.json"
    write_json(p, asdict(cfg))
    with open(p, encoding="utf-8") as fh:
        assert GenConfig.from_dict(json.load(fh)) == cfg


def test_ground_truth_json_round_trip(tmp_path):
    cfg = GenConfig(n_individuals=60, n_cells=6, seed=21)
    truth = generate(cfg, tmp_path)
    back = GroundTruth.from_json(tmp_path / TRUTH_FILE)
    assert back == truth


def test_scorecard_passes_on_a_small_default_style_corpus(small_corpus, tmp_path):
    corpus, truth = small_corpus
    card = validate_corpus(corpus, truth, threads=2)
    for check in card.checks:
        assert check.passed, f"{check.name}: {check.value} (target {check.target})"
    assert card.passed
    names = {c.name for c in card.checks}
    assert {"spam_filter", "night_window", "home_cells", "weekly_extremes"} <= names
    text = "\n".join(card.lines())
    assert "PASS" in text and "FAIL" not in text
    write_json(tmp_path / "card.json", asdict(card))
    with open(tmp_path / "card.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["passed"] is True and len(doc["checks"]) == len(card.checks)
