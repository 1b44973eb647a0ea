"""Corpus generator: determinism, planted structure, config handling."""

import filecmp
import json

import pytest

from cdrmob.geo import GridSpec
from cdrmob.home import compute_homes
from cdrmob.ingest import ingest_file
from cdrmob.records import load_towers
from cdrmob.synth import (
    CDR_FILE,
    CONFIG_FILE,
    DEMOGRAPHICS_FILE,
    TOWERS_FILE,
    TRUTH_FILE,
    GenConfig,
    GroundTruth,
    generate,
    validate_corpus,
)

_FILES = (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE, TRUTH_FILE, CONFIG_FILE)


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
    assert grid.cell_of(lat[0], lon[0]) == tuple(info["cell"])


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


def test_genconfig_json_round_trip(tmp_path):
    cfg = GenConfig(n_individuals=50, n_cells=5, beta=0.3, seed=77)
    p = tmp_path / "cfg.json"
    cfg.to_json(p)
    assert GenConfig.from_json(p) == cfg


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
    card.to_json(tmp_path / "card.json")
    with open(tmp_path / "card.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["passed"] is True and len(doc["checks"]) == len(card.checks)
