"""Exit codes, stage composability and failure cleanup for the CLI.

Everything runs in-process through main(argv); the acceptance suite
already exercises the installed entry point in subprocesses.
"""

import contextlib
import csv
import dataclasses
import filecmp
import hashlib
import io
import json
import multiprocessing
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdrmob import cli, ingest, pipeline, synth
from cdrmob.cli import main
from cdrmob.pipeline import STAGE_OUTPUTS, write_manifest, write_outputs
from cdrmob.records import CdrError
from cdrmob.synth import (
    CDR_FILE,
    DEMOGRAPHICS_FILE,
    TOWERS_FILE,
    TRUTH_FILE,
    GenConfig,
    GroundTruth,
    corpus_pipeline,
    generate,
)

_DAYS = [f"2008-03-{d:02d}" for d in range(1, 11)]


def _write_minimal_corpus(root, *, hour="12:00:00"):
    """Two reciprocal egos, every event at the same clock time. The
    single-spike daily profile cannot be fit as two peaks, which makes
    failure of the rhythm stage deterministic."""
    towers = root / "towers.csv"
    towers.write_text("tower_id,lat,lon\nt1,40.0,20.0\nt2,40.1,20.1\n")
    rows = ["ego_id,peer_id,timestamp,tower_id,kind,direction\n"]
    for day in _DAYS:
        rows.append(f"a,b,{day}T{hour},t1,call,out\n")
        rows.append(f"b,a,{day}T{hour},t2,call,out\n")
    cdr = root / "cdr.csv"
    cdr.write_text("".join(rows))
    return cdr, towers


def _analysis_args(cdr, towers, out, *extra):
    return ["--cdr", str(cdr), "--towers", str(towers), "--out", str(out), *extra]


def test_usage_errors_exit_1(tmp_path, capsys):
    cdr, towers = _write_minimal_corpus(tmp_path)
    out = tmp_path / "out"
    cases = [
        [],
        ["report"],
        ["report", "--bogus-flag"],
        ["metrics", *_analysis_args(cdr, towers, out, "--window", "decade")],
        ["metrics", *_analysis_args(cdr, towers, out, "--window",
                                    "2008-05-01T00:00:00/2008-04-01T00:00:00")],
        ["metrics", *_analysis_args(cdr, towers, out, "--night-window", "25:00-07:00")],
        # minutes past 59, and a window of no width
        ["metrics", *_analysis_args(cdr, towers, out, "--night-window", "01:30-02:75")],
        ["homes", *_analysis_args(cdr, towers, out, "--night-window", "05:00-05:00")],
        ["metrics", *_analysis_args(cdr, towers, out, "--area-bounds", "5,4,3,2")],
        ["metrics", *_analysis_args(cdr, towers, out, "--area-bounds", "1,2,3")],
        ["generate", "--out", str(out), "--n", "10", "--cells", "50"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("step", ["nan", "1e-300", "1e300", "inf", "1e-7", "91"])
def test_grid_step_outside_its_range_is_a_usage_error(tmp_path, capsys, step):
    # NaN gave one cell at index -2^63, 1e-300 a cell of 0 km2, 1e300 one
    # of 5e305 km2, and inf a traceback
    cdr, towers = _write_minimal_corpus(tmp_path)
    out = tmp_path / "out"
    assert main(["report", *_analysis_args(cdr, towers, out, "--grid-step", step)]) == 1
    assert "grid step must be a number of degrees from 1e-6 to 90" in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_2(tmp_path, capsys):
    cdr, towers = _write_minimal_corpus(tmp_path)
    out = tmp_path / "out"
    rc = main(["metrics", *_analysis_args(tmp_path / "missing.csv", towers, out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    # header-only file: everyone is filtered, nothing to analyse
    empty = tmp_path / "empty.csv"
    empty.write_text("ego_id,peer_id,timestamp,tower_id,kind,direction\n")
    rc = main(["metrics", *_analysis_args(empty, towers, out)])
    assert rc == 2
    assert "no surviving individuals" in capsys.readouterr().err

    # one-way claims only: the pair rule removes both sides
    oneway = tmp_path / "oneway.csv"
    oneway.write_text(
        "ego_id,peer_id,timestamp,tower_id,kind,direction\n"
        "a,b,2008-03-01T10:00:00,t1,call,out\n"
        "c,d,2008-03-01T11:00:00,t2,call,out\n"
    )
    rc = main(["metrics", *_analysis_args(oneway, towers, out)])
    assert rc == 2
    assert "no surviving individuals" in capsys.readouterr().err

    # a tower table across the antimeridian would average to longitude 0
    dateline = tmp_path / "dateline.csv"
    dateline.write_text("tower_id,lat,lon\nt1,10.0,179.9\nt2,10.0,-179.9\n")
    rc = main(["metrics", *_analysis_args(cdr, dateline, out)])
    assert rc == 2
    assert "antimeridian" in capsys.readouterr().err

    # a tower table that is not UTF-8 is fatal; a CDR row that is not is a
    # counted reject
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"tower_id,lat,lon\nt1,40.0,20.0\nt\xe9,40.1,20.1\n")
    rc = main(["metrics", *_analysis_args(cdr, latin1, out)])
    assert rc == 2
    assert "latin1.csv:3: not valid UTF-8" in capsys.readouterr().err


def test_a_nul_byte_in_towers_or_demographics_exits_2(tmp_path, capsys):
    cdr, towers = _write_minimal_corpus(tmp_path)
    nul = tmp_path / "nul.csv"
    nul.write_bytes(b"tower_id,lat,lon\nt1,40.0,20.0\nt2\x00,40.1,20.1\n")
    assert main(["metrics", *_analysis_args(cdr, nul, tmp_path / "out")]) == 2
    assert "nul.csv:3: holds a NUL byte" in capsys.readouterr().err
    nul.write_bytes(b"ego_id,gender,birth_year\na,F,1970\nb,M\x00,1980\n")
    # demographics are read last, for the strata: a set window gets there
    argv = ["patterns", *_analysis_args(cdr, towers, tmp_path / "out", "--demographics", str(nul),
                                        "--night-window", "11:00-13:00")]
    assert main(argv) == 2
    assert "nul.csv:3: holds a NUL byte" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["20080301T000000", "2008-W09-6T00:00", "2008-03-01T00:00:00.5"])
def test_a_window_outside_the_timestamp_grammar_is_a_usage_error(tmp_path, capsys, start):
    cdr, towers = _write_minimal_corpus(tmp_path)
    argv = ["metrics", *_analysis_args(cdr, towers, tmp_path / "out", "--window",
                                       f"{start}/2008-04-01T00:00:00")]
    assert main(argv) == 1
    assert "bad --window range" in capsys.readouterr().err


def test_generate_writes_corpus_and_manifest(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["generate", "--out", str(out), "--n", "60", "--cells", "6", "--seed", "4"])
    assert rc == 0
    listed = capsys.readouterr().out.splitlines()
    names = {"cdr.csv", "towers.csv", "demographics.csv", "truth.json",
             "genconfig.json", "manifest.json"}
    assert {os.path.basename(p) for p in listed} == names
    assert {p.name for p in out.iterdir()} == names
    with open(out / "manifest.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == "generate"
    assert doc["config"]["n_individuals"] == 60
    assert set(doc["outputs"]) == names - {"manifest.json"}


def test_gen_config_file_merges_with_flags(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"n_individuals": 50, "n_cells": 5, "seed": 1}))
    out1 = tmp_path / "c1"
    assert main(["generate", "--out", str(out1), "--gen-config", str(cfg_path)]) == 0
    out2 = tmp_path / "c2"
    assert main(["generate", "--out", str(out2), "--gen-config", str(cfg_path),
                 "--seed", "9"]) == 0
    capsys.readouterr()
    with open(out1 / "genconfig.json", encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 1
    with open(out2 / "genconfig.json", encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 9

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["generate", "--out", str(tmp_path / "c3"), "--gen-config", str(bad)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_gen_config_refuses_a_fixed_setting(tmp_path, capsys):
    # the SMS share is a constant of the generator, not a setting
    fixed = tmp_path / "fixed.json"
    fixed.write_text(json.dumps({"n_individuals": 50, "n_cells": 5, "sms_fraction": 0.3}))
    out = tmp_path / "refused"
    assert main(["generate", "--out", str(out), "--gen-config", str(fixed)]) == 1
    assert "sms_fraction" in capsys.readouterr().err
    assert not out.exists()

    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps({"n_individuals": 50, "n_cells": 5}))
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--gen-config", str(valid)]) == 0
    with open(out / "genconfig.json", encoding="utf-8") as fh:
        assert set(json.load(fh)) == {f.name for f in dataclasses.fields(GenConfig)}


@pytest.mark.parametrize("flip", [[0.4, -0.5, 0], [0.4, -0.5, -3], [0.4, -0.5]])
def test_gen_config_refuses_a_bad_activity_flip(tmp_path, capsys, flip):
    # a zero pivot gave every genuine individual 2 events, a negative one
    # and a pair crashed mid-generation; all three are usage errors now
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({"n_individuals": 50, "n_cells": 5, "activity_flip": flip}))
    out = tmp_path / "refused"
    assert main(["generate", "--out", str(out), "--gen-config", str(path)]) == 1
    assert "activity_flip" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, year", [("report", "0"), ("ingest", "10000")])
def test_year_outside_the_calendar_is_a_usage_error(tmp_path, capsys, command, year):
    # the calendar covers years 1-9998; past it, a run ended in a traceback
    cdr, towers = _write_minimal_corpus(tmp_path)
    out = tmp_path / "out"
    assert main([command, *_analysis_args(cdr, towers, out, "--year", year)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    {"analysis_year": 0},
    # 40 cells span three density classes, and class 2 has no entry
    {"n_individuals": 400, "n_cells": 40, "female_activity_excess": [0.1]},
    {"area_boundaries": [5, 4, 3, 2]},
    # each of these ended in a traceback, or drew event times from a
    # negative intensity
    {"grid_step": float("nan")},
    {"beta": float("nan")},
    {"base_daily_events": float("inf")},
    {"month_mult_dense": [1.0] * 11 + [float("nan")]},
    {"n_cells": 2.5},
    {"n_individuals": 1500.5},
    {"seed": 1.5},
    {"night_floor": -1.0},
    # numpy refused these Poisson rates mid-generation: too large, not
    # finite, and negative
    {"base_daily_events": 1e300},
    {"beta": 1e6},
    {"female_activity_excess": [-1.0, 0.0, 0.0, 0.0, 0.0]},
    # a JSON integer past float's range ended in an OverflowError
    {"n_individuals": 10**400},
    {"night_floor": 10**400},
    {"base_daily_events": 10**400},
    {"beta": 10**400},
    {"gamma": 10**400},
    {"female_mobility_excess": 10**400},
    {"month_mult_dense": [1.0] * 11 + [10**400]},
    {"female_activity_excess": [10**400, 0.0, 0.0, 0.0, 0.0]},
    {"activity_flip": [0.4, -0.5, 10**400]},
])
def test_gen_config_refuses_what_generation_would_crash_on(tmp_path, capsys, setting):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"n_individuals": 50, "n_cells": 5, **setting}))
    out = tmp_path / "refused"
    assert main(["generate", "--out", str(out), "--gen-config", str(path)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, code", [
    ({"beta": 1e6}, 1),
    ({"gamma": 1e6}, 0),  # every travel scale is clipped
    ({"activity_flip": [1e6, -0.5, 3]}, 0),
])
def test_an_overflowing_power_is_no_warning(tmp_path, setting, code):
    # numpy's overflow warning came before the usage error, and under
    # python -W error it was a traceback
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"n_individuals": 50, "n_cells": 5, **setting}))
    run = _python("-W", "error", "-m", "cdrmob.cli", "generate",
                  "--out", str(tmp_path / "out"), "--gen-config", str(path))
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr


def _python(*args) -> subprocess.CompletedProcess:
    """Run a Python child on this checkout's src/."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_the_cli_loads_the_generator_only_to_generate():
    # every report compiled synth.py where no bytecode is written
    run = _python("-c", "import sys, cdrmob.cli; "
                        "print(sorted({'cdrmob.synth', 'multiprocessing'} & set(sys.modules)))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_a_report_never_imports_numpy_ma(small_corpus, tmp_path):
    # a plain np.unique call imports numpy.ma, 13-26 ms, on its first call
    corpus, truth = small_corpus
    run = _python(
        "-c", "import sys; from cdrmob.cli import main; "
              "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)",
        "report", "--cdr", str(corpus / "cdr.csv"), "--towers", str(corpus / "towers.csv"),
        "--demographics", str(corpus / "demographics.csv"), "--plot-data",
        "--area-bounds", ",".join(str(b) for b in truth.area_boundaries),
        "--out", str(tmp_path / "report"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("n", ["50", "0"])
def test_demo_with_too_few_individuals_is_a_usage_error(tmp_path, capsys, n):
    # the demo's 400 settlements need more genuine individuals than 50
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out), "--n", n]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "refused"
    assert main(["generate", "--out", str(out), "--n", "50", "--cells", "5", "--seed", "-1"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_stage_outputs_match_the_full_report(small_corpus, tmp_path, capsys):
    corpus, truth = small_corpus
    common = [
        "--cdr", os.path.join(corpus, "cdr.csv"),
        "--towers", os.path.join(corpus, "towers.csv"),
        "--area-bounds", ",".join(str(b) for b in truth.area_boundaries),
        "--threads", "2",
    ]
    report_dir = tmp_path / "report"
    rc = main(["report", *common,
               "--demographics", os.path.join(corpus, "demographics.csv"),
               "--out", str(report_dir)])
    assert rc == 0
    homes_dir = tmp_path / "homes"
    assert main(["homes", *common, "--out", str(homes_dir)]) == 0
    metrics_dir = tmp_path / "metrics"
    assert main(["metrics", *common, "--out", str(metrics_dir)]) == 0
    areas_dir = tmp_path / "areas"
    assert main(["areas", *common, "--out", str(areas_dir)]) == 0
    capsys.readouterr()

    # a stage run alone writes byte for byte what the full report wrote
    for sub_dir, names in (
        (homes_dir, ["daily_profile.csv", "window.json", "homes.csv"]),
        (metrics_dir, ["metrics.csv"]),
        (areas_dir, ["grid.csv", "areas.json"]),
    ):
        for name in names:
            assert filecmp.cmp(sub_dir / name, report_dir / name, shallow=False), name

    with open(report_dir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "report"
    assert "metrics.csv" in manifest["outputs"]


def test_spool_feeds_the_metrics_stage(small_corpus, tmp_path, capsys):
    corpus, truth = small_corpus
    spool = tmp_path / "spool"
    rc = main(["ingest",
               "--cdr", os.path.join(corpus, "cdr.csv"),
               "--towers", os.path.join(corpus, "towers.csv"),
               "--out", str(spool)])
    assert rc == 0
    assert {p.name for p in spool.iterdir()} == {
        "events.npz", "meta.json", "stats.json", "manifest.json"}

    towers = os.path.join(corpus, "towers.csv")
    common = ["--towers", towers, "--demographics", os.path.join(corpus, "demographics.csv"),
              "--area-bounds", ",".join(str(b) for b in truth.area_boundaries),
              "--threads", "2", "--plot-data"]
    from_csv = tmp_path / "r_csv"
    from_spool = tmp_path / "r_spool"
    assert main(["report", "--cdr", os.path.join(corpus, "cdr.csv"),
                 "--out", str(from_csv), *common]) == 0
    assert main(["report", "--cdr", str(spool), "--out", str(from_spool), *common]) == 0
    capsys.readouterr()
    # every output but the manifest is the same, byte for byte
    names = sorted(str(p.relative_to(from_csv)) for p in from_csv.rglob("*") if p.is_file())
    assert "metrics.csv" in names and "summary.json" in names
    names.remove("manifest.json")
    assert names == sorted(
        str(p.relative_to(from_spool)) for p in from_spool.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    for name in names:
        assert filecmp.cmp(from_csv / name, from_spool / name, shallow=False), name


def _outputs(out) -> dict[str, bytes]:
    """Every file of a run but its manifest, by relative path."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"
    }


def test_crlf_copy_gives_the_same_report(small_corpus, tmp_path, capsys):
    corpus, truth = small_corpus
    cdr = os.path.join(corpus, "cdr.csv")
    crlf = tmp_path / "cdr_crlf.csv"
    with open(cdr, "rb") as fh:
        crlf.write_bytes(fh.read().replace(b"\n", b"\r\n"))
    flags = ["--towers", os.path.join(corpus, "towers.csv"),
             "--demographics", os.path.join(corpus, "demographics.csv"),
             "--area-bounds", ",".join(str(b) for b in truth.area_boundaries)]
    assert main(["report", "--cdr", cdr, "--out", str(tmp_path / "lf"), *flags]) == 0
    assert main(["report", "--cdr", str(crlf), "--out", str(tmp_path / "crlf"), *flags]) == 0
    capsys.readouterr()
    lf = _outputs(tmp_path / "lf")
    assert "summary.json" in lf and lf == _outputs(tmp_path / "crlf")


@pytest.mark.parametrize("name", [CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE])
def test_an_unbalanced_quote_is_a_data_error(small_corpus, tmp_path, capsys, name):
    # csv.reader reads from the quote on as one field, and refused it with
    # a traceback once it passed 131,072 characters. In cdr.csv the quote's
    # line is read on its own, so the field ends with that line
    corpus, truth = small_corpus
    paths = {n: os.path.join(corpus, n) for n in (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE)}
    with open(paths[name], encoding="utf-8") as fh:
        head, rest = fh.readline(), fh.read()
    paths[name] = tmp_path / name
    paths[name].write_text(f'{head}"\n{rest}' + "x" * 140_000 + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--cdr", str(paths[CDR_FILE]), "--towers", str(paths[TOWERS_FILE]),
                 "--demographics", str(paths[DEMOGRAPHICS_FILE]), "--area-bounds",
                 ",".join(str(b) for b in truth.area_boundaries), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if name == CDR_FILE:
        assert f"{name}:2: a row spans lines" in err
    else:
        assert f"{name}:2: not readable as CSV" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("name", [CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE])
def test_a_stray_quote_is_a_data_error(small_corpus, tmp_path, capsys, name):
    # with fewer than csv's 131,072 characters after it, a quote made the
    # rest of the file one field: one reject, or the rest of the rows lost,
    # and exit 0
    corpus, truth = small_corpus
    paths = {n: os.path.join(corpus, n) for n in (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE)}
    with open(paths[name], encoding="utf-8") as fh:
        lines = fh.readlines()
    k = max(1, len(lines) - 50)  # 49 lines follow it, or all but the header
    paths[name] = tmp_path / name
    paths[name].write_text("".join(lines[:k] + ['"' + lines[k]] + lines[k + 1:]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--cdr", str(paths[CDR_FILE]), "--towers", str(paths[TOWERS_FILE]),
                 "--demographics", str(paths[DEMOGRAPHICS_FILE]), "--area-bounds",
                 ",".join(str(b) for b in truth.area_boundaries), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name}:{k + 1}: a row spans lines" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("name", [CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE])
def test_an_open_quote_on_the_last_line_is_a_data_error(small_corpus, tmp_path, capsys, name,
                                                        final_newline):
    # with no line after it, the quote's field ended at the end of the
    # file: the row was read as if unquoted, and a tower row such as
    # T9,40.0,"20.5 loaded with longitude 20.5
    corpus, truth = small_corpus
    paths = {n: os.path.join(corpus, n) for n in (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE)}
    with open(paths[name], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f'{head},"{last}'
    paths[name] = tmp_path / name
    paths[name].write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--cdr", str(paths[CDR_FILE]), "--towers", str(paths[TOWERS_FILE]),
                 "--demographics", str(paths[DEMOGRAPHICS_FILE]), "--area-bounds",
                 ",".join(str(b) for b in truth.area_boundaries), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name}:{len(lines)}: a row spans lines" in err and "Traceback" not in err
    assert not out.exists()


def test_a_byte_order_mark_on_each_input_changes_no_output(small_corpus, tmp_path, capsys):
    # headerless inputs, so that the mark sits on the first data row
    corpus, truth = small_corpus
    reports = []
    for mark in (b"", b"\xef\xbb\xbf"):
        inputs = tmp_path / f"inputs{len(mark)}"
        inputs.mkdir()
        for name in (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE):
            with open(os.path.join(corpus, name), "rb") as fh:
                (inputs / name).write_bytes(mark + fh.read().split(b"\n", 1)[1])
        out = tmp_path / f"report{len(mark)}"
        assert main(["report", "--cdr", str(inputs / CDR_FILE), "--towers", str(inputs / TOWERS_FILE),
                     "--demographics", str(inputs / DEMOGRAPHICS_FILE), "--area-bounds",
                     ",".join(str(b) for b in truth.area_boundaries), "--out", str(out)]) == 0
        reports.append(_outputs(out))
    capsys.readouterr()
    assert "summary.json" in reports[0] and reports[0] == reports[1]


def test_outputs_do_not_depend_on_the_block_size(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    generate(GenConfig(n_individuals=200, n_cells=40, base_daily_events=0.05, seed=42), corpus)
    truth = GroundTruth.from_json(corpus / TRUTH_FILE)
    flags = ["--towers", str(corpus / TOWERS_FILE), "--demographics",
             str(corpus / DEMOGRAPHICS_FILE),
             "--area-bounds", ",".join(str(b) for b in truth.area_boundaries)]
    runs = []
    for block in (5, 1024, ingest._BLOCK_BYTES):
        out, spool = tmp_path / f"report{block}", tmp_path / f"spool{block}"
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            assert main(["report", "--cdr", str(corpus / CDR_FILE), "--out", str(out), *flags]) == 0
            assert main(["ingest", "--cdr", str(corpus / CDR_FILE), "--towers", flags[1],
                         "--out", str(spool)]) == 0
        runs.append((_outputs(out), (spool / "events.npz").read_bytes()))
    capsys.readouterr()
    assert "summary.json" in runs[0][0]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("out_name", ["out", "new/out"])
def test_failed_run_removes_the_directory_it_created(tmp_path, capsys, out_name):
    # the 2008 rows all fall outside 2010: a data error once --out exists
    cdr, towers = _write_minimal_corpus(tmp_path)
    out = tmp_path / out_name
    assert main(["report", *_analysis_args(cdr, towers, out, "--year", "2010")]) == 2
    assert "no surviving individuals" in capsys.readouterr().err
    assert not (tmp_path / out_name.split("/")[0]).exists()


@pytest.mark.parametrize("out_name, rc", [("", 1), ("missing/..", 2), (".", 2)])
def test_failed_run_keeps_the_working_directory(tmp_path, capsys, monkeypatch, out_name, rc):
    # each of these names the working directory once made absolute
    cdr, towers = _write_minimal_corpus(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sentinel.txt").write_text("keep\n")
    assert main(["report", *_analysis_args(cdr, towers, out_name, "--year", "2010")]) == rc
    capsys.readouterr()
    assert (tmp_path / "sentinel.txt").read_text() == "keep\n"


def test_failed_run_keeps_what_another_run_wrote_beside_it(tmp_path, capsys, monkeypatch):
    cdr, towers = _write_minimal_corpus(tmp_path)
    results = tmp_path / "results"
    run = cli._cmd_stages

    def run_beside_another(args):
        # a second run writes results/b while this one runs
        (results / "b").mkdir(parents=True)
        (results / "b" / "grid.csv").write_text("theirs\n")
        return run(args)

    monkeypatch.setattr(cli, "_cmd_stages", run_beside_another)
    assert main(["report", *_analysis_args(cdr, towers, results / "a", "--year", "2010")]) == 2
    capsys.readouterr()
    assert not (results / "a").exists()
    assert (results / "b" / "grid.csv").read_text() == "theirs\n"


def test_failed_run_cleans_its_partial_outputs(tmp_path, capsys):
    cdr, towers = _write_minimal_corpus(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    keep = out / "keep.txt"
    keep.write_text("not ours\n")
    rc = main(["homes", *_analysis_args(cdr, towers, out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # the profile stage succeeded before the rhythm fit failed; its file
    # must not be left behind, while the unrelated file survives
    assert {p.name for p in out.iterdir()} == {"keep.txt"}
    assert keep.read_text() == "not ours\n"


def _tree(root) -> dict[str, bytes | None]:
    """Every path under root, hidden ones included: a file's bytes, or
    None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


@pytest.mark.parametrize("command", ["report", "homes"])
def test_failed_rerun_leaves_an_earlier_report_as_it_was(small_corpus, tmp_path, capsys,
                                                          command):
    corpus, _ = small_corpus
    inputs = ["--cdr", str(corpus / CDR_FILE), "--towers", str(corpus / TOWERS_FILE),
              "--demographics", str(corpus / DEMOGRAPHICS_FILE), "--area-bounds", "12,40,120,260"]
    out = tmp_path / "out"
    assert main(["report", *inputs, "--plot-data", "--out", str(out)]) == 0
    before = _tree(out)
    assert "plotdata" in before and "manifest.json" in before
    if command == "report":
        # no 2008 row falls in 2010: the rerun fails at ingest
        rerun = ["report", *inputs, "--plot-data", "--year", "2010", "--out", str(out)]
    else:
        # the single-spike profile is written, then its rhythm fit fails
        cdr, towers = _write_minimal_corpus(tmp_path)
        rerun = ["homes", *_analysis_args(cdr, towers, out)]
    capsys.readouterr()
    assert main(rerun) == 2
    assert "error:" in capsys.readouterr().err
    assert _tree(out) == before


@pytest.mark.parametrize("name, kind", [("summary.json", "directory"), ("plotdata", "file")])
def test_a_destination_of_the_wrong_kind_publishes_nothing(small_corpus, tmp_path, capsys,
                                                            name, kind):
    # a directory named summary.json failed the report after areas.json had
    # moved into --out; a file named plotdata, after all 11 top-level files
    corpus, _ = small_corpus
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("not ours\n")
    if kind == "directory":
        (out / name).mkdir()
        (out / name / "inside.txt").write_text("not ours\n")
    else:
        (out / name).write_text("not ours\n")
    before = _tree(out)
    assert main(["report", "--cdr", str(corpus / CDR_FILE), "--towers", str(corpus / TOWERS_FILE),
                 "--demographics", str(corpus / DEMOGRAPHICS_FILE),
                 "--area-bounds", "12,40,120,260", "--plot-data", "--out", str(out)]) == 2
    assert _tree(out) == before
    assert f"error: cannot publish {out / name}: it exists" in capsys.readouterr().err


def test_the_manifest_is_published_last(tmp_path, capsys):
    moved = []
    replace = os.replace

    def recorded(src, dst):
        moved.append(os.path.basename(dst))
        replace(src, dst)

    with mock.patch.object(cli.os, "replace", recorded):
        assert main(["generate", "--out", str(tmp_path / "c"), "--n", "60", "--cells", "6"]) == 0
    assert len(moved) == 6 and moved[-1] == "manifest.json"


def test_a_chunk_that_fails_in_a_worker_publishes_nothing(tmp_path, capsys, monkeypatch,
                                                          force_workers):
    def failing(world, lo, hi):
        if lo:
            raise CdrError(f"chunk at {lo} failed")
        return ego_chunk(world, lo, hi)

    ego_chunk = synth._ego_chunk
    monkeypatch.setattr(synth, "_ego_chunk", failing)
    force_workers(2)
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--n", "600", "--cells", "6"]) == 2  # 2 chunks
    assert "error: chunk at 512 failed" in capsys.readouterr().err
    assert not multiprocessing.active_children()
    assert list(tmp_path.iterdir()) == []


def test_no_staging_directory_remains(tmp_path, capsys):
    cdr, towers = _write_minimal_corpus(tmp_path)
    assert main(["generate", "--out", str(tmp_path / "new" / "corpus"),
                 "--n", "60", "--cells", "6"]) == 0
    assert main(["ingest", "--cdr", str(cdr), "--towers", str(towers),
                 "--out", str(tmp_path / "new")]) == 0
    assert main(["report", *_analysis_args(cdr, towers, tmp_path / "new")]) == 2
    assert main(["report", *_analysis_args(cdr, towers, tmp_path / "gone")]) == 2
    capsys.readouterr()
    assert not [p for p in tmp_path.rglob(".cdrmob-*")]
    assert not (tmp_path / "gone").exists()


@pytest.mark.parametrize("command", ["report", "generate", "demo"])
@pytest.mark.parametrize("under", [False, True])
def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys, command, under):
    # it ended in a FileExistsError traceback
    cdr, towers = _write_minimal_corpus(tmp_path)
    before = _tree(tmp_path)
    out = cdr / "sub" if under else cdr
    argv = {
        "report": ["report", *_analysis_args(cdr, towers, out)],
        "generate": ["generate", "--out", str(out), "--n", "60", "--cells", "6"],
        "demo": ["demo", "--out", str(out)],
    }[command]
    assert main(argv) == 1
    assert f"{cdr} exists and is not a directory" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("damage", ["not json", "missing", "unexpected", "a list"])
def test_a_malformed_ground_truth_names_the_file(tmp_path, capsys, damage):
    # a file that is not JSON, or that lacks a field, ended in a traceback
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--n", "60", "--cells", "6"]) == 0
    truth = corpus / "truth.json"
    doc = json.loads(truth.read_text())
    if damage == "not json":
        truth.write_text(truth.read_text()[:-10])
    elif damage == "missing":
        del doc["night_window"]
        truth.write_text(json.dumps(doc))
    elif damage == "unexpected":
        truth.write_text(json.dumps({**doc, "extra": 1}))
    else:
        truth.write_text(json.dumps([doc]))
    capsys.readouterr()
    assert main(["validate", "--corpus", str(corpus), "--out", str(tmp_path / "card")]) == 2
    err = capsys.readouterr().err
    assert f"error: {truth}: " in err and "ground truth" in err
    assert not (tmp_path / "card").exists()


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("tiny") / "corpus"
    generate(GenConfig(n_individuals=60, n_cells=6), corpus)
    return corpus


# the fields that take a number; activity_flip also takes null
_NUMBER_FIELDS = {"analysis_year", "seed", "dense_area_max", "beta", "gamma", "zipf_exponent",
                  "female_mobility_excess", "grid_step"}


@pytest.mark.parametrize("value", [5, "x", [1], {"a": 1}, None], ids=repr)
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(GroundTruth)])
def test_a_ground_truth_field_of_any_json_type_exits_0_or_2(tiny_corpus, tmp_path, capsys,
                                                             name, value):
    # a night_window of 5 or settlements of [1] ended in a TypeError traceback
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, corpus)
    truth = corpus / TRUTH_FILE
    truth.write_text(json.dumps({**json.loads(truth.read_text()), name: value}))
    rc = main(["validate", "--corpus", str(corpus)])
    err = capsys.readouterr().err
    fits = value == 5 and name in _NUMBER_FIELDS or value is None and name == "activity_flip"
    if fits:
        assert rc in (0, 2) and "malformed" not in err
    else:
        assert rc == 2
        assert f"error: {truth}: malformed ground truth: {name} has the wrong JSON type or length" in err


@pytest.mark.parametrize("name, value", [
    ("analysis_year", 0), ("grid_step", -1.0), ("area_boundaries", [4, 3, 2, 1]),
])
def test_ground_truth_settings_the_pipeline_refuses_exit_2(tiny_corpus, tmp_path, capsys,
                                                           name, value):
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, corpus)
    truth = corpus / TRUTH_FILE
    truth.write_text(json.dumps({**json.loads(truth.read_text()), name: value}))
    assert main(["validate", "--corpus", str(corpus)]) == 2
    assert f"error: {truth}: malformed ground truth: " in capsys.readouterr().err


def test_validate_flags_an_unfiltered_corpus(small_corpus, tmp_path, capsys):
    corpus, _ = small_corpus
    assert main(["validate", "--corpus", str(corpus), "--threads", "2"]) == 0
    ok_out = capsys.readouterr().out
    assert "all checks passed" in ok_out and "FAIL" not in ok_out

    # a failed scorecard is a finished run: its directory stays
    card = tmp_path / "card"
    rc = main(["validate", "--corpus", str(corpus), "--threads", "2",
               "--reciprocity", "none", "--out", str(card)])
    captured = capsys.readouterr()
    assert rc == 2
    assert (card / "scorecard.json").exists()
    assert "some checks failed" in captured.err
    fails = [l for l in captured.out.splitlines() if l.startswith("FAIL")]
    assert any("spam_filter" in l for l in fails)


def test_demo_end_to_end(tmp_path, capsys):
    rc = main(["demo", "--out", str(tmp_path), "--n", "800", "--seed", "7",
               "--threads", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "inactivity window:" in text
    assert "density-activity correlation:" in text
    assert (tmp_path / "corpus" / "cdr.csv").exists()
    assert (tmp_path / "report" / "summary.json").exists()
    assert (tmp_path / "report" / "plotdata").is_dir()


@pytest.mark.parametrize("flag, value", [
    ("--year", "2009"),  # the spool holds 2008 rows only: metrics would all be zero
    ("--reciprocity", "none"),  # the pair rule already removed who "none" keeps
])
def test_spool_refuses_other_settings(small_corpus, tmp_path, capsys, flag, value):
    corpus, _ = small_corpus
    towers = os.path.join(corpus, "towers.csv")
    spool = tmp_path / "spool"
    assert main(["ingest", "--cdr", os.path.join(corpus, "cdr.csv"), "--towers", towers,
                 "--out", str(spool)]) == 0
    out = tmp_path / "metrics"
    rc = main(["metrics", *_analysis_args(spool, towers, out, flag, value)])
    assert rc == 2
    assert "re-run ingest" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_spool_refuses_a_moved_tower(tmp_path, capsys):
    cdr, towers = _write_minimal_corpus(tmp_path)
    spool = tmp_path / "spool"
    assert main(["ingest", "--cdr", str(cdr), "--towers", str(towers),
                 "--out", str(spool)]) == 0
    # the spool indexes towers by position in the table it was built with
    moved = tmp_path / "moved.csv"
    moved.write_text(towers.read_text().replace("t2,40.1,20.1", "t2,40.1,20.2"))
    out = tmp_path / "metrics"
    rc = main(["metrics", *_analysis_args(spool, moved, out)])
    assert rc == 2
    assert "towers_digest" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_spool_refuses_the_csv_format(tmp_path, capsys):
    # a format-1 spool: events as CSV rows next to a meta.json
    cdr, towers = _write_minimal_corpus(tmp_path)
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "events.csv").write_text("a,b,1204365600,t1,call,out\nb,a,1204365600,t2,call,out\n")
    (spool / "meta.json").write_text(
        '{"analysis_year": 2008, "reciprocity": "pair", "format": 1}\n')
    out = tmp_path / "metrics"
    rc = main(["metrics", *_analysis_args(spool, towers, out)])
    assert rc == 2
    assert "re-run ingest" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def _edit_stats(**changes):
    """A damage that rewrites stats.json with some values changed; a
    callable value maps the old value to the new one."""
    def damage(spool):
        stats = json.loads((spool / "stats.json").read_text())
        for key, value in changes.items():
            stats[key] = value(stats.get(key)) if callable(value) else value
        (spool / "stats.json").write_text(json.dumps(stats))
    return damage


def _edit_events(column, change):
    """A damage that rewrites events.npz with change(values) in place of
    one column's values; the ids are given as a list of strings."""
    def damage(spool):
        with np.load(spool / "events.npz") as z:
            arrays = dict(z)
        if column == "ids":
            ids = arrays["ids"].tobytes().decode().split("\0")
            arrays["ids"] = np.frombuffer("\0".join(change(ids)).encode(), dtype=np.uint8)
        else:
            arrays[column] = change(arrays[column])
        np.savez(spool / "events.npz", **arrays)
    return damage


# a damaged spool file -> (the file named in the error, how to damage it)
_SPOOL_DAMAGE = {
    "events_ids_descend": ("events.npz", _edit_events("ids", lambda ids: ids[::-1])),
    # the first segment's events, of a and one per day, in reverse
    "events_ts_descend": ("events.npz", _edit_events(
        "ts", lambda ts: np.r_[ts[len(_DAYS) - 1::-1], ts[len(_DAYS):]])),
    "events_ts_past_the_year": ("events.npz", _edit_events(
        "ts", lambda ts: np.r_[ts[:-1], ts[-1] + 400 * 86400])),
    "events_kind_9": ("events.npz", _edit_events("kind", lambda k: np.r_[k[:-1], 9])),
    "events_direction_2": ("events.npz", _edit_events("direction", lambda d: np.r_[2, d[1:]])),
    # a column of another dtype than write_spool writes
    "events_ts_float": ("events.npz", _edit_events("ts", lambda ts: ts.astype(float) + 0.5)),
    "events_tower_float": ("events.npz", _edit_events("tower", lambda t: t.astype(float))),
    "events_offsets_float": ("events.npz", _edit_events("offsets", lambda o: o.astype(float))),
    "events_kind_float": ("events.npz", _edit_events("kind", lambda k: k.astype(float))),
    "no_stats": ("stats.json", lambda spool: (spool / "stats.json").unlink()),
    "meta_not_json": ("meta.json", lambda spool: (spool / "meta.json").write_text("{format: 3")),
    "stats_unknown_key": ("stats.json", _edit_stats(rows_skipped=0)),
    "stats_count_not_int": ("stats.json", _edit_stats(rows_read="many")),
    "stats_count_negative": ("stats.json", _edit_stats(individuals_removed=-5)),
    "stats_count_float": ("stats.json", _edit_stats(events_valid=20.0)),
    "stats_count_bool": ("stats.json", _edit_stats(individuals_seen=True)),
    "stats_rejects_not_a_map": ("stats.json", _edit_stats(rows_rejected=[["bad_time", 1]])),
    "stats_reject_count_negative": ("stats.json", _edit_stats(rows_rejected={"bad_time": -1})),
    "stats_events_disagree": ("stats.json", _edit_stats(events_kept=lambda n: n + 1)),
    "stats_individuals_disagree": ("stats.json", _edit_stats(individuals_kept=lambda n: n - 1)),
}


@pytest.mark.parametrize("damage", sorted(_SPOOL_DAMAGE))
def test_spool_with_a_damaged_file_is_refused(tmp_path, capsys, damage):
    # without its stats.json the funnel would read zeros next to real homes;
    # night events and a set night window let the intact spool report
    cdr, towers = _write_minimal_corpus(tmp_path, hour="03:00:00")
    spool = tmp_path / "spool"
    assert main(["ingest", "--cdr", str(cdr), "--towers", str(towers),
                 "--out", str(spool)]) == 0
    night = ("--night-window", "00:00-06:00")
    assert main(["report", *_analysis_args(spool, towers, tmp_path / "intact", *night)]) == 0
    capsys.readouterr()
    name, damage_fn = _SPOOL_DAMAGE[damage]
    damage_fn(spool)
    out = tmp_path / "report"
    rc = main(["report", *_analysis_args(spool, towers, out, *night)])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("form", ["plain", "bom", "quoted_tail"])
def test_the_manifest_takes_the_cdr_digest_from_ingest(tmp_path, capsys, form):
    # ingest hashes each block it reads, so the manifest does not read the
    # file again, quoted lines or not
    cdr, towers = _write_minimal_corpus(tmp_path, hour="03:00:00")
    data = cdr.read_bytes()
    if form == "bom":
        data = b"\xef\xbb\xbf" + data
    elif form == "quoted_tail":
        head, tail = data.split(b"\n", 5)[:5], data.split(b"\n", 5)[5]
        data = b"\n".join(head + [b'"' + tail.replace(b",", b'",', 1)])
    cdr.write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    with mock.patch.object(ingest, "_BLOCK_BYTES", 64), \
            mock.patch.object(pipeline, "_sha256", wraps=pipeline._sha256) as hashed:
        assert main(["ingest", *_analysis_args(cdr, towers, tmp_path / "spool")]) == 0
        assert main(["report", *_analysis_args(cdr, towers, tmp_path / "report",
                                               "--night-window", "00:00-06:00")]) == 0
    for out in ("spool", "report"):
        with open(tmp_path / out / "manifest.json", encoding="utf-8") as fh:
            assert json.load(fh)["inputs"]["cdr"]["sha256"] == digest
    reread = [c for c in hashed.call_args_list if c.args == (str(cdr),)]
    assert len(reread) == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_the_manifest_gives_the_threads_that_parsed(tmp_path, capsys, force_workers, workers):
    # it gave --threads, which no stage read
    cdr, towers = _write_minimal_corpus(tmp_path, hour="03:00:00")
    force_workers(workers)
    night = ("--night-window", "00:00-06:00", "--threads", "8")
    with mock.patch.object(ingest, "_BLOCK_BYTES", 64):
        assert main(["ingest", *_analysis_args(cdr, towers, tmp_path / "spool")]) == 0
        for src in ("cdr", "spool"):
            path = cdr if src == "cdr" else tmp_path / "spool"
            assert main(["report", *_analysis_args(path, towers, tmp_path / src, *night)]) == 0
            with open(tmp_path / src / "manifest.json", encoding="utf-8") as fh:
                assert json.load(fh)["threads"] == (workers if src == "cdr" else 1)
    capsys.readouterr()


def test_stage_timings_are_exclusive(small_corpus, tmp_path):
    corpus, truth = small_corpus
    pipe = corpus_pipeline(corpus, truth)
    t0 = time.perf_counter()
    outputs = write_outputs(pipe, tmp_path, set(STAGE_OUTPUTS), plot_data=True)
    write_manifest(pipe, tmp_path, outputs, command="report")
    wall = time.perf_counter() - t0
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    timings = manifest["timings_s"]
    assert "ingest" in timings and "profile" in timings
    # the peak RSS once each stage and write was done, which never falls
    rss = manifest["rss_mib"]
    assert rss.keys() == timings.keys()
    # the resident size once each stage and write was done, at most the
    # peak; left out where /proc/self/statm cannot be read
    end = manifest["rss_end_mib"]
    if os.access("/proc/self/statm", os.R_OK):
        assert end.keys() == timings.keys()
    else:
        assert not end
    assert all(0 < end[k] <= rss[k] for k in end)
    # inclusive time adds the nested stages back, so it is never less
    inclusive = manifest["inclusive_s"]
    assert inclusive.keys() == timings.keys()
    assert all(inclusive[k] >= timings[k] for k in timings)
    # the first write pulls in towers, ingest, steps and profile; each
    # value is rounded to the millisecond on its own
    nested = ("towers", "ingest", "steps", "profile", "write_profile")
    assert inclusive["write_profile"] >= sum(timings[k] for k in nested) - 0.0005 * len(nested)
    assert 0 < rss["towers"] <= rss["ingest"] <= rss["write_summary"] <= rss["write_plotdata"]
    # one timed write per output (plot data counts as one)
    assert {k for k in timings if k.startswith("write_")} == {
        f"write_{s}" for s in [*STAGE_OUTPUTS, "plotdata"]}
    # each stage is rounded to the millisecond; stages pulled in by a
    # write count once
    assert sum(timings.values()) <= wall + 0.001 * len(timings)
    # writes are not cached: asking again writes again
    os.unlink(tmp_path / "homes.csv")
    assert write_outputs(pipe, tmp_path, {"homes"}) == {"homes.csv": outputs["homes.csv"]}
    assert (tmp_path / "homes.csv").exists()


def test_zero_level_series_is_left_out(tmp_path, capsys):
    # four individuals, each always at their own tower: nobody ever moves,
    # so every monthly mobility median is zero and that series cannot be
    # normalized; everything else is still reported
    towers = tmp_path / "towers.csv"
    towers.write_text("t1,40.0,20.0\nt2,40.3,20.3\nt3,40.6,20.6\nt4,40.9,20.9\n")
    rows = []
    for m in range(1, 13):
        for a, b in (("a", "b"), ("c", "d")):
            for hour in ("02:00:00", "14:00:00"):
                rows.append(f"{a},{b},2008-{m:02d}-10T{hour},t{ord(a) - 96},call,out\n")
                rows.append(f"{b},{a},2008-{m:02d}-11T{hour},t{ord(b) - 96},call,out\n")
    cdr = tmp_path / "cdr.csv"
    cdr.write_text("".join(rows))
    out = tmp_path / "out"
    rc = main(["report", *_analysis_args(cdr, towers, out, "--night-window", "01:00-07:00")])
    assert rc == 0, capsys.readouterr().err
    with open(out / "patterns.csv", newline="", encoding="utf-8") as fh:
        series = {tuple(r[:4]) for r in list(csv.reader(fh))[1:]}
    with open(out / "grid.csv", newline="", encoding="utf-8") as fh:
        areas = {r["area_class"] for r in csv.DictReader(fh)}
    want = {
        ("all", "dow", "activity", "mean"),
        ("all", "hour", "activity", "mean"),
        ("all", "month", "activity", "mean"),
        ("all", "month", "mobility", "mean"),
        ("all", "month", "activity", "normalized_median"),
    }
    for a in areas:
        want |= {(f"area{a}", "month", "activity", s) for s in ("mean", "normalized_median")}
    assert series == want


def test_report_is_invariant_under_row_order(small_corpus, tmp_path, capsys):
    corpus, truth = small_corpus
    with open(os.path.join(corpus, "cdr.csv"), encoding="utf-8") as fh:
        header, *rows = fh.readlines()
    flags = ["--towers", os.path.join(corpus, "towers.csv"),
             "--demographics", os.path.join(corpus, "demographics.csv"),
             "--area-bounds", ",".join(str(b) for b in truth.area_boundaries),
             "--plot-data"]
    base = tmp_path / "base"
    assert main(["report", "--cdr", os.path.join(corpus, "cdr.csv"), *flags,
                 "--out", str(base)]) == 0
    names = sorted(
        os.path.relpath(os.path.join(r, f), base)
        for r, _, fs in os.walk(base) for f in fs if f != "manifest.json"
    )
    rng = random.Random(2008)
    for k in range(2):
        rng.shuffle(rows)
        cdr = tmp_path / f"shuffled{k}.csv"
        cdr.write_text(header + "".join(rows), encoding="utf-8")
        out = tmp_path / f"out{k}"
        assert main(["report", "--cdr", str(cdr), *flags, "--out", str(out)]) == 0
        got = sorted(
            os.path.relpath(os.path.join(r, f), out)
            for r, _, fs in os.walk(out) for f in fs if f != "manifest.json"
        )
        assert got == names
        for name in names:
            assert filecmp.cmp(base / name, out / name, shallow=False), (k, name)
    capsys.readouterr()


def test_summary_funnel_adds_up(small_corpus, tmp_path, capsys):
    corpus, truth = small_corpus
    # a few defective rows, so that every step of the funnel is exercised
    cdr = tmp_path / "cdr.csv"
    with open(os.path.join(corpus, "cdr.csv"), encoding="utf-8") as fh:
        cdr.write_text(
            fh.read()
            + "x1,x2,2008-13-45T10:00:00,T001,call,out\n"
            + "x1,x1,2008-05-01T10:00:00,T001,call,out\n"
            + "x1,x2,2008-05-01T10:00:00,nowhere,call,out\n",
            encoding="utf-8",
        )
    out = tmp_path / "out"
    assert main(["report", "--cdr", str(cdr),
                 "--towers", os.path.join(corpus, "towers.csv"),
                 "--demographics", os.path.join(corpus, "demographics.csv"),
                 "--area-bounds", ",".join(str(b) for b in truth.area_boundaries),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    f = summary["funnel"]
    assert f["rows_rejected"] == {"bad_timestamp": 1, "self_call": 1, "unknown_tower": 1}
    assert f["events_filtered"] > 0 and f["individuals_removed"] > 0
    assert f["events_kept"] == (
        f["rows_read"] - sum(f["rows_rejected"].values()) - f["events_filtered"]
    )
    assert f["events_kept"] == summary["ingest"]["events_kept"]
    assert f["individuals_kept"] == summary["ingest"]["individuals_kept"]
    assert f["homed"] == summary["homes"]["with_home"]
    assert f["at_sea"] == summary["homes"]["at_sea"]
    assert f["gridded"] == summary["grid"]["residents"] <= f["homed"]
    assert f["residents_by_class"] == {a: summary["areas"][a]["residents"] for a in "12345"}
    assert f["demographics_rejected"] == {}


def test_log_level_writes_progress_to_stderr_only(small_corpus, tmp_path, capsys):
    corpus, truth = small_corpus
    argv = ["report", "--cdr", os.path.join(corpus, "cdr.csv"),
            "--towers", os.path.join(corpus, "towers.csv"),
            "--area-bounds", ",".join(str(b) for b in truth.area_boundaries),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert main([*argv, "--log-level", "info"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert "ingest:" not in quiet.err
    assert "INFO cdrmob.ingest: ingest:" in loud.err
    assert main([*argv, "--log-level", "loud"]) == 1


# ------------------------------------------------ command-line property

# Values of each flag, the first one valid, mixed with out-of-range,
# negative, empty and non-numeric ones. A value that starts with @ names a
# path in the directory of the minimal corpus ("@" the directory itself).
_OUTS = ["@out", "@out/deep/er", "@", "@cdr.csv", "@cdr.csv/sub", ""]
_ANALYSIS_FLAGS = {
    "--cdr": ["@cdr.csv", "@towers.csv", "@", "@missing"],
    "--towers": ["@towers.csv", "@cdr.csv", "@", "@missing"],
    "--demographics": ["@missing", "@cdr.csv", "@"],
    "--year": ["2008", "2010", "0", "-5", "9999", "", "abc"],
    "--grid-step": ["0.05", "1", "0", "-1", "nan", "1e300", "", "x"],
    "--window": ["year", "month", "day", "decade", "", "2008-03-01/2008-02-01",
                 "2008-01-01/2008-12-31"],
    "--night-window": ["01:00-07:00", "23:30-05:00", "25:00-07:00", "01:00-01:00", "", "1-7"],
    "--area-bounds": ["1,2,3,4", "30,100,1000,10000", "5,4,3,2", "1,2", "", "a,b,c,d", "-1,0,1,2"],
    "--divisor": ["events", "pairs", "", "rows"],
    "--reciprocity": ["pair", "degree", "none", "", "all"],
    "--threads": ["1", "0", "-2", "", "two"],
}
_GRAMMAR = {
    **{name: _ANALYSIS_FLAGS for name in cli._STAGE_COMMANDS},
    "ingest": {k: _ANALYSIS_FLAGS[k] for k in ("--cdr", "--towers", "--year", "--reciprocity")},
    "generate": {"--n": ["60", "50", "0", "-1", "", "2.5"], "--cells": ["5", "0", "-3", "", "x"],
                 "--seed": ["1", "-1", "", "s"], "--threads": _ANALYSIS_FLAGS["--threads"],
                 "--gen-config": ["@gen.json", "@big.json", "@missing", "@cdr.csv"]},
    "validate": {"--corpus": ["@", "@missing", "@cdr.csv"],
                 "--reciprocity": _ANALYSIS_FLAGS["--reciprocity"]},
    "demo": {"--n": ["450", "50", "0", "-1", "", "many"], "--seed": ["7", "-1", "", "s"]},
}
# flags that are always given: each input, --out, and --n, whose default
# would make a corpus of thousands
_ALWAYS = {"--out", "--cdr", "--towers", "--corpus", "--n"}


@st.composite
def _command_lines(draw):
    """A subcommand, then each of its flags: given its valid value eight
    times in ten and any value otherwise; a flag not in _ALWAYS is left out
    six times in ten."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    for flag, values in {"--out": _OUTS, **_GRAMMAR[command]}.items():
        if flag in _ALWAYS or draw(st.integers(0, 9)) >= 6:
            valid = draw(st.integers(0, 9)) < 8
            argv += [flag, values[0] if valid else draw(st.sampled_from(values))]
    return argv


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_command_lines())
def test_any_command_line_exits_0_1_or_2_and_a_failure_changes_nothing(tmp_path, argv):
    with tempfile.TemporaryDirectory(dir=tmp_path) as d:
        root = pathlib.Path(d)
        _write_minimal_corpus(root)
        (root / "gen.json").write_text(json.dumps({"n_individuals": 60, "n_cells": 5}))
        (root / "big.json").write_text(json.dumps({"base_daily_events": 1e300}))
        argv = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
        before = _tree(root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        assert not list(root.rglob(".cdrmob-*")), argv
        if rc:
            assert _tree(root) == before, argv


# ---------------------------------------------------- edits of the inputs

_INPUTS = (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE)
# edits after which csv.reader and the parsers see the same records
_SAME_RECORDS = ("bom", "crlf", "quote_field", "token_case", "pad", "space_t")
_EDITS = _SAME_RECORDS + ("stray_quote", "nul", "not_utf8", "truncate", "repeat_header",
                          "long_id")
# the columns of each file that hold tokens, and of the CDR its timestamps
_TOKEN_COLUMNS = {CDR_FILE: (4, 5), TOWERS_FILE: (), DEMOGRAPHICS_FILE: (1,)}


def _edit(data: bytes, name: str, edit: str, line: int, at: int) -> bytes:
    """An input file's bytes with one edit applied: at its line `line`
    (modulo the line count; 0 is the header) and, where the edit inserts,
    at byte `at` of that line (modulo its length plus one)."""
    lines = data.split(b"\n")[:-1]
    k = line % len(lines)
    at %= len(lines[k]) + 1

    def each_line(fix):
        return b"".join(fix(row.split(b",")) + b"\n" for row in lines)

    def cells(fix, row):
        return b",".join(fix(j, f) for j, f in enumerate(row))

    if edit == "bom":
        return b"\xef\xbb\xbf" + data
    if edit == "crlf":
        return data.replace(b"\n", b"\r\n")
    if edit == "token_case":
        columns = _TOKEN_COLUMNS[name]
        return each_line(lambda row: cells(lambda j, f: f.upper() if j in columns else f, row))
    if edit == "space_t":
        if name != CDR_FILE:
            return data
        return each_line(lambda row: cells(lambda j, f: f[:10] + b" " + f[11:] if j == 2 else f,
                                           row))
    if edit == "truncate":
        return data[: len(data) - 1 - line % len(lines[-1])]
    row = lines[k].split(b",")
    lines[k] = {
        "quote_field": lambda: cells(lambda j, f: b'"%s"' % f if j == at % len(row) else f, row),
        "pad": lambda: cells(lambda j, f: b" " + f + b"  ", row),
        "stray_quote": lambda: lines[k][:at] + b'"' + lines[k][at:],
        "nul": lambda: lines[k][:at] + b"\0" + lines[k][at:],
        "not_utf8": lambda: lines[k][:at] + b"\xff" + lines[k][at:],
        "repeat_header": lambda: lines[0] + b"\n" + lines[k],
        "long_id": lambda: cells(lambda j, f: b"x" * 10_000 if j == 0 else f, row),
    }[edit]()
    return b"".join(row + b"\n" for row in lines)


@pytest.fixture(scope="module")
def edit_corpus(tmp_path_factory):
    """The inputs of a small corpus, its area bounds and its report."""
    root = tmp_path_factory.mktemp("edit_corpus")
    generate(GenConfig(n_individuals=200, n_cells=40, base_daily_events=0.05, seed=42), root)
    truth = GroundTruth.from_json(root / TRUTH_FILE)
    inputs = {name: (root / name).read_bytes() for name in _INPUTS}
    bounds = ",".join(str(b) for b in truth.area_boundaries)
    rc, err, report = _report_of(inputs, root / "edited", bounds)
    assert rc == 0, err
    return inputs, bounds, report


def _report_of(inputs: dict, root, bounds: str) -> tuple[int, str, dict]:
    """The exit code, stderr and files of a report on these input bytes."""
    root.mkdir()
    for name, data in inputs.items():
        (root / name).write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["report", "--cdr", str(root / CDR_FILE), "--towers", str(root / TOWERS_FILE),
                   "--demographics", str(root / DEMOGRAPHICS_FILE), "--area-bounds", bounds,
                   "--out", str(root / "report")])
    return rc, err.getvalue(), _outputs(root / "report") if rc == 0 else {}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(_INPUTS), edit=st.sampled_from(_EDITS),
       line=st.integers(0, 10_000), at=st.integers(0, 100))
# a quote at the start of the CDR's first row made the rest of the file
# one field, longer than csv.reader's limit: a traceback
@example(name=CDR_FILE, edit="stray_quote", line=1, at=0)
def test_an_edited_input_exits_0_or_2_and_the_funnel_adds_up(edit_corpus, tmp_path, name, edit,
                                                             line, at):
    inputs, bounds, report = edit_corpus
    edited = {**inputs, name: _edit(inputs[name], name, edit, line, at)}
    with tempfile.TemporaryDirectory(dir=tmp_path) as d:
        rc, err, got = _report_of(edited, pathlib.Path(d) / "run", bounds)
    assert rc in (0, 2) and "Traceback" not in err, err
    if rc == 0:
        summary = json.loads(got["summary.json"])
        funnel = summary["funnel"]
        assert funnel["rows_read"] == summary["ingest"]["events_valid"] + sum(
            funnel["rows_rejected"].values())
    if edit in _SAME_RECORDS:
        assert rc == 0 and got == report, err
