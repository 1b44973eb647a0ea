"""Exit codes, stage composability and failure cleanup for the CLI.

Everything runs in-process through main(argv); the acceptance suite
already exercises the installed entry point in subprocesses.
"""

import csv
import filecmp
import json
import os
import random
import time

from unittest import mock

import pytest

from conftest import _make_pipeline

from cdrmob import ingest
from cdrmob.cli import main
from cdrmob.pipeline import STAGE_OUTPUTS, write_manifest, write_outputs
from cdrmob.synth import CDR_FILE, DEMOGRAPHICS_FILE, TOWERS_FILE, GenConfig, generate

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
        ["metrics", *_analysis_args(cdr, towers, out, "--area-bounds", "5,4,3,2")],
        ["metrics", *_analysis_args(cdr, towers, out, "--area-bounds", "1,2,3")],
        ["generate", "--out", str(out), "--n", "10", "--cells", "50"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "usage error" in capsys.readouterr().err


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


def test_outputs_do_not_depend_on_the_block_size(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    truth = generate(GenConfig(n_individuals=200, n_cells=40, base_daily_events=0.05, seed=42),
                     corpus, threads=1)
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


def test_validate_flags_an_unfiltered_corpus(small_corpus, capsys):
    corpus, _ = small_corpus
    assert main(["validate", "--corpus", str(corpus), "--threads", "2"]) == 0
    ok_out = capsys.readouterr().out
    assert "all checks passed" in ok_out and "FAIL" not in ok_out

    rc = main(["validate", "--corpus", str(corpus), "--threads", "2",
               "--reciprocity", "none"])
    captured = capsys.readouterr()
    assert rc == 2
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


# a damaged spool file -> (the file named in the error, how to damage it)
_SPOOL_DAMAGE = {
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
    # without its stats.json the funnel would read zeros next to real homes
    cdr, towers = _write_minimal_corpus(tmp_path)
    spool = tmp_path / "spool"
    assert main(["ingest", "--cdr", str(cdr), "--towers", str(towers),
                 "--out", str(spool)]) == 0
    name, damage_fn = _SPOOL_DAMAGE[damage]
    damage_fn(spool)
    out = tmp_path / "report"
    rc = main(["report", *_analysis_args(spool, towers, out)])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_stage_timings_are_exclusive(small_corpus, tmp_path):
    corpus, truth = small_corpus
    pipe = _make_pipeline(corpus, truth)
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
