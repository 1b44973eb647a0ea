"""Tests of the benchmark itself, on a tiny corpus.

    python3 -m pytest bench -q

They record reference digests for the tiny corpus into a temporary file,
so they never touch bench/reference.json.
"""

import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

TINY = run.Workload(
    {"n_individuals": 300, "n_cells": 30, "base_daily_events": 0.2},
    "tiny corpus for the benchmark's own tests",
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    reference = str(tmp_path / "reference.json")
    run.record("tiny", 3, reference=reference)
    return reference


def printed(result) -> tuple[str, dict]:
    out = io.StringIO()
    run.print_result("tiny", result, out=out)
    text = out.getvalue()
    return text, json.loads(text.splitlines()[-1])


def test_every_end_to_end_metric_prints_with_its_unit(tiny):
    result = run.measure("tiny", 3, 0, 0, reference=tiny)
    text, line = printed(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 1
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)
    for name, unit in run.END_TO_END_UNITS.items():
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0
        assert f"  {name} = " in text and f" {unit}" in text
    assert "failed_ops = 0.0000 share" in text


def test_every_per_layer_metric_prints_with_its_unit(tiny):
    result = run.measure("tiny", 3, 0, 1, reference=tiny)
    text, line = printed(result)
    assert line["correct"], result["problems"]
    assert set(line["metrics"]) == set(run.PER_LAYER_UNITS)
    for name, unit in run.PER_LAYER_UNITS.items():
        assert line["metrics"][name]["unit"] == unit
        assert isinstance(line["metrics"][name]["value"], (int, float)), name
        assert f"  {name} = " in text
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert line["attempted"] == 2
    assert m["metrics.rows_written"] == m["ingest.individuals_kept"]
    assert m["ingest.events_kept"] <= m["ingest.rows_read"]
    assert 0.95 < m["trace.coverage"] <= 1.0


def test_seed_argument_reaches_genconfig(tiny):
    assert run.gen_config("megarow", 7)["seed"] == 7
    assert run.gen_config("crowd", 7 + run.CORPUS_SEEDS)["seed"] == 7
    result = run.measure("tiny", 3, 0, 0, reference=tiny)
    assert result["corpus"]["config"]["seed"] == 3
    other = run.measure("tiny", 4, 0, 0, reference=tiny)
    assert other["corpus"]["config"]["seed"] == 4
    assert other["corpus"]["cdr_sha256"] != result["corpus"]["cdr_sha256"]
    # no digests were recorded for corpus seed 4, so its report cannot pass
    assert not other["correct"] and other["failed"] == 1


def test_corrupted_output_is_a_failed_operation_not_a_fast_one(tiny, monkeypatch):
    real = run.run_child

    def corrupting(name, argv, root, work, timeout):
        res = real(name, argv, root, work, timeout)
        if name == "report":
            path = os.path.join(work, "out", "metrics.csv")
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")
            fields = lines[1].split(b",")  # ego_id,window,activity,...
            fields[2] = str(int(fields[2]) + 1).encode()
            lines[1] = b",".join(fields)
            with open(path, "wb") as fh:
                fh.write(b"\n".join(lines))
        return res

    monkeypatch.setattr(run, "run_child", corrupting)
    result = run.measure("tiny", 3, 0, 0, reference=tiny)
    _, line = printed(result)
    assert not line["correct"]
    assert line["failed"] == 1 and line["attempted"] == 1
    assert line["metrics"]["wall_s"]["value"] is None
    assert any("metrics.csv" in p for p in result["problems"])
    assert any("activity sums to" in p for p in result["problems"])


def test_no_source_tree_is_an_error(tmp_path):
    with pytest.raises(run.BenchError):
        run.measure("megarow", 1, 1, 0, root=str(tmp_path))


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "run", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "a", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert run.self_times(spans) == {"run": 6.0, "a": 3.0, "b": 1.0}


def test_tail_reports_the_supported_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = run.tail([float(i) for i in range(1, 101)])
    assert label == "p90" and 90 <= value <= 91
