"""Traced, in-process run of one benchmark workload.

    python3 bench/trace_report.py SPEC.json

SPEC.json (written by bench/run.py) names the corpus, the report flags
and where to write. The script does the work of `cdrmob report` through
the package's public functions. It forces the `Pipeline` stage
properties in dependency order, so each span wraps one call into one
module and finds its inputs already cached. It then writes the outputs
one stage at a time with `write_outputs`.

Each span records its name, start, end and parent. Spans stay in memory
and are written to the spec's `trace_json` at the end, with the counts
the benchmark reports next to them.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict

# (span name, Pipeline property) in dependency order. A property a later
# version of the pipeline no longer has is skipped; its work then shows
# in whichever span computes it.
STAGES = (
    ("records.load_towers", "registry"),
    ("records.load_demographics", "demographics"),
    ("ingest.ingest_file", "ingest"),
    ("home.daily_profile", "activity_profile"),
    ("home.daily_profile", "mobility_profile"),
    ("home.fit_bimodal", "circadian_fit"),
    ("home.find_inactive_window", "night_window"),
    ("home.compute_homes", "homes"),
    ("home.night_event_counts", "night_counts"),
    ("home.flag_at_sea", "at_sea"),
    ("metrics.engines", "engines"),
    ("metrics.year_rows", "year_rows"),
    ("density.build_density", "grid_density"),
    ("density.classify_areas", "labels"),
    ("density.ego_areas", "ego_area"),
    ("density.correlations", "correlations"),
    ("density.correlations", "bands"),
    ("density.correlations", "ranksize"),
    ("density.area_summary", "area_table"),
    ("patterns.pattern", "patterns_bundle"),
    ("patterns.demographic_table", "strata"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from cdrmob.metrics import WindowSpec
    from cdrmob.pipeline import (
        STAGE_OUTPUTS,
        AnalysisConfig,
        Pipeline,
        write_manifest,
        write_outputs,
    )

    tr = Tracer()
    with tr.span("cmd.report"):
        cfg = AnalysisConfig(
            analysis_year=spec["year"],
            grid_step=spec["grid_step"],
            window=WindowSpec("year"),
            area_boundaries=tuple(spec["area_bounds"]),
        )
        pipe = Pipeline(
            spec["cdr"], spec["towers"], spec["demographics"], cfg, threads=spec["threads"]
        )
        for name, prop in STAGES:
            if not hasattr(Pipeline, prop):
                continue
            with tr.span(name):
                getattr(pipe, prop)
            if prop == "ingest":
                ingest_rss_mib = peak_rss_mib()
        outputs = {}
        for stage in STAGE_OUTPUTS:
            name = "metrics.write_metrics_csv" if stage == "metrics" else "pipeline.writers"
            with tr.span(name):
                outputs.update(write_outputs(pipe, spec["out"], {stage}))
        with tr.span("pipeline.writers"):
            write_manifest(pipe, spec["out"], outputs, command="report")
    homes = pipe.homes
    return {
        "spans": tr.spans,
        "ingest_rss_mib": ingest_rss_mib,
        "ingest_stats": asdict(pipe.ingest.stats),
        "individuals": len(homes),
        "with_home": sum(1 for h in homes.values() if h is not None),
        "inhabited_cells": len(pipe.grid_density),
        "peak_rss_mib": peak_rss_mib(),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    doc = run(spec)
    with open(spec["trace_json"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
