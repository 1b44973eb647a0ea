"""Benchmark of the cdrmob command line on seeded synthetic corpora.

Run from any directory of a checkout:

    python3 bench/run.py --workload megarow --seed 3 --seconds 10 --trace 0

One run does three things.

1. Set-up: it generates the workload's corpus with `synth.generate`, three
   times, and reports the median as `setup_s`.
2. Timed commands: it runs `cdrmob report` on the corpus as a fresh child
   process, from this checkout's `src/`, until the summed wall time
   reaches `--seconds` (at least once). Each child is reaped with
   `os.wait4`, so its CPU time and peak RSS are its own.
3. Checks: every output except `manifest.json` must match the digests
   recorded at the seed commit in `bench/reference.json`, and the outputs
   must meet invariants that hold for any seed. A command that exits
   non-zero or fails a check counts as failed, and its time is not used.

With `--trace 1` it also runs the same work once in a traced child process
(`bench/trace_report.py`) and reports per-layer numbers instead of the
end-to-end ones.

`--seed` picks the corpus: GenConfig.seed is `--seed` modulo
CORPUS_SEEDS, because byte-identity needs a reference digest recorded for
each corpus. `--record` runs `report` once and stores those digests.

Every metric is printed by name and unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Details (environment, corpus, samples, spans) go to
`.bench_work/results/` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

THREADS = 2
SETUP_REPEATS = 3
CORPUS_SEEDS = 10
BUDGET_S = 165.0  # a run must end within 180 s
EXIT_ERROR = 2


@dataclass(frozen=True)
class Workload:
    gen: dict  # GenConfig fields besides the seed
    why: str


# Why these two: megarow is row-heavy (the per-row CSV parse dominates,
# ROADMAP item 2) and crowd is individual-heavy (per-individual objects and
# passes dominate, ROADMAP item 3). A third workload, replay (2500
# individuals: `ingest` to a spool, then `report --window day` from it), was
# dropped: on a shared 2-core machine its wall time spread 0.19-0.27
# (interquartile range over median, ten seeds) against a largest allowed
# bound of 0.25.
WORKLOADS = {
    "megarow": Workload(
        {"n_individuals": 5000, "base_daily_events": 0.45},
        "1.06M rows, about 220 per person: ingest's per-row CSV parse does most of the work",
    ),
    "crowd": Workload(
        {"n_individuals": 20000, "base_daily_events": 0.05},
        "513k rows, about 24 per person, half without a home: per-individual passes dominate",
    ),
}


END_TO_END_UNITS = {
    "wall_s": "s", "rows_per_s": "rows/s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s",
}

# Per-layer metrics: span self times (name + "_s") and the counts below.
SPAN_METRICS = (
    "records.load_towers", "records.load_demographics",
    "ingest.ingest_file",
    "home.daily_profile", "home.fit_bimodal", "home.find_inactive_window",
    "home.compute_homes", "home.night_event_counts", "home.flag_at_sea",
    "metrics.engines", "metrics.year_rows", "metrics.write_metrics_csv",
    "density.build_density", "density.classify_areas", "density.ego_areas",
    "density.correlations", "density.area_summary",
    "patterns.pattern", "patterns.demographic_table",
    "pipeline.writers",
)
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    "ingest.rows_per_s": "rows/s", "ingest.rss_mib": "MiB",
    "ingest.rows_read": "count", "ingest.rows_rejected": "count",
    "ingest.events_kept": "count", "ingest.individuals_kept": "count",
    "ingest.individuals_removed": "count", "ingest.keep_ratio": "ratio",
    "home.homed_ratio": "ratio",
    "metrics.rows_written": "count", "metrics.csv_mib": "MiB",
    "density.inhabited_cells": "count", "pipeline.output_mib": "MiB",
    "pipeline.manifest_timing_overcount": "ratio",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}

MIB = 1 << 20


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no reference)."""


# ------------------------------------------------------------ helpers


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def json_digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def count_lines(path) -> int:
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


def tree_mib(path) -> float:
    if os.path.isfile(path):
        return os.path.getsize(path) / MIB
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    ) / MIB


def corpus_seed(seed: int) -> int:
    return seed % CORPUS_SEEDS


def gen_config(workload: str, seed: int) -> dict:
    """GenConfig fields of the workload's corpus for this seed."""
    return {**WORKLOADS[workload].gen, "seed": corpus_seed(seed)}


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are too few samples for any."""
    n = len(samples)
    if n < 20:
        return "max", max(samples)
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def environment(root) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(root, "src")
    src_lines = sum(
        count_lines(os.path.join(d, f))
        for d, _, files in os.walk(src) for f in files if f.endswith(".py")
    )
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": src_lines,
    }


# ------------------------------------------------------- child processes


@dataclass
class CmdResult:
    name: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stderr: str = ""
    problems: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


def run_child(name, argv, root, work, timeout) -> CmdResult:
    """Run one child, reaped with wait4 so its rusage is its own."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    err_path = os.path.join(work, f"{name}.stderr")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=work)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()[-2000:]
    return CmdResult(name, rc, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, stderr)


def report_args(corpus: dict, out_dir) -> list[str]:
    """cdrmob report arguments, with the grid and area flags of the corpus."""
    cfg = corpus["config"]
    return [
        "report", "--cdr", corpus["cdr"], "--towers", corpus["towers"],
        "--demographics", corpus["demographics"], "--out", out_dir,
        "--threads", str(THREADS), "--grid-step", repr(cfg["grid_step"]),
        "--area-bounds", ",".join(str(b) for b in cfg["area_boundaries"]),
        "--window", "year", "--year", str(cfg["analysis_year"]),
    ]


# ---------------------------------------------------------------- checks


def check_invariants(out_dir) -> list[str]:
    """Seed-independent facts about a report: metric activity adds up to
    the kept events, homes.csv has one row per kept individual, and the
    grid holds no more residents than there are homes."""
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        kept = summary["ingest"]["events_kept"]
        individuals = summary["ingest"]["individuals_kept"]
        residents = summary["grid"]["residents"]
        with_home = summary["homes"]["with_home"]
        with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8") as fh:
            col = fh.readline().rstrip("\n").split(",").index("activity")
            activity = sum(int(line.split(",", col + 1)[col]) for line in fh)
        homes_rows = count_lines(os.path.join(out_dir, "homes.csv")) - 1
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        return [f"cannot read the report: {e!r}"]
    problems = []
    if activity != kept:
        problems.append(f"metrics.csv activity sums to {activity}, events_kept is {kept}")
    if homes_rows != individuals:
        problems.append(f"homes.csv has {homes_rows} rows, individuals_kept is {individuals}")
    if residents > with_home:
        problems.append(f"grid residents {residents} exceed with_home {with_home}")
    return problems


def digest_report(out_dir) -> dict:
    """What the reference records for one report directory."""
    files = sorted(f for f in os.listdir(out_dir) if f != "manifest.json")
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return {
        "outputs": {f: sha256_file(os.path.join(out_dir, f)) for f in files if f != "summary.json"},
        "summary": {k: json_digest(v) for k, v in summary.items()},
    }


def check_report(out_dir, ref: dict | None) -> list[str]:
    """Byte identity with the reference (summary.json only on the keys the
    reference has), then the invariants."""
    if ref is None:
        return ["no reference digests for this corpus"]
    problems = []
    for name, digest in ref["outputs"].items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name}: missing")
        elif sha256_file(path) != digest:
            problems.append(f"{name}: differs from the reference")
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as e:
        return problems + [f"summary.json: {e!r}"]
    for key, digest in ref["summary"].items():
        if key not in summary or json_digest(summary[key]) != digest:
            problems.append(f"summary.json[{key}]: differs from the reference")
    return problems + check_invariants(out_dir)


def load_reference(path, workload: str, seed: int) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(corpus_seed(seed)))


# ---------------------------------------------------------------- phases


def setup(workload: str, seed: int, root, work, repeats=SETUP_REPEATS) -> dict:
    """Generate the corpus `repeats` times in a child; the last copy is used."""
    spec_path = os.path.join(work, "generate_spec.json")
    result_path = os.path.join(work, "generate.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({
            "src": os.path.join(root, "src"),
            "config": gen_config(workload, seed),
            "out": os.path.join(work, "corpus"),
            "repeats": repeats,
            "threads": THREADS,
            "result_json": result_path,
        }, fh)
    argv = [sys.executable, os.path.join(BENCH_DIR, "generate.py"), spec_path]
    res = run_child("generate", argv, root, work, BUDGET_S)
    if res.rc != 0:
        raise BenchError(f"corpus generation failed: {res.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        corpus = json.load(fh)
    corpus["rows"] = count_lines(corpus["cdr"]) - 1
    corpus["individuals"] = corpus["config"]["n_individuals"]
    corpus["cdr_sha256"] = sha256_file(corpus["cdr"])
    return corpus


def timed_rep(corpus, paths, root, ref, deadline) -> CmdResult:
    """One timed `report` into a fresh output directory, then its check."""
    shutil.rmtree(paths["out"], ignore_errors=True)
    argv = [sys.executable, "-m", "cdrmob.cli", *report_args(corpus, paths["out"])]
    res = run_child("report", argv, root, paths["work"], deadline - time.monotonic())
    if res.rc == 0:
        res.problems = check_report(paths["out"], ref)
    return res


def end_to_end(corpus, reps: list[CmdResult]) -> tuple[dict, dict]:
    good = [r for r in reps if r.ok]
    samples = {"wall_s": [r.wall_s for r in good], "cpu_s": [r.cpu_s for r in good]}
    wall = statistics.median(samples["wall_s"]) if good else None
    values = {
        "wall_s": wall,
        "rows_per_s": corpus["rows"] / wall if good else None,
        "cpu_s": statistics.median(samples["cpu_s"]) if good else None,
        "peak_rss_mib": max(r.rss_mib for r in good) if good else None,
        "setup_s": statistics.median(corpus["setup_s"]),
    }
    samples["setup_s"] = corpus["setup_s"]
    return values, samples


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name: duration minus the children's."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def per_layer(trace: dict, rep: CmdResult, traced: CmdResult, paths) -> dict:
    """Layer metrics from the traced child's spans and counts, the files it
    wrote, and the untraced rep `rep` (its manifest and wall time)."""
    spans = trace["spans"]
    own = self_times(spans)
    report = next(s for s in spans if s["parent"] is None)
    layer_total = sum(v for k, v in own.items() if k in SPAN_METRICS)
    st = trace["ingest_stats"]
    with open(os.path.join(paths["out"], "manifest.json"), encoding="utf-8") as fh:
        timings = json.load(fh).get("timings_s", {})
    out = {f"{name}_s": own.get(name, 0.0) for name in SPAN_METRICS}
    metrics_csv = os.path.join(paths["trace_out"], "metrics.csv")
    out.update({
        "ingest.rows_per_s": st["rows_read"] / own["ingest.ingest_file"],
        "ingest.rss_mib": trace["ingest_rss_mib"],
        "ingest.rows_read": st["rows_read"],
        "ingest.rows_rejected": sum(st["rows_rejected"].values()),
        "ingest.events_kept": st["events_kept"],
        "ingest.individuals_kept": st["individuals_kept"],
        "ingest.individuals_removed": st["individuals_removed"],
        "ingest.keep_ratio": st["events_kept"] / st["rows_read"],
        "home.homed_ratio": trace["with_home"] / trace["individuals"],
        "metrics.rows_written": count_lines(metrics_csv) - 1,
        "metrics.csv_mib": tree_mib(metrics_csv),
        "density.inhabited_cells": trace["inhabited_cells"],
        "pipeline.output_mib": tree_mib(paths["trace_out"]),
        "pipeline.manifest_timing_overcount": sum(
            v for v in timings.values() if isinstance(v, (int, float))
        ) / (report["end"] - report["start"]),
        "trace.coverage": layer_total / (report["end"] - report["start"]),
        "trace.overhead_s": traced.wall_s - rep.wall_s,
    })
    return out


def traced_run(corpus, paths, root, ref, deadline) -> tuple[CmdResult, dict | None]:
    """The report's work in one traced child; its spans come back as JSON."""
    spec = {
        "src": os.path.join(root, "src"),
        "cdr": corpus["cdr"],
        "towers": corpus["towers"],
        "demographics": corpus["demographics"],
        "out": paths["trace_out"],
        "year": corpus["config"]["analysis_year"],
        "grid_step": corpus["config"]["grid_step"],
        "area_bounds": corpus["config"]["area_boundaries"],
        "threads": THREADS,
        "trace_json": os.path.join(paths["work"], "trace.json"),
    }
    spec_path = os.path.join(paths["work"], "trace_spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    argv = [sys.executable, os.path.join(BENCH_DIR, "trace_report.py"), spec_path]
    res = run_child("traced", argv, root, paths["work"], deadline - time.monotonic())
    if res.rc != 0:
        return res, None
    res.problems = check_report(paths["trace_out"], ref)
    with open(spec["trace_json"], encoding="utf-8") as fh:
        return res, json.load(fh)


# ------------------------------------------------------------------ main


@contextmanager
def workdir(root, tag):
    """A scratch directory in the checkout, removed afterwards, and the
    paths the commands write under it."""
    work = os.path.join(root, ".bench_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        paths = {name: os.path.join(work, name) for name in ("out", "trace_out")}
        paths["work"] = work
        yield paths
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, seed, seconds, trace, root=ROOT, reference=REFERENCE) -> dict:
    """One benchmark run; returns the result line plus details."""
    if not os.path.isfile(os.path.join(root, "src", "cdrmob", "cli.py")):
        raise BenchError(f"no cdrmob source tree under {root}")
    deadline = time.monotonic() + BUDGET_S
    with workdir(root, f"{workload}-s{seed}-t{trace}") as paths:
        ref = load_reference(reference, workload, seed)
        corpus = setup(workload, seed, root, paths["work"])
        problems = []
        if ref is not None and corpus["cdr_sha256"] != ref["cdr.csv"]:
            problems.append("cdr.csv: generated corpus differs from the reference")
        reps = []
        timed = 0.0
        while True:
            t0 = time.monotonic()
            reps.append(timed_rep(corpus, paths, root, ref, deadline))
            timed += reps[-1].wall_s
            spent = time.monotonic() - t0
            if trace or timed >= seconds or time.monotonic() + 1.5 * spent > deadline:
                break
        cmds = list(reps)
        values, samples = end_to_end(corpus, reps)
        result = {"samples": samples}
        if trace:
            traced, doc = traced_run(corpus, paths, root, ref, deadline)
            cmds.append(traced)
            if traced.ok and reps[0].ok:
                values = per_layer(doc, reps[0], traced, paths)
                result["trace"] = doc
            else:
                values = {}
        failed = [c for c in cmds if not c.ok]
        for c in failed:
            why = c.problems if c.rc == 0 else [f"exit {c.rc}: {c.stderr[-500:].strip()}"]
            problems.append(f"{c.name}: " + "; ".join(why))
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        result.update({
            "correct": not problems and all(values.get(k) is not None for k in units),
            "attempted": len(cmds),
            "failed": len(failed),
            "metrics": {k: {"value": values.get(k), "unit": u} for k, u in units.items()},
            "problems": problems,
            "corpus": {k: v for k, v in corpus.items() if k not in ("cdr", "towers", "demographics")},
            "commands": [dataclasses.asdict(c) for c in cmds],
            "environment": environment(root),
        })
        return result


def record(workload, seed, root=ROOT, reference=REFERENCE) -> dict:
    """Run the workload once and store its output digests as the reference
    for this corpus seed."""
    with workdir(root, f"record-{workload}-s{seed}") as paths:
        corpus = setup(workload, seed, root, paths["work"], repeats=1)
        rep = timed_rep(corpus, paths, root, None, time.monotonic() + 900)
        if rep.rc != 0:
            raise BenchError(f"report failed: {rep.stderr}")
        problems = check_invariants(paths["out"])
        if problems:
            raise BenchError("; ".join(problems))
        entry = {"cdr.csv": corpus["cdr_sha256"], **digest_report(paths["out"])}
    doc = {}
    if os.path.exists(reference):
        with open(reference, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault(workload, {})[str(corpus_seed(seed))] = entry
    tmp = f"{reference}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, reference)
    return entry


def print_result(workload, result, out=sys.stdout) -> None:
    print(f"workload {workload}: {result['attempted']} commands, {result['failed']} failed", file=out)
    attempted = result["attempted"]
    print(f"  failed_ops = {result['failed'] / attempted:.4f} share", file=out)
    for name, m in result["metrics"].items():
        line = f"  {name} = {m['value']!r} {m['unit']}"
        samples = result["samples"].get(name)
        if samples and m["unit"] == "s":
            label, value = tail(samples)
            line += f" (median of {len(samples)}; {label} {value:.4f})"
        print(line, file=out)
    print(f"  environment {json.dumps(result['environment'], sort_keys=True)}", file=out)
    corpus = {k: result["corpus"][k] for k in ("rows", "individuals", "cdr_sha256")}
    corpus["config"] = {k: result["corpus"]["config"][k] for k in ("n_individuals", "base_daily_events", "seed")}
    print(f"  corpus {json.dumps(corpus, sort_keys=True)}", file=out)
    for p in result["problems"]:
        print(f"  problem: {p}", file=out)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}), file=out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this corpus's output digests in reference.json")
    args = p.parse_args(argv)
    try:
        if args.record:
            entry = record(args.workload, args.seed)
            print(f"recorded {args.workload} corpus seed {corpus_seed(args.seed)}: "
                  f"{len(entry['outputs'])} files")
            return 0
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return EXIT_ERROR
    results_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_result(args.workload, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
