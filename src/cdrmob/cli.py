"""Command line front-end.

One subcommand per pipeline stage plus `report` (everything), `generate`
(synthetic corpus), `validate` (score a generated corpus against its
ground truth) and `demo` (generate + report in one go). Every analysis
run writes a manifest.json describing inputs, config and output digests.

Exit codes: 0 success, 1 usage error, 2 data error. A run publishes all
its files into --out or, when it fails, changes nothing there.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict

# An idle OpenBLAS worker, started by numpy's import, costs CPU time; a
# report's only BLAS call is home.fit_bimodal's 7-parameter fit. A value the
# caller set wins. Not in the package: a library import leaves os.environ be.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .density import DensityError
from .geo import GridSpec
from .home import UnimodalProfileError
from .ingest import (
    RECIPROCITY_RULES,
    SPOOL_EVENTS,
    SPOOL_META,
    SPOOL_STATS,
    ingest_file,
    write_spool,
)
from .metrics import GRANULARITIES, WindowSpec
from .patterns import PatternError
from .pipeline import (
    STAGE_OUTPUTS,
    AnalysisConfig,
    Pipeline,
    PipelineError,
    _sha256,
    check_ingest,
    input_digests,
    save_manifest,
    window_label,
    write_manifest,
    write_outputs,
)
from .records import (
    CdrError,
    _plain,
    load_towers,
    parse_timestamp,
    read_json_object,
    write_json,
    year_bounds,
)

_DATA_ERRORS = (
    CdrError,
    PipelineError,
    DensityError,
    UnimodalProfileError,
    PatternError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 1 here
        raise UsageError(message)


# ------------------------------------------------------------ flag parsing


def _parse_window(text: str) -> WindowSpec:
    if text in GRANULARITIES and text != "range":
        return WindowSpec(text)
    if "/" in text:
        lo, hi = text.split("/", 1)
        try:
            t0 = parse_timestamp(lo)
            t1 = parse_timestamp(hi)
        except CdrError as e:
            raise UsageError(f"bad --window range: {e}")
        return WindowSpec("range", t0, t1)  # refuses an end that is not after the start
    raise UsageError(
        f"--window must be one of {', '.join(g for g in GRANULARITIES if g != 'range')} "
        "or an ISO range START/END"
    )


def _parse_night_window(text: str) -> tuple[float, float]:
    hhmm = re.fullmatch(r"([0-9]{2}):([0-9]{2})-([0-9]{2}):([0-9]{2})", text)
    if not hhmm:
        raise UsageError("--night-window must look like HH:MM-HH:MM, in ASCII digits")
    h0, m0, h1, m1 = map(int, hhmm.groups())
    start, end = h0 + m0 / 60.0, h1 + m1 / 60.0
    if not (0 <= start < 24 and 0 < end <= 24):
        raise UsageError("--night-window hours out of range")
    if not (m0 < 60 and m1 < 60):
        raise UsageError("--night-window minutes must be 00-59")
    if start == end:
        raise UsageError("--night-window must not start where it ends")
    return (start, end)


def _number(parse, check=lambda value: None):
    """An argparse type: a plain ASCII number (records._plain) that parse
    reads and check, which raises a ValueError for a value out of range,
    takes. check runs first, so a NaN grid step is refused by its range."""
    def read(text: str):
        try:
            check(parse(text))
            return _plain(text, parse)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e))
    return read


def _parse_bounds(text: str) -> tuple[int, ...]:
    """Comma-separated integers; AnalysisConfig checks that they are ranks."""
    try:
        return tuple(_plain(p, int) for p in text.split(","))
    except ValueError:
        raise UsageError("--area-bounds must be four comma-separated integers")


def _analysis_config(args) -> AnalysisConfig:
    try:
        return AnalysisConfig(
            analysis_year=args.year,
            grid_step=args.grid_step,
            window=_parse_window(args.window),
            night_window=_parse_night_window(args.night_window) if args.night_window else None,
            area_boundaries=_parse_bounds(args.area_bounds),
            divisor=args.divisor,
            reciprocity=args.reciprocity,
        )
    except ValueError as e:
        raise UsageError(str(e))


def _out_dir(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must name a directory")
    return text


def _add_analysis_flags(p: _Parser):
    p.add_argument("--cdr", required=True, help="CDR csv file or spool directory")
    p.add_argument("--towers", required=True, help="tower csv (tower_id,lat,lon)")
    p.add_argument("--demographics", default=None, help="csv (ego_id,gender,age or birth year)")
    p.add_argument("--out", type=_out_dir, required=True, help="output directory")
    p.add_argument("--grid-step", type=_number(float, GridSpec), default=0.05,
                   help="grid cell size, degrees")
    p.add_argument("--window", default="year", help="metrics windows: granularity or ISO range START/END")
    p.add_argument("--area-bounds", default="30,100,1000,10000", help="rank boundaries r1,r2,r3,r4")
    p.add_argument("--night-window", default=None, help="override detection, HH:MM-HH:MM")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="accepted and ignored (bench/run.py passes it): ingest uses 2 at most")
    p.add_argument("--year", type=_number(int, year_bounds), default=2008,
                   help="analysis year, 1-9998")
    p.add_argument("--divisor", choices=("events", "pairs"), default="events",
                   help="mobility normalization")
    p.add_argument("--reciprocity", choices=RECIPROCITY_RULES, default="pair",
                   help="filter rule; none keeps everyone")


@contextmanager
def _published(out_dir):
    """Yield a new staging directory in out_dir, or in its nearest existing
    ancestor, so each move is a rename in one file system. When the body
    returns, and no staged file's destination exists as anything but a
    regular file, make out_dir and move every staged file there,
    manifest.json last. Either way remove the staging directory: a failed
    run leaves out_dir as it was."""
    base = out = os.path.abspath(out_dir)
    while not os.path.isdir(base):
        if os.path.lexists(base):
            raise UsageError(f"--out {out_dir}: {base} exists and is not a directory")
        base = os.path.dirname(base)

    stage = tempfile.mkdtemp(prefix=".cdrmob-", dir=base)
    try:
        yield stage
        # a directory whose manifest matches its files is complete
        names = sorted(os.listdir(stage), key=lambda name: name == "manifest.json")
        for name in names:
            dest = os.path.join(out, name)
            if os.path.lexists(dest) and not os.path.isfile(dest):
                raise PipelineError(f"cannot publish {dest}: it exists and is not a regular file")
        os.makedirs(out, exist_ok=True)
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(out, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_report(pipe: Pipeline, out_dir, stages, command: str) -> dict:
    with _published(out_dir) as stage:
        outputs = write_outputs(pipe, stage, stages)
        write_manifest(pipe, stage, outputs, command=command)
    return outputs


def _write_files(out_dir, names, command: str, write) -> None:
    """Publish the named files that write(staging directory) makes, and a
    manifest of their digests, time and the fields write returns; list them."""
    with _published(out_dir) as stage:
        t0 = time.perf_counter()
        fields = write(stage)
        outputs = {n: _sha256(os.path.join(stage, n)) for n in names}
        seconds = {command: round(time.perf_counter() - t0, 3)}
        save_manifest(stage, command, outputs, timings_s=seconds, inclusive_s=seconds, **fields)
    for n in names + ["manifest.json"]:
        print(os.path.join(out_dir, n))


# -------------------------------------------------------------- handlers


def _cmd_stages(args) -> int:
    """An analysis subcommand: write the outputs of its stages."""
    cfg = _analysis_config(args)
    pipe = Pipeline(args.cdr, args.towers, args.demographics, cfg)
    stages = _STAGE_COMMANDS[args.command][0]
    outputs = _write_report(pipe, args.out, stages, args.command)
    for rel in sorted(outputs):
        print(os.path.join(args.out, rel))
    return 0


# analysis subcommand -> (stages it writes, help)
_STAGE_COMMANDS = {
    "homes": ({"profile", "window", "homes"},
              "daily profile, rhythm fit, inactivity window, home locations"),
    "metrics": ({"metrics"}, "per-individual activity, mobility and gyration radius"),
    "density": ({"grid"}, "population grid from detected homes"),
    "areas": ({"grid", "areas"}, "grid plus density-class table"),
    "correlate": ({"correlations"}, "density vs metric rank correlations by band"),
    "patterns": ({"patterns", "strata"}, "temporal patterns and demographic strata"),
    "report": (set(STAGE_OUTPUTS), "full pipeline with summary"),
}


def _cmd_ingest(args) -> int:
    def write(stage):
        registry = load_towers(args.towers)
        result = ingest_file(args.cdr, registry, analysis_year=args.year,
                             reciprocity=args.reciprocity)
        check_ingest(result)
        write_spool(result, registry, stage)
        return {"inputs": input_digests({"cdr": result.sha256}, cdr=args.cdr, towers=args.towers),
                "ingest_stats": asdict(result.stats)}

    _write_files(args.out, [SPOOL_EVENTS, SPOOL_STATS, SPOOL_META], "ingest", write)
    return 0


def _generate(settings: dict, out_dir):
    """The GenConfig of these settings, its corpus generated into out_dir.
    Settings that GenConfig, or the generator's check of the event rates
    they give, refuses are a usage error."""
    # synth is imported by the commands that use it: a report does not
    from .synth import GenConfig, RateError, generate

    try:
        cfg = GenConfig.from_dict(settings)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad generator config: {e}")
    try:
        generate(cfg, out_dir)
    except RateError as e:
        raise UsageError(f"bad generator config: {e}")
    return cfg


def _cmd_generate(args) -> int:
    from .synth import CDR_FILE, CONFIG_FILE, DEMOGRAPHICS_FILE, TOWERS_FILE, TRUTH_FILE

    settings = read_json_object(args.gen_config, "--gen-config") if args.gen_config else {}
    for key, value in (("n_individuals", args.n), ("n_cells", args.cells), ("seed", args.seed)):
        if value is not None:
            settings[key] = value

    def write(stage):
        return {"config": asdict(_generate(settings, stage))}

    _write_files(args.out, [CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE, TRUTH_FILE, CONFIG_FILE],
                 "generate", write)
    return 0


def _cmd_validate(args) -> int:
    from .synth import validate_corpus

    with _published(args.out) if args.out else nullcontext() as stage:
        card = validate_corpus(args.corpus, reciprocity=args.reciprocity)
        if stage:
            write_json(os.path.join(stage, "scorecard.json"), asdict(card))
    for line in card.lines():
        print(line)
    if args.out:
        print(os.path.join(args.out, "scorecard.json"))
    if card.passed:
        print("all checks passed")
        return 0
    print("some checks failed", file=sys.stderr)
    return 2


def _cmd_demo(args) -> int:
    from .synth import corpus_pipeline

    # the report reads the published corpus: its manifest names files that exist
    corpus = os.path.join(args.out, "corpus")
    report_dir = os.path.join(args.out, "report")
    with _published(corpus) as stage:
        cfg = _generate({"n_individuals": args.n, "seed": args.seed}, stage)
    print(f"corpus: {corpus} ({cfg.n_individuals} individuals, seed {cfg.seed})")
    pipe = corpus_pipeline(corpus, cfg)
    outputs = _write_report(pipe, report_dir, set(STAGE_OUTPUTS), "demo")
    w = pipe.night_window
    corr = pipe.correlations
    print(f"inactivity window: {window_label(w)}")
    act = corr["activity"]["value"]
    mob = corr["mobility"]["value"]
    print(f"density-activity correlation: {act:+.3f}" if act is not None else
          "density-activity correlation: undefined")
    print(f"density-mobility correlation: {mob:+.3f}" if mob is not None else
          "density-mobility correlation: undefined")
    print(f"report: {report_dir} ({len(outputs)} files)")
    return 0


# ----------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    p = _Parser(prog="cdrmob", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("generate", help="write a synthetic corpus with ground truth")
    sp.add_argument("--out", type=_out_dir, required=True)
    sp.add_argument("--n", type=_number(int), default=None, help="number of individuals")
    sp.add_argument("--cells", type=_number(int), default=None, help="number of settlements")
    sp.add_argument("--seed", type=_number(int), default=None)
    sp.add_argument("--gen-config", default=None, help="JSON file of generator settings")
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("ingest", help="filter a CDR file into a reusable spool")
    sp.add_argument("--cdr", required=True)
    sp.add_argument("--towers", required=True)
    sp.add_argument("--out", type=_out_dir, required=True)
    sp.add_argument("--year", type=_number(int, year_bounds), default=2008,
                    help="analysis year, 1-9998")
    sp.add_argument("--reciprocity", choices=RECIPROCITY_RULES, default="pair")
    sp.set_defaults(func=_cmd_ingest)

    for name, (_, hlp) in _STAGE_COMMANDS.items():
        sp = sub.add_parser(name, help=hlp)
        _add_analysis_flags(sp)
        sp.set_defaults(func=_cmd_stages)

    sp = sub.add_parser("validate", help="score a generated corpus against its ground truth")
    sp.add_argument("--corpus", required=True, help="directory written by generate")
    sp.add_argument("--out", type=_out_dir, default=None, help="where to write scorecard.json")
    sp.add_argument("--reciprocity", choices=RECIPROCITY_RULES, default="pair")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("demo", help="generate a small corpus and run the full report")
    sp.add_argument("--out", type=_out_dir, required=True)
    sp.add_argument("--n", type=_number(int), default=2000)
    sp.add_argument("--seed", type=_number(int), default=7)
    sp.set_defaults(func=_cmd_demo)

    for sp in sub.choices.values():
        sp.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                        default="warning",
                        help="progress messages on stderr at this level and above")
    return p


def _configure_logging(level: str) -> None:
    """Send the package's log records at `level` and above to stderr."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("cdrmob")
    logger.handlers = [handler]  # a repeated main() replaces, not adds
    logger.setLevel(level.upper())


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    _configure_logging(args.log_level)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
