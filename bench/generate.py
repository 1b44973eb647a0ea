"""Generate one benchmark corpus, several times, in its own process.

    python3 bench/generate.py SPEC.json

SPEC.json (written by bench/run.py) holds the GenConfig fields, the output
directory, the repeat count, the thread count and where to write the result:
the wall time of each `synth.generate` call, the corpus files and the full
config. This runs apart from bench/run.py because the peak RSS the kernel
reports for a child includes its parent's high-water mark at exec, so the
process that measures the timed commands must stay small.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from cdrmob.synth import CDR_FILE, DEMOGRAPHICS_FILE, TOWERS_FILE, GenConfig, generate

    cfg = GenConfig.from_dict(spec["config"])
    times = []
    for _ in range(spec["repeats"]):
        t0 = time.perf_counter()
        generate(cfg, spec["out"], threads=spec["threads"])
        times.append(time.perf_counter() - t0)
    doc = {
        "setup_s": times,
        "config": asdict(cfg),
        **{k: os.path.join(spec["out"], f) for k, f in (
            ("cdr", CDR_FILE), ("towers", TOWERS_FILE), ("demographics", DEMOGRAPHICS_FILE))},
    }
    with open(spec["result_json"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
