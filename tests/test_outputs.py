"""The exact text of every CSV output, on one small fixed input.

The expected text in expected_outputs.txt pins each file byte for byte:
column order, blank cells for undefined values, and floats at full
round-trip precision. To re-record it after a deliberate change of
format, run this module as a script.
"""

import os
import sys
from unittest import mock

import numpy as np

from cdrmob import home, pipeline
from cdrmob.metrics import WindowSpec
from cdrmob.pipeline import STAGE_OUTPUTS, AnalysisConfig, Pipeline, write_outputs

EXPECTED = os.path.join(os.path.dirname(__file__), "expected_outputs.txt")

# home tower of each individual; None has no night events, hence no home
_HOMES = [0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, None]
_NO_DEMOGRAPHICS = (3, 11)


def _write_input(root):
    """Towers in eight grid cells, 18 individuals with a night event at
    home on their active days and two day events elsewhere."""
    towers = ["tower_id,lat,lon\n"] + [
        f"T{k},{40.012 + 0.1 * k!r},{20.012 + 0.1 * k!r}\n" for k in range(8)
    ]
    rows = ["ego_id,peer_id,timestamp,tower_id,kind,direction\n"]
    demo = ["ego_id,gender,birth_year\n"]
    for i, home in enumerate(_HOMES):
        base = 7 if home is None else home
        for m in range(1, 5 + i % 9):
            day = f"2008-{m:02d}-{1 + (3 * i + 5 * m) % 27:02d}"
            if home is not None:
                rows.append(f"u{i:02d},p{i},{day}T02:{i:02d}:00,T{home},call,in\n")
            rows.append(f"u{i:02d},p{m},{day}T10:00:00,T{(base + 1) % 8},sms,out\n")
            rows.append(f"u{i:02d},p{i},{day}T15:{m:02d}:00,T{(base + 3 + m % 2) % 8},call,out\n")
        if i not in _NO_DEMOGRAPHICS:
            demo.append(f"u{i:02d},{'F' if i % 2 else 'M'},{1950 + 2 * i}\n")
    for name, lines in (("towers.csv", towers), ("cdr.csv", rows), ("demographics.csv", demo)):
        (root / name).write_text("".join(lines), encoding="utf-8")


def _csv_outputs(root) -> str:
    """Every CSV that a month-window report writes, each
    under a `== name ==` line, in name order; the daily profile has
    four-hour bins."""
    _write_input(root)
    cfg = AnalysisConfig(
        grid_step=0.05,
        window=WindowSpec("month"),
        night_window=(0.0, 6.0),
        area_boundaries=(1, 2, 3, 5),
        reciprocity="none",
    )
    pipe = Pipeline(root / "cdr.csv", root / "towers.csv", root / "demographics.csv", cfg)
    out = root / "out"
    four_hours = {"BIN_MINUTES": 240, "BIN_CENTERS_H": (np.arange(6) + 0.5) * 4.0}
    with mock.patch.multiple(home, **four_hours), mock.patch.multiple(pipeline, **four_hours):
        written = write_outputs(pipe, out, set(STAGE_OUTPUTS))
    return "".join(
        f"== {name} ==\n" + (out / name).read_text(encoding="utf-8")
        for name in sorted(written)
        if name.endswith(".csv")
    )


def test_every_csv_output_keeps_its_text(tmp_path):
    with open(EXPECTED, encoding="utf-8", newline="") as fh:
        want = fh.read()
    got = _csv_outputs(tmp_path)
    assert got.splitlines() == want.splitlines()
    assert got == want


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        text = _csv_outputs(pathlib.Path(d))
    with open(EXPECTED, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {EXPECTED} ({text.count(chr(10))} lines)", file=sys.stderr)
