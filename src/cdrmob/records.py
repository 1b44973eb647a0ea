"""Domain types, file parsing, and validation for CDR, tower, and
demographics inputs.

Timestamps are local civil time with no timezone or DST shifts: the hourly
patterns downstream are in local clock time. Internally they are stored as
integer seconds since the epoch of that civil time (i.e. the naive calendar
mapped onto UTC).

Parsing is total per line: every input row yields either the values the
event table stores or a `RowReject` carrying a machine-readable reason; a
malformed row never aborts the stream, and neither does one whose bytes are
not UTF-8 (`bad_encoding`).
Reject reasons are counted by the callers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime
from itertools import islice

import numpy as np

# event tokens -> the codes of the event table's kind and direction columns
KIND_TOKENS = {"call": 0, "sms": 1}
DIRECTION_TOKENS = {"in": 0, "incoming": 0, "out": 1, "outgoing": 1}

# gender token -> whether it reads female
_GENDER_TOKENS = {"f": True, "female": True, "m": False, "male": False}

AGE_MIN = 10
AGE_MAX = 110

# (label, inclusive upper age bound); the six bands partition [AGE_MIN, AGE_MAX]
AGE_GROUPS = (
    ("teen", 18),
    ("early_adult", 35),
    ("early_middle", 45),
    ("middle", 55),
    ("early_senior", 65),
    ("senior", AGE_MAX),
)
AGE_GROUP_LABELS = tuple(label for label, _ in AGE_GROUPS)


class CdrError(Exception):
    """Base for data-content errors a caller may want to map to exit codes."""


class RowReject(CdrError):
    """A single input row failed validation. `reason` is a stable token."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


_EPOCH_DAY = date(1970, 1, 1).toordinal()
EPOCH_WEEKDAY = 3  # 1970-01-01 was a Thursday; weekday index 0 is Monday

# The one timestamp grammar: YYYY-MM-DD, optionally with [T ]HH:MM and then
# :SS, in ASCII digits only. fromisoformat alone accepts more, and what more
# depends on the Python version (ISO week dates, basic format, fractions).
_TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\d(?:[T ]\d\d:\d\d(?::\d\d)?)?", re.ASCII)


def parse_timestamp(text: str) -> int:
    """ISO-8601 local timestamp -> epoch seconds of that civil time.

    Surrounding whitespace is stripped; the rest must be YYYY-MM-DD or
    YYYY-MM-DD[T ]HH:MM[:SS] of a real date and time.
    """
    s = text.strip()
    if not _TIMESTAMP.fullmatch(s):
        raise RowReject("bad_timestamp", text)
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        raise RowReject("bad_timestamp", text)
    return (dt.toordinal() - _EPOCH_DAY) * 86400 + dt.hour * 3600 + dt.minute * 60 + dt.second


def format_timestamp(ts: int) -> str:
    """Inverse of parse_timestamp for whole seconds."""
    day, rem = divmod(ts, 86400)
    d = date.fromordinal(day + _EPOCH_DAY)
    return f"{d.isoformat()}T{rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}"


def month_starts(year: int) -> list[int]:
    """Epoch seconds at the start of each month of a civil year, and of the
    next January: 13 values. Years 1-9998 are supported."""
    if not 1 <= year <= 9998:
        raise ValueError(f"year {year} is outside 1-9998")
    firsts = [date(year, m, 1) for m in range(1, 13)] + [date(year + 1, 1, 1)]
    return [(d.toordinal() - _EPOCH_DAY) * 86400 for d in firsts]


def year_bounds(year: int) -> tuple[int, int]:
    """[start, end) epoch seconds of a civil year."""
    starts = month_starts(year)
    return starts[0], starts[12]


def weekday_of(days: np.ndarray) -> np.ndarray:
    """Weekday (0=Monday) of each day, counted in days since the epoch."""
    wd = days + EPOCH_WEEKDAY
    wd -= wd // 7 * 7  # wd % 7: numpy's floor division by a scalar is the faster
    return wd


def cpus() -> int:
    """The CPUs this process may run on; one where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def ordered_map(fn, items, n: int, pool=None, cap: int | None = None):
    """Yield (k, an iterator over fn(item) for each item, in item order),
    with fn run on the executor that pool(k) makes: k is one per CPU, at
    most cap and at most n, the number of items or a bound on it. The pool
    is made before any item is read: items read ahead of ingest's threads
    left more of the C heap resident after it. The first k + 1 items are
    submitted on entry, so a fork pool forks before the body runs; at most
    k + 1 are submitted and not yet taken. An item's error is raised at its
    place. When the body returns, raises or stops early, the pool is shut
    down and what has not started is cancelled. With k = 1, or no pool, fn
    runs in the calling thread as the iterator is read."""
    k = min(cpus(), n, cap or n) if pool else 1
    if k < 2:
        yield 1, map(fn, items)
        return
    items = iter(items)

    def taken():
        while flight:
            yield flight.popleft().result()
            flight.extend(executor.submit(fn, item) for item in islice(items, 1))

    executor = pool(k)
    try:
        flight = deque(executor.submit(fn, item) for item in islice(items, k + 1))
        yield k, taken()
    finally:
        executor.shutdown(cancel_futures=True)


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys), from a sort of keys in place and a neighbour
    compare. numpy 2.4's np.unique takes a hash path for integers, which
    took 1.5 s on 2M distinct random keys where this takes 0.02 s, and
    it imports numpy.ma, 13-26 ms, on its first call."""
    keys.sort()
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def write_json(path, doc) -> None:
    """Write a JSON document in the one format of every JSON output but
    truth.json: indented by two, keys sorted, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_object(path, what: str, keys=None) -> dict:
    """The JSON object in file `path`, with exactly `keys` when they are
    given; a CdrError names the file and `what` it was read as when it
    cannot be read, is not a JSON object or has other keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise CdrError(f"{path}: unreadable {what}: {e}")
    if not isinstance(doc, dict):
        raise CdrError(f"{path}: unreadable {what}: not a JSON object")
    if keys is not None and doc.keys() != set(keys):
        raise CdrError(f"{path}: malformed {what}: keys {sorted(doc)}, not {sorted(keys)}")
    return doc


def csv_rows(lines, where, on_nul, first: int = 1, numbered: bool = False):
    """csv.reader's rows of lines read with newline="", one row per line,
    or with `numbered` (line, row) pairs. Lines are numbered from `first`
    by the LFs before them, so a lone CR starts a row but not a line. A
    line that holds a NUL is left out, and on_nul(its number) is called:
    csv.reader refuses a NUL before Python 3.11 and keeps it from then on.
    A row that spans lines and a row that csv.reader refuses are CdrErrors
    naming `where` and the line the row starts on. A row spans lines when
    it reads more than one, or when a quote left open at the end of the
    lines makes the reader ask for a line after the last."""
    start = [0]  # the number of the first line of the row being read
    ended = [False]  # whether the reader has asked for a line after the last

    def feed():
        n = first
        for line in lines:
            if "\0" in line:
                on_nul(n)
            else:
                start[0] = start[0] or n
                yield line
            n += line.endswith("\n")
        ended[0] = True

    reader = csv.reader(feed())
    read = 0  # lines read by the reader
    while True:
        start[0] = 0
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise CdrError(f"{where}:{start[0]}: not readable as CSV: {e}") from None
        if reader.line_num > read + 1 or ended[0]:
            raise CdrError(f"{where}:{start[0]}: a row spans lines (an unbalanced quote?)")
        read = reader.line_num
        yield (start[0], row) if numbered else row


def _undecodable(row: list[str]) -> bool:
    """Whether a row read with errors="surrogateescape" held bytes that
    are not UTF-8 (they decode to lone surrogates, which do not encode)."""
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def parse_event_fields(row: list[str], registry: TowerRegistry, year_start: int,
                       year_end: int) -> tuple[str, str, int, int, int, int]:
    """One already-split CDR row (ego_id, peer_id, timestamp, tower_id,
    kind, direction) as the event table stores it: (ego, peer, epoch
    seconds of its local civil time, registry index of its tower, kind
    0=call 1=sms, direction 0=incoming 1=outgoing). Raises RowReject on any
    defect, the first of: bad_encoding (bytes that are not UTF-8, or a
    NUL), missing_column, self_call, bad_timestamp, outside_year, bad_kind,
    bad_direction, unknown_tower."""
    if any("\0" in f for f in row) or (not all(map(str.isascii, row)) and _undecodable(row)):
        raise RowReject("bad_encoding", ascii(",".join(row)))
    if len(row) < 6:
        raise RowReject("missing_column", ",".join(row))
    ego = row[0].strip()
    peer = row[1].strip()
    tower = row[3].strip()
    if not ego or not peer or not tower:
        raise RowReject("missing_column", ",".join(row))
    if ego == peer:
        raise RowReject("self_call", ego)
    ts = parse_timestamp(row[2])
    if not (year_start <= ts < year_end):
        raise RowReject("outside_year", row[2])
    kind = KIND_TOKENS.get(row[4].strip().lower())
    if kind is None:
        raise RowReject("bad_kind", row[4])
    direction = DIRECTION_TOKENS.get(row[5].strip().lower())
    if direction is None:
        raise RowReject("bad_direction", row[5])
    index = registry.index_of(tower)
    if index is None:
        raise RowReject("unknown_tower", tower)
    return ego, peer, ts, index, kind, direction


class TowerRegistry:
    """tower_id -> (lat, lon), with ids held sorted so that the integer
    index of a tower orders identically to its id string (downstream sorts
    rely on this)."""

    def __init__(self, entries: dict[str, tuple[float, float]]):
        self.ids: list[str] = sorted(entries)
        self._index = {tid: i for i, tid in enumerate(self.ids)}
        self.lat = np.array([entries[t][0] for t in self.ids], dtype=float)
        self.lon = np.array([entries[t][1] for t in self.ids], dtype=float)

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, tower_id: str) -> int | None:
        return self._index.get(tower_id)

    def digest(self) -> str:
        """sha256 of the sorted ids and their float64 coordinates: equal
        digests mean equal tower indices and positions."""
        h = hashlib.sha256(json.dumps(self.ids).encode())
        h.update(self.lat.astype("<f8").tobytes())
        h.update(self.lon.astype("<f8").tobytes())
        return h.hexdigest()


def _read_rows(path):
    """(line, row) of each CSV row of a small input file, after one leading
    UTF-8 byte order mark if it has one, numbered as csv_rows numbers them.
    A byte that is not UTF-8 is fatal, and so is a NUL or a row that
    csv_rows refuses, each named by file and line."""
    def nul(n):
        raise CdrError(f"{path}:{n}: holds a NUL byte")

    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line, row in csv_rows(fh, path, nul, numbered=True):
            if _undecodable(row):
                raise CdrError(f"{path}:{line}: not valid UTF-8")
            yield line, row


def load_towers(path) -> TowerRegistry:
    """Read a tower file (tower_id,lat,lon; optional header).

    The registry is small and must be clean: duplicate ids and out-of-range
    coordinates are fatal, and so is a table spanning the antimeridian
    (longitudes more than 180 degrees apart), because homes and grid cells
    average longitudes arithmetically.
    """
    entries: dict[str, tuple[float, float]] = {}
    for k, (lineno, row) in enumerate(_read_rows(path)):
        if not row or (k == 0 and _looks_like_header(row, 1)):
            continue
        if len(row) < 3:
            raise CdrError(f"{path}:{lineno}: tower row needs tower_id,lat,lon")
        tid = row[0].strip()
        try:
            lat, lon = float(row[1]), float(row[2])
        except ValueError:
            raise CdrError(f"{path}:{lineno}: unparseable coordinate in {row!r}")
        if not (-90.0 <= lat <= 90.0):
            raise CdrError(f"{path}:{lineno}: latitude out of range: {lat}")
        if not (-180.0 <= lon <= 180.0):
            raise CdrError(f"{path}:{lineno}: longitude out of range: {lon}")
        if tid in entries:
            raise CdrError(f"{path}:{lineno}: duplicate tower id {tid!r}")
        entries[tid] = (lat, lon)
    lons = [lon for _, lon in entries.values()]
    if lons and max(lons) - min(lons) > 180.0:
        raise CdrError(
            f"{path}: towers span the antimeridian (longitudes {min(lons)} to {max(lons)}); "
            "positions are averaged arithmetically, so this table is not supported"
        )
    return TowerRegistry(entries)


@dataclass
class Demographics:
    """The accepted individuals by id, plus reject counts."""

    by_id: dict[str, tuple[bool, int]]  # id -> (female, age)
    rejected: dict[str, int]


# A third column value at or above this is read as a birth year, below as an
# age; no plausible age reaches it and no birth year is under it for any
# analysis year of interest.
_BIRTH_YEAR_THRESHOLD = 200


def load_demographics(path, analysis_year: int = 2008) -> Demographics:
    """Read a demographics file (ego_id,gender,age-or-birth_year).

    Bad rows are rejected and counted per reason, never fatal. Ages outside
    [10, 110] after resolving birth years are rejected, and so is every row
    of an id that appears more than once (duplicate_id: which one is right?).
    Rows are read one at a time: what is held is one entry or reject reason
    per id, and a count per id on more than one row, resolved at the end.
    """
    entries: dict[str, tuple[bool, int] | str] = {}  # id -> (female, age) or reject reason
    repeats: dict[str, int] = {}  # id -> its rows, for an id on more than one row
    shared: dict[tuple[bool, int], tuple[bool, int]] = {}  # one tuple per (female, age)
    rejected: dict[str, int] = {}

    def reject(reason: str, n: int = 1):
        rejected[reason] = rejected.get(reason, 0) + n

    for k, (_, row) in enumerate(_read_rows(path)):
        if not row or (k == 0 and _looks_like_header(row, None)):
            continue
        ego = row[0].strip() if len(row) >= 3 else ""
        if not ego:
            reject("missing_column")
        elif ego in entries:
            repeats[ego] = repeats.get(ego, 1) + 1
        else:
            entry = _person(row, analysis_year)
            entries[ego] = entry if isinstance(entry, str) else shared.setdefault(entry, entry)
    for ego, n in repeats.items():
        del entries[ego]
        reject("duplicate_id", n)
    for ego in [e for e, v in entries.items() if isinstance(v, str)]:
        reject(entries.pop(ego))
    return Demographics(entries, rejected)


def _person(row: list[str], analysis_year: int) -> tuple[bool, int] | str:
    """(female, age) of a demographics row, or the reason it is rejected."""
    female = _GENDER_TOKENS.get(row[1].strip().lower())
    if female is None:
        return "unknown_gender"
    try:
        value = int(row[2])
    except ValueError:
        return "bad_age"
    age = analysis_year - value if value >= _BIRTH_YEAR_THRESHOLD else value
    if not (AGE_MIN <= age <= AGE_MAX):
        return "age_out_of_range"
    return female, age


def age_group_of(age):
    """The AGE_GROUPS index of an age, or of each age of an array; error
    outside [10, 110]."""
    a = np.asarray(age)
    if not ((AGE_MIN <= a) & (a <= AGE_MAX)).all():
        raise ValueError(f"age {age} outside [{AGE_MIN}, {AGE_MAX}]")
    return np.searchsorted([upper for _, upper in AGE_GROUPS], age)


def _looks_like_header(row: list[str], numeric_col: int | None) -> bool:
    """Heuristic header detection: the would-be numeric column is not a
    number (tower files), or no column parses as a number at all."""
    if numeric_col is not None:
        try:
            float(row[numeric_col])
            return False
        except (ValueError, IndexError):
            return True
    for cell in row[1:]:
        try:
            float(cell)
            return False
        except ValueError:
            continue
    return True
