"""Event stream ingestion: validation, reciprocity filtering, and
assembly of one flat event table.

A directed link a->b exists when any row shows a calling or texting b,
regardless of which side's record it appears on (an outgoing row of ego a
with peer b and an incoming row of ego b with peer a are the same claim).
A pair is reciprocal when both directions exist. The default filter keeps
an individual when they participate in at least one reciprocal pair, and
keeps all of that individual's events; everyone else is dropped entirely.
This removes one-way sources (spam, robocalls) that would otherwise inflate
activity counts.

A CDR file is read as bytes in blocks. Canonical lines, the common case,
are found and decoded in vectorised form: an index of newlines and commas
comes first, then fixed-width fields are gathered by offset (the approach
of Langdale and Lemire, "Parsing gigabytes of JSON per second", VLDB J.
28, 2019, with numpy for SIMD). Every other line takes the row path,
csv.reader and parse_event_fields, which defines what a row means.

The kept events of every individual form one EventTable: parallel numpy
columns sorted by (ego id, timestamp, tower id, kind, direction), with an
offsets array marking where each individual's segment starts. Every
downstream stage is a vectorised pass over this table, and the sort makes
each pass order-deterministic even with duplicate timestamps. Ego order is
id-string order; tower order uses the registry index, which is
constructed to match tower-id string order.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import zipfile
from array import array
from dataclasses import asdict, dataclass, field, fields
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .records import (
    CALL,
    DIRECTION_TOKENS,
    INCOMING,
    KIND_TOKENS,
    CdrError,
    RowReject,
    TowerRegistry,
    parse_event_fields,
    parse_timestamp,
    year_bounds,
)

log = logging.getLogger(__name__)

SPOOL_EVENTS = "events.npz"
SPOOL_META = "meta.json"
SPOOL_STATS = "stats.json"
SPOOL_FORMAT = 3
# EventTable columns saved in a spool, next to its ids
_SPOOL_ARRAYS = ("offsets", "ts", "tower", "kind", "direction")


@dataclass
class EventTable:
    """Kept events of every individual in one flat table, sorted by
    (ego id, timestamp, tower, kind, direction).

    Segment k, rows offsets[k]:offsets[k+1], holds the events of ids[k];
    ids are sorted. `tower` holds registry indices (int32), `kind`
    0=call 1=sms, and `direction` 0=incoming 1=outgoing. Peers are only
    read by the reciprocity filter, so the table has no peer column.
    """

    ids: list[str]
    offsets: np.ndarray
    ts: np.ndarray
    tower: np.ndarray
    kind: np.ndarray
    direction: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class IngestStats:
    rows_read: int = 0
    rows_rejected: dict[str, int] = field(default_factory=dict)
    events_valid: int = 0
    events_kept: int = 0
    individuals_seen: int = 0
    individuals_removed: int = 0
    individuals_kept: int = 0

    def reject(self, reason: str) -> None:
        self.rows_rejected[reason] = self.rows_rejected.get(reason, 0) + 1


@dataclass
class IngestResult:
    table: EventTable
    stats: IngestStats
    analysis_year: int
    reciprocity: str
    # ids that had valid rows but were dropped by the reciprocity rule
    removed_ids: list[str] = field(default_factory=list)


# Bytes of CDR text that ingest_file parses at a time, each block cut at a
# newline. Per-byte temporaries are uint8 or bool and per-line ones a few
# int64s, so a block costs a small multiple of its size: on a 1.06M-row
# file ingest alone peaked at 96 MiB with 1 MiB blocks and 287 MiB with
# 16 MiB ones, in the same time.
_BLOCK_BYTES = 1 << 20
# Longer ids (ego, peer or tower) take the row path; this bounds the
# per-line gather arrays of the byte path.
_MAX_ID_BYTES = 64
# zeros after a block, so that the 8-byte words of every field, and its
# timestamp window, lie inside the buffer
_PAD = bytes(_MAX_ID_BYTES)
# a canonical timestamp, byte by byte: digit positions allow 0-9, the
# separators only themselves
_TS_LO = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
_TS_SPAN = np.where(_TS_LO == ord("0"), 9, 0).astype(np.uint8)
# _LOW[k] keeps the first k bytes of a little-endian 8-byte word
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _words(u64: np.ndarray, start: np.ndarray, length: np.ndarray, n: int) -> np.ndarray:
    """Bytes [start, start + length) of each line as n zero-padded
    little-endian words, from u64, the 8-byte words at every offset."""
    out = np.empty((len(start), n), dtype="<u8")
    for j in range(n):
        out[:, j] = u64[start + 8 * j] & _LOW[np.clip(length - 8 * j, 0, 8)]
    return out


def _distinct(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct row of words, distinct row of each row).
    Rows are compared word by word, so whole ids are compared."""
    order = np.lexsort(words.T)
    words = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


def _text(words: np.ndarray) -> list[str]:
    """The ASCII text of each row of words."""
    return words.view(f"S{8 * words.shape[1]}")[:, 0].astype(str).tolist()


def _token_keys(codes: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted one-word keys of the tokens, and their codes."""
    keys = np.array([int.from_bytes(t.encode(), "little") for t in codes], dtype=np.uint64)
    order = np.argsort(keys)
    return keys[order], np.array(list(codes.values()), dtype=np.int8)[order]


_KIND_KEYS = _token_keys({t: int(k != CALL) for t, k in KIND_TOKENS.items()})
_DIRECTION_KEYS = _token_keys({t: int(d != INCOMING) for t, d in DIRECTION_TOKENS.items()})


def _lookup(keys: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each x in the sorted, non-empty keys."""
    i = np.searchsorted(keys, x)
    i[i == len(keys)] = 0
    return i, keys[i] == x


class _Columns:
    """Valid events, gathered part by part. Ego and peer names are
    interned as they come: `code` numbers them in order of first sight.
    The columns are allocated for `capacity` rows, and grow in
    place (realloc) past it; pages never written cost no memory."""

    def __init__(self, capacity: int = 0):
        self.code: dict[str, int] = {}
        # ego, ts, tower, kind, direction: the peer of a row only enters
        # its link key
        self.cols = [
            np.empty(capacity, dtype=t) for t in (np.int32, np.int64, np.int32, np.int8, np.int8)
        ]
        self.n = 0
        # the distinct directed links a->b of each appended part, as int64
        # keys (a << 32) | b; empty to start with, for input without rows
        self.links = [np.empty(0, dtype=np.int64)]

    def intern(self, names: list[str]) -> np.ndarray:
        code = self.code
        return np.array([code.setdefault(name, len(code)) for name in names], dtype=np.int32)

    def parse_rows(self, rows, registry: TowerRegistry, year_start: int, year_end: int,
                   stats: IngestStats, cols=None):
        """The row path: validate already-split rows with
        parse_event_fields, count each one and its reject reason, and
        append the valid ones to cols (six arrays, made when None)."""
        if cols is None:
            cols = (array("i"), array("q"), array("i"), array("b"), array("b"), array("i"))
        code = self.code
        put_ego, put_ts, put_tower, put_kind, put_dir, put_peer = (c.append for c in cols)
        index_of = registry.index_of
        for row in rows:
            stats.rows_read += 1
            try:
                rec = parse_event_fields(row, year_start, year_end)
            except RowReject as rj:
                stats.reject(rj.reason)
                continue
            ti = index_of(rec.tower_id)
            if ti is None:
                stats.reject("unknown_tower")
                continue
            e = code.setdefault(rec.ego_id, len(code))
            p = code.setdefault(rec.peer_id, len(code))
            put_ego(e)
            put_ts(rec.timestamp)
            put_tower(ti)
            put_kind(0 if rec.kind == CALL else 1)
            put_dir(0 if rec.direction == INCOMING else 1)
            put_peer(p)
        return cols

    def append(self, cols) -> None:
        """Add parsed rows, given as six columns, the last one their peers."""
        cols = [np.asarray(c) for c in cols]
        ego, out, peer = cols[0], cols[4].astype(bool), cols[5]
        key = np.where(out, ego, peer).astype(np.int64)
        key <<= 32
        key |= np.where(out, peer, ego)
        self.links.append(np.unique(key))
        k = len(ego)
        if self.n + k > len(self.cols[0]):
            for c in self.cols:
                c.resize(max(2 * len(c), self.n + k), refcheck=False)
        for c, new in zip(self.cols, cols):
            c[self.n: self.n + k] = new
        self.n += k

    def columns(self) -> list[np.ndarray]:
        """The five columns as gathered, trimmed to the rows gathered."""
        for c in self.cols:
            c.resize(self.n, refcheck=False)
        return self.cols


class _ByteParser:
    """Vectorised decoding of the canonical lines of a block of CDR bytes,
    for one tower registry and analysis year.

    A line is canonical when it has exactly 5 commas and every byte is in
    0x21-0x7E (quotes never reach here; one CR before the LF is allowed),
    its ids are 1-64 bytes, its timestamp is YYYY-MM-DDTHH:MM:SS of a real
    date and time in the analysis year, its kind and direction are exact
    lowercase tokens, its tower is in the registry, and its ego is not its
    peer. parse_event_fields accepts every such row, with these values.
    """

    def __init__(self, registry: TowerRegistry, analysis_year: int):
        self.year = analysis_year
        self.year_start, _ = year_bounds(analysis_year)
        firsts = [date(analysis_year, m, 1).toordinal() for m in range(1, 13)]
        firsts.append(date(analysis_year + 1, 1, 1).toordinal())
        self.month_days = np.diff(firsts)
        self.month_offset = np.array(firsts[:12]) - firsts[0]
        self.registry = registry

    def parse(self, block: bytes, cols: _Columns):
        """(line starts, line ends past the LF, canonical line mask, line
        of each canonical row, and its six columns) of a block of whole
        lines. Names of canonical rows are interned into cols."""
        arr = np.frombuffer(block + _PAD, dtype=np.uint8)
        b = arr[: len(block)]
        stop = np.flatnonzero(b == 10) + 1
        starts = np.concatenate(([0], stop[:-1]))
        cr = (stop - starts > 1) & (b[stop - 2] == 13)
        ends = stop - 1 - cr

        def per_line(positions):
            """How many of the sorted positions fall in each line."""
            return np.diff(np.searchsorted(positions, stop), prepend=0)

        # bytes outside 0x21-0x7E: only the LF, and a CR before it
        ok = per_line(np.flatnonzero((b - np.uint8(0x21)) > 0x5D)) == 1 + cr
        commas = np.flatnonzero(b == 44)
        ok &= per_line(commas) == 5
        lines = np.flatnonzero(ok)
        c0 = np.searchsorted(commas, starts[lines])
        # field k of line i spans edge[i, k] + 1 .. edge[i, k + 1]
        edge = np.column_stack((starts[lines] - 1, commas[c0[:, None] + np.arange(5)], ends[lines]))
        lo, ln = edge[:, :6] + 1, np.diff(edge, axis=1) - 1
        ids = ln[:, [0, 1, 3]]
        fit = (ln[:, 2] == 19) & (ln[:, 4] <= 8) & (ln[:, 5] <= 8)
        fit &= (ids >= 1).all(axis=1) & (ids <= _MAX_ID_BYTES).all(axis=1)
        lines, lo, ln = lines[fit], lo[fit], ln[fit]
        # kind and direction are one word each: a file whose tokens are not
        # canonical leaves this block here, before the costlier decoding
        u64 = np.ndarray(len(block) + 57, dtype="<u8", buffer=arr, strides=(1,))
        kind, found = _lookup(_KIND_KEYS[0], u64[lo[:, 4]] & _LOW[ln[:, 4]])
        direction, found2 = _lookup(_DIRECTION_KEYS[0], u64[lo[:, 5]] & _LOW[ln[:, 5]])
        found &= found2
        lines, lo, ln = lines[found], lo[found], ln[found]
        kind, direction = _KIND_KEYS[1][kind[found]], _DIRECTION_KEYS[1][direction[found]]
        m = len(lines)
        canonical = np.zeros(len(starts), dtype=bool)
        if not m:
            return starts, stop, canonical, lines, None

        t = sliding_window_view(arr, 19)[lo[:, 2]]
        good = ((t - _TS_LO) <= _TS_SPAN).all(axis=1)
        t -= np.uint8(ord("0"))

        def number(k, width):
            v = t[:, k].astype(np.int32)
            for j in range(k + 1, k + width):
                v = v * 10 + t[:, j]
            return v

        month, day = number(5, 2), number(8, 2)
        hh, mm, ss = number(11, 2), number(14, 2), number(17, 2)
        mi = np.clip(month - 1, 0, 11)
        good &= (number(0, 4) == self.year) & (month >= 1) & (month <= 12)
        good &= (day >= 1) & (day <= self.month_days[mi])
        good &= (hh <= 23) & (mm <= 59) & (ss <= 59)
        ts = (self.month_offset[mi] + day - 1) * np.int64(86400) + (hh * 3600 + mm * 60 + ss)
        ts += self.year_start

        # towers and ids are looked up once per distinct value in the block
        words = _words(u64, lo[:, 3], ln[:, 3], -(-int(ln[:, 3].max()) // 8))
        first, inv = _distinct(words)
        index = [self.registry.index_of(t) for t in _text(words[first])]
        tower = np.array([-1 if i is None else i for i in index], dtype=np.int32)[inv]
        good &= tower >= 0

        n = -(-int(ln[:, :2].max()) // 8)
        words = np.concatenate((_words(u64, lo[:, 0], ln[:, 0], n), _words(u64, lo[:, 1], ln[:, 1], n)))
        first, inv = _distinct(words)
        ego, peer = inv[:m], inv[m:]
        good &= ego != peer
        ego, peer = ego[good], peer[good]
        used = np.zeros(len(first), dtype=bool)
        used[ego] = used[peer] = True
        code = np.zeros(len(first), dtype=np.int32)
        code[used] = cols.intern(_text(words[first[used]]))
        lines = lines[good]
        canonical[lines] = True
        return starts, stop, canonical, lines, (
            code[ego], ts[good], tower[good], kind[good], direction[good], code[peer]
        )


def _skip_header(rows):
    """The rows, without a leading header row (see ingest_file)."""
    first = next(rows, None)
    if first is not None and not _is_header(first):
        yield first
    yield from rows


def _linked(links: np.ndarray, rule: str) -> np.ndarray:
    """Codes of the individuals the reciprocity rule keeps, from the
    sorted distinct link keys (a << 32) | b."""
    a, b = links >> 32, links & 0xFFFFFFFF
    if rule == "pair":
        return a[np.isin((b << 32) | a, links, assume_unique=True)]
    return np.intersect1d(a, b)


def _row_order(ego, ts, tower, kind, direction) -> np.ndarray:
    """Stable order by (ego, ts, tower, kind, direction): one stable
    argsort of (ego, ts) packed into int64, which int32 egos and timestamps
    of one year (under 2**25 s apart) fit in 56 bits; then each run of rows
    equal in (ego, ts), which are few, is put in order by the rest. Rows
    that tie on every key are equal in every column of the table, so their
    input order cannot show."""
    t0 = int(ts.min()) if len(ts) else 0
    # in-place steps, so that no temporary is the size of the key
    key = ego.astype(np.int64)
    key <<= (int(ts.max()) - t0).bit_length() if len(ts) else 0
    key += ts
    key -= t0
    order = np.argsort(key, kind="stable")
    key = key[order]
    tie = np.zeros(len(key), dtype=bool)
    tie[1:] = key[1:] == key[:-1]
    tie[:-1] |= tie[1:]
    at = np.flatnonzero(tie)
    rows = order[at]
    order[at] = rows[np.lexsort((direction[rows], kind[rows], tower[rows], key[at]))]
    return order


def _assemble(cols: _Columns, stats: IngestStats, analysis_year: int,
              reciprocity: str) -> IngestResult:
    """Filter the gathered rows by the reciprocity rule and sort the kept
    ones into an EventTable. Kept ego codes are replaced by the rank of
    their name, so segments come in id order."""
    names = sorted(cols.code)
    rank = np.empty(len(names), dtype=np.int32)
    rank[np.fromiter(map(cols.code.__getitem__, names), dtype=np.int64, count=len(names))] = (
        np.arange(len(names))
    )
    kept = cols.columns()
    stats.events_valid = len(kept[0])
    seen = np.zeros(len(names), dtype=bool)
    seen[kept[0]] = True
    stats.individuals_seen = int(seen.sum())
    if reciprocity == "none":
        ok = seen
    else:
        ok = np.zeros(len(names), dtype=bool)
        ok[_linked(np.unique(np.concatenate(cols.links)), reciprocity)] = True
    keep = ok[kept[0]]
    n = int(keep.sum())
    # filtered, coded and sorted in place, so that the table is the
    # gathered columns and every copy made on the way is a temporary
    for k, c in enumerate(kept):
        c[:n] = rank[c[keep]] if k == 0 else c[keep]
    del keep
    order = _row_order(*(c[:n] for c in kept))
    for c in kept:
        c[:n] = c[:n][order]
        c.resize(n, refcheck=False)
    starts = np.flatnonzero(np.diff(kept[0], prepend=-1) != 0)
    table = EventTable(
        [names[i] for i in kept[0][starts].tolist()],
        np.append(starts, len(order)).astype(np.int64),
        *kept[1:],
    )
    stats.individuals_kept = len(table)
    stats.individuals_removed = stats.individuals_seen - stats.individuals_kept
    stats.events_kept = len(order)
    removed = [names[r] for r in np.sort(rank[seen & ~ok]).tolist()]
    log.info(
        "ingest: %d rows, %d valid, kept %d events of %d individuals (removed %d)",
        stats.rows_read, stats.events_valid, stats.events_kept,
        stats.individuals_kept, stats.individuals_removed,
    )
    return IngestResult(table, stats, analysis_year, reciprocity, removed)


def _check_rule(reciprocity: str) -> None:
    if reciprocity not in ("pair", "degree", "none"):
        raise ValueError(f"unknown reciprocity rule: {reciprocity!r}")


def ingest_rows(
    rows,
    registry: TowerRegistry,
    *,
    analysis_year: int = 2008,
    reciprocity: str = "pair",
) -> IngestResult:
    """Filter and assemble an iterable of already-split CDR rows.

    reciprocity="pair" keeps individuals with at least one reciprocal
    pair; "degree" is the weaker variant keeping anyone who has both an
    outgoing and an incoming link somewhere (not necessarily the same
    peer); "none" keeps everyone.
    """
    _check_rule(reciprocity)
    stats = IngestStats()
    cols = _Columns()
    cols.append(cols.parse_rows(rows, registry, *year_bounds(analysis_year), stats))
    return _assemble(cols, stats, analysis_year, reciprocity)


def ingest_file(
    path,
    registry: TowerRegistry,
    *,
    analysis_year: int = 2008,
    reciprocity: str = "pair",
) -> IngestResult:
    """Ingest a CDR file, or a spool directory produced by write_spool.

    The file is read as bytes in blocks cut at a newline. Canonical lines
    (see _ByteParser) are decoded in vectorised form. Every other line is
    decoded as UTF-8 (an invalid byte makes its row a bad_encoding reject)
    and goes through csv.reader and parse_event_fields, exactly as
    ingest_rows would take it. From the line of the first double quote on,
    the whole rest of the file takes that row path, because a quoted field
    may span lines. The order in which rows are gathered does not show:
    the table is sorted on every column.

    A leading header row is skipped without being counted: one whose
    timestamp does not parse and whose kind and direction are not event
    tokens either. A first row with only a bad timestamp is data, and is
    rejected as such.
    """
    if is_spool(path):
        return read_spool(path, registry, analysis_year, reciprocity)
    _check_rule(reciprocity)
    stats = IngestStats()
    # a valid row has at least 14 bytes and a line end; past 16M rows the
    # columns grow in place
    cols = _Columns(min(os.path.getsize(path) // 15 + 1, 1 << 24))
    parser = _ByteParser(registry, analysis_year)
    bounds = year_bounds(analysis_year)

    def row_path(rows, into=None):
        return cols.parse_rows(rows, registry, *bounds, stats, into)

    def add_block(block: bytes, first: bool) -> None:
        """Rows of a block of whole lines, in two parts: canonical lines
        decoded in vectorised form, then every run of other lines as text."""
        starts, stop, canonical, lines, decoded = parser.parse(block, cols)
        stats.rows_read += len(lines)
        if decoded is not None:
            cols.append(decoded)
        slow = np.flatnonzero(~canonical)
        rows = None
        for run in np.split(slow, np.flatnonzero(np.diff(slow) != 1) + 1) if len(slow) else ():
            text = block[starts[run[0]]: stop[run[-1]]].decode("utf-8", "surrogateescape")
            reader = csv.reader(io.StringIO(text, newline=""))
            rows = row_path(_skip_header(reader) if first and run[0] == 0 else reader, rows)
        if rows is not None and len(rows[0]):
            cols.append(rows)

    with open(path, "rb") as fh:
        offset = 0  # of the block in the file
        carry = b""
        while True:
            chunk = fh.read(_BLOCK_BYTES)
            block = carry + chunk if carry else chunk
            cut = block.rfind(b"\n") + 1 if chunk else len(block)
            if chunk and not cut:
                carry = block  # no whole line yet
                continue
            block, carry = block[:cut], block[cut:]
            quote = block.find(b'"')
            if quote >= 0:
                block = block[: block.rfind(b"\n", 0, quote) + 1]
            if block:
                # the last line of a file may lack its newline
                add_block(block if block.endswith(b"\n") else block + b"\n", offset == 0)
            if quote >= 0:
                # a quoted field may span lines: the rest goes row by row
                fh.seek(offset + len(block))
                reader = csv.reader(
                    io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape", newline="")
                )
                cols.append(row_path(_skip_header(reader) if offset + len(block) == 0 else reader))
                break
            if not chunk:
                break
            offset += len(block)
    return _assemble(cols, stats, analysis_year, reciprocity)


def _is_header(row: list[str]) -> bool:
    if len(row) <= 2:
        return False
    try:
        parse_timestamp(row[2])
        return False
    except RowReject:
        pass
    kind, direction = (row[4:6] + ["", ""])[:2]
    return (
        kind.strip().lower() not in KIND_TOKENS
        and direction.strip().lower() not in DIRECTION_TOKENS
    )


def is_spool(path) -> bool:
    return os.path.isdir(path) and os.path.exists(os.path.join(path, SPOOL_META))


def write_spool(result: IngestResult, registry: TowerRegistry, out_dir) -> None:
    """Persist a filtered event stream: the event table as events.npz,
    stats.json, and meta.json (the year, reciprocity rule and tower table
    it was ingested with)."""
    tab = result.table
    os.makedirs(out_dir, exist_ok=True)
    np.savez(
        os.path.join(out_dir, SPOOL_EVENTS),
        ids=np.array(tab.ids, dtype=str),
        **{name: getattr(tab, name) for name in _SPOOL_ARRAYS},
    )
    with open(os.path.join(out_dir, SPOOL_STATS), "w", encoding="utf-8") as fh:
        json.dump(asdict(result.stats), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, SPOOL_META), "w", encoding="utf-8") as fh:
        json.dump(
            {"analysis_year": result.analysis_year, "reciprocity": result.reciprocity,
             "format": SPOOL_FORMAT, "towers_digest": registry.digest()},
            fh, indent=2,
        )
        fh.write("\n")


def _spool_json(path, name) -> dict:
    """The JSON object in file `name` of a spool directory."""
    p = os.path.join(path, name)
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise CdrError(f"{p}: unreadable spool file: {e}")
    if not isinstance(doc, dict):
        raise CdrError(f"{p}: unreadable spool file: not a JSON object")
    return doc


def _is_count(v) -> bool:
    """A JSON count: a non-negative integer, and not a boolean."""
    return type(v) is int and v >= 0


def read_spool(path, registry: TowerRegistry, analysis_year: int, reciprocity: str) -> IngestResult:
    """Load a spool directory. A spool in another format, or ingested for
    another year, reciprocity rule or tower table, is refused: its rows
    were cut to that year, filtered by that rule, and index those towers.
    The spool is machine-written, so a defect in any of its files is
    fatal, a missing stats.json included."""
    meta = _spool_json(path, SPOOL_META)
    for key, want in (
        ("format", SPOOL_FORMAT),
        ("analysis_year", analysis_year),
        ("reciprocity", reciprocity),
        ("towers_digest", registry.digest()),
    ):
        if meta.get(key) != want:
            raise CdrError(
                f"spool {path} was ingested with {key}={meta.get(key, 'unknown')}, "
                f"not {want}; re-run ingest with the settings of this analysis"
            )
    stats_path = os.path.join(path, SPOOL_STATS)
    counts = _spool_json(path, SPOOL_STATS)
    keys = sorted(f.name for f in fields(IngestStats))
    if sorted(counts) != keys:
        raise CdrError(f"{stats_path}: malformed spool file: keys {sorted(counts)}, not {keys}")
    rejected = counts["rows_rejected"]
    if not (isinstance(rejected, dict) and all(map(_is_count, rejected.values()))
            and all(_is_count(v) for k, v in counts.items() if k != "rows_rejected")):
        raise CdrError(f"{stats_path}: malformed spool file: counts must be non-negative integers")
    stats = IngestStats(**counts)

    events = os.path.join(path, SPOOL_EVENTS)
    try:
        with np.load(events, allow_pickle=False) as z:
            ids = z["ids"].tolist()
            cols = {name: z[name] for name in _SPOOL_ARRAYS}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as e:
        raise CdrError(f"{events}: unreadable spool: {e}")
    off, n = cols["offsets"], cols["ts"].size
    if not (
        off.shape == (len(ids) + 1,) and off[0] == 0 and off[-1] == n
        and (np.diff(off) > 0).all()
        and all(cols[c].shape == (n,) for c in _SPOOL_ARRAYS[1:])
        and ((cols["tower"] >= 0) & (cols["tower"] < len(registry))).all()
    ):
        raise CdrError(f"{events}: malformed spool table")
    if (stats.events_kept, stats.individuals_kept) != (n, len(ids)):
        raise CdrError(f"{stats_path}: events_kept {stats.events_kept} and individuals_kept "
                       f"{stats.individuals_kept} disagree with the {n} events of {len(ids)} "
                       f"individuals in {events}")
    return IngestResult(table=EventTable(ids, **cols), stats=stats, analysis_year=analysis_year,
                        reciprocity=reciprocity)
