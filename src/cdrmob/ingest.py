"""Event stream ingestion through ingest_file, of a CDR file or a spool:
validation, reciprocity filtering, and assembly of one flat event table.

A directed link a->b exists when any row shows a calling or texting b,
regardless of which side's record it appears on (an outgoing row of ego a
with peer b and an incoming row of ego b with peer a are the same claim).
A pair is reciprocal when both directions exist. The default filter keeps
an individual when they participate in at least one reciprocal pair, and
keeps all of that individual's events; everyone else is dropped entirely.
This removes one-way sources (spam, robocalls) that would otherwise inflate
activity counts.

A CDR file is read as bytes in blocks. Canonical lines, the common case,
are found and decoded in vectorised form: an index of newlines, commas
and bytes outside printable ASCII comes first, then each field is read by
offset as whole 8-byte words (the structural indexing of Langdale and
Lemire, "Parsing gigabytes of JSON per second", VLDB J. 28, 2019, with
numpy for SIMD). A timestamp is checked as three words against a byte
template of the analysis year, and its fields come from those words. Kind
and direction words are folded to lower case, so token case does not
leave the byte path. A tower is looked up by one searchsorted among the
registry's ids held as sorted keys. Every other line, one that holds a
quote included, takes the row path, csv.reader and parse_event_fields,
which holds every rule of what a row means. A row may not span lines, so
every newline ends a row and blocks are cut at any of them.

Blocks are parsed on one thread per CPU, two at most, as in the
block-parallel bulk loading of Mühlbauer et al. ("Instant Loading for
Main Memory Databases", PVLDB 6(14), 2013): the decoding is numpy
kernels, which release the interpreter lock. Both paths give a block's
valid rows in one shape, which names its ids by indices of its own, and
the table takes every part through one entrance. The calling thread reads
and hashes the file and takes the results in block order: it runs the
row path for a block's other lines and interns the ids of each part, so
an id gets the same code whatever the thread count.

The kept events of every individual form one EventTable: parallel numpy
columns sorted by (ego id, timestamp, tower id, kind, direction), with an
offsets array marking where each individual's segment starts. Every
downstream stage is a vectorised pass over this table, and the sort makes
each pass order-deterministic even with duplicate timestamps. Ego order is
id-string order; tower order uses the registry index, which is
constructed to match tower-id string order.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .records import (
    DIRECTION_TOKENS,
    KIND_TOKENS,
    CdrError,
    RowReject,
    TowerRegistry,
    csv_rows,
    month_starts,
    ordered_map,
    parse_event_fields,
    parse_timestamp,
    read_json_object,
    unique_sorted,
    write_json,
    year_bounds,
)

log = logging.getLogger(__name__)

SPOOL_EVENTS = "events.npz"
SPOOL_META = "meta.json"
SPOOL_STATS = "stats.json"
SPOOL_FORMAT = 4
# EventTable columns saved in a spool, next to its ids, and their dtypes
_SPOOL_ARRAYS = {"offsets": np.int64, "ts": np.int64, "tower": np.int32, "kind": np.int8,
                 "direction": np.int8}
# the rules an individual is kept by (see ingest_file)
RECIPROCITY_RULES = ("pair", "degree", "none")


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
    # sha256 of the CDR file; None for a spool
    sha256: str | None = None
    # threads that parsed the CDR file: one for a spool
    threads: int = 1


# Bytes of CDR text that ingest_file parses at a time, each block cut at a
# newline. Per-byte temporaries are uint8 or bool and per-line ones a few
# words, so a block costs a small multiple of its size: about 4 MiB at its
# peak for 1 MiB of the 1.06M-row benchmark file, and each parsing thread
# holds one. On that file a serial ingest peaked at 96 MiB with 1 MiB
# blocks and 287 MiB with 16 MiB ones, in the same time.
_BLOCK_BYTES = 1 << 20
# Threads that parse blocks, at most, whatever the CPU count: the count
# measured. Each thread keeps its blocks' freed working sets in a malloc
# arena of its own until the pool is gone, so the peak grows with the
# count, and the calling thread's interning, row path and assembly are
# serial. On a 2-vCPU host, 1, 2, 4, 8 and 16 forced threads read a
# megarow report peak of 85.4-85.6, 87.6-89.3, 90.3-92.8, 98.6-99.8 and
# 129.2-134.1 MiB. Raise it once a host with more CPUs has been measured.
_MAX_THREADS = 2
# Longer ids (ego, peer or tower) take the row path; this bounds the
# per-line gather arrays of the byte path.
_MAX_ID_BYTES = 64
# zeros after a block, so that the 8-byte words of every field lie inside
# the buffer
_PAD = bytes(_MAX_ID_BYTES)
# a UTF-8 byte order mark, which an input file may start with
_BOM = b"\xef\xbb\xbf"
# _LOW[k] keeps the first k bytes of a little-endian 8-byte word
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# the start of a day that the calendar does not have
_NO_DAY = np.iinfo(np.int64).min


def _bytewise(b: int) -> np.uint64:
    """A word with byte b in each of its 8 bytes."""
    return np.uint64(b * 0x0101010101010101)


_NIBBLES = _bytewise(0x0F)
_HIGH = _bytewise(0x80)
_UP_FROM, _UP_PAST = _bytewise(0x80 - ord("A")), _bytewise(0x80 - ord("Z") - 1)


def _lower(w: np.ndarray) -> np.ndarray:
    """Words with their A-Z bytes made a-z, as str.lower does for ASCII.
    No byte may be above 0x7F, so that no bytewise sum carries: a byte's
    high bit is then set in w + _UP_FROM from "A" on, and in w + _UP_PAST
    from past "Z" on."""
    return w | (((w + _UP_FROM) & ~(w + _UP_PAST) & _HIGH) >> np.uint64(2))


def _ts_template(year: int) -> list[tuple[np.uint64, ...]]:
    """Checks of the three 8-byte words of a canonical timestamp of the
    year, at bytes 0, 8 and 11: per word (mask, want, six, carry). A word w
    fits when w & mask == want, which holds every other byte to the
    template and a digit's high nibble to 3, and when (w + six) & carry is
    0, which holds its low nibble to at most 9."""
    text = f"{year:04d}-dd-ddTdd:dd:dd"
    checks = []
    for at in (0, 8, 11):
        word = [0, 0, 0, 0]
        for k, c in enumerate(text[at: at + 8]):
            byte = (0xF0, 0x30, 0x06, 0x40) if c == "d" else (0xFF, ord(c), 0, 0)
            word = [v | x << 8 * k for v, x in zip(word, byte)]
        checks.append(tuple(map(np.uint64, word)))
    return checks


def _pairs(w: np.ndarray) -> np.ndarray:
    """Byte k of the result is 10 * (digit k) + (digit k + 1) of word w."""
    d = w & _NIBBLES
    return d * np.uint64(10) + (d >> np.uint64(8))


def _word(u64: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The first min(length, 8) bytes from each start as one zero-padded
    little-endian word, from u64, the 8-byte words at every offset."""
    return u64[start] & _LOW[np.minimum(length, 8)]


def _words(u64: np.ndarray, start: np.ndarray, length: np.ndarray, n: int) -> np.ndarray:
    """Bytes [start, start + length) of each line as n zero-padded words."""
    out = np.empty((len(start), n), dtype="<u8")
    for j in range(n):
        out[:, j] = _word(u64, start + 8 * j, np.maximum(length - 8 * j, 0))
    return out


def _distinct(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct row of words, distinct row of each row).
    Rows are compared word by word, so whole ids are compared. Rows of one
    word are sorted by a plain argsort, about twice as fast as np.lexsort
    of the one key."""
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T)
    words = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


def _text(words: np.ndarray) -> list[str]:
    """The ASCII text of each row of words."""
    return words.view(f"S{8 * words.shape[1]}")[:, 0].astype(str).tolist()


def _token_keys(codes: dict[str, int]) -> list[tuple[np.uint64, np.int8]]:
    """The one-word key of each token, and its code."""
    return [(np.uint64(int.from_bytes(t.encode(), "little")), np.int8(c))
            for t, c in codes.items()]


_KIND_KEYS = _token_keys(KIND_TOKENS)
_DIRECTION_KEYS = _token_keys(DIRECTION_TOKENS)


def _match(keys: list[tuple[np.uint64, np.int8]], w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(code, found) of each word among the token keys: a compare per
    token, which for a handful of them is cheaper than a searchsorted.
    A word matches one key at most, so its code is the sum."""
    code = np.zeros(len(w), dtype=np.int8)
    found = np.zeros(len(w), dtype=bool)
    for key, c in keys:
        hit = w == key
        found |= hit
        code += hit.view(np.int8) * c
    return code, found


def _lookup(keys: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each x in the sorted keys."""
    if not len(keys):
        return np.zeros(len(x), dtype=np.intp), np.zeros(len(x), dtype=bool)
    i = np.searchsorted(keys, x)
    i[i == len(keys)] = 0
    return i, keys[i] == x


def _fits_a_line(text: str) -> bool:
    """Whether a canonical line can hold the id: 1-64 bytes, each in
    0x21-0x7E."""
    return (0 < len(text) <= _MAX_ID_BYTES and text.isascii() and text.isprintable()
            and " " not in text)


def _link_keys(ego: np.ndarray, peer: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """The directed link a->b of each row as an int64 key (a << 32) | b: on
    an outgoing row the ego calls or texts the peer, on an incoming one the
    peer the ego."""
    out = direction.astype(bool)
    key = np.where(out, ego, peer).astype(np.int64)
    key <<= 32
    key |= np.where(out, peer, ego)
    return key


class _Columns:
    """Valid events, gathered block by block. Each block comes as
    _ByteParser.parse and _row_block give one, and append_block is the one
    way in. Ego and peer names are interned as they come: `code` numbers
    them in order of first sight. The columns are allocated for `capacity`
    rows, and grow in place (realloc) past it; pages never written cost no
    memory."""

    def __init__(self, capacity: int):
        self.code: dict[str, int] = {}
        # ego, ts, tower, kind, direction: the peer of a row only enters
        # its link key
        self.cols = [
            np.empty(capacity, dtype=t) for t in (np.int32, np.int64, np.int32, np.int8, np.int8)
        ]
        self.n = 0
        # the directed links a->b of each appended block, as int64 keys
        # (a << 32) | b; empty to start with, for input without rows
        self.links = [np.empty(0, dtype=np.int64)]

    def append_block(self, names: list[str], ego, ts, tower, kind, direction, links) -> None:
        """Add a block's rows: its names are interned here, in their order,
        so codes do not depend on which thread parsed the block."""
        code = self.code
        local = np.array([code.setdefault(name, len(code)) for name in names], dtype=np.int32)
        wide = local.astype(np.int64)
        self.links.append(wide[links >> 32] << 32 | wide[links & 0xFFFFFFFF])
        k = len(ego)
        if self.n + k > len(self.cols[0]):
            for c in self.cols:
                c.resize(max(2 * len(c), self.n + k), refcheck=False)
        for c, new in zip(self.cols, (local[ego], ts, tower, kind, direction)):
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
    0x21-0x7E but the double quote (one CR before the LF is allowed),
    its ids are 1-64 bytes, its timestamp is YYYY-MM-DDTHH:MM:SS of a real
    date and time in the analysis year, its kind and direction are event
    tokens in any letter case, its tower is in the registry, and its ego is
    not its peer. parse_event_fields accepts every such row, with these
    values, and parse gives its rows in the shape that _row_block gives
    the rows it accepts.

    Each line costs a few operations on whole 8-byte words. The timestamp
    is checked as three words against a template of the year (fixed bytes
    equal, digit bytes 0-9) and its fields are read from those words. The
    kind and direction words are folded to lower case and looked up among
    the tokens. Towers are found by one searchsorted among the registry's
    ids held as sorted keys: one little-endian word each when every id fits
    in 8 bytes, byte strings of whole words otherwise.
    """

    def __init__(self, registry: TowerRegistry, analysis_year: int):
        starts = month_starts(analysis_year)
        self.ts_template = _ts_template(analysis_year)
        # the epoch second at which each day starts, by (month << 8) | day,
        # the two numbers as _pairs reads them; _NO_DAY where no such date is
        self.day_start = np.full(1 << 16, _NO_DAY, dtype=np.int64)
        for m in range(12):
            days = (starts[m + 1] - starts[m]) // 86400
            at = ((m + 1) << 8) + 1
            self.day_start[at: at + days] = starts[m] + 86400 * np.arange(days)
        # ids that no canonical line can hold are left out: padded with
        # zeros, one that ends in NUL bytes would equal a shorter id
        ids = [(t.encode(), i) for i, t in enumerate(registry.ids) if _fits_a_line(t)]
        self.tower_words = max([1] + [-(-len(t) // 8) for t, _ in ids])
        if self.tower_words == 1:
            keys = np.array([int.from_bytes(t, "little") for t, _ in ids], dtype=np.uint64)
        else:
            keys = np.array([t for t, _ in ids], dtype=f"S{8 * self.tower_words}")
        order = np.argsort(keys)
        self.tower_keys = keys[order]
        self.tower_index = np.array([i for _, i in ids], dtype=np.int32)[order]

    def parse(self, block: bytes):
        """(line starts, line ends past the LF, canonical line mask, and the
        canonical rows or None) of a block of whole lines followed by _PAD.
        The rows are
        (names, ego, ts, tower, kind, direction, links): names holds each
        distinct id the rows use once, ego indexes it, and links holds the
        distinct directed links a->b of the rows as sorted keys (a << 32) | b
        of indices into names. Nothing is shared with another block, so
        blocks may be parsed on several threads at once."""
        size = len(block) - len(_PAD)
        arr = np.frombuffer(block, dtype=np.uint8)
        b = arr[:size]
        # positions are int32 and temporaries are dropped once used: every
        # thread that parses holds a block's working set
        itype = np.int32 if size < 1 << 31 else np.intp
        stop = np.flatnonzero(b == 10).astype(itype)
        stop += 1
        starts = np.empty_like(stop)
        starts[0] = 0
        starts[1:] = stop[:-1]
        cr = (stop - starts > 1) & (b[stop - 2] == 13)
        # bytes outside 0x21-0x7E, and quotes: only the LF, and a CR before
        # it. Every line has those, so a block that has no more has none
        # elsewhere. A quote-free block pays one memchr for the quote.
        odd = b - np.uint8(0x21)
        odd = np.greater(odd, 0x5D, out=odd.view(bool))
        if b'"' in block:
            odd |= b == 0x22
        if np.count_nonzero(odd) == len(stop) + np.count_nonzero(cr):
            ok = np.ones(len(stop), dtype=bool)
        else:
            ok = np.diff(np.searchsorted(np.flatnonzero(odd), stop), prepend=0) == 1 + cr
        del odd
        # the commas before each line's end: the index of its first comma,
        # and how many it has
        commas = np.flatnonzero(b == 44).astype(itype)
        before = np.searchsorted(commas, stop).astype(itype)
        first = np.empty_like(before)
        first[0] = 0
        first[1:] = before[:-1]
        ok &= before - first == 5
        del before
        lines = np.flatnonzero(ok)
        canonical = np.zeros(len(starts), dtype=bool)
        if not len(lines):
            return starts, stop, canonical, None

        # field k of a line spans edge[k] + 1 .. edge[k + 1] - 1
        c = first[lines]
        edge = [starts[lines] - 1, *(commas[c + k] for k in range(5)),
                stop[lines] - 1 - cr[lines]]
        del c, commas, first
        lo = [e + 1 for e in edge[:6]]
        ln = [edge[k + 1] - lo[k] for k in range(6)]
        del edge
        good = (ln[2] == 19) & (ln[4] <= 8) & (ln[5] <= 8)
        for k in (0, 1, 3):
            good &= (ln[k] >= 1) & (ln[k] <= _MAX_ID_BYTES)
        u64 = np.ndarray(size + 57, dtype="<u8", buffer=arr, strides=(1,))
        kind, found = _match(_KIND_KEYS, _lower(_word(u64, lo[4], ln[4])))
        good &= found
        direction, found = _match(_DIRECTION_KEYS, _lower(_word(u64, lo[5], ln[5])))
        good &= found

        w = (u64[lo[2]], u64[lo[2] + 8], u64[lo[2] + 11])
        for word, (mask, want, six, carry) in zip(w, self.ts_template):
            good &= (word & mask) == want
            good &= ((word + six) & carry) == 0
        month = _pairs(w[0]) >> np.uint64(32) & np.uint64(0xFF00)
        day = self.day_start[month | _pairs(w[1]) & np.uint64(0xFF)]
        good &= day != _NO_DAY
        hh, mm, ss = (_pairs(w[2]) >> np.uint64(8 * k) & np.uint64(0xFF) for k in (0, 3, 6))
        del w, month
        good &= (hh <= 23) & (mm <= 59) & (ss <= 59)
        ts = day + (hh * np.uint64(3600) + mm * np.uint64(60) + ss).astype(np.int64)
        del day, hh, mm, ss

        nw = self.tower_words
        if nw == 1:
            key = _word(u64, lo[3], ln[3])
        else:
            key = _words(u64, lo[3], ln[3], nw).view(f"S{8 * nw}")[:, 0]
        tower, found = _lookup(self.tower_keys, key)
        good &= found & (ln[3] <= 8 * nw)
        del key, found
        if not good.any():
            return starts, stop, canonical, None

        # each distinct id of the block is named once
        m = len(lines)
        n = -(-int(max(ln[0].max(where=good, initial=0), ln[1].max(where=good, initial=0))) // 8)
        words = _words(u64, np.concatenate(lo[:2]), np.concatenate(ln[:2]), n)
        del lo, ln
        once, inv = _distinct(words)
        ego, peer = inv[:m], inv[m:]
        good &= ego != peer
        ego, peer = ego[good], peer[good]
        del inv
        used = np.zeros(len(once), dtype=bool)
        used[ego] = used[peer] = True
        # the index of each used id among the used ones
        index = np.cumsum(used, dtype=np.int32)
        index -= 1
        names = _text(words[once[used]])
        del words, once, used
        ego, peer = index[ego], index[peer]
        direction = direction[good]
        links = unique_sorted(_link_keys(ego, peer, direction))
        canonical[lines[good]] = True
        return starts, stop, canonical, (
            names, ego, ts[good], self.tower_index[tower[good]], kind[good], direction, links,
        )


def _row_block(rows, registry: TowerRegistry, year_start: int, year_end: int,
               stats: IngestStats):
    """The row path: each already-split row goes through parse_event_fields,
    and is counted with its reject reason. The valid rows come as
    _ByteParser.parse gives a block's canonical ones, (names, ego, ts,
    tower, kind, direction, links), or None when no row is valid."""
    valid = []
    for row in rows:
        stats.rows_read += 1
        try:
            valid.append(parse_event_fields(row, registry, year_start, year_end))
        except RowReject as rj:
            stats.reject(rj.reason)
    if not valid:
        return None
    ego, peer, ts, tower, kind, direction = zip(*valid)
    del valid
    index: dict[str, int] = {}
    ego, peer = (np.array([index.setdefault(name, len(index)) for name in ids], dtype=np.int32)
                 for ids in (ego, peer))
    direction = np.array(direction, dtype=np.int8)
    return (list(index), ego, np.array(ts, dtype=np.int64), np.array(tower, dtype=np.int32),
            np.array(kind, dtype=np.int8), direction,
            unique_sorted(_link_keys(ego, peer, direction)))


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


def _ties(same: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, run) of the rows of a table in (ego, ts) order that are
    equal in (ego, ts) to a neighbour, from same[r]: whether row r + 1
    equals row r. run numbers the runs of equal rows in order; it counts
    the changes in (ego, ts), not the runs of flagged rows, as two adjacent
    runs of ties make one of those."""
    after = np.zeros(len(same) + 1, dtype=bool)  # row r equals row r - 1
    after[1:] = same
    tie = after.copy()
    tie[:-1] |= same
    rows = np.flatnonzero(tie)
    return rows, np.cumsum(~after[rows])


def _tie_order(rows, run, tower, kind, direction) -> np.ndarray:
    """The rows of each run of ties in order by (tower, kind, direction,
    row), one run after another."""
    return rows[np.lexsort((rows, direction[rows], kind[rows], tower[rows], run))]


def _row_order(ego, ts, tower, kind, direction) -> np.ndarray:
    """The stable order by (ego, ts, tower, kind, direction): one argsort
    of (ego, ts) packed into int64, which int32 egos and timestamps of one
    year (under 2**25 s apart) fit in 56 bits; then each run of rows equal
    in (ego, ts), which are few, is put in order by the rest and by row.
    The argsort need not be stable, so it is numpy's quicksort, which
    takes no buffer: on a million keys nearly in order it took 22 ms where
    the stable sort took 57. The sorted keys come from a second, in-place
    sort, not a copy of the key in that order."""
    t0 = int(ts.min()) if len(ts) else 0
    # in-place steps, so that no temporary is the size of the key
    key = ego.astype(np.int64)
    key <<= (int(ts.max()) - t0).bit_length() if len(ts) else 0
    key += ts
    key -= t0
    order = np.argsort(key)
    key.sort()
    at, run = _ties(key[1:] == key[:-1])
    del key
    rows = order[at]
    order[at] = _tie_order(rows, run, tower, kind, direction)
    return order


def _in_order(ego: np.ndarray, ts: np.ndarray) -> bool:
    """Whether the rows are in (ego, ts) order already, as every generated
    corpus and any export sorted by subscriber are."""
    step = ego[1:] == ego[:-1]
    if not (step | (ego[1:] > ego[:-1])).all():
        return False
    step &= ts[1:] < ts[:-1]
    return not step.any()


def _sort_rows(ego, ts, tower, kind, direction) -> None:
    """Put the columns of a table in (ego, ts, tower, kind, direction, row)
    order in place. Rows that arrive in (ego, ts) order stay where they
    are, and only the runs of ties among them are put in order: no
    whole-table key, sort or gather is made. Rows in any other order are
    gathered by _row_order."""
    if _in_order(ego, ts):
        at, run = _ties((ego[1:] == ego[:-1]) & (ts[1:] == ts[:-1]))
        rows = _tie_order(at, run, tower, kind, direction)
        for c in (tower, kind, direction):  # ego and ts are equal within a run
            c[at] = c[rows]
        return
    order = _row_order(ego, ts, tower, kind, direction)
    for c in (ego, ts, tower, kind, direction):
        c[:] = c[order]


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
        links = np.concatenate(cols.links)
        cols.links.clear()
        ok[_linked(unique_sorted(links), reciprocity)] = True
        del links
    keep = ok[kept[0]]
    n = int(keep.sum())
    # filtered, coded and sorted in place, so that the table is the
    # gathered columns and every copy made on the way is a temporary
    for k, c in enumerate(kept):
        c[:n] = rank[c[keep]] if k == 0 else c[keep]
    del keep
    _sort_rows(*(c[:n] for c in kept))
    for c in kept:
        c.resize(n, refcheck=False)
    starts = np.flatnonzero(np.diff(kept[0], prepend=-1) != 0)
    table = EventTable(
        [names[i] for i in kept[0][starts].tolist()],
        np.append(starts, n).astype(np.int64),
        *kept[1:],
    )
    stats.individuals_kept = len(table)
    stats.individuals_removed = stats.individuals_seen - stats.individuals_kept
    stats.events_kept = n
    removed = [names[r] for r in np.sort(rank[seen & ~ok]).tolist()]
    log.info(
        "ingest: %d rows, %d valid, kept %d events of %d individuals (removed %d)",
        stats.rows_read, stats.events_valid, stats.events_kept,
        stats.individuals_kept, stats.individuals_removed,
    )
    return IngestResult(table, stats, analysis_year, reciprocity, removed)


def _blocks(fh, digest):
    """Each block of whole lines of a binary file from its position on,
    read _BLOCK_BYTES at a time and followed by _PAD; every line ends in
    an LF, one being added to a last line without it. Every byte read is
    fed to digest."""
    carry = b""
    while chunk := fh.read(_BLOCK_BYTES):
        digest.update(chunk)
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            carry += chunk  # no whole line yet
            continue
        yield b"".join((carry, memoryview(chunk)[:cut], _PAD))
        carry = chunk[cut:]
    if carry:
        yield carry + b"\n" + _PAD


def _trim_heap() -> None:
    """Give the C heap's free pages back to the system, where the C
    library is glibc. Each thread that parsed blocks allocated from a malloc
    arena of its own and kept the blocks' freed working sets there, where
    no allocation of the calling thread can reuse them: on the benchmark's
    crowd corpus that raised the report's peak RSS by up to 5 MiB."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def ingest_file(
    path,
    registry: TowerRegistry,
    *,
    analysis_year: int = 2008,
    reciprocity: str = "pair",
) -> IngestResult:
    """Ingest a CDR file, or a spool directory produced by write_spool.

    reciprocity="pair" keeps individuals with at least one reciprocal
    pair; "degree" is the weaker variant keeping anyone who has both an
    outgoing and an incoming link somewhere (not necessarily the same
    peer); "none" keeps everyone.

    The file is read as bytes in blocks cut at a newline. Canonical lines
    (see _ByteParser) are decoded in vectorised form, on one thread per
    CPU, two at most: numpy releases the interpreter lock in its kernels.
    This thread reads and hashes the blocks, and takes each block's result
    in file order. It passes the block's other lines, every run of them in
    line order, to one _row_block call: they are decoded as UTF-8 (an
    invalid byte makes its row a bad_encoding reject) and go through
    csv_rows and parse_event_fields; a line that holds a NUL byte is
    counted as a bad_encoding reject before csv.reader sees it. Both parts
    of a block enter the table through append_block, which interns their
    names, so every id gets the code a serial run gives it. A line
    that holds a double quote takes that row path on its own. A row that
    spans lines, as an unbalanced quote makes one, and a row that
    csv.reader refuses are a CdrError naming the line. The order in which
    rows are gathered does not show: the table is sorted on every column.
    With one CPU, or a file no larger than one block, every block is
    parsed in this thread; no thread outlives the call.

    One leading UTF-8 byte order mark is skipped, and so is a leading
    header row, without being counted: one whose timestamp does not parse
    and whose kind and direction are not event tokens either. A first row
    with only a bad timestamp is data, and is rejected as such. The
    result's sha256 is the file's, taken from the blocks as they are read.
    """
    if is_spool(path):
        return read_spool(path, registry, analysis_year, reciprocity)
    if reciprocity not in RECIPROCITY_RULES:
        raise ValueError(f"unknown reciprocity rule: {reciprocity!r}")
    stats = IngestStats()
    size = os.path.getsize(path)
    # a valid row has at least 14 bytes and a line end; past 16M rows the
    # columns grow in place
    cols = _Columns(min(size // 15 + 1, 1 << 24))
    parser = _ByteParser(registry, analysis_year)
    bounds = year_bounds(analysis_year)

    def nul_line(_):
        stats.rows_read += 1
        stats.reject("bad_encoding")

    def text_rows(block: bytes, line: int, starts, stop, slow):
        """The rows of every run of the block's lines at `slow`, read as
        text, in line order."""
        for run in np.split(slow, np.flatnonzero(np.diff(slow) != 1) + 1):
            text = block[starts[run[0]]: stop[run[-1]]].decode("utf-8", "surrogateescape")
            reader = csv_rows(io.StringIO(text, newline=""), path, nul_line, line + run[0])
            yield from _skip_header(reader) if line + run[0] == 1 else reader

    def add_block(block: bytes, line: int, parsed) -> int:
        """Rows of a block whose first line is line `line` of the file, in
        two parts: its canonical rows, as parser.parse decoded them, then
        its other lines through _row_block. Returns the number of lines."""
        starts, stop, canonical, decoded = parsed
        if decoded is not None:
            stats.rows_read += len(decoded[1])
            cols.append_block(*decoded)
        slow = np.flatnonzero(~canonical)
        if len(slow) and (rows := _row_block(text_rows(block, line, starts, stop, slow),
                                             registry, *bounds, stats)) is not None:
            cols.append_block(*rows)
        return len(starts)

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        mark = fh.read(len(_BOM))
        head = len(_BOM) if mark == _BOM else 0
        digest.update(mark[:head])
        fh.seek(head)
        line = 1  # the number of the next block's first line
        n_blocks = -(-size // _BLOCK_BYTES)  # a bound: blocks are cut only at LF
        read = 0
        with ordered_map(lambda block: (block, parser.parse(block)), _blocks(fh, digest), n_blocks,
                         ThreadPoolExecutor, _MAX_THREADS) as (threads, parsed):
            for block, result in parsed:
                line += add_block(block, line, result)
                read += 1
    if threads > 1:
        _trim_heap()
    result = _assemble(cols, stats, analysis_year, reciprocity)
    result.sha256 = digest.hexdigest()
    result.threads = max(1, min(threads, read))  # no more threads parsed than blocks
    return result


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
    it was ingested with). The ids are saved as one uint8 array, their
    UTF-8 text joined by NULs: a row whose id holds a NUL is rejected."""
    tab = result.table
    os.makedirs(out_dir, exist_ok=True)
    np.savez(
        os.path.join(out_dir, SPOOL_EVENTS),
        ids=np.frombuffer("\0".join(tab.ids).encode(), dtype=np.uint8),
        **{name: getattr(tab, name) for name in _SPOOL_ARRAYS},
    )
    write_json(os.path.join(out_dir, SPOOL_STATS), asdict(result.stats))
    write_json(os.path.join(out_dir, SPOOL_META), {
        "analysis_year": result.analysis_year, "reciprocity": result.reciprocity,
        "format": SPOOL_FORMAT, "towers_digest": registry.digest(),
    })


def _is_count(v) -> bool:
    """A JSON count: a non-negative integer, and not a boolean."""
    return type(v) is int and v >= 0


def read_spool(path, registry: TowerRegistry, analysis_year: int, reciprocity: str) -> IngestResult:
    """Load a spool directory. A spool in another format, or ingested for
    another year, reciprocity rule or tower table, is refused: its rows
    were cut to that year, filtered by that rule, and index those towers.
    The spool is machine-written, so a defect in any of its files is
    fatal, a missing stats.json included, and so is a table that breaks the
    dtypes, order and ranges an EventTable keeps: the dtypes write_spool
    writes, ids strictly ascending, timestamps in the year and ascending in
    each segment, kind and direction 0 or 1."""
    meta = read_json_object(os.path.join(path, SPOOL_META), "spool file")
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
    counts = read_json_object(stats_path, "spool file", [f.name for f in fields(IngestStats)])
    rejected = counts["rows_rejected"]
    if not (isinstance(rejected, dict) and all(map(_is_count, rejected.values()))
            and all(_is_count(v) for k, v in counts.items() if k != "rows_rejected")):
        raise CdrError(f"{stats_path}: malformed spool file: counts must be non-negative integers")
    stats = IngestStats(**counts)

    events = os.path.join(path, SPOOL_EVENTS)
    try:
        with np.load(events, allow_pickle=False) as z:
            text = z["ids"]
            cols = {name: z[name] for name in _SPOOL_ARRAYS}
        ids = text.tobytes().decode("utf-8").split("\0") if text.size else []
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as e:
        raise CdrError(f"{events}: unreadable spool: {e}")
    off, n = cols["offsets"], cols["ts"].size
    if not (
        text.dtype == np.uint8 and text.ndim == 1
        and all(cols[c].dtype == t for c, t in _SPOOL_ARRAYS.items())
        and off.shape == (len(ids) + 1,) and off[0] == 0 and off[-1] == n
        and (np.diff(off) > 0).all()
        and all(cols[c].shape == (n,) for c in list(_SPOOL_ARRAYS)[1:])
        and ((cols["tower"] >= 0) & (cols["tower"] < len(registry))).all()
    ):
        raise CdrError(f"{events}: malformed spool table")
    ts, lo, hi = cols["ts"], *year_bounds(analysis_year)
    back = ts[1:] < ts[:-1]
    back[off[1:-1] - 1] = False  # a segment may start before the last one ends
    for broken, what in (
        (not all(map(str.__lt__, ids, ids[1:])), "ids are not strictly ascending"),
        (((ts < lo) | (ts >= hi)).any(), f"a timestamp lies outside {analysis_year}"),
        (back.any(), "timestamps decrease inside a segment"),
        (any(((cols[c] != 0) & (cols[c] != 1)).any() for c in ("kind", "direction")),
         "a kind or direction is not 0 or 1"),
    ):
        if broken:
            raise CdrError(f"{events}: malformed spool table: {what}")
    if (stats.events_kept, stats.individuals_kept) != (n, len(ids)):
        raise CdrError(f"{stats_path}: events_kept {stats.events_kept} and individuals_kept "
                       f"{stats.individuals_kept} disagree with the {n} events of {len(ids)} "
                       f"individuals in {events}")
    return IngestResult(table=EventTable(ids, **cols), stats=stats, analysis_year=analysis_year,
                        reciprocity=reciprocity)
