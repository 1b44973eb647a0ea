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
import functools
import json
import logging
import os
import zipfile
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

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
SPOOL_FORMAT = 2
# EventTable columns saved in a spool, next to its ids and peer_ids (the names behind peer)
_SPOOL_ARRAYS = ("offsets", "ts", "tower", "kind", "direction", "peer")


@dataclass
class EventTable:
    """Kept events of every individual in one flat table, sorted by
    (ego id, timestamp, tower, kind, direction).

    Segment k, rows offsets[k]:offsets[k+1], holds the events of ids[k];
    ids are sorted. `tower` holds registry indices (int32), `kind`
    0=call 1=sms, `direction` 0=incoming 1=outgoing, and `peer`, when
    kept, indices into IngestResult.peer_ids.
    """

    ids: list[str]
    offsets: np.ndarray
    ts: np.ndarray
    tower: np.ndarray
    kind: np.ndarray
    direction: np.ndarray
    peer: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def ego(self) -> np.ndarray:
        """Segment index of every row."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.offsets))

    def positions(self, registry: TowerRegistry) -> tuple[np.ndarray, np.ndarray]:
        return registry.lat[self.tower], registry.lon[self.tower]


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
    # names behind table.peer, only when keep_peers
    peer_ids: list[str] | None = None


class _Columns:
    """Event columns gathered row by row; names are numbered as first seen."""

    def __init__(self):
        code: dict[str, int] = {}
        self.names = names = []
        self.cols = (array("i"), array("q"), array("i"), array("b"), array("b"), array("i"))
        put_ego, put_ts, put_tower, put_kind, put_dir, put_peer = (c.append for c in self.cols)

        def add(ego: str, peer: str, ts: int, tower: int, kind: int, direction: int):
            # runs once per row, so everything it touches is bound in advance
            e = code.get(ego)
            if e is None:
                e = code[ego] = len(names)
                names.append(ego)
            p = code.get(peer)
            if p is None:
                p = code[peer] = len(names)
                names.append(peer)
            put_ego(e)
            put_ts(ts)
            put_tower(tower)
            put_kind(kind)
            put_dir(direction)
            put_peer(p)
            return e, p

        self.add = add

    def table(self, keep: np.ndarray, peers: bool) -> EventTable:
        """The rows selected by the mask `keep`, sorted into an EventTable.
        Ego codes are replaced by the rank of their name first, so segments
        come out in id order; lexsort's primary key is the last."""
        cols = [np.asarray(c)[keep] for c in self.cols[: 6 if peers else 5]]
        names = self.names
        rank = np.empty(len(names), dtype=np.int32)
        rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
        order = np.lexsort((*cols[4:0:-1], rank[cols[0]]))
        for k, c in enumerate(cols):
            cols[k] = c[order]  # one column at a time: the unsorted one is freed
        starts = np.flatnonzero(np.diff(cols[0], prepend=-1) != 0)
        return EventTable(
            [names[i] for i in cols[0][starts].tolist()],
            np.append(starts, len(order)).astype(np.int64),
            *cols[1:5], cols[5] if peers else None,
        )


def ingest_rows(
    rows,
    registry: TowerRegistry,
    *,
    analysis_year: int = 2008,
    reciprocity: str = "pair",
    keep_peers: bool = False,
) -> IngestResult:
    """Filter and assemble an iterable of already-split CDR rows.

    reciprocity="pair" keeps individuals with at least one reciprocal
    pair; "degree" is the weaker variant keeping anyone who has both an
    outgoing and an incoming link somewhere (not necessarily the same
    peer); "none" keeps everyone.
    """
    if reciprocity not in ("pair", "degree", "none"):
        raise ValueError(f"unknown reciprocity rule: {reciprocity!r}")
    ys, ye = year_bounds(analysis_year)
    stats = IngestStats()

    cols = _Columns()
    edges: set[tuple[int, int]] = set()

    for row in rows:
        stats.rows_read += 1
        try:
            rec = parse_event_fields(row, ys, ye)
        except RowReject as rj:
            stats.reject(rj.reason)
            continue
        ti = registry.index_of(rec.tower_id)
        if ti is None:
            stats.reject("unknown_tower")
            continue
        outgoing = rec.direction != INCOMING
        e, p = cols.add(rec.ego_id, rec.peer_id, rec.timestamp, ti,
                        0 if rec.kind == CALL else 1, 1 if outgoing else 0)
        edges.add((e, p) if outgoing else (p, e))

    ego_np = np.asarray(cols.cols[0])
    stats.events_valid = len(ego_np)
    seen = np.unique(ego_np)
    stats.individuals_seen = len(seen)

    if reciprocity == "pair":
        qualified = {a for a, b in edges if (b, a) in edges}
    elif reciprocity == "degree":
        qualified = {a for a, _ in edges} & {b for _, b in edges}
    else:
        qualified = set(seen.tolist())

    ok = np.zeros(len(cols.names), dtype=bool)
    if qualified:
        ok[np.fromiter(qualified, dtype=np.int64, count=len(qualified))] = True
    keep = ok[ego_np]

    table = cols.table(keep, keep_peers)
    stats.individuals_kept = len(table)
    stats.individuals_removed = stats.individuals_seen - stats.individuals_kept
    stats.events_kept = int(keep.sum())
    removed = sorted(cols.names[e] for e in seen.tolist() if not ok[e])
    log.info(
        "ingest: %d rows, %d valid, kept %d events of %d individuals (removed %d)",
        stats.rows_read, stats.events_valid, stats.events_kept,
        stats.individuals_kept, stats.individuals_removed,
    )
    return IngestResult(
        table, stats, analysis_year, reciprocity, removed, cols.names if keep_peers else None
    )


def ingest_file(
    path,
    registry: TowerRegistry,
    *,
    analysis_year: int = 2008,
    reciprocity: str = "pair",
    keep_peers: bool = False,
) -> IngestResult:
    """Ingest a CDR file, or a spool directory produced by write_spool.

    A leading header row is skipped without being counted: one whose
    timestamp does not parse and whose kind and direction are not event
    tokens either. A first row with only a bad timestamp is data, and is
    rejected as such.
    """
    if is_spool(path):
        return read_spool(path, registry, analysis_year, reciprocity)

    def rows():
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is not None:
                if not _is_header(first):
                    yield first
                yield from reader

    return ingest_rows(
        rows(), registry,
        analysis_year=analysis_year, reciprocity=reciprocity, keep_peers=keep_peers,
    )


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
    if tab.peer is None or result.peer_ids is None:
        raise ValueError("spooling requires ingest with keep_peers=True")
    os.makedirs(out_dir, exist_ok=True)
    np.savez(
        os.path.join(out_dir, SPOOL_EVENTS),
        ids=np.array(tab.ids, dtype=str),
        peer_ids=np.array(result.peer_ids, dtype=str),
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


def read_spool(path, registry: TowerRegistry, analysis_year: int, reciprocity: str) -> IngestResult:
    """Load a spool directory. A spool in another format, or ingested for
    another year, reciprocity rule or tower table, is refused: its rows
    were cut to that year, filtered by that rule, and index those towers.
    The table is machine-written, so a defect in it is fatal."""
    with open(os.path.join(path, SPOOL_META), encoding="utf-8") as fh:
        meta = json.load(fh)
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
    stats = IngestStats()
    stats_path = os.path.join(path, SPOOL_STATS)
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            stats = IngestStats(**json.load(fh))

    events = os.path.join(path, SPOOL_EVENTS)
    try:
        with np.load(events, allow_pickle=False) as z:
            ids, peer_ids = z["ids"].tolist(), z["peer_ids"].tolist()
            cols = {name: z[name] for name in _SPOOL_ARRAYS}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as e:
        raise CdrError(f"{events}: unreadable spool: {e}")
    off, n = cols["offsets"], cols["ts"].size
    if not (
        off.shape == (len(ids) + 1,) and off[0] == 0 and off[-1] == n
        and (np.diff(off) > 0).all()
        and all(cols[c].shape == (n,) for c in _SPOOL_ARRAYS[1:])
        and all(((cols[c] >= 0) & (cols[c] < m)).all()
                for c, m in (("tower", len(registry)), ("peer", len(peer_ids))))
    ):
        raise CdrError(f"{events}: malformed spool table")
    return IngestResult(table=EventTable(ids, **cols), stats=stats, analysis_year=analysis_year,
                        reciprocity=reciprocity, peer_ids=peer_ids)
