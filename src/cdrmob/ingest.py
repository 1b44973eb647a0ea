"""Event stream ingestion: validation, reciprocity filtering, and
assembly of per-individual timelines.

A directed link a->b exists when any row shows a calling or texting b,
regardless of which side's record it appears on (an outgoing row of ego a
with peer b and an incoming row of ego b with peer a are the same claim).
A pair is reciprocal when both directions exist. The default filter keeps
an individual when they participate in at least one reciprocal pair, and
keeps all of that individual's events; everyone else is dropped entirely.
This removes one-way sources (spam, robocalls) that would otherwise inflate
activity counts.

Timelines hold events as parallel numpy arrays, sorted by
(timestamp, tower id, kind, direction) so that every downstream pass is
order-deterministic even with duplicate timestamps. Tower order uses the
registry index, which is constructed to match tower-id string order.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

from .records import (
    CALL,
    INCOMING,
    CdrError,
    RowReject,
    TowerRegistry,
    parse_event_fields,
    parse_timestamp,
    year_bounds,
)

log = logging.getLogger(__name__)

KIND_BY_CODE = (CALL, "sms")
DIRECTION_SHORT_BY_CODE = ("in", "out")

SPOOL_EVENTS = "events.csv"
SPOOL_META = "meta.json"
SPOOL_STATS = "stats.json"


@dataclass
class Timeline:
    """All kept events of one individual, time-ordered.

    `tower` holds registry indices (int32), `kind` 0=call 1=sms,
    `direction` 0=incoming 1=outgoing.
    """

    ego_id: str
    ts: np.ndarray
    tower: np.ndarray
    kind: np.ndarray
    direction: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

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
    timelines: dict[str, Timeline]
    stats: IngestStats
    analysis_year: int
    reciprocity: str
    # peer index arrays aligned with each timeline, only when keep_peers
    peers: dict[str, np.ndarray] | None = None
    peer_ids: list[str] | None = None
    # ids that had valid rows but were dropped by the reciprocity rule
    removed_ids: list[str] = field(default_factory=list)


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

    ids: dict[str, int] = {}
    id_list: list[str] = []
    ego_c = array("i")
    peer_c = array("i")
    ts_c = array("q")
    tower_c = array("i")
    kind_c = array("b")
    dir_c = array("b")
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
        e = ids.get(rec.ego_id)
        if e is None:
            e = len(id_list)
            ids[rec.ego_id] = e
            id_list.append(rec.ego_id)
        p = ids.get(rec.peer_id)
        if p is None:
            p = len(id_list)
            ids[rec.peer_id] = p
            id_list.append(rec.peer_id)
        ego_c.append(e)
        peer_c.append(p)
        ts_c.append(rec.timestamp)
        tower_c.append(ti)
        kind_c.append(0 if rec.kind == CALL else 1)
        outgoing = rec.direction != INCOMING
        dir_c.append(1 if outgoing else 0)
        edges.add((e, p) if outgoing else (p, e))

    stats.events_valid = len(ts_c)
    ego_np = np.frombuffer(ego_c, dtype=np.int32) if ego_c else np.empty(0, np.int32)
    seen = np.unique(ego_np)
    stats.individuals_seen = len(seen)

    if reciprocity == "pair":
        qualified = {a for a, b in edges if (b, a) in edges}
    elif reciprocity == "degree":
        qualified = {a for a, _ in edges} & {b for _, b in edges}
    else:
        qualified = set(seen.tolist())

    ok = np.zeros(len(id_list), dtype=bool)
    if qualified:
        ok[np.fromiter(qualified, dtype=np.int64, count=len(qualified))] = True
    keep = ok[ego_np]

    timelines, peers = _assemble(
        ego_np[keep],
        np.frombuffer(ts_c, dtype=np.int64)[keep] if ts_c else np.empty(0, np.int64),
        np.frombuffer(tower_c, dtype=np.int32)[keep] if tower_c else np.empty(0, np.int32),
        np.frombuffer(kind_c, dtype=np.int8)[keep] if kind_c else np.empty(0, np.int8),
        np.frombuffer(dir_c, dtype=np.int8)[keep] if dir_c else np.empty(0, np.int8),
        (np.frombuffer(peer_c, dtype=np.int32)[keep] if peer_c else np.empty(0, np.int32))
        if keep_peers else None,
        id_list,
    )
    stats.individuals_kept = len(timelines)
    stats.individuals_removed = stats.individuals_seen - stats.individuals_kept
    stats.events_kept = int(keep.sum())
    removed = sorted(id_list[int(e)] for e in seen if not ok[int(e)])
    log.info(
        "ingest: %d rows, %d valid, kept %d events of %d individuals (removed %d)",
        stats.rows_read, stats.events_valid, stats.events_kept,
        stats.individuals_kept, stats.individuals_removed,
    )
    return IngestResult(
        timelines, stats, analysis_year, reciprocity, peers,
        id_list if keep_peers else None, removed,
    )


def _assemble(ego, ts, tower, kind, direction, peer, id_list):
    """Group filtered event columns into per-ego Timelines, each sorted by
    (ts, tower, kind, direction). lexsort's primary key is the last."""
    order = np.lexsort((direction, kind, tower, ts, ego))
    ego = ego[order]
    ts, tower, kind, direction = ts[order], tower[order], kind[order], direction[order]
    if peer is not None:
        peer = peer[order]
    timelines: dict[str, Timeline] = {}
    peers: dict[str, np.ndarray] = {}
    bounds = np.flatnonzero(np.diff(ego)) + 1
    starts = np.concatenate(([0], bounds)) if len(ego) else np.empty(0, np.int64)
    ends = np.concatenate((bounds, [len(ego)])) if len(ego) else np.empty(0, np.int64)
    for s, t in zip(starts, ends):
        name = id_list[ego[s]]
        timelines[name] = Timeline(
            name, ts[s:t].copy(), tower[s:t].copy(), kind[s:t].copy(), direction[s:t].copy()
        )
        if peer is not None:
            peers[name] = peer[s:t].copy()
    return timelines, (peers if peer is not None else None)


def ingest_file(
    path,
    registry: TowerRegistry,
    *,
    analysis_year: int = 2008,
    reciprocity: str = "pair",
    keep_peers: bool = False,
) -> IngestResult:
    """Ingest a CDR file, or a spool directory produced by write_spool.

    A leading header row is detected by an unparseable timestamp column
    and skipped without being counted as a reject.
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
        return True


def is_spool(path) -> bool:
    return os.path.isdir(path) and os.path.exists(os.path.join(path, SPOOL_EVENTS))


def write_spool(result: IngestResult, registry: TowerRegistry, out_dir) -> None:
    """Persist a filtered event stream: events.csv (integer timestamps,
    grouped by individual in id order), stats.json, meta.json."""
    if result.peers is None or result.peer_ids is None:
        raise ValueError("spooling requires ingest with keep_peers=True")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, SPOOL_EVENTS), "w", encoding="utf-8") as fh:
        for ego in sorted(result.timelines):
            tl = result.timelines[ego]
            pidx = result.peers[ego]
            for i in range(len(tl)):
                fh.write(
                    f"{ego},{result.peer_ids[pidx[i]]},{tl.ts[i]},"
                    f"{registry.ids[tl.tower[i]]},{KIND_BY_CODE[tl.kind[i]]},"
                    f"{DIRECTION_SHORT_BY_CODE[tl.direction[i]]}\n"
                )
    with open(os.path.join(out_dir, SPOOL_STATS), "w", encoding="utf-8") as fh:
        json.dump(asdict(result.stats), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, SPOOL_META), "w", encoding="utf-8") as fh:
        json.dump(
            {"analysis_year": result.analysis_year, "reciprocity": result.reciprocity, "format": 1},
            fh, indent=2,
        )
        fh.write("\n")


def read_spool(path, registry: TowerRegistry, analysis_year: int, reciprocity: str) -> IngestResult:
    """Load a spool directory. The stream is machine-written and already
    filtered, so defects here are fatal rather than counted. A spool
    ingested for another year or reciprocity rule is refused: its rows
    were already cut to that year and filtered by that rule."""
    with open(os.path.join(path, SPOOL_META), encoding="utf-8") as fh:
        meta = json.load(fh)
    for key, want in (("analysis_year", analysis_year), ("reciprocity", reciprocity)):
        if meta.get(key) != want:
            raise CdrError(
                f"spool {path} was ingested with {key}={meta.get(key, 'unknown')}, "
                f"not {want}; re-run ingest with the settings of this analysis"
            )
    stats = IngestStats()
    stats_path = os.path.join(path, SPOOL_STATS)
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        stats = IngestStats(**loaded)

    ids: dict[str, int] = {}
    id_list: list[str] = []
    ego_c = array("i")
    peer_c = array("i")
    ts_c = array("q")
    tower_c = array("i")
    kind_c = array("b")
    dir_c = array("b")
    kind_code = {k: i for i, k in enumerate(KIND_BY_CODE)}
    dir_code = {d: i for i, d in enumerate(DIRECTION_SHORT_BY_CODE)}
    events = os.path.join(path, SPOOL_EVENTS)
    with open(events, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 6:
                raise CdrError(f"{events}:{lineno}: malformed spool row")
            ego, peer, ts_s, tower, kind, direction = row
            ti = registry.index_of(tower)
            if ti is None:
                raise CdrError(f"{events}:{lineno}: unknown tower {tower!r}")
            try:
                ts = int(ts_s)
                k = kind_code[kind]
                d = dir_code[direction]
            except (ValueError, KeyError):
                raise CdrError(f"{events}:{lineno}: malformed spool row")
            for name in (ego, peer):
                if name not in ids:
                    ids[name] = len(id_list)
                    id_list.append(name)
            ego_c.append(ids[ego])
            peer_c.append(ids[peer])
            ts_c.append(ts)
            tower_c.append(ti)
            kind_c.append(k)
            dir_c.append(d)

    n = len(ts_c)
    timelines, peers = _assemble(
        np.frombuffer(ego_c, dtype=np.int32) if n else np.empty(0, np.int32),
        np.frombuffer(ts_c, dtype=np.int64) if n else np.empty(0, np.int64),
        np.frombuffer(tower_c, dtype=np.int32) if n else np.empty(0, np.int32),
        np.frombuffer(kind_c, dtype=np.int8) if n else np.empty(0, np.int8),
        np.frombuffer(dir_c, dtype=np.int8) if n else np.empty(0, np.int8),
        np.frombuffer(peer_c, dtype=np.int32) if n else np.empty(0, np.int32),
        id_list,
    )
    return IngestResult(timelines, stats, analysis_year, reciprocity, peers, id_list)
