"""Reciprocity filtering, header detection, event-table assembly, and the
agreement of ingest_file's byte path with the row path.

The link model: an outgoing row of ego a with peer b and an incoming row
of ego b with peer a are the same directed claim a->b. A pair is
reciprocal only when both directions are claimed.
"""

import hashlib
import io
import os
import random
import re
import threading
import warnings
from dataclasses import asdict, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_rows

from cdrmob import ingest, synth
from cdrmob.ingest import (
    ingest_file,
    is_spool,
    read_spool,
    write_spool,
)
from cdrmob.records import (
    CdrError,
    TowerRegistry,
    csv_rows,
    format_timestamp,
    unique_sorted,
    year_bounds,
)

REG = TowerRegistry({"T1": (40.0, 20.0), "T2": (40.1, 20.1), "T3": (40.2, 20.2)})

_T = "2008-06-01T{:02d}:00:00"


def _row(ego, peer, hour, tower="T1", kind="call", direction="out"):
    return [ego, peer, _T.format(hour), tower, kind, direction]


def _ingest(tmp_path, rows, **kw):
    """ingest_file of the rows, written to a CSV file under tmp_path."""
    return ingest_file(write_rows(tmp_path / "rows.csv", rows), REG, **kw)


def test_pair_rule_keeps_reciprocal_pairs_only(tmp_path):
    rows = [
        _row("a", "b", 1, direction="out"),
        _row("b", "a", 2, direction="out"),
        # s sprays messages but never receives one
        _row("s", "a", 3, direction="out"),
        _row("s", "b", 4, direction="out"),
    ]
    res = _ingest(tmp_path, rows)
    assert res.table.ids == ["a", "b"]
    assert res.removed_ids == ["s"]
    # survivors keep all their events, including those with dropped peers
    assert res.table.offsets.tolist() == [0, 1, 2]
    assert res.stats.individuals_seen == 3
    assert res.stats.individuals_removed == 1
    assert res.stats.events_kept == 2


def test_mirrored_rows_are_one_claim_not_a_pair(tmp_path):
    # both rows describe the single link a->b, so nobody is reciprocal
    rows = [
        _row("a", "b", 1, direction="out"),
        _row("b", "a", 1, direction="in"),
    ]
    res = _ingest(tmp_path, rows)
    assert res.table.ids == [] and len(res.table.ts) == 0
    assert res.removed_ids == ["a", "b"]


def test_degree_rule_is_weaker_than_pair(tmp_path):
    # a has an outgoing link to b and an incoming one from c: in and out
    # degree without any reciprocal pair
    rows = [
        _row("a", "b", 1, direction="out"),
        _row("a", "c", 2, direction="in"),
    ]
    assert _ingest(tmp_path, rows).table.ids == []
    res = _ingest(tmp_path, rows, reciprocity="degree")
    assert res.table.ids == ["a"]
    res_none = _ingest(tmp_path, rows, reciprocity="none")
    assert res_none.table.ids == ["a"]
    with pytest.raises(ValueError):
        _ingest(tmp_path, rows, reciprocity="sometimes")


def test_unknown_tower_counted_not_fatal(tmp_path):
    rows = [
        _row("a", "b", 1),
        _row("b", "a", 2, tower="T9"),
        _row("b", "a", 3),
    ]
    res = _ingest(tmp_path, rows)
    assert res.stats.rows_rejected == {"unknown_tower": 1}
    assert res.stats.events_valid == 2
    assert res.table.ids == ["a", "b"]


def test_timeline_sorted_with_tie_breaks(tmp_path):
    # same timestamp everywhere: order must come from tower
    rows = [
        _row("a", "b", 1, tower="T2", kind="sms", direction="out"),
        _row("a", "b", 1, tower="T1", kind="sms", direction="out"),
        _row("a", "b", 1, tower="T1", kind="call", direction="out"),
        _row("b", "a", 2),
    ]
    res = _ingest(tmp_path, rows)
    tab = res.table
    assert tab.ids == ["a", "b"] and tab.offsets.tolist() == [0, 3, 4]
    assert tab.tower[:3].tolist() == [0, 0, 1]
    # kind and direction are read while ingesting, and kept nowhere
    assert [f.name for f in fields(tab)] == ["ids", "offsets", "ts", "tower"]
    assert np.all(tab.ts[:2] <= tab.ts[1:3])


def test_segments_follow_id_order_not_first_appearance(tmp_path):
    # z is seen first, and b only as a peer before it is an ego
    rows = [_row("z", "b", 5), _row("b", "z", 6), _row("a", "b", 1), _row("b", "a", 2)]
    tab = _ingest(tmp_path, rows).table
    assert tab.ids == ["a", "b", "z"]
    assert tab.offsets.tolist() == [0, 1, 3, 4]
    assert [(t - tab.ts[0]) // 3600 for t in tab.ts.tolist()] == [0, 1, 5, 4]


def test_empty_input(tmp_path):
    res = _ingest(tmp_path, [])
    assert res.table.ids == [] and res.table.offsets.tolist() == [0]
    assert res.stats.rows_read == 0


def _assert_same_table(t1, t2):
    assert t1.ids == t2.ids
    for col in ("offsets", "ts", "tower"):
        assert np.array_equal(getattr(t1, col), getattr(t2, col)), col


_IDS = ("a", "b", "c", "d", "e")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_IDS),
            st.sampled_from(_IDS),
            st.integers(0, 23),
            st.sampled_from(("T1", "T2", "T3")),
            st.sampled_from(("call", "sms")),
            st.sampled_from(("in", "out")),
        ),
        max_size=40,
    )
)
def test_filter_is_idempotent(tmp_path_factory, raw):
    rows = [_row(e, p, h, t, k, d) for e, p, h, t, k, d in raw if e != p]
    tmp = tmp_path_factory.mktemp("rows")
    first = _ingest(tmp, rows)
    kept = set(first.table.ids)
    again = _ingest(tmp, [r for r in rows if r[0] in kept])
    _assert_same_table(first.table, again.table)


def test_ingest_file_skips_header(tmp_path):
    p = tmp_path / "cdr.csv"
    p.write_text(
        "ego_id,peer_id,timestamp,tower_id,kind,direction\n"
        "a,b,2008-06-01T10:00:00,T1,call,out\n"
        "b,a,2008-06-01T11:00:00,T1,call,out\n"
    )
    res = ingest_file(p, REG)
    assert res.stats.rows_read == 2  # header not counted as a row
    assert res.stats.rows_rejected == {}
    assert res.table.ids == ["a", "b"]
    # a quoted header sends the whole file down the row path, and is
    # skipped there too
    p.write_text('"ego_id","peer_id","timestamp","tower_id","kind","direction"\n'
                 + p.read_text().split("\n", 1)[1])
    res = ingest_file(p, REG)
    assert res.stats.rows_read == 2 and res.stats.rows_rejected == {}


def test_bad_first_row_is_counted_not_taken_for_a_header(tmp_path):
    # a data row whose only defect is its timestamp is rejected as such
    p = tmp_path / "cdr.csv"
    p.write_text(
        "u1,u2,2008-13-45T10:00:00,T1,call,out\n"
        "u1,u2,2008-06-01T10:00:00,T1,call,out\n"
        "u2,u1,2008-06-01T11:00:00,T1,call,out\n"
    )
    res = ingest_file(p, REG)
    assert res.stats.rows_read == 3
    assert res.stats.rows_rejected == {"bad_timestamp": 1}
    assert res.stats.events_kept == 2
    # a short header has no event tokens either, and is still skipped
    p.write_text("ego,peer,when\n" + p.read_text().split("\n", 1)[1])
    res = ingest_file(p, REG)
    assert res.stats.rows_read == 2 and res.stats.rows_rejected == {}


def test_spool_round_trip(tmp_path):
    rows = [
        _row("a", "b", 1, tower="T2", kind="sms"),
        _row("b", "a", 2),
        _row("a", "c", 3, direction="in"),
        _row("s", "a", 4),
    ]
    first = _ingest(tmp_path, rows)
    spool = tmp_path / "spool"
    write_spool(first, REG, spool)
    assert is_spool(spool) and not is_spool(tmp_path / "nope")
    back = read_spool(spool, REG, 2008, "pair")
    assert back.analysis_year == first.analysis_year
    assert back.stats.events_kept == first.stats.events_kept
    _assert_same_table(first.table, back.table)
    for col in ("offsets", "ts", "tower"):
        assert getattr(back.table, col).dtype == getattr(first.table, col).dtype, col
    # writing the same table twice gives the same bytes
    write_spool(first, REG, tmp_path / "again")
    assert (spool / "events.npz").read_bytes() == (tmp_path / "again" / "events.npz").read_bytes()
    # a spool is only valid for the year, rule and tower table it was
    # ingested with; one whose metadata lacks them cannot be checked and is
    # refused too
    moved = TowerRegistry({"T1": (40.0, 20.0), "T2": (40.1, 20.2), "T3": (40.2, 20.2)})
    for year, rule, reg in ((2009, "pair", REG), (2008, "none", REG), (2008, "pair", moved)):
        with pytest.raises(CdrError, match="re-run ingest"):
            read_spool(spool, reg, year, rule)
    # so is a spool of an older format: 1 held CSV rows, 2 a peer column,
    # 3 its ids as fixed-width text, 4 a kind and a direction column
    for fmt in (1, 2, 3, 4):
        (spool / "meta.json").write_text(
            f'{{"analysis_year": 2008, "reciprocity": "pair", "format": {fmt}}}\n')
        with pytest.raises(CdrError, match="re-run ingest"):
            ingest_file(spool, REG)


def test_spool_does_not_depend_on_row_order(tmp_path):
    # rows of u1 that tie on (ego, ts, tower) and differ in peer and kind;
    # the upper-case ones take the row path, and small blocks mix the two
    # paths
    rows = [f"u1,{peer},2008-06-01T10:00:00,T1,{kind},out\n"
            for peer in ("u2", "u3", "u4") for kind in ("call", "CALL")]
    rows += [f"{a},{b},2008-06-0{d}T0{d}:00:00,T{d},sms,in\n"
             for d in (1, 2, 3) for a, b in (("u2", "u1"), ("u3", "u4"))]
    rng = random.Random(5)
    spools = set()
    for k in range(4):
        rng.shuffle(rows)
        p = tmp_path / f"cdr{k}.csv"
        p.write_text("".join(rows))
        for block in (64, 1 << 20):
            with mock.patch.object(ingest, "_BLOCK_BYTES", block):
                res = ingest_file(p, REG, reciprocity="none")
            write_spool(res, REG, tmp_path / "spool")
            spools.add((tmp_path / "spool" / "events.npz").read_bytes())
    assert len(spools) == 1


def test_spool_holds_exactly_the_arrays_it_reads(tmp_path):
    res = _ingest(tmp_path, [_row("a", "b", 1), _row("b", "a", 2)])
    spool = tmp_path / "spool"
    write_spool(res, REG, spool)
    with np.load(spool / "events.npz") as z:
        cols = dict(z)
    assert sorted(cols) == ["ids", "offsets", "tower", "ts"]
    # and read_spool needs every one of them
    for name in cols:
        np.savez(spool / "events.npz", **{k: v for k, v in cols.items() if k != name})
        with pytest.raises(CdrError, match="unreadable spool"):
            read_spool(spool, REG, 2008, "pair")


def test_spool_with_a_damaged_table_is_refused(tmp_path):
    res = _ingest(tmp_path, [_row("a", "b", 1), _row("b", "a", 2)])
    spool = tmp_path / "spool"
    write_spool(res, REG, spool)
    with np.load(spool / "events.npz") as z:
        cols = dict(z)
    # towers past the end of the registry, ids that are not one UTF-8 text
    for name, bad in (("tower", cols["tower"] + len(REG)), ("ids", np.array(["a", "b"]))):
        np.savez(spool / "events.npz", **{**cols, name: bad})
        with pytest.raises(CdrError, match="malformed spool"):
            read_spool(spool, REG, 2008, "pair")
    np.savez(spool / "events.npz", **{**cols, "ids": np.array([0xFF], dtype=np.uint8)})
    with pytest.raises(CdrError, match="unreadable spool"):
        read_spool(spool, REG, 2008, "pair")
    (spool / "events.npz").write_bytes(b"not a zip archive")
    with pytest.raises(CdrError, match="unreadable spool"):
        read_spool(spool, REG, 2008, "pair")


# ------------------------------------------------ byte path against row path


def _by_rows(path, registry=REG, **kw):
    """ingest_file with the byte path off: parse marks no line canonical,
    so every line takes the row path, in blocks as large as the file. What
    ingest_file must equal."""
    parse = ingest._ByteParser.parse

    def no_canonical(parser, block):
        starts, stop, _, _ = parse(parser, block)
        return starts, stop, np.zeros(len(starts), dtype=bool), None

    with mock.patch.object(ingest._ByteParser, "parse", no_canonical), \
            mock.patch.object(ingest, "_BLOCK_BYTES", max(os.path.getsize(path), 1)):
        return ingest_file(path, registry, **kw)


def _outcome(fn):
    """fn()'s result, or the text of the CdrError it raises."""
    try:
        return fn()
    except CdrError as e:
        return str(e)


def _assert_same_result(got, want):
    _assert_same_table(got.table, want.table)
    assert asdict(got.stats) == asdict(want.stats)
    assert got.removed_ids == want.removed_ids


def _mutate(fields: list[str], how: str, arg: int) -> bytes:
    """One CDR line (without its line end) after one mutation."""
    f = list(fields)
    k = arg % 6
    if how == "upper":
        f[4 + arg] = f[4 + arg].upper()
    elif how == "space":
        f[k] = " " + f[k] if arg % 2 else f[k] + "\t"
    elif how == "quote":
        f[k] = '"' + f[k] + '"'
    elif how == "quoted_comma":
        f[k] = '"' + f[k] + ',x"'
    elif how == "quoted_newline":
        f[k] = '"' + f[k] + '\nx"'
    elif how == "lone_cr":
        f[k] = f[k] + "\r"
    elif how == "digit":
        pos = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18)[arg]
        f[2] = f[2][:pos] + ("+", " ", "x", "٣", "１")[arg % 5] + f[2][pos + 1:]
    elif how == "date":
        f[2] = ("2007-06-01T10:00:00", "2009-01-01T00:00:00", "2008-02-30T10:00:00",
                "2008-13-01T10:00:00", "2008-06-00T10:00:00", "2008-06-01T24:00:00",
                "2008-06-01T10:60:00", "2008-06-01T10:00:60", "2008-06-01 10:00:00",
                "2008-06-01T10:00", "2008-02-29T23:59:59", "2008-04-31T10:00:00")[arg]
    elif how == "tower":
        f[3] = ("T9", "T", "T10", "t1", "")[arg]
    elif how == "self":
        f[1] = f[0]
    elif how == "missing":
        f = f[:arg]
    elif how == "extra":
        f.append("x")
    elif how == "token":
        f[4 + arg % 2] = ("sms", "in", "incoming", "outgoing", "fax", "i", "")[arg]
    elif how == "long_id":
        f[0] = f[0] * arg
    elif how == "utf8":
        f[k] = f[k] + "é"
    elif how == "nul":
        f[k] = f[k] + "\0"
    line = ",".join(f).encode()
    if how == "invalid_utf8":
        line = line[:arg] + b"\xff" + line[arg:]
    return b"" if how == "empty" else line


# (mutation, argument): every variant _mutate knows, and no mutation
# several times over, so that most rows stay canonical
_VARIANTS = (
    [("none", 0)] * 20
    + [("upper", i) for i in range(2)]
    + [("space", i) for i in range(6)]
    + [("quote", i) for i in (0, 2, 5)]
    + [("quoted_comma", i) for i in (0, 3)]
    + [("quoted_newline", i) for i in (1, 5)]
    + [("lone_cr", i) for i in (0, 2, 5)]
    + [("digit", i) for i in range(14)]
    + [("date", i) for i in range(12)]
    + [("tower", i) for i in range(5)]
    + [("self", 0), ("extra", 0), ("empty", 0)]
    + [("missing", i) for i in range(6)]
    + [("token", i) for i in range(7)]
    + [("long_id", i) for i in (9, 70)]
    + [("utf8", i) for i in (0, 3)]
    + [("invalid_utf8", i) for i in (0, 5, 20)]
    + [("nul", i) for i in (0, 3)]
)


def _cdr_bytes(lines, header: bool, final_newline: bool) -> bytes:
    """lines: (fields, mutation, argument, CRLF?) per line."""
    out = [b"ego_id,peer_id,timestamp,tower_id,kind,direction\n"] if header else []
    for fields, how, arg, crlf in lines:
        out.append(_mutate(fields, how, arg) + (b"\r\n" if crlf else b"\n"))
    data = b"".join(out)
    return data if final_newline else data.rstrip(b"\n")


_lines = st.lists(
    st.tuples(
        st.tuples(
            st.sampled_from(_IDS),
            st.sampled_from(_IDS),
            # few distinct hours, so that rows often tie on every sort key
            st.sampled_from([_T.format(h) for h in (1, 2, 3)]),
            st.sampled_from(("T1", "T2", "T3")),
            st.sampled_from(("call", "sms")),
            st.sampled_from(("in", "out", "incoming", "outgoing")),
        ).map(lambda f: [f[0], f[1] if f[1] != f[0] else "z", *f[2:]]),
        st.sampled_from(_VARIANTS),
        st.booleans(),
    ).map(lambda t: (t[0], *t[1], t[2])),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_lines, st.booleans(), st.booleans(), st.sampled_from((1, 7, 64, 1 << 20)),
       st.sampled_from(("pair", "degree", "none")))
def test_byte_path_equals_row_path(tmp_path_factory, lines, header, final_newline, block, rule):
    path = tmp_path_factory.mktemp("cdr") / "cdr.csv"
    path.write_bytes(_cdr_bytes(lines, header, final_newline))
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):
        got = _outcome(lambda: ingest_file(path, REG, reciprocity=rule))
    want = _outcome(lambda: _by_rows(path, reciprocity=rule))
    if isinstance(want, str):
        # a quoted field ran past its line: both refuse the file, at one line
        assert got == want
    else:
        _assert_same_result(got, want)


@pytest.mark.parametrize("block", [1, 64, 1 << 20])
def test_byte_path_equals_row_path_on_every_variant(tmp_path, block):
    # each variant once, between canonical rows that tie with it on every
    # sort key but the peer. A quoted line end refuses the file
    # (test_a_row_that_spans_lines_is_refused).
    variants = [v for v in dict.fromkeys(_VARIANTS) if v[0] != "quoted_newline"]
    lines = []
    for how, arg in variants:
        for crlf in (False, True):
            lines.append((["a", "b", _T.format(1), "T1", "call", "out"], "none", 0, crlf))
            lines.append((["a", "c", _T.format(1), "T1", "call", "out"], how, arg, crlf))
            lines.append((["b", "a", _T.format(2), "T2", "sms", "in"], "none", 0, crlf))
    path = tmp_path / "cdr.csv"
    path.write_bytes(_cdr_bytes(lines, True, True))
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):
        got = ingest_file(path, REG)
    want = _by_rows(path)
    _assert_same_result(got, want)
    assert set(want.stats.rows_rejected) == {
        "bad_encoding", "bad_timestamp", "outside_year", "unknown_tower", "self_call",
        "missing_column", "bad_kind", "bad_direction"}


@pytest.mark.parametrize("block", [1, 64, 1 << 20])
def test_a_quoted_line_alone_takes_the_row_path(tmp_path, block):
    # the lines after a quote went row by row too, to the end of the file
    rows = [f"{a},{b},2008-06-01T{h:02d}:00:00,T1,call,out"
            for h, (a, b) in enumerate(["ab", "ba", "ac", "ca", "bc", "cb"])]
    rows[1] = rows[1].replace("b,a,", '"b",a,')
    p = tmp_path / "cdr.csv"
    p.write_text("\n".join(rows) + "\n")
    row_block = ingest._row_block
    seen = []

    def counted(rows, *args):
        rows = list(rows)
        seen.extend(rows)
        return row_block(rows, *args)

    with mock.patch.object(ingest, "_BLOCK_BYTES", block), \
            mock.patch.object(ingest, "_row_block", counted):
        got = ingest_file(p, REG)
    assert seen == [["b", "a", "2008-06-01T01:00:00", "T1", "call", "out"]]
    assert got.stats.rows_read == got.stats.events_valid == 6
    _assert_same_result(got, _by_rows(p))


@pytest.mark.parametrize("block", [1, 64, 1 << 20])
def test_a_row_that_spans_lines_is_refused(tmp_path, block):
    # a stray quote with fewer than csv's 131,072 characters after it made
    # the rest of the file one field: one missing_column reject, and exit 0
    rows = [f"a,b,2008-06-01T10:{m:02d}:00,T1,call,out" for m in range(60)]
    header = "ego_id,peer_id,timestamp,tower_id,kind,direction"
    cases = [  # (lines, line of the row refused)
        ([header, *rows[:11], '"' + rows[11], *rows[12:]], 13),
        ([*rows[:-49], '"' + rows[-49], *rows[-48:]], 12),
        ([*rows[:5], 'a,"b', 'c",2008-06-01T10:00:00,T1,call,out', *rows[5:]], 6),
        # a NUL line counts; a lone CR ends a row but not a line
        ([rows[0], "a,b\0", rows[1] + "\r" + rows[2], '"' + rows[3], *rows[4:]], 4),
    ]
    p = tmp_path / "cdr.csv"
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):
        for lines, line in cases:
            for mark, end, last in (("", "\n", "\n"), ("\ufeff", "\r\n", "")):
                p.write_text(mark + end.join(lines) + last, encoding="utf-8", newline="")
                want = re.escape(f"{p}:{line}: a row spans lines")
                with pytest.raises(CdrError, match=want):
                    ingest_file(p, REG)


def test_canonical_lines_take_the_byte_path(tmp_path):
    # CRLF line ends and upper-case tokens included, so that such exports
    # stay fast: no line is parsed row by row
    p = tmp_path / "cdr.csv"
    p.write_bytes(
        b"a,b,2008-06-01T10:00:00,T1,call,out\r\n"
        b"b,a,2008-06-01T11:00:00,T2,sms,incoming\r\n"
        b"b,a,2008-06-01T12:00:00,T3,CALL,out\r\n"
        b"a,c,2008-12-31T23:59:59,T1,sms,in"
    )
    with mock.patch.object(ingest, "parse_event_fields", wraps=ingest.parse_event_fields) as spy:
        res = ingest_file(p, REG)
    assert spy.call_count == 0
    assert res.stats.rows_read == 4 and res.stats.events_valid == 4


def test_both_paths_give_append_block_the_same_block():
    # ids of 1, 8, 9 and 64 bytes, tokens in mixed case, CRLF line ends
    ids = ["a", "b" * 8, "c" * 9, "d" * 64]
    kinds, directions = ("Call", "SMS", "call", "sMs"), ("Out", "INCOMING", "in", "outgoing")
    lines = [f"{a},{b},2008-06-01T{h % 24:02d}:{h % 60:02d}:00,T{1 + h % 3},"
             f"{kinds[h % 4]},{directions[h // 4 % 4]}\r\n"
             for h, (a, b) in enumerate((x, y) for x in ids for y in ids if x != y)]
    block = "".join(lines).encode() + ingest._PAD
    starts, _, canonical, by_bytes = ingest._ByteParser(REG, 2008).parse(block)
    assert canonical.all() and len(starts) == len(lines)
    stats = ingest.IngestStats()
    text = io.StringIO(block[: -len(ingest._PAD)].decode(), newline="")
    by_rows = ingest._row_block(csv_rows(text, "block", None), REG, *year_bounds(2008), stats)
    assert stats.rows_read == len(lines) and not stats.rows_rejected

    def named(names, ego, ts, tower, links):
        rows = list(zip([names[e] for e in ego.tolist()], ts.tolist(), tower.tolist()))
        return rows, {(names[k >> 32], names[k & 0xFFFFFFFF]) for k in links.tolist()}

    rows, links = named(*by_rows)
    assert (rows, links) == named(*by_bytes)
    assert len(rows) == len(lines)
    # no valid row: None, and every row counted as a reject
    bad = [_row("a", "a", 1), _row("a", "b", 1, tower="T9"), _row("a", "b", 1, kind="fax"),
           ["a", "b"], _row("a", "b", 1, direction="up"), ["a", "b", "2009-01-01", "T1", "call", "in"]]
    stats = ingest.IngestStats()
    assert ingest._row_block(bad, REG, *year_bounds(2008), stats) is None
    assert stats.rows_read == sum(stats.rows_rejected.values()) == len(bad)
    assert stats.rows_rejected == {"self_call": 1, "unknown_tower": 1, "bad_kind": 1,
                                   "missing_column": 1, "bad_direction": 1, "outside_year": 1}


def test_columns_grow_past_their_first_capacity():
    # ingest_file sizes the columns from the file's bytes, at most 2^24
    # rows; the blocks of a larger file grow them in place
    rng = np.random.default_rng(2)
    cols = ingest._Columns(3)
    rows, links = [], []
    for size in (2, 4, 0, 5, 9):
        names = [f"n{k}" for k in rng.permutation(6)[:3]]  # the block's own codes
        ego, peer = rng.integers(0, 3, size=(2, size)).astype(np.int32)
        ts = rng.integers(0, 1000, size=size)
        tower = rng.integers(0, 5, size=size).astype(np.int32)
        cols.append_block(names, ego, ts, tower, ego.astype(np.int64) << 32 | peer)
        rows += zip([names[e] for e in ego.tolist()], ts.tolist(), tower.tolist())
        links += [(names[a], names[b]) for a, b in zip(ego.tolist(), peer.tolist())]
    assert len(cols.cols[0]) == 24 > cols.n == len(rows) == 20
    ego, ts, tower = cols.columns()
    name_of = {c: n for n, c in cols.code.items()}
    assert list(zip([name_of[e] for e in ego.tolist()], ts.tolist(), tower.tolist())) == rows
    assert [(name_of[k >> 32], name_of[k & 0xFFFFFFFF])
            for k in np.concatenate(cols.links).tolist()] == links


_LINE = "{},{},2008-06-01T{:02d}:00:00,T{},{},{}"


@pytest.mark.parametrize("text, by_layout", [
    # every line canonical
    ("\n".join(_LINE.format("ab"[h % 2], "ba"[h % 2], h, 1 + h % 3, "call", "out")
               for h in range(24)) + "\n", True),
    # one line of 4 commas and one of 6: 5 a line in all, but a group of five
    # runs past its line's end. Read by layout, the 6-comma line would be a
    # row of ego "x,a"
    (_LINE.format("a", "b", 1, 1, "call", "out") + "\n"
     + _LINE.format("a", "b", 2, 2, "call", "out").rsplit(",", 1)[0] + "\n"
     + "x," + _LINE.format("a", "b", 3, 3, "sms", "in") + "\n"
     + _LINE.format("b", "a", 4, 1, "sms", "out") + "\n", False),
    # a quoted field that holds a comma
    (_LINE.format("a", "b", 1, 1, "call", "out") + "\n"
     + _LINE.format('"a,c"', "b", 2, 2, "call", "out") + "\n"
     + _LINE.format("b", "a", 3, 3, "sms", "in") + "\n", False),
    # CRLF line ends
    ("".join(_LINE.format("a", "b", h, 1 + h % 3, "SMS", "in") + "\r\n" for h in range(5)),
     True),
    # a last line without its LF
    (_LINE.format("a", "b", 1, 1, "call", "out") + "\n"
     + _LINE.format("b", "a", 2, 2, "call", "in"), True),
], ids=["canonical", "4-and-6-commas", "quoted-comma", "crlf", "no-last-lf"])
def test_commas_read_by_layout_equal_commas_searched(text, by_layout):
    parser = ingest._ByteParser(REG, 2008)
    five_a_line, found = ingest._five_a_line, []

    def spy(*args):
        found.append(five_a_line(*args))
        return found[-1]

    # a file whose last line has no LF ends in a block of that line alone
    for block in ingest._blocks(io.BytesIO(text.encode()), hashlib.sha256()):
        with mock.patch.object(ingest, "_five_a_line", spy):
            laid = parser.parse(block)
        assert (found[-1] is not None) == by_layout
        with mock.patch.object(ingest, "_five_a_line", return_value=None):
            searched = parser.parse(block)
        assert laid[3] is not None and searched[3] is not None
        for x, y in zip(laid[:3] + laid[3][1:], searched[:3] + searched[3][1:]):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert laid[3][0] == searched[3][0]


def test_a_tower_id_that_extends_a_known_one_is_unknown(tmp_path):
    # the byte path compares towers by 8-byte words: an id one byte longer
    # than a known 8-byte id agrees with it on the first word
    reg = TowerRegistry({"ABCDEFGH": (40.0, 20.0), "T1": (40.1, 20.1)})
    p = tmp_path / "cdr.csv"
    p.write_text("a,b,2008-06-01T10:00:00,ABCDEFGHI,call,out\n"
                 "b,a,2008-06-01T11:00:00,ABCDEFGH,call,out\n")
    res = ingest_file(p, reg)
    assert res.stats.rows_rejected == {"unknown_tower": 1}
    assert res.stats.events_valid == 1


def test_invalid_utf8_is_a_counted_reject(tmp_path):
    p = tmp_path / "cdr.csv"
    p.write_bytes(
        b"a,b,2008-06-01T10:00:00,T1,call,out\n"
        b"b,\xffa,2008-06-01T11:00:00,T1,call,out\n"
        b"b,a,2008-06-01T12:00:00,T1,call,out\n"
        b'"b\xff",a,2008-06-01T12:00:00,T1,call,out\n'
    )
    res = ingest_file(p, REG)
    assert res.stats.rows_read == 4
    assert res.stats.rows_rejected == {"bad_encoding": 2}
    assert res.table.ids == ["a", "b"]


@pytest.mark.parametrize("block", [1, 1 << 20])
def test_a_nul_byte_is_a_counted_reject(tmp_path, block):
    # before and after a quoted line, which takes the row path: an id
    # "a\0" would be kept next to "a", and a spool (numpy drops trailing
    # NULs) would then hold two segments named "a"
    p = tmp_path / "cdr.csv"
    p.write_bytes(
        b"a,b,2008-06-01T10:00:00,T1,call,out\n"
        b"b,a,2008-06-01T11:00:00,T1,call,out\n"
        b"a\x00,b,2008-06-01T12:00:00,T1,call,out\n"
        b"b,a\x00,2008-06-01T12:00:00,T1,call,out\n"
        b'"b",a,2008-06-01T13:00:00,T1,call,out\n'
        b"a,b\x00,2008-06-01T14:00:00,T1,call,out\n"
    )
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):
        res = ingest_file(p, REG)
    assert res.stats.rows_read == 6
    assert res.stats.rows_rejected == {"bad_encoding": 3}
    assert res.table.ids == ["a", "b"]
    write_spool(res, REG, tmp_path / "spool")
    _assert_same_table(read_spool(tmp_path / "spool", REG, 2008, "pair").table, res.table)


def test_ids_longer_than_one_word_are_told_apart(tmp_path):
    # ids of 9 and 10 bytes whose first or last 8 bytes agree
    ids = ["aaaaaaaa1", "aaaaaaaa2", "baaaaaaaa1", "caaaaaaaa1", "aaaaaaaa12"]
    rows = [f"{a},{b},2008-06-01T{h % 24:02d}:00:00,T{1 + h % 3},call,out\n"
            for h, (a, b) in enumerate((x, y) for x in ids for y in ids if x != y)]
    p = tmp_path / "cdr.csv"
    p.write_text("".join(rows))
    got = ingest_file(p, REG)
    assert got.table.ids == sorted(ids)
    _assert_same_result(got, _by_rows(p))


def test_row_order_equals_lexsort():
    # few distinct (ego, ts) so that many rows tie, and codes at the int32 limit
    rng = np.random.default_rng(3)
    n = 5000
    ego = rng.choice(np.array([0, 7, 2**31 - 1], dtype=np.int32), n)
    ts = 1_199_145_600 + rng.choice(np.array([0, 1, 366 * 86400 - 1]), n)
    tower = rng.choice(np.array([0, 5, 2**31 - 1], dtype=np.int32), n)
    got = ingest._row_order(ego, ts, tower)
    assert (got == np.lexsort((tower, ts, ego))).all()
    assert len(ingest._row_order(*(c[:0] for c in (ego, ts, tower)))) == 0


def test_rows_in_order_give_the_table_of_the_same_rows_shuffled(tmp_path):
    # rows in (ego, ts) order skip the whole-table sort, and only their
    # runs of ties are put in order; the two adjacent runs of a below, at
    # 01:00 and 02:00, hold rows whose tower sorts below the earlier run's
    rows = [_row("a", "b", 1, "T3", "sms", "in"), _row("a", "b", 1, "T2", "call", "out"),
            _row("a", "b", 2, "T1", "sms", "out"), _row("a", "b", 2, "T1", "call", "in"),
            _row("b", "a", 2, "T2", "call", "in"), _row("b", "a", 2, "T1", "sms", "in")]
    rng = random.Random(7)
    for _ in range(400):
        ego, peer = rng.sample(("a", "b", "c"), 2)
        rows.append(_row(ego, peer, rng.randrange(3), rng.choice(("T1", "T2", "T3")),
                         rng.choice(("call", "sms")), rng.choice(("in", "out"))))
    in_order = sorted(rows, key=lambda r: (r[0], r[2]))  # stable: ties keep their order
    shuffled = rng.sample(rows, len(rows))
    want = sorted((r[0], r[2], r[3]) for r in rows)
    tables = []
    for given_rows, sorts in ((in_order, 0), (shuffled, 1)):
        with mock.patch.object(ingest, "_row_order", wraps=ingest._row_order) as spy:
            tab = _ingest(tmp_path, given_rows, reciprocity="none").table
        assert spy.call_count == sorts
        ego = np.repeat(tab.ids, np.diff(tab.offsets))
        got = list(zip(ego.tolist(), map(format_timestamp, tab.ts.tolist()),
                       (REG.ids[t] for t in tab.tower.tolist())))
        assert got == want
        tables.append(tab)
    _assert_same_table(*tables)


# ------------------------------------------------------ decoder edge cases


def _same_as_rows(path, registry=REG, blocks=(1, 1 << 20), **kw):
    """Check ingest_file against the row path at each block size, and
    return the row path's result."""
    want = _by_rows(path, registry, **kw)
    for block in blocks:
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            _assert_same_result(ingest_file(path, registry, **kw), want)
    return want


@pytest.mark.parametrize("year", [2008, 5])
@pytest.mark.parametrize("pos", range(19))
def test_every_printable_byte_in_every_timestamp_position(tmp_path, pos, year):
    # one line per printable ASCII byte at this position, the quote's on
    # line 4. A quote that opens the timestamp field leaves it open at the
    # end of the line: that row spans lines, and the file is refused
    ts = f"{year:04d}-06-15T12:34:56"
    lines = [f"a,b,{ts[:pos]}{chr(c)}{ts[pos + 1:]},T1,call,out\n" for c in range(0x20, 0x7F)]
    p = tmp_path / "cdr.csv"
    p.write_text(f"b,a,{ts},T2,sms,in\n" + "".join(lines))
    if pos == 0:
        for ingest_fn in (ingest_file, _by_rows):
            with pytest.raises(CdrError, match=re.escape(f"{p}:4: a row spans lines")):
                ingest_fn(p, REG, analysis_year=year, reciprocity="none")
        return
    got = _same_as_rows(p, blocks=(1 << 20,), analysis_year=year, reciprocity="none")
    assert got.stats.events_valid > 1 and got.stats.rows_rejected


@pytest.mark.parametrize("n", [63, 64, 65])
def test_ids_at_the_byte_path_length_limit(tmp_path, n):
    ids = ["a" * n, "a" * (n - 1) + "b", "b" + "a" * (n - 1), "c"]
    rows = [f"{x},{y},2008-06-01T{h % 24:02d}:00:00,T{1 + h % 3},call,out\n"
            for h, (x, y) in enumerate((x, y) for x in ids for y in ids if x != y)]
    p = tmp_path / "cdr.csv"
    p.write_text("".join(rows))
    got = _same_as_rows(p)
    assert got.table.ids == sorted(ids)


def test_towers_of_several_words(tmp_path):
    # ids of 8, 9 and 17 bytes take keys of three words; lines name each,
    # and ids that extend or cut one of them by a byte
    known = ["ABCDEFGH", "ABCDEFGHI", "ABCDEFGHIJKLMNOPQ"]
    reg = TowerRegistry({t: (40.0 + i / 10, 20.0) for i, t in enumerate(known)})
    towers = known + ["ABCDEFG", "ABCDEFGHIJ", "ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOPQR", "abcdefgh"]
    rows = [f"a,b,2008-06-01T{h:02d}:00:00,{t},call,out\nb,a,2008-06-01T{h:02d}:30:00,{t},sms,in\n"
            for h, t in enumerate(towers)]
    p = tmp_path / "cdr.csv"
    p.write_text("".join(rows))
    got = _same_as_rows(p, reg)
    assert got.stats.events_valid == 2 * len(known)
    assert got.stats.rows_rejected == {"unknown_tower": 2 * (len(towers) - len(known))}


@pytest.mark.parametrize("ids", [["Tö"], ["T1\x00"], ["T 1"], [""], ["T" * 65], []])
def test_a_registry_id_no_canonical_line_can_hold(tmp_path, ids):
    # such an id is left out of the byte path's keys: "T1\x00", padded with
    # zeros, would otherwise equal the unknown "T1"
    reg = TowerRegistry({t: (40.0 + i / 10, 20.0) for i, t in enumerate(ids + ["T2"][: len(ids)])})
    rows = [f"a,b,2008-06-01T{h:02d}:00:00,{t},call,out\nb,a,2008-06-01T{h:02d}:30:00,{t},sms,in\n"
            for h, t in enumerate(["T1", "T2", "Tö", *ids])]
    p = tmp_path / "cdr.csv"
    p.write_text("".join(rows), encoding="utf-8")
    got = _same_as_rows(p, reg)
    assert got.stats.rows_rejected["unknown_tower"] >= 2


@pytest.mark.parametrize("line", [
    "a,b,2008-06-01T10:00:00,T9,call,out",  # unknown tower
    "a,b,2008-13-01T10:00:00,T1,call,out",  # no such date
    "a,b,2008-06-01T10:00:00,T1,fax,out",  # no such kind
    "a,a,2008-06-01T10:00:00,T1,call,out",  # self call
    "a,b,2008-06-01 10:00:00,T1,call,out",  # not canonical: a space
    "a,b,2008-06-01T10:00:00,T1,call",  # not canonical: 4 commas
])
def test_a_block_without_a_canonical_line(tmp_path, line):
    p = tmp_path / "cdr.csv"
    p.write_text((line + "\n") * 3)
    got = _same_as_rows(p, blocks=(1, 40, 1 << 20))
    assert got.stats.rows_read == 3


@pytest.mark.parametrize("first", [
    "a,b,2008-06-01T10:00:00,T1,call,out",  # byte path
    '"a",b,2008-06-01T10:00:00,T1,call,out',  # a quote: this line takes the row path
    "ego_id,peer_id,timestamp,tower_id,kind,direction",  # a header
    '"ego_id",peer_id,timestamp,tower_id,kind,direction',  # a quoted header
])
def test_a_byte_order_mark_is_skipped(tmp_path, first):
    body = first + "\nb,a,2008-06-01T11:00:00,T2,sms,in\nb,c,2008-06-01T12:00:00,T3,call,out\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(body)
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
    want = _same_as_rows(plain)
    for block in (1, 1 << 20):
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            _assert_same_result(ingest_file(marked, REG), want)


# ------------------------------------------------------------ worker threads


def test_link_keys_merge_as_np_unique():
    # empty parts, keys repeated within and across parts, and ego and peer
    # codes at the int32 limit
    rng = np.random.default_rng(11)
    codes = np.array([0, 1, 2, 2**31 - 2, 2**31 - 1], dtype=np.int64)
    for n_parts in (1, 2, 7):
        parts = [np.empty(0, dtype=np.int64)]
        for _ in range(n_parts):
            n = int(rng.integers(0, 40))
            parts.append(rng.choice(codes, n) << 32 | rng.choice(codes, n))
            parts.append(np.empty(0, dtype=np.int64))
        parts.append(parts[1][::-1].copy())
        want = np.unique(np.concatenate(parts))
        got = unique_sorted(np.concatenate(parts))
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert len(unique_sorted(np.empty(0, dtype=np.int64))) == 0


def _parse_threads(monkeypatch) -> set:
    """The set of threads that parse blocks, filled as they do."""
    parse = ingest._ByteParser.parse
    threads = set()

    def traced(parser, block):
        threads.add(threading.current_thread())
        return parse(parser, block)

    monkeypatch.setattr(ingest._ByteParser, "parse", traced)
    return threads


def _threads_corpus() -> bytes:
    """A byte order mark, a header, then canonical rows among every
    variant of _mutate but a quoted line end: quoted lines, NUL lines, lone
    CRs and rejects. Most ids form reciprocal pairs; "s" only calls out."""
    rng = random.Random(27)
    lines = []
    for how, arg in [v for v in _VARIANTS if v[0] != "quoted_newline"] * 3:
        a, b = rng.sample(_IDS, 2)
        fields = [a, b, _T.format(rng.randrange(24)), rng.choice(("T1", "T2", "T3")),
                  rng.choice(("call", "sms")), rng.choice(("in", "out"))]
        lines.append((fields, how, arg, rng.random() < 0.3))
    lines.append((["s", "a", _T.format(3), "T1", "sms", "out"], "none", 0, False))
    rng.shuffle(lines)
    return b"\xef\xbb\xbf" + _cdr_bytes(lines, True, True)


@pytest.mark.parametrize("block", [1, 64, 1 << 20])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_worker_count_changes_no_byte(tmp_path, monkeypatch, force_workers, block, workers):
    p = tmp_path / "cdr.csv"
    data = _threads_corpus()
    p.write_bytes(data)
    want = ingest_file(p, REG)  # one block of 1 MiB: parsed in this thread
    assert "s" in want.removed_ids and want.table.ids and want.stats.rows_rejected
    force_workers(workers)
    monkeypatch.setattr(ingest, "_MAX_THREADS", workers)
    threads = _parse_threads(monkeypatch)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    running = threading.active_count()
    got = ingest_file(p, REG)
    assert threading.active_count() == running
    _assert_same_result(got, want)
    assert got.sha256 == want.sha256 == hashlib.sha256(data).hexdigest()
    # one block of 1 MiB is parsed in this thread
    parsed_here = threads == {threading.current_thread()}
    assert parsed_here == (workers == 1 or block == 1 << 20)
    assert got.threads == (1 if parsed_here else workers)


def test_blocks_are_parsed_on_two_threads_at_most(tmp_path, monkeypatch, force_workers):
    force_workers(64)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    pools = []

    class Pool(ingest.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(ingest, "ThreadPoolExecutor", Pool)
    p = tmp_path / "cdr.csv"
    p.write_bytes(_threads_corpus())
    running = threading.active_count()
    assert ingest_file(p, REG).table.ids
    assert pools == [2] and threading.active_count() == running


def test_a_file_of_lone_crs_is_one_block_that_one_thread_parsed(tmp_path, monkeypatch,
                                                                force_workers):
    # blocks are cut only at LF: the pool is sized from the file's size,
    # but one block was read, so one thread parsed it
    rows = [f"{a},{b},{_T.format(h)},T1,call,{d}" for h in range(12)
            for a, b, d in (("a", "b", "out"), ("b", "a", "out"), ("c", "s", "out"))]
    lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
    lf.write_text("\n".join(rows) + "\n")
    cr.write_text("\r".join(rows) + "\r")
    force_workers(2)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    want, got = ingest_file(lf, REG), ingest_file(cr, REG)
    assert want.table.ids == ["a", "b"] and want.removed_ids == ["c"]
    _assert_same_result(got, want)
    assert (want.threads, got.threads) == (2, 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_row_that_spans_lines_in_a_late_block_is_refused_alike(tmp_path, monkeypatch,
                                                                 force_workers, workers):
    # then a fork, which Python 3.12 on warns of while a thread runs
    rows = [f"a,b,2008-06-01T10:{m % 60:02d}:00,T1,call,out" for m in range(300)]
    rows[-20:-20] = ['a,"b', 'c",2008-06-01T10:00:00,T1,call,out']
    p = tmp_path / "cdr.csv"
    p.write_text("\n".join(rows) + "\n")
    force_workers(workers)
    monkeypatch.setattr(ingest, "_MAX_THREADS", workers)
    running = threading.active_count()
    for block in (1, 64, 1 << 20):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        with pytest.raises(CdrError, match=re.escape(f"{p}:281: a row spans lines")):
            ingest_file(p, REG)
        assert threading.active_count() == running
    force_workers(2)
    monkeypatch.setattr(synth, "_CHUNK", 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        synth.generate(synth.GenConfig(n_individuals=300, n_cells=12, seed=13), tmp_path / "gen")


def test_a_parse_that_fails_in_a_worker_thread_fails_ingest(tmp_path, monkeypatch, force_workers):
    p = tmp_path / "cdr.csv"
    p.write_bytes(_threads_corpus())
    force_workers(2)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    with open(p, "rb") as fh:
        third = list(ingest._blocks(fh, hashlib.sha256()))[2]
    parse = ingest._ByteParser.parse
    threads = set()

    def failing(parser, block):
        threads.add(threading.current_thread())
        if block == third:
            raise ValueError("the third block failed")
        return parse(parser, block)

    monkeypatch.setattr(ingest._ByteParser, "parse", failing)
    running = threading.active_count()
    with pytest.raises(ValueError, match="the third block failed"):
        ingest_file(p, REG)
    assert threading.active_count() == running
    assert threads and threading.current_thread() not in threads
