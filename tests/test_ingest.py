"""Reciprocity filtering, header detection and event-table assembly.

The link model: an outgoing row of ego a with peer b and an incoming row
of ego b with peer a are the same directed claim a->b. A pair is
reciprocal only when both directions are claimed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrmob.ingest import (
    ingest_file,
    ingest_rows,
    is_spool,
    read_spool,
    write_spool,
)
from cdrmob.records import CdrError, TowerRegistry

REG = TowerRegistry({"T1": (40.0, 20.0), "T2": (40.1, 20.1), "T3": (40.2, 20.2)})

_T = "2008-06-01T{:02d}:00:00"


def _row(ego, peer, hour, tower="T1", kind="call", direction="out"):
    return [ego, peer, _T.format(hour), tower, kind, direction]


def test_pair_rule_keeps_reciprocal_pairs_only():
    rows = [
        _row("a", "b", 1, direction="out"),
        _row("b", "a", 2, direction="out"),
        # s sprays messages but never receives one
        _row("s", "a", 3, direction="out"),
        _row("s", "b", 4, direction="out"),
    ]
    res = ingest_rows(rows, REG)
    assert res.table.ids == ["a", "b"]
    assert res.removed_ids == ["s"]
    # survivors keep all their events, including those with dropped peers
    assert res.table.offsets.tolist() == [0, 1, 2]
    assert res.stats.individuals_seen == 3
    assert res.stats.individuals_removed == 1
    assert res.stats.events_kept == 2


def test_mirrored_rows_are_one_claim_not_a_pair():
    # both rows describe the single link a->b, so nobody is reciprocal
    rows = [
        _row("a", "b", 1, direction="out"),
        _row("b", "a", 1, direction="in"),
    ]
    res = ingest_rows(rows, REG)
    assert res.table.ids == [] and len(res.table.ts) == 0
    assert res.removed_ids == ["a", "b"]


def test_degree_rule_is_weaker_than_pair():
    # a has an outgoing link to b and an incoming one from c: in and out
    # degree without any reciprocal pair
    rows = [
        _row("a", "b", 1, direction="out"),
        _row("a", "c", 2, direction="in"),
    ]
    assert ingest_rows(rows, REG).table.ids == []
    res = ingest_rows(rows, REG, reciprocity="degree")
    assert res.table.ids == ["a"]
    res_none = ingest_rows(rows, REG, reciprocity="none")
    assert res_none.table.ids == ["a"]
    with pytest.raises(ValueError):
        ingest_rows(rows, REG, reciprocity="sometimes")


def test_unknown_tower_counted_not_fatal():
    rows = [
        _row("a", "b", 1),
        _row("b", "a", 2, tower="T9"),
        _row("b", "a", 3),
    ]
    res = ingest_rows(rows, REG)
    assert res.stats.rows_rejected == {"unknown_tower": 1}
    assert res.stats.events_valid == 2
    assert res.table.ids == ["a", "b"]


def test_timeline_sorted_with_tie_breaks():
    # same timestamp everywhere: order must come from tower, kind, direction
    rows = [
        _row("a", "b", 1, tower="T2", kind="sms", direction="out"),
        _row("a", "b", 1, tower="T1", kind="sms", direction="out"),
        _row("a", "b", 1, tower="T1", kind="call", direction="out"),
        _row("b", "a", 2),
    ]
    res = ingest_rows(rows, REG)
    tab = res.table
    assert tab.ids == ["a", "b"] and tab.offsets.tolist() == [0, 3, 4]
    assert tab.tower[:3].tolist() == [0, 0, 1]
    assert tab.kind[:3].tolist() == [0, 1, 1]
    assert np.all(tab.ts[:2] <= tab.ts[1:3])


def test_segments_follow_id_order_not_first_appearance():
    # z is seen first, and b only as a peer before it is an ego
    rows = [_row("z", "b", 5), _row("b", "z", 6), _row("a", "b", 1), _row("b", "a", 2)]
    tab = ingest_rows(rows, REG).table
    assert tab.ids == ["a", "b", "z"]
    assert tab.offsets.tolist() == [0, 1, 3, 4]
    assert [(t - tab.ts[0]) // 3600 for t in tab.ts.tolist()] == [0, 1, 5, 4]
    assert tab.ego.tolist() == [0, 1, 1, 2]


def test_empty_input():
    res = ingest_rows([], REG)
    assert res.table.ids == [] and res.table.offsets.tolist() == [0]
    assert res.stats.rows_read == 0


def _assert_same_table(t1, t2):
    assert t1.ids == t2.ids
    for col in ("offsets", "ts", "tower", "kind", "direction"):
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
def test_filter_is_idempotent(raw):
    rows = [_row(e, p, h, t, k, d) for e, p, h, t, k, d in raw if e != p]
    first = ingest_rows(rows, REG)
    kept = set(first.table.ids)
    again = ingest_rows([r for r in rows if r[0] in kept], REG)
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
    first = ingest_rows(rows, REG, keep_peers=True)
    spool = tmp_path / "spool"
    write_spool(first, REG, spool)
    assert is_spool(spool) and not is_spool(tmp_path / "nope")
    back = read_spool(spool, REG, 2008, "pair")
    assert back.analysis_year == first.analysis_year
    assert back.stats.events_kept == first.stats.events_kept
    _assert_same_table(first.table, back.table)
    for col in ("offsets", "ts", "tower", "kind", "direction", "peer"):
        assert getattr(back.table, col).dtype == getattr(first.table, col).dtype, col
    assert [back.peer_ids[p] for p in back.table.peer] == [
        first.peer_ids[p] for p in first.table.peer
    ]
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
    (spool / "meta.json").write_text('{"analysis_year": 2008, "format": 1}\n')
    with pytest.raises(CdrError, match="re-run ingest"):
        ingest_file(spool, REG)


def test_spool_with_a_damaged_table_is_refused(tmp_path):
    res = ingest_rows([_row("a", "b", 1), _row("b", "a", 2)], REG, keep_peers=True)
    spool = tmp_path / "spool"
    write_spool(res, REG, spool)
    with np.load(spool / "events.npz") as z:
        cols = dict(z)
    cols["tower"] = cols["tower"] + len(REG)  # past the end of the registry
    np.savez(spool / "events.npz", **cols)
    with pytest.raises(CdrError, match="malformed spool"):
        read_spool(spool, REG, 2008, "pair")
    (spool / "events.npz").write_bytes(b"not a zip archive")
    with pytest.raises(CdrError, match="unreadable spool"):
        read_spool(spool, REG, 2008, "pair")


def test_spool_requires_peer_tracking():
    res = ingest_rows([_row("a", "b", 1), _row("b", "a", 2)], REG)
    with pytest.raises(ValueError):
        write_spool(res, REG, "/tmp/unused")
