"""Row parsing, registries, and demographics resolution."""

import csv
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cdrmob.records import (
    AGE_GROUP_LABELS,
    CdrError,
    EventRecord,
    RowReject,
    TowerRegistry,
    age_group_of,
    format_timestamp,
    load_demographics,
    load_towers,
    parse_event_fields,
    parse_timestamp,
    year_bounds,
)


def _parse_line(line: str):
    ys, ye = year_bounds(2008)
    return parse_event_fields(next(csv.reader([line])), ys, ye)


def test_parse_timestamp_fast_and_slow_paths_agree():
    # the separator, and the seconds or the whole time, may be left out
    assert parse_timestamp("2008-03-05T14:30:00") == parse_timestamp("2008-03-05 14:30:00")
    assert parse_timestamp("2008-03-05T14:30") == parse_timestamp("2008-03-05T14:30:00")
    assert parse_timestamp("2008-03-05") == parse_timestamp("2008-03-05T00:00:00")


def test_parse_timestamp_rejects():
    # fromisoformat reads the last four from Python 3.11 on, but not before:
    # basic format, an ISO week date, a fraction of a second, an hour alone
    for bad in ("2008-13-01T00:00:00", "2008-02-30T00:00:00", "2008-01-01T24:00:00",
                "2008-01-01T00:60:00", "nonsense", "2008-01-01T00:00:00+02:00",
                "2008-01-01x10:00:00", "20080101T100000", "2008-W01-1T10:00",
                "2008-01-01T10:00:00.5", "2008-01-01T10"):
        with pytest.raises(RowReject) as e:
            parse_timestamp(bad)
        assert e.value.reason == "bad_timestamp"


def test_parse_timestamp_takes_only_ascii_digits():
    # int() alone would read each of these digit pairs as a number
    for bad in ("2008-+1-05T10:00:00", "2008- 1-05T10:00:00", "2008-01-05T+1:00:00",
                "2008-01-05T10:0 :00", "2008-01-05T10:00:-1", "٢٠٠٨-01-05T10:00:00",
                "2008-0١-05T10:00:00", "２００８-01-05T10:00", "2008-01-05T1_:00:00"):
        with pytest.raises(RowReject) as e:
            parse_timestamp(bad)
        assert e.value.reason == "bad_timestamp", bad
    # surrounding whitespace is still tolerated
    assert parse_timestamp(" 2008-01-05T10:00:00\t") == parse_timestamp("2008-01-05T10:00:00")


def test_bad_encoding_comes_first():
    ys, ye = year_bounds(2008)
    # a lone surrogate is what surrogateescape makes of a byte that is not UTF-8
    # and a NUL, which no id, timestamp or token holds
    for row in (["u1", "u2\udcff", "2008-06-01T12:00:00", "T5", "call", "in"],
                ["u1\udcff", "u1\udcff", "nonsense"],
                ["u1", "u2\x00", "2008-06-01T12:00:00", "T5", "call", "in"]):
        with pytest.raises(RowReject) as e:
            parse_event_fields(row, ys, ye)
        assert e.value.reason == "bad_encoding"
    assert parse_event_fields(["ü", "u2", "2008-06-01T12:00:00", "T5", "call", "in"], ys, ye)


@given(st.integers(min_value=0, max_value=2_000_000_000))
def test_timestamp_round_trip(ts):
    assert parse_timestamp(format_timestamp(ts)) == ts


def _grammar_oracle(text: str) -> int | None:
    """Epoch seconds of text under the timestamp grammar, None for a
    bad_timestamp: YYYY-MM-DD, optionally [T ]HH:MM and then :SS, ASCII
    digits, a real date and time, surrounding whitespace stripped."""
    s = text.strip()
    shape = {10: "dddd-dd-dd", 16: "dddd-dd-dd_dd:dd", 19: "dddd-dd-dd_dd:dd:dd"}.get(len(s))
    if shape is None:
        return None
    for c, want in zip(s, shape):
        ok = c in "0123456789" if want == "d" else c in "T " if want == "_" else c == want
        if not ok:
            return None
    hh, mm, ss = (int(s[k: k + 2]) if len(s) > k else 0 for k in (11, 14, 17))
    try:
        day = date(int(s[:4]), int(s[5:7]), int(s[8:10]))
    except ValueError:
        return None
    if hh > 23 or mm > 59 or ss > 59:
        return None
    return (day - date(1970, 1, 1)).days * 86400 + hh * 3600 + mm * 60 + ss


@st.composite
def _near_grammar(draw) -> str:
    """A timestamp of the grammar, cut or not, with a few characters
    inserted, replaced or deleted, and whitespace around it."""
    ts = draw(st.integers(min_value=-62135596800, max_value=253402300799))  # years 1-9999
    text = format_timestamp(ts)[: draw(st.sampled_from((10, 13, 16, 19)))]
    text = text.replace("T", draw(st.sampled_from("T t")))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from("0123456789-:T W.+Z\t\0٣１"))
        text = draw(st.sampled_from((text[:at] + c + text[at:], text[:at] + c + text[at + 1:],
                                     text[:at] + text[at + 1:])))
    return draw(st.sampled_from(("", " ", "\t"))) + text + draw(st.sampled_from(("", " ", "\n")))


@given(_near_grammar())
@example("20080101T100000")
@example("2008-W01-1T10:00")
@example("2008-01-01T10:00:00.5")
@example("2008-01-01x10:00:00")
def test_parse_timestamp_takes_exactly_the_grammar(text):
    want = _grammar_oracle(text)
    if want is None:
        with pytest.raises(RowReject) as e:
            parse_timestamp(text)
        assert e.value.reason == "bad_timestamp"
    else:
        assert parse_timestamp(text) == want


def test_year_bounds_2008_is_leap():
    ys, ye = year_bounds(2008)
    assert (ye - ys) == 366 * 86400
    assert format_timestamp(ys) == "2008-01-01T00:00:00"


def test_parse_event_line_round_trip():
    # kind 1 is sms, direction 0 incoming
    rec = EventRecord("u1", "u2", parse_timestamp("2008-06-01T12:00:00"), "T5", 1, 0)
    line = f"u1,u2,{format_timestamp(rec.timestamp)},T5,sms,in"
    assert _parse_line(line) == rec
    # tokens are case- and space-tolerant
    assert _parse_line(" u1 ,u2,2008-06-01T12:00:00, T5 ,SMS, Incoming ") == rec


def test_parse_event_line_reject_reasons():
    ok = "u1,u2,2008-06-01T12:00:00,T5,call,in"
    assert _parse_line(ok).kind == 0  # call
    cases = {
        "u1,u2,2008-06-01T12:00:00,T5,call": "missing_column",
        "u1,,2008-06-01T12:00:00,T5,call,in": "missing_column",
        "u1,u1,2008-06-01T12:00:00,T5,call,in": "self_call",
        "u1,u2,2007-12-31T23:59:59,T5,call,in": "outside_year",
        "u1,u2,2009-01-01T00:00:00,T5,call,in": "outside_year",
        "u1,u2,2008-06-01T12:00:00,T5,fax,in": "bad_kind",
        "u1,u2,2008-06-01T12:00:00,T5,call,sideways": "bad_direction",
    }
    for line, reason in cases.items():
        with pytest.raises(RowReject) as e:
            _parse_line(line)
        assert e.value.reason == reason, line


def test_tower_registry_sorted_ids():
    reg = TowerRegistry({"T2": (1.0, 2.0), "T1": (3.0, 4.0)})
    assert reg.ids == ["T1", "T2"]
    assert reg.index_of("T1") == 0
    assert reg.index_of("T2") == 1 and reg.index_of("nope") is None
    assert (reg.lat[1], reg.lon[1]) == (1.0, 2.0)


def test_load_towers(tmp_path):
    p = tmp_path / "towers.csv"
    p.write_text("tower_id,lat,lon\nA,40.0,20.0\nB,40.1,20.1\n")
    reg = load_towers(p)
    a = reg.index_of("A")
    assert len(reg) == 2 and (reg.lat[a], reg.lon[a]) == (40.0, 20.0)
    # headerless files load too
    p2 = tmp_path / "bare.csv"
    p2.write_text("A,40.0,20.0\n")
    assert len(load_towers(p2)) == 1


def test_load_towers_fatal_defects(tmp_path):
    # each defective row sits on line 2: a first row that fails to parse
    # would be taken for a header and skipped instead of rejected
    cases = [
        "A,40.0,20.0\nA,41.0,21.0\n",   # duplicate id
        "A,40.0,20.0\nB,95.0,21.0\n",   # latitude range
        "A,40.0,20.0\nB,41.0,200.0\n",  # longitude range
        "A,40.0,20.0\nB,forty,21.0\n",  # unparseable
        "A,40.0,20.0\nB,41.0\n",        # short row
    ]
    for k, body in enumerate(cases):
        p = tmp_path / f"t{k}.csv"
        p.write_text(body)
        with pytest.raises(CdrError):
            load_towers(p)


def test_load_towers_refuses_the_antimeridian(tmp_path):
    # homes and grid cells average longitudes arithmetically: these two
    # towers, 22 km apart, would put a home at longitude 0
    p = tmp_path / "dateline.csv"
    p.write_text("A,10.0,179.9\nB,10.0,-179.9\n")
    with pytest.raises(CdrError, match="antimeridian"):
        load_towers(p)
    # a span of exactly 180 degrees is still accepted
    p.write_text("A,10.0,-90.0\nB,10.0,90.0\n")
    assert len(load_towers(p)) == 2


def test_inputs_that_are_not_utf8_name_file_and_line(tmp_path):
    towers = tmp_path / "towers.csv"
    towers.write_bytes(b"tower_id,lat,lon\nA,40.0,20.0\nB\xff,41.0,21.0\n")
    with pytest.raises(CdrError, match=r"towers\.csv:3: not valid UTF-8"):
        load_towers(towers)
    demo = tmp_path / "demo.csv"
    demo.write_bytes(b"u1,f,34\nu2,m,40\nu3,\xe9,30\n")
    with pytest.raises(CdrError, match=r"demo\.csv:3: not valid UTF-8"):
        load_demographics(demo)
    # valid UTF-8 beyond ASCII is fine
    demo.write_text("u1,f,34\nü2,m,40\n", encoding="utf-8")
    d = load_demographics(demo)
    assert d.ids.tolist() == ["u1", "ü2"] and d.female.tolist() == [True, False]


def test_a_nul_byte_in_towers_or_demographics_names_file_and_line(tmp_path):
    # csv.reader raises on a NUL before Python 3.11, and keeps it from then on
    towers = tmp_path / "towers.csv"
    towers.write_bytes(b"tower_id,lat,lon\nA,40.0,20.0\nB\x00,41.0,21.0\n")
    with pytest.raises(CdrError, match=r"towers\.csv:3: holds a NUL byte"):
        load_towers(towers)
    demo = tmp_path / "demo.csv"
    demo.write_bytes(b"u1,f,34\nu2,m,40\x00\n")
    with pytest.raises(CdrError, match=r"demo\.csv:2: holds a NUL byte"):
        load_demographics(demo)


def test_load_demographics_age_and_birth_year(tmp_path):
    p = tmp_path / "demo.csv"
    p.write_text(
        "ego_id,gender,age\n"
        "u1,f,34\n"          # plain age
        "u2,male,1974\n"     # birth year resolves against the analysis year
        "u3,F,199\n"         # age beyond 110: rejected
        "u4,x,30\n"          # unknown gender
        "u5,m,kid\n"         # unparseable
        "u6,m,2005\n"        # age 3 after resolution: rejected
    )
    d = load_demographics(p, analysis_year=2008)
    assert d.ids.tolist() == ["u1", "u2"]
    assert d.female.tolist() == [True, False]
    assert [AGE_GROUP_LABELS[g] for g in d.age_group] == ["early_adult", "early_adult"]
    assert d.rejected == {"age_out_of_range": 2, "unknown_gender": 1, "bad_age": 1}


def test_load_demographics_rejects_every_row_of_a_duplicated_id(tmp_path):
    # which of two rows is right cannot be told, so neither is kept
    p = tmp_path / "demo.csv"
    p.write_text("u1,F,1970\nu2,M,40\nu1,M,1980\nu3,x,30\nu3,F,25\n")
    d = load_demographics(p, analysis_year=2008)
    assert d.ids.tolist() == ["u2"] and d.female.tolist() == [False]
    assert [AGE_GROUP_LABELS[g] for g in d.age_group] == ["early_middle"]
    assert d.rejected == {"duplicate_id": 4}


def test_load_demographics_columns_are_in_id_order(tmp_path):
    # rows in any order give columns sorted by id; every age coded as its group
    ages = range(10, 111)
    ids = [f"u{a:03d}" for a in ages]
    p = tmp_path / "demo.csv"
    p.write_text("".join(f"{e},{'fm'[a % 2]},{a}\n" for e, a in reversed(list(zip(ids, ages))))
                 + "u200,f,9\nu201,x,30\n")
    d = load_demographics(p)
    assert d.ids.tolist() == ids
    assert d.female.tolist() == [a % 2 == 0 for a in ages]
    assert d.age_group.tolist() == [age_group_of(a) for a in ages]
    assert d.rejected == {"age_out_of_range": 1, "unknown_gender": 1}


def test_age_groups_partition_the_range():
    seen = []
    for age in range(10, 111):
        g = AGE_GROUP_LABELS[age_group_of(age)]
        if not seen or seen[-1] != g:
            seen.append(g)
    assert tuple(seen) == AGE_GROUP_LABELS
    assert AGE_GROUP_LABELS[age_group_of(18)] == "teen"
    assert AGE_GROUP_LABELS[age_group_of(19)] == "early_adult"
    # an array of ages takes the same rule, and one age out of range refuses it
    ages = np.arange(10, 111)
    assert age_group_of(ages).tolist() == [age_group_of(a) for a in ages.tolist()]
    for bad in (9, 111, [30, 9], np.array([111, 30])):
        with pytest.raises(ValueError):
            age_group_of(bad)
