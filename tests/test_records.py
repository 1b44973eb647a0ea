"""Row parsing, registries, and demographics resolution."""

import csv
import functools
import multiprocessing
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrmob.records import (
    AGE_GROUP_LABELS,
    AGE_GROUPS,
    CdrError,
    RowReject,
    TowerRegistry,
    age_group_of,
    format_timestamp,
    load_demographics,
    load_towers,
    ordered_map,
    parse_event_fields,
    parse_timestamp,
    year_bounds,
)


# T5 has registry index 1
_REG = TowerRegistry({"T1": (40.0, 20.0), "T5": (40.1, 20.1)})


def _people(d):
    """{id: (female, age)} of the individuals that demographics accepted."""
    return {e: (bool(d.female[r]), int(d.age[r])) for e, r in d.index.items()}


def _parse_line(line: str):
    ys, ye = year_bounds(2008)
    return parse_event_fields(next(csv.reader([line])), _REG, ys, ye)


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
            parse_event_fields(row, _REG, ys, ye)
        assert e.value.reason == "bad_encoding"
    assert parse_event_fields(["ü", "u2", "2008-06-01T12:00:00", "T5", "call", "in"], _REG, ys, ye)


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
    # tower T5 is index 1, direction 0 incoming
    rec = ("u1", "u2", parse_timestamp("2008-06-01T12:00:00"), 1, 0)
    line = f"u1,u2,{format_timestamp(rec[2])},T5,sms,in"
    assert _parse_line(line) == rec
    # tokens are case- and space-tolerant
    assert _parse_line(" u1 ,u2,2008-06-01T12:00:00, T5 ,SMS, Incoming ") == rec


def test_parse_event_line_reject_reasons():
    ok = "u1,u2,2008-06-01T12:00:00,T5,call,in"
    # the kind is checked, not kept
    assert _parse_line(ok) == _parse_line(ok.replace("call", "sms"))
    cases = {
        "u1,u2,2008-06-01T12:00:00,T5,call": "missing_column",
        "u1,,2008-06-01T12:00:00,T5,call,in": "missing_column",
        "u1,u1,2008-06-01T12:00:00,T5,call,in": "self_call",
        "u1,u2,2007-12-31T23:59:59,T5,call,in": "outside_year",
        "u1,u2,2009-01-01T00:00:00,T5,call,in": "outside_year",
        "u1,u2,2008-06-01T12:00:00,T5,fax,in": "bad_kind",
        "u1,u2,2008-06-01T12:00:00,T5,call,sideways": "bad_direction",
        "u1,u2,2008-06-01T12:00:00,T9,call,in": "unknown_tower",
        # unknown_tower comes last
        "u1,u2,2008-06-01T12:00:00,T9,call,sideways": "bad_direction",
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
    # each defective row on line 2, after a good row, and on line 1, before it
    good = "A,40.0,20.0"
    cases = {
        "A,41.0,21.0": "duplicate tower id",  # named on the id's second row
        "B,95.0,21.0": "latitude out of range",
        "B,41.0,200.0": "longitude out of range",
        "B,forty,21.0": "unparseable coordinate",
        "B,41.0": "tower row needs tower_id,lat,lon",
    }
    for k, (row, error) in enumerate(cases.items()):
        for line, rows in ((2, (good, row)), (1, (row, good))):
            p = tmp_path / f"t{k}.csv"
            p.write_text("\n".join(rows) + "\n")
            named = 2 if error.startswith("duplicate") else line
            with pytest.raises(CdrError, match=rf"t{k}\.csv:{named}: {error}"):
                load_towers(p)


def test_a_first_row_is_a_header_only_when_no_value_field_reads(tmp_path):
    # a headerless tower file whose first latitude has a letter in it: that
    # tower was taken for a header and its rows for unknown_tower rejects
    towers = tmp_path / "towers.csv"
    towers.write_text("T1,4O.03,20.0\nT2,40.1,20.1\n")
    with pytest.raises(CdrError, match=r"towers\.csv:1: unparseable coordinate"):
        load_towers(towers)
    # a first demographics row whose gender reads is data, whatever its age
    demo = tmp_path / "demo.csv"
    for first in ("u1,f,abc", "u1,f,", "ego_id,female,age"):
        demo.write_text(first + "\nu2,m,40\n")
        d = load_demographics(demo)
        assert d.rejected == {"bad_age": 1} and _people(d) == {"u2": (False, 40)}, first
    # headers whose value fields do not read are skipped
    towers.write_text("tower_id,lat,lon\nT1,40.0,20.0\n")
    assert load_towers(towers).ids == ["T1"]
    demo.write_text("ego_id,gender,birth_year\nu1,f,1970\n")
    d = load_demographics(demo)
    assert _people(d) == {"u1": (True, 38)} and not d.rejected


def test_a_first_row_too_short_to_reach_a_value_column_is_data(tmp_path):
    towers = tmp_path / "towers.csv"
    towers.write_text("T1\nT2,40.1,20.1\n")
    with pytest.raises(CdrError, match=r"towers\.csv:1: tower row needs tower_id,lat,lon"):
        load_towers(towers)
    demo = tmp_path / "demo.csv"
    demo.write_text("u1\nu2,m,40\n")
    d = load_demographics(demo)
    assert d.rejected == {"missing_column": 1} and _people(d) == {"u2": (False, 40)}


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
    assert _people(load_demographics(demo)) == {"u1": (True, 34), "ü2": (False, 40)}


@pytest.mark.parametrize("name, body, load, error", [
    ("towers.csv", b"tower_id,lat,lon\nT1,40.0,20.0\rT2,40.1,20.1\nT3,abc,20.2\n",
     load_towers, "unparseable coordinate"),
    ("demo.csv", b"ego_id,gender,birth_year\nu1,F,1970\ru2,M,1980\nu3,\xe9,1990\n",
     load_demographics, "not valid UTF-8"),
], ids=["towers", "demographics"])
def test_a_lone_cr_starts_a_row_but_not_a_line(tmp_path, name, body, load, error):
    # rows were numbered, not lines: the error named line 4
    path = tmp_path / name
    path.write_bytes(body)
    with pytest.raises(CdrError, match=rf"{name.replace('.', '[.]')}:3: {error}"):
        load(path)


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
    # a file is read in blocks of 64 KiB: lines are numbered across them
    body = b"".join(b"u%d,f,34\n" % k for k in range(20_000))
    demo.write_bytes(body + b"u\x00,m,40\n")
    with pytest.raises(CdrError, match=r"demo\.csv:20001: holds a NUL byte"):
        load_demographics(demo)
    towers.write_bytes(body.replace(b",f,", b",1,") + b"B\x00,41.0,21.0\n")
    with pytest.raises(CdrError, match=r"towers\.csv:20001: holds a NUL byte"):
        load_towers(towers)


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
    assert _people(d) == {"u1": (True, 34), "u2": (False, 34)}
    assert [AGE_GROUP_LABELS[age_group_of(a)] for _, a in _people(d).values()] == [
        "early_adult", "early_adult"]
    assert d.rejected == {"age_out_of_range": 2, "unknown_gender": 1, "bad_age": 1}


def test_load_demographics_rejects_every_row_of_a_duplicated_id(tmp_path):
    # which of two rows is right cannot be told, so neither is kept
    p = tmp_path / "demo.csv"
    p.write_text("u1,F,1970\nu2,M,40\nu1,M,1980\nu3,x,30\nu3,F,25\n")
    d = load_demographics(p, analysis_year=2008)
    assert _people(d) == {"u2": (False, 40)}
    assert AGE_GROUP_LABELS[age_group_of(_people(d)["u2"][1])] == "early_middle"
    assert d.rejected == {"duplicate_id": 4}


def test_load_demographics_keeps_every_age_in_range(tmp_path):
    # every age from 10 to 110 is kept with its id's gender, and each
    # codes as the group whose bounds hold it
    ages = range(10, 111)
    ids = [f"u{a:03d}" for a in ages]
    p = tmp_path / "demo.csv"
    p.write_text("".join(f"{e},{'fm'[a % 2]},{a}\n" for e, a in reversed(list(zip(ids, ages))))
                 + "u200,f,9\nu201,x,30\n")
    d = load_demographics(p)
    assert _people(d) == {e: (a % 2 == 0, a) for e, a in zip(ids, ages)}
    assert [age_group_of(_people(d)[e][1]) for e in ids] == [
        next(g for g, (_, upper) in enumerate(AGE_GROUPS) if a <= upper) for a in ages]
    assert d.rejected == {"age_out_of_range": 1, "unknown_gender": 1}


def test_load_demographics_holds_about_what_it_returns(tmp_path):
    # rows are read one at a time: every row's list of strings and a
    # Counter of ids took 2.3 times what the loader returns
    p = tmp_path / "demo.csv"
    p.write_text("ego_id,gender,birth_year\n" + "".join(
        f"u{k:06d},{'FM'[k % 2]},{1930 + k % 60}\n" for k in range(50_000)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = load_demographics(p)
        held, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(d.index) == 50_000 and not d.rejected
    assert peak <= 1.5 * held, f"peak {peak / held:.2f} times what is returned"


def test_numbers_in_towers_and_demographics_are_plain_ascii(tmp_path):
    # int() and float() also read "1_960" as 1960 and Arabic-Indic digits
    # as 40: such an age was kept and such a latitude was 40.0
    demo = tmp_path / "demo.csv"
    demo.write_text("u1,f,1_960\nu2,m,\u0664\u0660\nu3,f,4_0\nu4,f, +40 \nu5,m,-5\n"
                    "u6,M,\t1960\nu7,F,40\u00a0\n", encoding="utf-8")
    d = load_demographics(demo)
    assert _people(d) == {"u4": (True, 40), "u6": (False, 48)}
    assert d.rejected == {"bad_age": 4, "age_out_of_range": 1}
    towers = tmp_path / "towers.csv"
    for bad in ("4_0.0", "\u0664\u0660", "40.0\u00a0", "nan", "0x10"):
        for line, rows in ((1, (f"T1,{bad},20.0", "T2,40.1,20.1")),
                           (2, ("T1,40.0,20.0", f"T2,20.1,{bad}"))):
            towers.write_text("\n".join(rows) + "\n", encoding="utf-8")
            with pytest.raises(CdrError, match=rf"towers\.csv:{line}: unparseable coordinate"):
                load_towers(towers)
    # the header rule reads as float() does, so this first row is data
    towers.write_text("T1,4_0.0,2_0.0\nT2,40.1,20.1\n")
    with pytest.raises(CdrError, match=r"towers\.csv:1: unparseable coordinate"):
        load_towers(towers)
    # a sign, spaces around and an exponent read as they did
    towers.write_text("T1, -40.5 ,+20\nT2,1e-05,.5\n")
    reg = load_towers(towers)
    assert reg.lat.tolist() == [-40.5, 1e-05] and reg.lon.tolist() == [20.0, 0.5]


def _loaded(path):
    """(accepted individuals, reject counts) of a demographics file, or
    its fatal error."""
    try:
        d = load_demographics(path, analysis_year=2008)
    except CdrError as e:
        return str(e)
    return _people(d), d.rejected


# edits of a line id,gender,number that keep what the row means
_EDITS = {
    "space": lambda e, g, n: f"{e}, {g},{n}",
    "quote": lambda e, g, n: f'"{e}",{g},{n}',
    "tab": lambda e, g, n: f"{e},{g},\t{n}",
    "crlf": lambda e, g, n: f"{e},{g},{n}\r",
    "extra_column": lambda e, g, n: f"{e},{g},{n},x",
    "none": lambda e, g, n: f"{e},{g},{n}",
}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9),
                       st.sampled_from(["f", "M", "female", "MALE", "Female", "x", ""]),
                       st.sampled_from(["34", "0034", "1960", "2005", "199", "9", "110", "10",
                                        "1898", "", "abc", "12345", "+40", "3:", "1=9"]),
                       st.sampled_from(list(_EDITS))),
             min_size=1, max_size=30),
    st.booleans(),
    st.booleans(),
)
@example([(1, "f", "34", "none"), (1, "m", "40", "quote"), (2, "F", "1960", "crlf")], True, False)
def test_a_demographics_dialect_reads_as_the_plain_rows(tmp_path_factory, lines, bom, header):
    # ids repeat, so duplicates fall on plain and edited lines alike
    folder = tmp_path_factory.mktemp("demo")
    head = "ego_id,gender,birth_year\n" if header else ""
    plain, edited = folder / "plain.csv", folder / "edited.csv"
    plain.write_text(head + "".join(f"u{k},{g},{n}\n" for k, g, n, _ in lines),
                     encoding="utf-8", newline="")
    edited.write_text(("\ufeff" if bom else "") + head + "".join(
        _EDITS[edit](f"u{k}", g, n) + "\n" for k, g, n, edit in lines),
        encoding="utf-8", newline="")
    assert _loaded(edited) == _loaded(plain)


_TOWER_EDITS = {
    "space": lambda t, lat, lon: f"{t}, {lat} ,  {lon}",
    "quote": lambda t, lat, lon: f'"{t}",{lat},{lon}',
    "crlf": lambda t, lat, lon: f"{t},{lat},{lon}\r",
    "extra_column": lambda t, lat, lon: f"{t},{lat},{lon},x",
    "none": lambda t, lat, lon: f"{t},{lat},{lon}",
}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-90, 90), st.floats(0, 180), st.sampled_from(list(_TOWER_EDITS))),
             min_size=1, max_size=30),
    st.booleans(),
    st.booleans(),
)
def test_a_tower_dialect_reads_as_the_plain_rows(tmp_path_factory, towers, bom, header):
    folder = tmp_path_factory.mktemp("towers")
    head = "tower_id,lat,lon\n" if header else ""
    plain, edited = folder / "plain.csv", folder / "edited.csv"
    plain.write_text(head + "".join(f"T{k},{lat},{lon}\n" for k, (lat, lon, _) in enumerate(towers)),
                     encoding="utf-8", newline="")
    edited.write_text(("\ufeff" if bom else "") + head + "".join(
        _TOWER_EDITS[edit](f"T{k}", lat, lon) + "\n" for k, (lat, lon, edit) in enumerate(towers)),
        encoding="utf-8", newline="")
    assert load_towers(edited).digest() == load_towers(plain).digest()


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


def _counted(n: int, drawn: list):
    """range(n), counting each item drawn into drawn[0]."""
    for i in range(n):
        drawn[0] += 1
        yield i


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_ordered_map_keeps_order_and_at_most_k_plus_one_in_flight(force_workers, k):
    force_workers(k)
    drawn, ahead, got = [0], [], []
    running = threading.active_count()
    with ordered_map(lambda i: i * i, _counted(20, drawn), 20, ThreadPoolExecutor) as (used, results):
        for r in results:
            ahead.append(drawn[0] - len(got))  # drawn, so submitted, and not taken
            got.append(r)
    assert used == k and got == [i * i for i in range(20)]
    assert max(ahead) == (k + 1 if k > 1 else 1)
    assert threading.active_count() == running


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_ordered_map_raises_an_items_error_at_its_place(force_workers, k):
    force_workers(k)

    def fn(i):
        if i == 5:
            raise ValueError("item 5")
        return i

    got = []
    running = threading.active_count()
    with pytest.raises(ValueError, match="item 5"):
        with ordered_map(fn, range(20), 20, ThreadPoolExecutor) as (_, results):
            got.extend(results)
    assert got == [0, 1, 2, 3, 4] and threading.active_count() == running


_FORK = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))


@pytest.mark.parametrize("pool", [ThreadPoolExecutor, _FORK], ids=["threads", "fork"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_ordered_map_leaves_no_worker_when_the_caller_stops_early(force_workers, k, pool):
    force_workers(k)
    running = threading.active_count()
    with ordered_map(str, range(100), 100, pool) as (_, results):
        assert next(results) == "0"
    assert threading.active_count() == running and not multiprocessing.active_children()


def test_the_ordered_map_takes_one_worker_per_item_and_the_cap(force_workers):
    force_workers(8)
    for n, cap, k in ((0, None, 1), (1, None, 1), (2, None, 2), (20, None, 8), (20, 2, 2)):
        with ordered_map(str, range(n), n, ThreadPoolExecutor, cap) as (used, results):
            assert used == k and list(results) == [str(i) for i in range(n)]
    with ordered_map(str, range(20), 20) as (used, results):  # no pool
        assert used == 1 and list(results) == [str(i) for i in range(20)]
