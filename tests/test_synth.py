"""Corpus generator: determinism, planted structure, config handling."""

import filecmp
import functools
import hashlib
import json
import multiprocessing
import os
import signal
import tempfile
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, replace
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak

from cdrmob import synth
from cdrmob.cli import main
from cdrmob.geo import GridSpec
from cdrmob.home import compute_homes
from cdrmob.ingest import ingest_file
from cdrmob.records import CdrError, age_group_of, load_towers, write_json, year_bounds
from cdrmob.synth import (
    AGE_ACTIVITY_MULT,
    AGE_EXCESS_SCALE,
    AGE_MAX,
    AGE_MIN,
    CDR_FILE,
    CONFIG_FILE,
    DEMOGRAPHICS_FILE,
    DENSE_AREA_MAX,
    DOW_MULT,
    FEMALE_FRACTION,
    MAX_YEAR_EVENTS,
    MOBILITY_MONTH_MULT,
    OUTSIDER_ID,
    SATELLITE_RINGS,
    SMS_FRACTION,
    SPAM_EVENTS_BASE,
    SPAM_EVENTS_POISSON,
    TOWERS_FILE,
    TRUTH_FILE,
    GenConfig,
    GroundTruth,
    _ego_chunk,
    generate,
    validate_corpus,
)

_FILES = (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE, TRUTH_FILE, CONFIG_FILE)


@functools.cache
def _clock_strings() -> list[str]:
    return [f"{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}" for s in range(86400)]


def _ego_ids(cfg) -> list[str]:
    """Every individual's id, u1..un zero-padded to one width."""
    width = len(str(cfg.n_individuals))
    return [f"u{i + 1:0{width}d}" for i in range(cfg.n_individuals)]


def _reference_chunk(world, lo, hi):
    """The per-row writer the numpy chunk writer replaced, kept as its
    oracle: a generator, a dozen numpy calls and one f-string per event,
    one individual at a time. Same contract as synth._ego_chunk."""
    cfg = world.cfg
    n = cfg.n_cells
    n_sat = len(SATELLITE_RINGS)
    ego_ids = _ego_ids(cfg)
    tower_ids = [row.split(",", 1)[0] for row in world.tower_rows]
    sat_ids = [tower_ids[n + n_sat * k : n + n_sat * (k + 1)] for k in range(n)]
    d0 = date(cfg.analysis_year, 1, 1).toordinal()
    date_strs = [date.fromordinal(d0 + d).isoformat() for d in range(len(world.day_month))]
    year_start, _ = year_bounds(cfg.analysis_year)
    dowv = np.asarray(DOW_MULT)[world.day_wd]
    day_probs, year_weight = {}, {}
    for klass, table in (("dense", cfg.month_mult_dense), ("sparse", cfg.month_mult_sparse)):
        v = dowv * np.asarray(table)[world.day_month]
        day_probs[klass] = v / v.sum()
        year_weight[klass] = float(v.sum())
    tod_str = _clock_strings()

    out: list[str] = []
    demo: list[str] = []
    truth: dict[str, dict] = {}
    n_real = cfg.n_real
    for i in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1_000_000 + i)))
        ego = ego_ids[i]
        spam = i >= n_real
        if spam:
            s = int(rng.integers(0, cfg.n_cells))
            n_ev = SPAM_EVENTS_BASE + int(rng.poisson(SPAM_EVENTS_POISSON))
            female = False
            age = None
            rate = float(n_ev)
        else:
            s = int(world.settlement_of[i])
            female = bool(rng.random() < FEMALE_FRACTION)
            age = int(rng.integers(AGE_MIN, AGE_MAX + 1))
            group = age_group_of(age)
            area = int(world.area[s])
            klass = "dense" if area <= DENSE_AREA_MAX else "sparse"
            daily = cfg.base_daily_events * float(world.act_density_mult[s])
            daily *= AGE_ACTIVITY_MULT[group]
            if female:
                excess = cfg.female_activity_excess[area - 1] * AGE_EXCESS_SCALE[group]
                daily *= 1.0 + excess
            rate = daily * year_weight[klass]
            n_ev = max(int(rng.poisson(rate)), 2)

        klass = "dense" if int(world.area[s]) <= DENSE_AREA_MAX else "sparse"
        days = rng.choice(len(day_probs[klass]), size=n_ev, p=day_probs[klass])
        tod_sec = np.minimum(
            (np.interp(rng.random(n_ev), world.tod_cdf, world.tod_hours) * 3600.0).astype(np.int64),
            86399,
        )
        ts = year_start + days * 86400 + tod_sec

        night = (tod_sec >= 3600) & (tod_sec < 7 * 3600)
        p_away_day = cfg.p_away_day * np.asarray(MOBILITY_MONTH_MULT)[world.day_month[days]]
        if not spam and female:
            p_away_day = p_away_day * (1.0 + cfg.female_mobility_excess)
        p_home = np.where(night, cfg.p_home_night, 1.0 - np.minimum(p_away_day, 0.95))
        at_home = rng.random(n_ev) < p_home
        sat = rng.integers(0, n_sat, size=n_ev)

        if spam:
            victims = rng.integers(0, n_real, size=n_ev)
            partners = [ego_ids[int(v)] for v in victims]
            outgoing = np.ones(n_ev, dtype=bool)
        else:
            if n_real >= 2:
                ring = sorted({(i + d) % n_real for d in (-2, -1, 1, 2)} - {i})
                plist = [ego_ids[j] for j in ring]
            else:
                plist = ["x0001"]
            pick = rng.integers(0, len(plist), size=n_ev)
            partners = [plist[int(p)] for p in pick]
            outgoing = rng.random(n_ev) < 0.5
            partners[0] = plist[0]
            partners[1] = plist[0]
            outgoing[0] = True
            outgoing[1] = False
        sms = rng.random(n_ev) < SMS_FRACTION

        order = np.argsort(ts, kind="stable")
        center_id = world.center_ids[s]
        sats = sat_ids[s]
        for k in order:
            tower = center_id if at_home[k] else sats[sat[k]]
            out.append(
                f"{ego},{partners[k]},{date_strs[days[k]]}T{tod_str[tod_sec[k]]},"
                f"{tower},{'sms' if sms[k] else 'call'},{'out' if outgoing[k] else 'in'}\n"
            )

        if not spam:
            demo.append(f"{ego},{'F' if female else 'M'},{cfg.analysis_year - age}\n")
        truth[ego] = {
            "settlement": s + 1,
            "cell": list(world.cells[s]),
            "home_tower": None if spam else center_id,
            "gender": None if spam else ("female" if female else "male"),
            "age": age,
            "area": int(world.area[s]),
            "rate": rate,
            "spam": spam,
        }
    return ("".join(out).encode("ascii"), demo,
            json.dumps(truth, separators=(",", ":"), sort_keys=True)[1:-1])


def _reference_draws(world, lo, hi, width):
    """The draw loop that synth._chunk_draws replaced, kept as its oracle:
    one generator set to each individual's state in turn, and numpy's own
    calls for every draw. Same contract as synth._chunk_draws."""
    cfg = world.cfg
    n_real = cfg.n_real
    settle, n_ev, female, age, rate = [], [], [], [], []
    u3, sat, pick, u_out, u_sms = [], [], [], [], []
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    for i, state in zip(range(lo, hi), synth._substream_states(cfg.seed, lo, hi)):
        bits.state = state
        if i >= n_real:
            s = int(rng.integers(0, cfg.n_cells))
            k = SPAM_EVENTS_BASE + int(rng.poisson(SPAM_EVENTS_POISSON))
            fem, a, r = False, None, float(k)
        else:
            s = int(world.settlement_of[i])
            fem = bool(rng.random() < FEMALE_FRACTION)
            a = int(rng.integers(AGE_MIN, AGE_MAX + 1))
            r = world.rate[s][fem][world.age_group[a - AGE_MIN]]
            k = max(int(rng.poisson(r)), 2)
        settle.append(s)
        n_ev.append(k)
        female.append(fem)
        age.append(a)
        rate.append(r)
        u3.append(rng.random((3, k)))
        sat.append(rng.integers(0, len(SATELLITE_RINGS), size=k))
        if i >= n_real:
            pick.append(rng.integers(0, n_real, size=k))
        else:
            pick.append(rng.integers(0, width, size=k))
            u_out.append(rng.random(k))
        u_sms.append(rng.random(k))
    return synth._Draws(settle, female, age, rate, np.array(n_ev), *np.concatenate(u3, axis=1),
                        np.concatenate(sat), np.concatenate(pick),
                        np.concatenate(u_out) if u_out else np.empty(0), np.concatenate(u_sms))


def _corpus_bytes(cfg: GenConfig, out) -> dict[str, bytes]:
    generate(cfg, out)
    return {name: (Path(out) / name).read_bytes() for name in _FILES}


def _oracle_bytes(cfg: GenConfig, out) -> dict[str, bytes]:
    with mock.patch.object(synth, "_ego_chunk", _reference_chunk):
        return _corpus_bytes(cfg, out)


@st.composite
def _small_configs(draw):
    n = draw(st.integers(1, 60))
    spam = draw(st.sampled_from((0.0, 0.3)))
    n_real = n - int(round(n * spam))
    cells = draw(st.integers(1, n_real))
    flip = draw(st.none() | st.tuples(st.just(0.4), st.just(-0.5), st.integers(1, cells)))
    return GenConfig(
        n_individuals=n,
        n_cells=cells,
        spam_fraction=spam,
        activity_flip=flip,
        seed=draw(st.integers(0, 2**160)),
    )


@settings(max_examples=60, deadline=None)
@given(_small_configs())
# the outsider partner of a lone genuine individual, called by spam; the 1-,
# 2- and 3-partner rings of 2 to 4 genuine individuals
@example(GenConfig(n_individuals=2, n_cells=1, spam_fraction=0.3, seed=3))
@example(GenConfig(n_individuals=2, n_cells=2, spam_fraction=0.0, seed=4))
@example(GenConfig(n_individuals=3, n_cells=1, spam_fraction=0.0, seed=5))
@example(GenConfig(n_individuals=6, n_cells=2, spam_fraction=0.3, activity_flip=(0.4, -0.5, 1)))
# seeds of two and three 32-bit words
@example(GenConfig(n_individuals=8, n_cells=2, spam_fraction=0.3, seed=2**32))
@example(GenConfig(n_individuals=8, n_cells=2, spam_fraction=0.3, seed=2**64 + 1))
@example(GenConfig(n_individuals=8, n_cells=2, spam_fraction=0.3, seed=123456789012))
def test_generate_writes_the_bytes_of_the_per_row_oracle(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        got = _corpus_bytes(cfg, Path(tmp) / "numpy")
        want = _oracle_bytes(cfg, Path(tmp) / "oracle")
    for name in _FILES:
        assert got[name] == want[name], name


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**160), st.integers(0, 2**40), st.integers(0, 40))
# seeds of one to five words, and so entropy from two words to one past
# SeedSequence's pool of four (3 + 1 words fill it)
@example(0, 0, 3)
@example(2**32, 0, 3)
@example(2**64 - 1, 0, 3)
@example(2**64, 0, 3)
@example(2**96, 0, 3)
@example(2**128, 0, 3)
@example(2**160 - 1, 0, 3)
# indices whose key 1_000_000 + i goes from one word to two
@example(7, 2**32 - 1_000_000 - 2, 4)
@example(2**96, 2**32 - 1_000_000 - 2, 4)
def test_each_substream_state_is_numpys(seed, lo, n):
    want = [np.random.PCG64(np.random.SeedSequence((seed, 1_000_000 + i))).state
            for i in range(lo, lo + n)]
    assert synth._substream_states(seed, lo, lo + n) == want


def test_generate_makes_no_seed_sequence_per_individual(tmp_path, monkeypatch, force_workers):
    # each individual's SeedSequence, PCG64 and Generator took about 16.5 us
    force_workers(1)
    seed_sequence = np.random.SeedSequence
    made = []

    def counted(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    count = {}
    for n in (60, 1200):  # one chunk and three
        made.clear()
        generate(GenConfig(n_individuals=n, n_cells=6, base_daily_events=0.02), tmp_path / str(n))
        count[n] = len(made)
    assert count[60] == count[1200], count


# numpy's bounded draws over these ranges: the satellite and ring places
# (2, 3, 4), the age (73), the spam victims of megarow and crowd (4,750,
# 19,000) and a range whose every other half numpy rejects (2**31 + 1)
_RANGES = (2, 3, 4, 73, 4750, 19000, 2**31 + 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**128 - 1), st.integers(0, 2**127 - 1), st.sampled_from((0, 1)),
       st.integers(0, 2**32 - 1), st.integers(0, 300), st.sampled_from(_RANGES),
       st.sampled_from(_RANGES))
@example(0, 0, 1, 0, 5, 3, 4)  # numpy rejects a buffered half of 0 with n = 3
def test_the_chunk_conversion_is_numpys_draws(state, inc, has_uint32, uinteger, k, n_sat, n_pick):
    # one individual's draws after its Poisson one, made by numpy from a
    # state, against the conversion of 6k raw words read from that state
    # (five rows of doubles and the halves of the fourth): equal up to the
    # first half the conversion flags, where numpy rejects and draws again
    state = {"bit_generator": "PCG64", "state": {"state": state, "inc": 2 * inc + 1},
             "has_uint32": has_uint32, "uinteger": uinteger}
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    want_unit = [*rng.random((3, k))]
    want_int = [rng.integers(0, n_sat, size=k), rng.integers(0, n_pick, size=k)]
    want_unit += [rng.random(k), rng.random(k)]
    after = rng.bit_generator.state["state"]

    bits = np.random.PCG64()
    bits.state = state
    words = bits.random_raw((6, k))
    unit = [synth._unit(words[r]).tolist() for r in (0, 1, 2, 4, 5)]
    assert unit[:3] == [u.tolist() for u in want_unit[:3]]
    if not k:  # numpy draws nothing, and the conversion reads no word
        assert not words.size and after == state["state"]
        return
    if has_uint32:
        halves = synth._halves(words[3], np.array([0]), np.array([uinteger], np.uint64))
    else:  # nothing buffered: each word's halves, low first
        halves = words[3].astype("<u8").view("<u4").astype(np.uint64)
    got = [synth._lemire(halves[:k], n_sat), synth._lemire(halves[k:], n_pick)]
    value = np.concatenate([v for v, _ in got]).view(np.int64)
    rejected = np.concatenate([r for _, r in got])
    want = np.concatenate(want_int)
    if not rejected.any():
        assert value.tolist() == want.tolist()
        assert unit[3:] == [u.tolist() for u in want_unit[3:]]
        assert bits.state["state"] == after  # numpy read 6k words too
    else:  # numpy rejects the first flagged half and draws from the next
        cut = int(np.argmax(rejected))
        assert value[:cut].tolist() == want[:cut].tolist()
        if cut + 1 < 2 * k:
            redrawn, again = synth._lemire(halves[cut + 1], n_sat if cut < k else n_pick)
            assert again or redrawn == want[cut]


def test_numpy_rejects_the_halves_that_lemire_flags():
    # 2**32 % 3 is 1, so a half of 0 is the one numpy rejects with n = 3
    assert synth._lemire(0, 3) == (0, True) and synth._lemire(1, 3) == (0, False)
    value, rejected = synth._lemire(np.array([0, 1, 2**32 - 1], np.uint64), 3)
    assert value.tolist() == [0, 0, 2] and rejected.tolist() == [True, False, False]
    bits = np.random.PCG64(7)
    bits.state = {**bits.state, "has_uint32": 1, "uinteger": 0}
    start = bits.state
    drawn = np.random.Generator(bits).integers(0, 3)
    after = bits.state
    bits.state = start
    word = bits.random_raw()
    # numpy drew again from the next word's low half and buffered its high one
    assert drawn == synth._lemire(word & 0xFFFF_FFFF, 3)[0]
    assert after["state"] == bits.state["state"] and after["uinteger"] == word >> 32


# the chunks of the benchmark corpora (megarow seed 5, crowd seeds 5 and 6)
# that hold a rejected victim draw, and the individual that draws it
@pytest.mark.parametrize("gen, lo, hi, victim", [
    (dict(n_individuals=5000, base_daily_events=0.45, seed=5), 4608, 5000, 4809),
    (dict(n_individuals=20000, base_daily_events=0.05, seed=5), 19456, 19968, 19582),
    (dict(n_individuals=20000, base_daily_events=0.05, seed=6), 18944, 19456, 19196),
])
def test_a_chunk_with_a_rejected_draw_keeps_numpys_draws(monkeypatch, gen, lo, hi, victim):
    world = synth._World(GenConfig(**gen))
    replayed = []
    replay = synth._replayed

    def recorded(rng, state, world, i, width):
        replayed.append(i)
        return replay(rng, state, world, i, width)

    monkeypatch.setattr(synth, "_replayed", recorded)
    got = synth._chunk_draws(world, lo, hi, 4)
    assert replayed == [victim]
    want = _reference_draws(world, lo, hi, 4)
    for name, a, b in zip(synth._Draws._fields, got, want):
        assert np.asarray(a).tolist() == np.asarray(b).tolist(), name
        assert np.asarray(a).dtype == np.asarray(b).dtype, name


def test_a_chunk_makes_no_array_draw_per_individual(tmp_path, monkeypatch, force_workers):
    # numpy's random and integers took about 0.9 and 4.6 us a call, five
    # calls an individual; a replayed individual still makes them
    force_workers(1)
    calls, replaying = [], []

    class Counted(np.random.Generator):
        def random(self, size=None, *args, **kwargs):
            if size is not None and not replaying:
                calls.append("random")
            return super().random(size, *args, **kwargs)

        def integers(self, low, high=None, size=None, *args, **kwargs):
            if size is not None and not replaying:
                calls.append("integers")
            return super().integers(low, high, size, *args, **kwargs)

    replay = synth._replayed

    def marked(*args):
        replaying.append(True)
        try:
            return replay(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(np.random, "Generator", Counted)
    monkeypatch.setattr(synth, "_replayed", marked)
    count = {}
    for n in (60, 1200):  # one chunk and three
        calls.clear()
        generate(GenConfig(n_individuals=n, n_cells=6, base_daily_events=0.02), tmp_path / str(n))
        count[n] = len(calls)
    assert count[60] == count[1200] == 0, count


def _kept_pools(monkeypatch) -> list:
    """The list of every process pool made: while the caller holds it, only
    generate's own cleanup, not garbage collection, can stop the workers."""
    pools = []
    init = ProcessPoolExecutor.__init__

    def kept(pool, *args, **kwargs):
        pools.append(pool)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", kept)
    return pools


def test_chunk_size_does_not_change_the_bytes(tmp_path, monkeypatch, force_workers):
    # 135 genuine and 15 spam individuals: chunks of 7 straddle the boundary
    cfg = GenConfig(n_individuals=150, n_cells=12, spam_fraction=0.1, seed=13)
    want = _oracle_bytes(cfg, tmp_path / "oracle")
    for workers in (1, 2, 3):
        force_workers(workers)
        pools = _kept_pools(monkeypatch)
        for chunk in (1, 7, synth._CHUNK):
            monkeypatch.setattr(synth, "_CHUNK", chunk)
            with warnings.catch_warnings():
                # Python 3.12 on warns of a fork in a process that runs threads
                warnings.simplefilter("error")
                got = _corpus_bytes(cfg, tmp_path / f"w{workers}-chunk{chunk}")
            assert not multiprocessing.active_children()
            for name in _FILES:
                assert got[name] == want[name], (workers, chunk, name)
        assert len(pools) == (2 if workers > 1 else 0)  # chunks of 7 and of 1


def _failing_chunk(world, lo, hi):
    """_ego_chunk for the first chunk; for any other, an error naming the
    process that raised it."""
    if lo:
        raise CdrError(f"chunk at {lo} failed in process {os.getpid()}")
    return _ego_chunk(world, lo, hi)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_chunk_that_fails_fails_generate_and_leaves_no_worker(tmp_path, monkeypatch,
                                                                force_workers, workers):
    force_workers(workers)
    pools = _kept_pools(monkeypatch)
    monkeypatch.setattr(synth, "_ego_chunk", _failing_chunk)
    monkeypatch.setattr(synth, "_CHUNK", 100)
    cfg = GenConfig(n_individuals=300, n_cells=12, seed=13)  # chunks at 0, 100 and 200
    with pytest.raises(CdrError, match=r"chunk at (100|200) failed in process \d+") as e:
        generate(cfg, tmp_path)
    assert not multiprocessing.active_children()
    in_here = e.value.args[0].endswith(f" {os.getpid()}")
    assert in_here == (workers == 1) == (not pools)


def _dying_chunk(world, lo, hi):
    """_ego_chunk for the first chunk; for any other, the process exits at
    once, with neither a result nor an error."""
    if lo:
        os._exit(9)
    return _ego_chunk(world, lo, hi)


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the body once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def test_a_worker_that_dies_fails_generate_and_leaves_no_worker(tmp_path, monkeypatch,
                                                                force_workers):
    # a pool that replaced the dead worker waited for its chunk forever
    force_workers(2)
    pools = _kept_pools(monkeypatch)
    monkeypatch.setattr(synth, "_ego_chunk", _dying_chunk)
    cfg = GenConfig(n_individuals=1200, n_cells=12, seed=13)  # chunks at 0, 512 and 1024
    with _deadline(10), pytest.raises(BrokenProcessPool):
        generate(cfg, tmp_path / "direct")
    assert len(pools) == 1 and not multiprocessing.active_children()
    out = tmp_path / "corpus"
    with _deadline(10), pytest.raises(BrokenProcessPool):
        main(["generate", "--out", str(out), "--n", "1200", "--cells", "12"])
    assert len(pools) == 2 and not multiprocessing.active_children()
    assert not out.exists() and not list(tmp_path.glob(".cdrmob-*"))


def _fileless_chunk(world, lo, hi):
    """_ego_chunk, in a process that holds none of cdr.csv, demographics.csv
    and truth.json open."""
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed since
            continue
        if target.endswith((CDR_FILE, DEMOGRAPHICS_FILE, TRUTH_FILE)):
            raise CdrError(f"process {os.getpid()} holds {target}")
    return _ego_chunk(world, lo, hi)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_forked_workers_hold_none_of_the_output_files(tmp_path, monkeypatch, force_workers):
    force_workers(2)
    pools = _kept_pools(monkeypatch)
    monkeypatch.setattr(synth, "_ego_chunk", _fileless_chunk)
    monkeypatch.setattr(synth, "_CHUNK", 100)
    cfg = GenConfig(n_individuals=600, n_cells=12, seed=13)  # six chunks
    generate(cfg, tmp_path)
    assert len(pools) == 1 and not multiprocessing.active_children()
    assert (tmp_path / CDR_FILE).stat().st_size


def test_the_calling_process_does_not_grow_with_the_individuals(tmp_path, force_workers):
    # a calling process that gathered every individual's truth before
    # writing it peaked at 2.4 MiB for 2,048 individuals and 6.1 MiB for
    # 8,192. No spam: at this rate a spam id has about seven times the rows
    # of a genuine one, and only the larger corpus has a chunk mostly of them
    force_workers(2)
    # a process's first call pays one-off imports
    generate(GenConfig(n_individuals=40, n_cells=40, spam_fraction=0.0), tmp_path / "first")
    peak = {}
    for n in (2048, 8192):
        cfg = GenConfig(n_individuals=n, n_cells=40, base_daily_events=0.02, spam_fraction=0.0,
                        seed=3)
        peak[n] = traced_peak(lambda: generate(cfg, tmp_path / str(n)))
    assert peak[8192] <= peak[2048] + (1 << 20), peak


# sha256 of each file of a small corpus: spam, a planted flip and all five
# density classes, with more individuals than a chunk of the writers
_PINNED_CONFIG = GenConfig(n_individuals=600, n_cells=30, base_daily_events=0.2,
                           activity_flip=(0.4, -0.5, 10), area_boundaries=(2, 5, 10, 20), seed=3)
_PINNED_SHA256 = {
    CDR_FILE: "db972557998adac7a2e1905106d4ed6c3d8c45bee2e17cd78f54d57a355cab8e",
    TOWERS_FILE: "1f538ed11a6c30acd3718e18bdeced0183db5abb5d18af19ed58654ac68928a5",
    DEMOGRAPHICS_FILE: "e0ef2d41a18a73f55fecdec73ab8c8d603bfaf3d98b891b64a9426bfd614c120",
    TRUTH_FILE: "633f2789964d01d51832834348085d7172d8a1210d090cd2777fe33bd488a56d",
    CONFIG_FILE: "8c85e5819030bc2c8229946fe531935c786833b7cf7b3aaef964b23bb971aee7",
}


def test_the_world_holds_a_few_bytes_per_individual():
    # every individual's id is a row of id_bytes, not a Python string of
    # about 63 B that the calling process and every forked worker hold
    def held(n):
        cfg = GenConfig(n_individuals=n, n_cells=40, base_daily_events=0.02, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            world = synth._World(cfg)
            return tracemalloc.get_traced_memory()[0] - before, world
        finally:
            tracemalloc.stop()

    held(100)  # one-off allocations of a first call
    small, _ = held(8192)
    large, world = held(32768)
    assert (large - small) / (32768 - 8192) <= 24
    assert world.ego_ids(0, 2) == ["u00001", "u00002"]
    assert world.ego_ids(32767, 32768) == ["u32768"]
    assert world.id_bytes[-1].tobytes().rstrip(b"\0") == OUTSIDER_ID.encode()


def test_generated_files_keep_their_bytes(tmp_path):
    generate(_PINNED_CONFIG, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _FILES}
    assert got == _PINNED_SHA256


# the same for a dense corpus of 483,582 rows, recorded before the chunk's
# rows were ordered by one packed sort: some individual has two rows in one
# second, which must stay in the order they were drawn in
_DENSE_CONFIG = GenConfig(n_individuals=300, n_cells=30, base_daily_events=4.0, seed=3)
_DENSE_SHA256 = {
    CDR_FILE: "a156b3c9b48f5c81bdcd859ea541f8eb2cf036fdfd1a4f3d64270d5af4f482e0",
    TOWERS_FILE: "8fe0066725aec18c3b54f4ef747fd83e216cf4a0310da72c1bab3702018af832",
    DEMOGRAPHICS_FILE: "e37d9d3a6fdd740b4c0b8ae15c17967d44cf44457692e1131bb30825b75d9202",
    TRUTH_FILE: "6e21094a0f27ada8e80fa4f2947175c8deedbbcc1c94d6d0f4b4195b9b82a90c",
    CONFIG_FILE: "359c35d07318cb62444333aac56f10af97bf8ab6a063d79e6af34955dead28a0",
}


def test_a_corpus_with_rows_in_one_second_keeps_its_bytes(tmp_path):
    generate(_DENSE_CONFIG, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _FILES}
    assert got == _DENSE_SHA256
    lines = (tmp_path / CDR_FILE).read_bytes().splitlines()[1:]
    ego_second = [line.split(b",", 3)[0:3:2] for line in lines]
    assert any(a == b for a, b in zip(ego_second, ego_second[1:]))


@st.composite
def _day_cdfs(draw):
    """One or two day CDFs, built as _World builds them from weights
    between 1e-300 and 1: most days weigh too little to move the sum, so
    neighbours are equal after rounding and many days share a bucket."""
    days = draw(st.integers(1, 400))
    weight = st.floats(-300.0, 0.0).map(lambda e: 10.0**e)
    w = np.array(draw(st.lists(st.lists(weight, min_size=days, max_size=days),
                               min_size=1, max_size=2)))
    cdf = (w / np.array([v.sum() for v in w])[:, None]).cumsum(axis=1)
    return cdf / cdf[:, -1:]


@settings(max_examples=100, deadline=None)
@given(_day_cdfs(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=200),
       st.integers(0, 2**32 - 1))
def test_the_bucketed_day_lookup_is_generator_choices_search(cdf, drawn, seed):
    # besides the drawn u: both ends of [0, 1), each bucket's low end, and
    # every CDF value below 1 (a draw of Generator.random is below 1)
    u = np.concatenate([drawn, [0.0, np.nextafter(1.0, 0.0)],
                        np.arange(synth._DAY_BUCKETS) / synth._DAY_BUCKETS, cdf[cdf < 1]])
    row = np.random.default_rng(seed).integers(0, len(cdf), size=len(u))
    got = synth._bucketed_days(cdf, synth._day_buckets(cdf), row, u)
    want = [cdf[r].searchsorted(x, side="right") for r, x in zip(row.tolist(), u.tolist())]
    assert got.tolist() == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 512), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_the_packed_sort_orders_rows_as_lexsort(n, n_who, n_seconds, seed):
    # a handful of seconds, at both ends of the year's range, so most rows
    # tie on (who, second)
    rng = np.random.default_rng(seed)
    who = np.sort(rng.integers(0, n_who, size=n))
    second = rng.choice([0, 1, 86399, (1 << synth._SECOND_BITS) - 1][:n_seconds], size=n)
    o, sorted_second = synth._row_order(who, second, n_who)
    want = np.lexsort((second, who))
    assert o.tolist() == want.tolist()
    assert sorted_second.tolist() == second[want].tolist()


def test_the_sort_key_of_a_full_chunk_fits_in_63_bits():
    # 9 bits of individual, 25 of second and 29 of row: a chunk of 512
    # individuals at MAX_YEAR_EVENTS each has 512e6 rows, and 2**29 rows
    # lie about 1,100 standard deviations of the sum of their Poisson
    # draws above that
    assert 366 * 86400 < 1 << synth._SECOND_BITS
    rows = int(synth._CHUNK * MAX_YEAR_EVENTS)
    assert (synth._CHUNK - 1).bit_length() + synth._SECOND_BITS + rows.bit_length() == 63
    with pytest.raises(AssertionError, match="63-bit sort key"):
        synth._row_order(np.zeros(4, np.int64), np.zeros(4, np.int64), 1 << 40)


def test_each_drawn_rate_is_the_checked_table_entry(tmp_path):
    # the rate check multiplied in another order than the draws did, so
    # about 40% of the rates it checked differed from the drawn ones
    generate(_PINNED_CONFIG, tmp_path)
    egos = json.loads((tmp_path / TRUTH_FILE).read_text())["egos"].values()
    assert {t["area"] for t in egos} == {1, 2, 3, 4, 5} and any(t["spam"] for t in egos)
    rate = synth._World(_PINNED_CONFIG).rate
    assert np.shape(rate) == (_PINNED_CONFIG.n_cells, 2, 6)
    for t in egos:
        if not t["spam"]:
            sex = t["gender"] == "female"
            assert t["rate"] == rate[t["settlement"] - 1][sex][age_group_of(t["age"])]


@pytest.mark.parametrize("factor, refused", [(1 + 1e-9, True), (1 - 1e-9, False)])
def test_the_rate_check_bounds_the_largest_table_entry(factor, refused):
    cfg = _PINNED_CONFIG
    base = cfg.base_daily_events * MAX_YEAR_EVENTS / np.max(synth._World(cfg).rate) * factor
    edge = replace(cfg, base_daily_events=base)
    if refused:
        with pytest.raises(synth.RateError):
            synth._World(edge)
    else:
        assert np.max(synth._World(edge).rate) <= MAX_YEAR_EVENTS


def test_truth_file_holds_the_streaming_encoders_bytes(tmp_path, monkeypatch):
    # the file reads back, and the truth read encodes in one go to its bytes;
    # a chunk of 7 holds genuine and spam ids
    monkeypatch.setattr(synth, "_CHUNK", 7)
    generate(GenConfig(n_individuals=60, n_cells=6, spam_fraction=0.1, seed=21), tmp_path)
    truth = GroundTruth.from_json(tmp_path / TRUTH_FILE)
    assert len(truth.egos) == 60 and len(truth.spam_ids) == 6
    text = json.dumps(vars(truth), separators=(",", ":"), sort_keys=True)
    assert (tmp_path / TRUTH_FILE).read_text(encoding="utf-8") == text + "\n"


def test_noise_free_individual_lives_at_the_planted_tower(tmp_path):
    # one settlement, one resident, never away from home: the detected
    # home must be the settlement tower itself
    cfg = GenConfig(
        n_individuals=1,
        n_cells=1,
        p_home_night=1.0,
        p_away_day=0.0,
        spam_fraction=0.0,
        seed=5,
    )
    generate(cfg, tmp_path)
    truth = GroundTruth.from_json(tmp_path / TRUTH_FILE)
    [(ego, info)] = truth.egos.items()
    assert not info["spam"]
    reg = load_towers(tmp_path / TOWERS_FILE)
    res = ingest_file(tmp_path / CDR_FILE, reg)
    assert res.table.ids == [ego]
    home = reg.index_of(info["home_tower"])
    lat, lon, _ = compute_homes(res.table, reg, truth.night_window)
    assert lat[0] == pytest.approx(reg.lat[home], abs=1e-9)
    assert lon[0] == pytest.approx(reg.lon[home], abs=1e-9)
    grid = GridSpec(truth.grid_step)
    assert grid.cells_of(lat[0], lon[0]) == tuple(info["cell"])


def test_generation_is_deterministic_across_runs_and_threads(tmp_path):
    cfg = GenConfig(n_individuals=300, n_cells=40, seed=9)
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    generate(cfg, a, threads=1)
    generate(cfg, b, threads=1)
    generate(cfg, c, threads=5)
    for name in _FILES:
        assert filecmp.cmp(a / name, b / name, shallow=False), name
        assert filecmp.cmp(a / name, c / name, shallow=False), name


def test_every_genuine_individual_survives_the_pair_filter(tmp_path):
    cfg = GenConfig(n_individuals=120, n_cells=10, spam_fraction=0.1, seed=3)
    generate(cfg, tmp_path)
    truth = GroundTruth.from_json(tmp_path / TRUTH_FILE)
    reg = load_towers(tmp_path / TOWERS_FILE)
    res = ingest_file(tmp_path / CDR_FILE, reg)
    genuine = {e for e, t in truth.egos.items() if not t["spam"]}
    assert set(res.table.ids) == genuine
    assert set(res.removed_ids) == set(truth.spam_ids)
    assert len(truth.spam_ids) == 12


def test_genconfig_validation():
    bad = [
        dict(n_cells=0),
        dict(n_individuals=0),
        dict(spam_fraction=1.0),
        dict(spam_fraction=-0.1),
        dict(n_individuals=30, n_cells=50),  # fewer genuine than settlements
        dict(base_daily_events=-1.0),
        dict(p_home_night=1.5),
        dict(month_mult_dense=(1.0,) * 11),
        dict(month_mult_sparse=(1.0,) * 7 + (0.0,) + (1.0,) * 4),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            GenConfig(**kw)


@pytest.mark.parametrize(
    "flip",
    [
        (0.4, -0.5, 0),  # a zero pivot: every genuine rate divides by zero
        (0.4, -0.5, -3),  # a negative pivot: a negative Poisson rate
        (0.4, -0.5),  # two numbers where three are unpacked
        (0.4, -0.5, 1, 2),
        (float("nan"), -0.5, 100),
        (0.4, float("inf"), 100),
        (0.4, -0.5, "100"),
        100,
    ],
)
def test_activity_flip_is_three_finite_numbers_with_a_positive_pivot(flip):
    with pytest.raises(ValueError, match="activity_flip"):
        GenConfig(n_individuals=50, n_cells=5, activity_flip=flip)


def test_genconfig_json_round_trip(tmp_path):
    cfg = GenConfig(n_individuals=50, n_cells=5, beta=0.3, seed=77)
    p = tmp_path / "cfg.json"
    write_json(p, asdict(cfg))
    with open(p, encoding="utf-8") as fh:
        assert GenConfig.from_dict(json.load(fh)) == cfg


def test_ground_truth_json_round_trip(tmp_path):
    # the truth read from generate's file, written again and read back,
    # is the same truth
    generate(GenConfig(n_individuals=60, n_cells=6, seed=21), tmp_path)
    truth = GroundTruth.from_json(tmp_path / TRUTH_FILE)
    assert len(truth.egos) == 60
    write_json(tmp_path / "again.json", vars(truth))
    assert GroundTruth.from_json(tmp_path / "again.json") == truth


def test_scorecard_passes_on_a_small_default_style_corpus(small_corpus, tmp_path):
    corpus, _ = small_corpus
    card = validate_corpus(corpus)
    for check in card.checks:
        assert check.passed, f"{check.name}: {check.value} (target {check.target})"
    assert card.passed
    names = {c.name for c in card.checks}
    assert {"spam_filter", "night_window", "home_cells", "weekly_extremes"} <= names
    text = "\n".join(card.lines())
    assert "PASS" in text and "FAIL" not in text
    write_json(tmp_path / "card.json", asdict(card))
    with open(tmp_path / "card.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["passed"] is True and len(doc["checks"]) == len(card.checks)


@pytest.mark.parametrize("corpus, names", [
    ("null_corpus", {"null_mobility", "null_activity", "gender_null"}),
    ("flip_corpus", {"flip_bands", "gender_null"}),
])
def test_the_null_and_flip_checks_pass_on_their_corpora(request, corpus, names):
    # only a corpus with the couplings zeroed, or with a planted flip, runs
    # these checks
    card = validate_corpus(request.getfixturevalue(corpus)[0])
    got = {c.name: c for c in card.checks if c.name in names}
    assert set(got) == names
    for check in got.values():
        assert check.passed, f"{check.name}: {check.value} (target {check.target})"


def test_a_flip_at_the_wrong_rank_fails_its_check(flip_corpus, tmp_path):
    # the flip corpus's truth with the pivot moved from rank 100 to 300:
    # the bands between them are positive where the check wants negative
    corpus, _ = flip_corpus
    for name in (CDR_FILE, TOWERS_FILE, DEMOGRAPHICS_FILE):
        os.symlink(os.path.join(corpus, name), tmp_path / name)
    with open(os.path.join(corpus, TRUTH_FILE), encoding="utf-8") as fh:
        truth = json.load(fh)
    assert truth["activity_flip"][2] == 100
    truth["activity_flip"][2] = 300
    write_json(tmp_path / TRUTH_FILE, truth)
    (check,) = [c for c in validate_corpus(tmp_path).checks if c.name == "flip_bands"]
    assert not check.passed
    assert [band for band, _ in check.value["wrong_sign"]] == [13, 14]
