"""End-to-end acceptance gate, one test per criterion.

Each test prints the measured values it judged, so a verbose run shows
one pass/fail line per criterion plus the numbers behind it. Oracles are
implemented independently inside the tests (plain-math haversine with a
different reduction, brute-force window sums, sort-based ranking).
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from cdrmob.density import rank_size, spearman
from cdrmob.geo import EARTH_RADIUS_KM, GridSpec
from cdrmob.ingest import EventTable
from cdrmob.metrics import TableMetrics
from cdrmob.records import TowerRegistry
from cdrmob.synth import corpus_pipeline

_REL = 1e-9


# ------------------------------------------------------------- oracles


def _oracle_hav(lat1, lon1, lat2, lon2) -> float:
    """Scalar haversine via the atan2 reduction (the library uses arcsin)."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def _oracle_metrics(ts, lats, lons, home, t0, t1):
    """Brute force: event count, travel index, gyration radius within
    [t0, t1). The travel index divides by the event count."""
    idx = [k for k in range(len(ts)) if t0 <= ts[k] < t1]
    a = len(idx)
    if a == 0:
        return 0, 0.0, None, 0
    d2 = 0.0
    for x, y in zip(idx[:-1], idx[1:]):
        if y == x + 1 or True:  # events inside the window are consecutive
            d2 += _oracle_hav(lats[x], lons[x], lats[y], lons[y]) ** 2
    h2 = sum(_oracle_hav(lats[k], lons[k], home[0], home[1]) ** 2 for k in idx)
    m = math.sqrt(d2 / a)
    rg = math.sqrt(h2 / a)
    return a, m, rg, a - 1


def _rel_eq(x, y, tol=_REL) -> bool:
    scale = max(abs(x), abs(y), 1e-30)
    return abs(x - y) <= tol * scale


def _random_world(rng, n_towers=60):
    entries = {
        f"T{i:03d}": (float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
        for i in range(n_towers)
    }
    return TowerRegistry(entries)


def _random_table(rng, registry, sizes):
    """One individual per entry of sizes, each with that many events."""
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    n = int(offsets[-1])
    ts = np.concatenate([
        np.sort(rng.integers(1_199_145_600, 1_230_768_000, size=k)) for k in sizes
    ]).astype(np.int64)
    tower = rng.integers(0, len(registry), size=n).astype(np.int32)
    ids = [f"e{k:05d}" for k in range(len(sizes))]
    return EventTable(ids, offsets, ts, tower)


def _window(tm, k, t0, t1, home_lat=math.nan):
    """(activity, mobility, rg or None, pairs) of individual k in [t0, t1);
    rg only for an individual whose home latitude is known."""
    a, m, rg, pairs = (x[0, 0] for x in tm.windows(np.array([t0, t1]), k, k + 1))
    return int(a), float(m), float(rg) if not math.isnan(home_lat) and a else None, int(pairs)


# ----------------------------------------------------------- criteria


def test_criterion_01_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    registry = _random_world(rng)
    start = time.perf_counter()
    tab = _random_table(rng, registry, rng.integers(1, 501, size=1000))
    homes = (rng.uniform(-60, 60, size=1000), rng.uniform(-170, 170, size=1000))
    tm = TableMetrics(tab, registry, homes)
    lats, lons = registry.lat[tab.tower], registry.lon[tab.tower]
    for k in range(1000):
        s, e = int(tab.offsets[k]), int(tab.offsets[k + 1])
        ts = tab.ts[s:e]
        home = (float(homes[0][k]), float(homes[1][k]))
        lo = int(ts[0])
        hi = int(ts[-1]) + 1
        cut = int(rng.integers(lo, hi + 1))
        for t0, t1 in ((lo, hi), (lo, cut), (cut, hi)):
            activity, mobility, rg_km, _ = _window(tm, k, t0, t1, home[0])
            a, m, rg, _ = _oracle_metrics(ts, lats[s:e], lons[s:e], home, t0, t1)
            assert activity == a
            assert _rel_eq(mobility, m if a else 0.0)
            if a:
                assert _rel_eq(rg_km, rg)
            else:
                assert rg_km is None
    elapsed = time.perf_counter() - start
    print(f"criterion 1: 1000 individuals, brute-force agreement at {_REL:g}, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_02_two_event_window():
    rng = np.random.default_rng(202)
    registry = _random_world(rng)
    tab = _random_table(rng, registry, [2] * 50)
    tm = TableMetrics(tab, registry)
    lats, lons = registry.lat[tab.tower], registry.lon[tab.tower]
    for k in range(50):
        d = _oracle_hav(lats[2 * k], lons[2 * k], lats[2 * k + 1], lons[2 * k + 1])
        _, mobility, _, _ = _window(tm, k, int(tab.ts[2 * k]), int(tab.ts[2 * k + 1]) + 1)
        assert _rel_eq(mobility, d / math.sqrt(2.0))
    print("criterion 2: two-event travel index equals distance over sqrt(2)")


def _oracle_rank_desc(v):
    """Average ranks of -v via sorting only."""
    order = sorted(range(len(v)), key=lambda k: -v[k])
    ranks = [0.0] * len(v)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return np.array(ranks)


def test_criterion_03_rank_correlation_oracle():
    x = np.arange(50, dtype=float)
    assert spearman(x, 3.0 * x + 2.0) == 1.0
    assert spearman(x, np.exp(-x)) == -1.0
    rng = np.random.default_rng(303)
    for trial in range(100):
        n = int(rng.integers(5, 200))
        if trial % 2:
            x = rng.integers(0, 8, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 8, size=n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        rx, ry = _oracle_rank_desc(x), _oracle_rank_desc(y)
        want = float(np.corrcoef(rx, ry)[0, 1])
        assert abs(spearman(x, y) - want) <= 1e-12
    print("criterion 3: rank correlation matches the rank-Pearson oracle at 1e-12")


def test_criterion_04_default_corpus_recovery(default_corpus):
    corpus, truth = default_corpus
    # fresh pipeline so the timing covers ingest through homes
    pipe = corpus_pipeline(corpus, truth)
    start = time.perf_counter()
    window = pipe.night_window
    fit = pipe.circadian_fit
    homes = pipe.homes
    elapsed = time.perf_counter() - start
    assert tuple(window) == (1.0, 7.0)
    grid = pipe.grid
    good = homed = 0
    genuine = [e for e, t in truth.egos.items() if not t["spam"]]
    for ego in genuine:
        h = homes.get(ego)
        if h is None:
            continue
        homed += 1
        ci, cj = grid.cells_of(h[0], h[1])
        ti, tj = truth.egos[ego]["cell"]
        if abs(ci - ti) <= 1 and abs(cj - tj) <= 1:
            good += 1
    frac = good / homed
    coverage = homed / len(genuine)
    assert frac >= 0.99
    assert coverage >= 0.95  # the accuracy fraction must not hide mass homelessness
    assert abs(fit.mu_day_h - 12.97) <= 10 / 60
    assert abs(fit.mu_evening_h - 19.72) <= 10 / 60
    assert abs(fit.sigma_day_h - 2.36) <= 0.3
    assert abs(fit.sigma_evening_h - 2.31) <= 0.3
    print(
        f"criterion 4: window {window}, homes {frac:.4%} within one cell "
        f"({coverage:.2%} homed), fit mu=({fit.mu_day_h:.3f},{fit.mu_evening_h:.3f}) "
        f"sigma=({fit.sigma_day_h:.3f},{fit.sigma_evening_h:.3f}), {elapsed:.1f}s"
    )
    assert elapsed < 60.0


def test_criterion_05_density_coupling_signs(default_pipeline, null_pipeline):
    pipe, _ = default_pipeline
    corr = pipe.correlations
    act = corr["activity"]["value"]
    mob = corr["mobility"]["value"]
    assert act is not None and act > 0
    assert mob is not None and mob < 0
    npipe, _ = null_pipeline
    nmob = npipe.correlations["mobility"]["value"]
    n_cells = npipe.correlations["mobility"]["n_cells"]
    # the null corpus plants 10000 inhabited cells; a handful may drift
    assert n_cells > 9_500
    assert nmob is not None and abs(nmob) < 0.05
    print(
        f"criterion 5: activity {act:+.3f} (>0, reference magnitude 0.38), "
        f"mobility {mob:+.3f} (<0, reference magnitude -0.11), "
        f"null control {nmob:+.4f} over {n_cells} cells"
    )


def test_criterion_06_activity_flip_bands(flip_pipeline):
    pipe, truth = flip_pipeline
    pivot = truth.activity_flip[2]
    bands = pipe.bands["activity"]
    head = [b for b in bands if b.corr is not None and b.rank_hi <= pivot]
    tail = [b for b in bands if b.corr is not None and b.rank_lo >= pivot]
    assert len(head) >= 3 and len(tail) >= 3
    assert all(b.corr < 0 for b in head)
    assert all(b.corr > 0 for b in tail)
    print(
        f"criterion 6: {len(head)} bands below rank {pivot} all negative, "
        f"{len(tail)} above all positive; sign change confined to the pivot band"
    )


def test_criterion_07_rank_size_tail_exponent():
    grid = GridSpec(0.05)
    # 100 x 100 cells of latitude bands 800..899, Zipf head counts in row order
    pop = np.round(1_000_000 / np.arange(1, 10_001))
    area = np.repeat([grid.cell_area_km2(800 + i) for i in range(100)], 100)
    fit = rank_size(pop / area, min_rank=100)
    assert abs(fit.exponent - 1.0) <= 0.05
    print(f"criterion 7: planted exponent 1.0, tail fit {fit.exponent:.4f} (r2 {fit.r2:.4f})")


def test_criterion_08_weekly_and_seasonal_patterns(default_pipeline):
    pipe, truth = default_pipeline
    bundle = pipe.patterns_bundle
    dow = bundle["all", "dow", "activity", "mean"]
    assert dow.bins[int(np.argmax(dow.stat))] == "Fri"
    assert dow.bins[int(np.argmin(dow.stat))] == "Sun"
    ratios = {}
    for a in range(1, 6):
        s = bundle[f"area{a}", "month", "activity", "mean"]
        ratios[a] = float(s.stat[7] / ((s.stat[6] + s.stat[8]) / 2.0))
    for a in (1, 2, 3):
        assert ratios[a] < 0.9
    for a in (4, 5):
        assert ratios[a] > 0.95
    norm = bundle["all", "month", "activity", "normalized_median"]
    m = float(np.mean(norm.stat[norm.n > 0]))
    assert abs(m - 1.0) < 1e-12
    print(
        "criterion 8: weekly max Fri / min Sun; August ratios "
        + ", ".join(f"area{a}={r:.3f}" for a, r in ratios.items())
        + f"; normalized-median mean {m!r}"
    )


def _gender_deltas(rows):
    deltas = {}
    for a in range(1, 6):
        f = next(r for r in rows if r.area == str(a) and r.gender == "female"
                 and r.age_group == "all")
        m = next(r for r in rows if r.area == str(a) and r.gender == "male"
                 and r.age_group == "all")
        deltas[a] = (
            f.mean_activity - m.mean_activity,
            math.hypot(f.se_activity, m.se_activity),
            f.mean_mobility_km - m.mean_mobility_km,
            math.hypot(f.se_mobility_km, m.se_mobility_km),
        )
    return deltas


def test_criterion_09_gender_contrasts(default_pipeline, null_pipeline):
    pipe, _ = default_pipeline
    deltas = _gender_deltas(pipe.strata)
    da = [deltas[a][0] for a in range(1, 6)]
    assert all(d > 0 for d in da)
    assert all(da[i] > da[i + 1] for i in range(4))
    npipe, _ = null_pipeline
    ndeltas = _gender_deltas(npipe.strata)
    za = [abs(v[0]) / v[1] for v in ndeltas.values()]
    zm = [abs(v[2]) / v[3] for v in ndeltas.values()]
    assert all(z < 3 for z in za)
    assert all(z < 3 for z in zm)
    print(
        "criterion 9: activity excess by class "
        + ", ".join(f"{d:.1f}" for d in da)
        + "; null-control z max activity "
        f"{max(za):.2f}, mobility {max(zm):.2f} (all < 3)"
    )


def test_criterion_10_spam_precision_recall(default_pipeline):
    pipe, truth = default_pipeline
    removed = set(pipe.ingest.removed_ids)
    spam = set(truth.spam_ids)
    assert len(spam) > 0
    assert removed == spam
    print(f"criterion 10: {len(spam)} planted spam ids removed, precision = recall = 1.0")


def test_criterion_11_scale_determinism_and_budget(megarow_corpus, tmp_path):
    corpus, truth = megarow_corpus
    cdr = os.path.join(corpus, "cdr.csv")
    with open(cdr) as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows >= 1_000_000

    # ingest + metrics budget, measured in a fresh process so the memory
    # peak is this workload's own
    script = (
        "import json,resource,sys,time\n"
        "import numpy as np\n"
        "from cdrmob.records import load_towers,year_bounds\n"
        "from cdrmob.ingest import ingest_file\n"
        "from cdrmob.metrics import TableMetrics\n"
        "t0=time.perf_counter()\n"
        f"reg=load_towers({os.path.join(corpus, 'towers.csv')!r})\n"
        f"res=ingest_file({cdr!r},reg)\n"
        "ys,ye=year_bounds(res.analysis_year)\n"
        "rows=TableMetrics(res.table,reg).windows(np.array([ys,ye]))[0]\n"
        "el=time.perf_counter()-t0\n"
        "rss=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps({'elapsed':el,'maxrss_kb':rss,'n':len(rows)}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    stats = json.loads(out.stdout.strip().splitlines()[-1])
    assert stats["elapsed"] < 120.0
    assert stats["maxrss_kb"] * 1024 < 2 * 1024**3
    assert stats["n"] > 0

    # byte-identical report from ingest's parse threads and from one CPU,
    # on which every block is parsed in the calling thread, as CI's
    # `taskset -c 0` step runs it
    cpu = min(os.sched_getaffinity(0))
    dirs = {}
    for name, pin in (("threads", None), ("one_cpu", lambda: os.sched_setaffinity(0, {cpu}))):
        rdir = tmp_path / f"rep-{name}"
        rc = subprocess.run(
            [
                sys.executable, "-m", "cdrmob.cli", "report",
                "--cdr", cdr,
                "--towers", os.path.join(corpus, "towers.csv"),
                "--demographics", os.path.join(corpus, "demographics.csv"),
                "--out", str(rdir),
                "--area-bounds", ",".join(str(b) for b in truth.area_boundaries),
            ],
            capture_output=True,
            text=True,
            preexec_fn=pin,
        )
        assert rc.returncode == 0, rc.stderr
        dirs[name] = rdir
    threads = {name: json.loads((d / "manifest.json").read_text())["threads"]
               for name, d in dirs.items()}
    assert threads["one_cpu"] == 1
    if len(os.sched_getaffinity(0)) > 1:
        assert threads["threads"] > 1, threads
    rel = {
        name: sorted(
            os.path.relpath(os.path.join(r, f), d)
            for r, _, fs in os.walk(d)
            for f in fs
            if f != "manifest.json"
        )
        for name, d in dirs.items()
    }
    assert rel["threads"] == rel["one_cpu"]
    for f in rel["threads"]:
        with open(dirs["threads"] / f, "rb") as fa, open(dirs["one_cpu"] / f, "rb") as fb:
            assert fa.read() == fb.read(), f"the thread count changed {f}"
    print(
        f"criterion 11: {rows} rows; ingest+metrics "
        f"{stats['elapsed']:.1f}s, peak rss {stats['maxrss_kb'] / 1024:.0f} MiB; "
        f"{len(rel['threads'])} report files byte-identical for {threads['threads']} "
        f"parse threads and one CPU"
    )
