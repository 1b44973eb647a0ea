"""Density grids, rank statistics, and the five-class split."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrmob.density import (
    BandCorrelation,
    DensityError,
    GridDensity,
    build_density,
    build_density_from_counts,
    classify_areas,
    ego_areas,
    rank_desc,
    rank_size,
    sliding_correlation,
    spearman,
    validate_boundaries,
)
from cdrmob.geo import GridSpec

GRID = GridSpec(0.05, 0.05, lat0=40.0, lon0=20.0)
NAN = float("nan")


def _homes(*points):
    """(lat, lon) arrays of homes in id order; None for no home."""
    pts = np.array([p or (NAN, NAN) for p in points], dtype=float).reshape(-1, 2)
    return pts[:, 0].copy(), pts[:, 1].copy()


def _gd_from_density(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return GridDensity(
        GRID,
        np.arange(n),
        np.zeros(n, dtype=int),
        np.maximum(values, 1).astype(int),
        values,
    )


def test_build_density_counts_residents_per_cell():
    lat, lon = _homes(
        (40.01, 20.01),
        (40.02, 20.02),  # same cell as the first
        (40.07, 20.01),  # next latitude band
        None,            # skipped
    )
    gd = build_density(lat, lon, GRID)
    assert len(gd) == 2
    assert gd.population.tolist() == [2, 1]
    assert gd.cell_i.tolist() == [0, 1] and gd.cell_j.tolist() == [0, 0]
    a0 = GRID.cell_area_km2(0)
    assert gd.density[0] == pytest.approx(2 / a0)
    assert gd.rows_of([0, 1, 2], [0, 0, 0]).tolist() == [0, 1, -1]


def test_build_density_cell_means():
    lat, lon = _homes((40.01, 20.01), (40.02, 20.02), (40.07, 20.01), None)
    # whole-year (activity, mobility, rg) per individual; the homeless
    # fourth one is left out of every cell
    year = (np.array([10, 30, 7, 99]), np.array([1.0, 3.0, 0.5, 9.0]),
            np.array([2.0, NAN, 4.0, NAN]))
    gd = build_density(lat, lon, GRID, year)
    assert gd.mean_activity.tolist() == [20.0, 7.0]
    assert gd.mean_mobility.tolist() == [2.0, 0.5]
    # rg means skip individuals without one
    assert gd.mean_rg[0] == pytest.approx(2.0)
    assert gd.mean_rg[1] == pytest.approx(4.0)
    with pytest.raises(DensityError):
        build_density(*_homes(None), GRID)


def test_build_density_from_counts_matches_build_density():
    counts = {(0, 0): 2, (1, 0): 1}
    gd = build_density_from_counts(counts, GRID)
    ref = build_density(*_homes((40.01, 20.01), (40.02, 20.02), (40.07, 20.01)), GRID)
    assert np.array_equal(gd.population, ref.population)
    assert np.allclose(gd.density, ref.density)
    with pytest.raises(DensityError):
        build_density_from_counts({(0, 0): 0}, GRID)


def test_rank_desc_average_ties():
    assert rank_desc([5.0, 1.0, 5.0, 0.5]).tolist() == [1.5, 3.0, 1.5, 4.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 5) | st.floats(-1e6, 1e6, allow_nan=False), max_size=200))
def test_rank_desc_matches_scipy_rankdata(xs):
    # the reference is imported here only: the package itself must not
    # pay for importing scipy.stats
    from scipy.stats import rankdata

    want = rankdata(-np.asarray(xs, dtype=float), method="average")
    got = rank_desc(xs)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _fresh_python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on this source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has `module` loaded after importing cdrmob.cli."""
    return _fresh_python(f"import sys, cdrmob.cli; print({module!r} in sys.modules)") == "True"


def test_cli_import_leaves_out_scipy_stats():
    assert not _loaded_by_cli_import("scipy.stats")


def test_cli_import_leaves_out_scipy_optimize():
    assert not _loaded_by_cli_import("scipy.optimize")


def test_report_loads_no_scipy(small_corpus, tmp_path):
    # the rhythm fit and the at-sea test are numpy only; scipy serves the
    # tests as a reference
    corpus, truth = small_corpus
    argv = ["report", "--cdr", os.path.join(corpus, "cdr.csv"),
            "--towers", os.path.join(corpus, "towers.csv"), "--out", str(tmp_path / "report"),
            "--grid-step", str(truth.grid_step),
            "--area-bounds", ",".join(map(str, truth.area_boundaries))]
    out = _fresh_python(
        "import sys; from cdrmob.cli import main; rc = main(" + repr(argv) + "); "
        "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))")
    # report prints its outputs first
    assert out.splitlines()[-1] == "0 []"


def test_spearman_known_values():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman(x, [2.0, 4.0, 6.0, 8.0, 10.0]) == 1.0
    assert spearman(x, [5.0, 4.0, 3.0, 2.0, 1.0]) == -1.0
    # classic hand example: one swapped pair
    assert spearman(x, [1.0, 2.0, 3.0, 5.0, 4.0]) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        spearman(x, [1.0, 2.0])
    with pytest.raises(DensityError):
        spearman([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(DensityError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


@settings(max_examples=100)
@given(
    st.lists(st.integers(-1_000_000, 1_000_000), min_size=3, max_size=60, unique=True),
    st.sampled_from([(2.0, 1.0), (0.5, -3.0), (10.0, 0.0)]),
)
def test_spearman_invariant_under_increasing_transforms(xs, ab):
    # integer support keeps the affine map exact, so ranks cannot shift
    a, b = ab
    x = np.asarray(xs, dtype=float)
    y = np.sin(x)  # arbitrary comparison values
    if np.all(y == y[0]):
        return
    before = spearman(x, y)
    after = spearman(a * x + b, y)  # strictly increasing transform of x
    assert after == pytest.approx(before, abs=1e-12)
    assert spearman(-x, y) == pytest.approx(-before, abs=1e-12)


def test_sliding_correlation_band_edges_and_gaps():
    rng = np.random.default_rng(3)
    density = rng.uniform(1.0, 100.0, size=300)
    values = rng.normal(size=300)
    bands = sliding_correlation(density, values)
    for k, band in enumerate(bands):
        assert band.band == k
        assert band.rank_lo == pytest.approx(2 ** (k / 2))
        assert band.rank_hi == pytest.approx(2 ** (k / 2 + 1))
        assert band.center_rank == pytest.approx(math.sqrt(band.rank_lo * band.rank_hi))
    assert bands[-1].rank_lo <= 300
    # the first band holds ranks [1, 2): a single cell, too few to correlate
    assert bands[0].n_cells == 1 and bands[0].corr is None
    assert bands[0].note == "too_few_cells"
    wide = [b for b in bands if b.n_cells >= 3]
    assert all(b.corr is not None and -1.0 <= b.corr <= 1.0 for b in wide)


def test_sliding_correlation_flags_degenerate_ranks():
    density = np.ones(40)  # every cell ties: rank variance is zero
    values = np.arange(40.0)
    bands = sliding_correlation(density, values)
    tied = [b for b in bands if b.n_cells >= 3]
    assert tied and all(b.corr is None and b.note == "degenerate" for b in tied)


def test_rank_size_exact_on_pure_power_law():
    ranks = np.arange(1, 1001, dtype=float)
    for exponent in (0.7, 1.0, 1.3):
        density = 5e5 * ranks ** (-exponent)
        fit = rank_size(density, min_rank=100)
        assert fit.exponent == pytest.approx(exponent, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.n_tail == 900 and fit.n_cells == 1000
    with pytest.raises(DensityError):
        rank_size(np.ones(50))
    with pytest.raises(DensityError):
        rank_size(np.ones(300), min_rank=298)


def test_classify_areas_boundaries_and_ties():
    # 40 cells with distinct densities: ranks 1..40
    gd = _gd_from_density(np.arange(40, 0, -1, dtype=float))
    labels = classify_areas(gd, (2, 5, 10, 20))
    assert labels[:2].tolist() == [1, 1]
    assert labels[2:5].tolist() == [2, 2, 2]
    assert labels[5:10].tolist() == [3] * 5
    assert labels[10:20].tolist() == [4] * 10
    assert labels[20:].tolist() == [5] * 20


def test_classify_areas_tied_cells_share_a_class():
    # two cells tied at the top share rank 1.5 and stay in class 1
    gd = _gd_from_density([9.0, 9.0, 5.0, 1.0])
    labels = classify_areas(gd, (2, 3, 4, 5))  # boundaries beyond n: tail classes empty
    assert labels.tolist() == [1, 1, 2, 3]


def test_validate_boundaries():
    assert validate_boundaries((30, 100, 1000, 10000)) == (30, 100, 1000, 10000)
    for bad in ((0, 1, 2, 3), (1, 2, 3), (5, 4, 10, 20), (1, 1, 2, 3)):
        with pytest.raises(ValueError):
            validate_boundaries(bad)


def test_ego_areas_follow_home_cells():
    lat, lon = _homes((40.01, 20.01), (40.02, 20.02), (40.07, 20.01), None)
    gd = build_density(lat, lon, GRID)
    labels = classify_areas(gd, (1, 2, 3, 4))
    areas = ego_areas(lat, lon, gd, labels)
    # the two-resident cell is denser, so it ranks first; 0 = no home
    assert areas.tolist() == [1, 1, 2, 0]
