"""Estimator-level tests: MI, entropy, binning, MIC and correlations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from influence_scope import (
    CategorySeries,
    DegenerateSeriesError,
    MicSearchMode,
    MicSearchParams,
    RealSeries,
    discrete_mutual_information,
    entropy,
    linear_correlation,
    mic,
    quantile_bins,
    rank_correlation,
)
from influence_scope.measures import (
    _ESTIMATE_WINDOW,
    BinLayout,
    _codes_from_cut_positions,
    _grid_mi_estimates,
    _mi_bits_from_counts,
    _mi_estimates,
    _partition_mi_best,
    _RankBins,
    _xlogx,
)


def cat(values, k=None):
    values = np.asarray(values)
    return CategorySeries(values, int(values.max()) + 1 if k is None else k)


# --- mutual information -------------------------------------------------------


def test_mi_independent_cells_zero():
    score = discrete_mutual_information(cat([0, 1, 0, 1]), cat([0, 0, 1, 1]))
    assert score.value == 0.0


def test_mi_deterministic_balanced_one_bit():
    score = discrete_mutual_information(cat([0, 0, 1, 1]), cat([0, 0, 1, 1]))
    assert score.value == pytest.approx(1.0, abs=1e-12)


def test_mi_length_mismatch_rejected():
    with pytest.raises(ValueError):
        discrete_mutual_information(cat([0, 1]), cat([0, 1, 0]))


def test_mi_empty_series_rejected():
    with pytest.raises(ValueError):
        CategorySeries(np.array([], dtype=np.int64), 2)


def test_mi_agreement_performance_carries_no_marginal_signal():
    # one agent's binary config vs another's performance that equals 1.0 on
    # config agreement and 0.5 otherwise: marginally independent
    rng = np.random.default_rng(3)
    n = 10000
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    perf = np.where(a == b, 1, 0)
    score = discrete_mutual_information(cat(a), cat(perf))
    assert score.value <= 0.005


category_series = st.integers(min_value=2, max_value=4).flatmap(
    lambda k: arrays(
        np.int64,
        st.integers(min_value=1, max_value=40),
        elements=st.integers(min_value=0, max_value=k - 1),
    ).map(lambda v: CategorySeries(v, k))
)


@given(category_series, st.randoms(use_true_random=False))
def test_mi_non_negative_and_symmetric(x, rnd):
    y_values = np.array([rnd.randrange(3) for _ in range(len(x))])
    y = CategorySeries(y_values, 3)
    forward = discrete_mutual_information(x, y).value
    backward = discrete_mutual_information(y, x).value
    assert forward >= 0.0
    assert forward == backward


@given(category_series)
def test_mi_self_information_equals_entropy(x):
    assert discrete_mutual_information(x, x).value == pytest.approx(
        entropy(x), abs=1e-12
    )


# --- entropy -------------------------------------------------------------------


def test_entropy_constant_zero():
    assert entropy(cat([0, 0, 0, 0], k=1)) == 0.0


def test_entropy_uniform_binary_one_bit():
    assert entropy(cat([0, 1, 0, 1])) == pytest.approx(1.0, abs=1e-12)


def test_entropy_three_quarters_split():
    # -0.75*log2(0.75) - 0.25*log2(0.25)
    assert entropy(cat([0, 0, 0, 1])) == pytest.approx(
        0.8112781244591328, abs=1e-12
    )


# --- quantile binning -----------------------------------------------------------


def test_quantile_bins_median_split():
    binned, cuts = quantile_bins(RealSeries(np.array([1.0, 2.0, 3.0, 4.0])), 2)
    assert binned.values.tolist() == [0, 0, 1, 1]
    assert cuts == (3.0,)


def test_quantile_bins_constant_is_degenerate():
    with pytest.raises(DegenerateSeriesError):
        quantile_bins(RealSeries(np.array([5.0, 5.0, 5.0])), 2)


def test_quantile_bins_uniform_draws_balanced():
    rng = np.random.default_rng(11)
    binned, _ = quantile_bins(RealSeries(rng.uniform(size=100)), 4)
    assert np.bincount(binned.values).tolist() == [25, 25, 25, 25]


def test_quantile_bins_ties_go_to_lower_bin():
    binned, _ = quantile_bins(np.array([1.0, 1.0, 1.0, 2.0]), 2)
    # the tied block straddles the nominal boundary and stays together below
    assert binned.values.tolist() == [0, 0, 0, 1]


real_series = arrays(
    np.float64,
    st.integers(min_value=4, max_value=60),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


@given(real_series, st.integers(min_value=2, max_value=5))
def test_quantile_bins_label_contract(values, n_bins):
    if len(values) < n_bins:
        values = np.resize(values, n_bins)
    try:
        binned, cuts = quantile_bins(RealSeries(values), n_bins)
    except DegenerateSeriesError:
        assert len(np.unique(values)) < 2
        return
    k = binned.n_categories
    assert 1 <= k <= n_bins
    assert set(np.unique(binned.values)) == set(range(k))
    assert len(cuts) == k - 1


def documented_bins(values, n_bins):
    """quantile_bins's contract, spelled out: sorted position i has nominal
    bin i * n_bins // n, a tie run takes the bin of its first position,
    labels number the occupied bins in order, and each cut is the smallest
    value of bins 1..k-1."""
    n = len(values)
    ordered = sorted(values.tolist())
    first = {v: i for i, v in reversed(list(enumerate(ordered)))}
    occupied = sorted({first[v] * n_bins // n for v in ordered})
    codes = [occupied.index(first[v] * n_bins // n) for v in values.tolist()]
    k = len(occupied)
    cuts = tuple(min(v for v, c in zip(values.tolist(), codes) if c == i) for i in range(1, k))
    return codes, k, cuts


@given(real_series)
def test_rank_bins_follow_quantile_contract(values):
    values = np.round(values, 0)  # plenty of ties
    if len(np.unique(values)) < 2:
        return
    ranks = _RankBins(values)  # one sort for every k below
    for n_bins in range(2, min(len(values), 7) + 1):
        codes, k, cuts, starts = ranks.bins(n_bins)
        assert (codes.tolist(), k, cuts) == documented_bins(values, n_bins)
        binned, q_cuts = quantile_bins(values, n_bins)
        assert (binned.values.tolist(), binned.n_categories, q_cuts) == (codes.tolist(), k, cuts)
        # each bin starts where its label first appears in sorted order
        labels_sorted = codes[ranks.order]
        assert starts.tolist() == [int(np.argmax(labels_sorted == i)) for i in range(k)]
    # several binnings at once: each bin runs from its start to the next one's
    ks = list(range(2, min(len(values), 7) + 1))
    starts, ends, counts = ranks.bin_edges(ks)
    assert counts.tolist() == [ranks.bins(k)[1] for k in ks]
    assert starts.tolist() == [s for k in ks for s in ranks.bins(k)[3].tolist()]
    assert ends.tolist() == [e for k in ks for e in ranks.bins(k)[3][1:].tolist() + [len(values)]]


# --- MIC -------------------------------------------------------------------------


def test_mic_identity_line_is_one():
    rng = np.random.default_rng(5)
    x = rng.permutation(200).astype(float)
    for mode in (MicSearchMode.EQUIPARTITION, MicSearchMode.AXIS_OPTIMIZED):
        score = mic(x, x, MicSearchParams(search_mode=mode))
        assert score.value == pytest.approx(1.0, abs=1e-9)


def test_mic_identity_line_exhaustive_small():
    x = np.arange(12, dtype=float)
    score = mic(x, x, MicSearchParams(search_mode=MicSearchMode.EXHAUSTIVE))
    assert score.value == pytest.approx(1.0, abs=1e-9)


def test_mic_constant_input_zero_by_convention():
    y = np.linspace(0, 1, 50)
    score = mic(np.full(50, 3.0), y)
    assert score.value == 0.0
    assert score.degenerate


def test_mic_null_median_regression():
    # frozen noise-floor regression value: median over seeds 0..99 of
    # MIC between independent uniforms at N=200, equipartition search
    values = [
        mic(
            np.random.default_rng(seed).uniform(size=200),
            np.random.default_rng(seed + 10_000).uniform(size=200),
        ).value
        for seed in range(100)
    ]
    median = float(np.median(values))
    assert median < 0.35
    assert median == pytest.approx(0.05871933423419839, abs=1e-12)


def test_mic_exhaustive_refuses_large_inputs():
    x = np.arange(13, dtype=float)
    with pytest.raises(ValueError):
        mic(x, x, MicSearchParams(search_mode=MicSearchMode.EXHAUSTIVE))


def test_mic_records_winning_layout():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=100)
    score = mic(x, x)
    assert score.bin_layout is not None
    assert score.bin_layout.n_x >= 2 and score.bin_layout.n_y >= 2


small_real = arrays(
    np.float64,
    st.integers(min_value=4, max_value=12),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@given(small_real, small_real)
@settings(max_examples=40, deadline=None)
def test_mic_mode_dominance(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    scores = {
        mode: mic(x, y, MicSearchParams(search_mode=mode)).value
        for mode in MicSearchMode
    }
    slack = 1e-12
    assert scores[MicSearchMode.EQUIPARTITION] <= scores[MicSearchMode.AXIS_OPTIMIZED] + slack
    assert scores[MicSearchMode.AXIS_OPTIMIZED] <= scores[MicSearchMode.EXHAUSTIVE] + slack
    for value in scores.values():
        assert 0.0 <= value <= 1.0


@given(real_series, real_series)
@settings(max_examples=30, deadline=None)
def test_mic_symmetry_and_range(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    forward = mic(x, y).value
    assert forward == mic(y, x).value
    assert 0.0 <= forward <= 1.0


@given(real_series)
@settings(max_examples=30, deadline=None)
def test_mic_rank_invariance(x):
    y = np.sin(np.arange(len(x), dtype=float))
    base = mic(x, y).value
    # strictly increasing re-encodings leave the rank-based binning alone
    transformed = mic(x**3 + x, np.exp(y / 2.0)).value
    assert transformed == base


def per_grid_mic(x, y, mode):
    """MIC from one exact count table per grid: the equipartition grids in
    pair order, then the mode's own search, a later grid winning only when
    strictly better.  Returns (value, bin layout)."""
    n = len(x)
    if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
        return 0.0, None
    best, layout = 0.0, None
    pairs = MicSearchParams().admissible_pairs(n)
    for nx, ny in pairs:
        xs, xcuts = quantile_bins(x, nx)
        ys, ycuts = quantile_bins(y, ny)
        counts = np.bincount(
            xs.values * ys.n_categories + ys.values, minlength=xs.n_categories * ys.n_categories
        ).reshape(xs.n_categories, ys.n_categories)
        value = _mi_bits_from_counts(counts) / math.log2(min(nx, ny))
        if value > best or layout is None:
            best, layout = value, BinLayout(nx, ny, xcuts, ycuts)
    candidates = []
    if mode is MicSearchMode.AXIS_OPTIMIZED:
        for nx, ny in pairs:
            xs, xcuts = quantile_bins(x, nx)
            ys, ycuts = quantile_bins(y, ny)
            bits, cuts = _partition_mi_best(_RankBins(x), ys.values, ys.n_categories, nx)
            candidates.append((bits, nx, ny, cuts, ycuts))
            bits, cuts = _partition_mi_best(_RankBins(y), xs.values, xs.n_categories, ny)
            candidates.append((bits, nx, ny, xcuts, cuts))
    elif mode is MicSearchMode.EXHAUSTIVE:
        order = {"x": np.argsort(x, kind="stable"), "y": np.argsort(y, kind="stable")}
        ordered = {"x": x[order["x"]], "y": y[order["y"]]}
        interior = {a: [i for i in range(1, n) if v[i] != v[i - 1]] for a, v in ordered.items()}
        for nx, ny in pairs:
            for xpos in itertools.combinations(interior["x"], nx - 1):
                xc = _codes_from_cut_positions(order["x"], xpos, n)
                for ypos in itertools.combinations(interior["y"], ny - 1):
                    yc = _codes_from_cut_positions(order["y"], ypos, n)
                    counts = np.bincount(xc * ny + yc, minlength=nx * ny).reshape(nx, ny)
                    candidates.append((
                        _mi_bits_from_counts(counts), nx, ny,
                        tuple(float(ordered["x"][p]) for p in xpos),
                        tuple(float(ordered["y"][p]) for p in ypos),
                    ))
    for bits, nx, ny, xcuts, ycuts in candidates:
        if bits is not None and bits / math.log2(min(nx, ny)) > best:
            best, layout = bits / math.log2(min(nx, ny)), BinLayout(nx, ny, xcuts, ycuts)
    return min(max(best, 0.0), 1.0), layout


@pytest.mark.parametrize("n", [4, 5, 9, 31, 120, 400, 1200])
@pytest.mark.parametrize("kind", ["ties", "continuous", "mixed", "constant", "identity"])
def test_mic_matches_per_grid_tables(n, kind):
    rng = np.random.default_rng(n)
    ties = lambda: rng.integers(0, 4, size=n).astype(float)
    continuous = lambda: rng.normal(size=n)
    if kind == "identity":
        xv = rng.permutation(n).astype(float)
        yv = xv.copy()
    else:
        draw_x, draw_y = {
            "ties": (ties, ties),
            "continuous": (continuous, continuous),
            "mixed": (ties, continuous),
            "constant": (lambda: np.full(n, 2.0), continuous),
        }[kind]
        xv, yv = draw_x(), draw_y()
        yv[: n // 2] += xv[: n // 2]  # some dependence, so the grids differ
    modes = [MicSearchMode.EQUIPARTITION]
    modes += [MicSearchMode.AXIS_OPTIMIZED] if n <= 31 else []
    modes += [MicSearchMode.EXHAUSTIVE] if n <= 9 else []
    for x, y in ((xv, yv), (yv, xv)):
        for mode in modes:
            score = mic(x, y, MicSearchParams(search_mode=mode))
            assert (score.value, score.bin_layout) == per_grid_mic(x, y, mode)


@pytest.mark.parametrize("n, layout", [(1200, (2, 2)), (1201, (2, 14))])
def test_mic_exact_ties_go_to_the_first_grid(n, layout):
    # the identity line scores several grids identically (53 grids exactly
    # 1.0 at N = 1200); the first in pair order wins
    x = np.random.default_rng(n).permutation(n).astype(float)
    score = mic(x, x)
    assert (score.bin_layout.n_x, score.bin_layout.n_y) == layout
    assert (score.value, score.bin_layout) == per_grid_mic(x, x, MicSearchMode.EQUIPARTITION)


@pytest.mark.parametrize("n", [31, 1200, 8000])
@pytest.mark.parametrize("kind", ["random", "ties", "identity"])
def test_grid_estimates_lie_well_inside_the_window(n, kind):
    # every grid's lookup estimate, on the observed and on a permuted row and
    # in both orientations, is far closer to the exact MI than the window
    # that selects the grids scored exactly
    rng = np.random.default_rng(n)
    if kind == "identity":
        xv = rng.permutation(n).astype(float)
        yv = xv.copy()
    else:
        draw = {"random": lambda: rng.normal(size=n),
                "ties": lambda: rng.integers(0, 4, size=n).astype(float)}[kind]
        xv, yv = draw(), draw()
        yv[: n // 2] += xv[: n // 2]
    tolerance = _ESTIMATE_WINDOW / 1000
    xlogx = _xlogx(n)
    px, py = np.array(MicSearchParams().admissible_pairs(n)).T
    y_ranks = _RankBins(yv)
    for x in (xv, xv[rng.permutation(n)]):
        x_ranks = _RankBins(x)
        observed = _grid_mi_estimates(x_ranks, y_ranks, px, py)
        transposed = _grid_mi_estimates(y_ranks, x_ranks, py, px)
        for i, (nx, ny) in enumerate(zip(px, py)):
            xc, kx, _, _ = x_ranks.bins(nx)
            yc, ky, _, _ = y_ranks.bins(ny)
            table = np.bincount(xc * ky + yc, minlength=kx * ky).reshape(kx, ky)
            exact = _mi_bits_from_counts(table)
            rows, cols = table.sum(axis=1), table.sum(axis=0)
            first = np.array([0])
            estimates = [
                observed[i],
                transposed[i],
                _mi_estimates(table[None], rows, cols, first, xlogx)[0, 0],
                _mi_estimates(table.T[None], cols, rows, first, xlogx)[0, 0],
            ]
            assert np.abs(np.array(estimates) - exact).max() <= tolerance, (nx, ny)


def test_mi_bits_int32_table_matches_int64():
    # beyond N = 46340 a product of two int32 marginals no longer fits int32
    rng = np.random.default_rng(3)
    table = rng.integers(5_000, 40_000, size=(3, 4))
    assert table.sum() > 46_340
    assert _mi_bits_from_counts(table.astype(np.int32)) == _mi_bits_from_counts(table)


# --- correlations -----------------------------------------------------------------


def test_linear_correlation_affine():
    x = np.linspace(-3, 3, 50)
    assert linear_correlation(x, 2 * x + 1).value == pytest.approx(1.0, abs=1e-12)
    assert linear_correlation(x, -x).value == pytest.approx(-1.0, abs=1e-12)


def test_linear_correlation_even_function_cancels():
    x = np.linspace(-2, 2, 41)
    assert linear_correlation(x, x**2).value == pytest.approx(0.0, abs=1e-12)


def test_linear_correlation_constant_degenerate():
    with pytest.raises(DegenerateSeriesError):
        linear_correlation(np.full(10, 1.0), np.arange(10, dtype=float))


def test_rank_correlation_monotone():
    x = np.linspace(-2, 2, 30)
    assert rank_correlation(x, np.exp(x)).value == pytest.approx(1.0, abs=1e-12)
    assert rank_correlation(x, -(x**3)).value == pytest.approx(-1.0, abs=1e-12)


def test_rank_correlation_null_distribution():
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.permutation(100).astype(float)
        y = rng.permutation(100).astype(float)
        if abs(rank_correlation(x, y).value) < 0.3:
            hits += 1
    assert hits >= 190
