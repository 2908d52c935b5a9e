"""Estimator-level tests: MI, entropy, binning, MIC and correlations."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from influence_scope import (
    CategorySeries,
    DegenerateSeriesError,
    RealSeries,
    discrete_mutual_information,
    entropy,
    linear_correlation,
    mic,
    quantile_bins,
    rank_correlation,
)
from influence_scope.errors import InternalConsistencyError
from influence_scope.measures import (
    _ESTIMATE_WINDOW,
    BinLayout,
    Measure,
    _counts_from_codes,
    _mi_bits_from_counts,
    _mi_bits_of_tables,
    _mid_ranks,
    _perm_mic_groups,
    _perm_values_mi,
    _RankBins,
    admissible_pairs,
    mic_columns,
    permuted_scores,
    shuffled_column,
)

from mic_oracle import (
    MicSearchMode,
    _codes_from_cut_positions,
    _partition_mi_best,
    mic_search,
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


@st.composite
def tied_columns(draw):
    """1 to 300 values from a set of at most 6, zeros of both signs and
    infinities among them."""
    pool = draw(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]),
                         min_size=1, max_size=6))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300)))


@settings(max_examples=300)
@given(tied_columns(), st.integers(min_value=2, max_value=8))
def test_quantile_bins_selects_the_bins_of_the_sort(values, n_bins):
    # the selection gives _RankBins' codes, bin count and cut bits, the sign
    # of a zero cut too: the stable sort reports its run's earliest sample
    if len(values) < n_bins:
        with pytest.raises(ValueError, match="at least n_bins"):
            quantile_bins(values, n_bins)
        return
    if np.all(values == values[0]):
        with pytest.raises(DegenerateSeriesError):
            quantile_bins(values, n_bins)
        return
    codes, k, cuts, _ = _RankBins(values).bins(n_bins)
    binned, q_cuts = quantile_bins(values, n_bins)
    assert binned.values.tolist() == codes.tolist()
    assert binned.n_categories == k
    assert np.array(q_cuts, dtype=float).tobytes() == np.array(cuts, dtype=float).tobytes()


def test_quantile_bins_zero_cut_has_the_earliest_zeros_sign():
    for zeros in ([0.0, -0.0], [-0.0, 0.0]):
        _, cuts = quantile_bins(np.array([*zeros, -1.0, -1.0, -1.0, 1.0]), 2)
        assert cuts == (0.0,)
        assert math.copysign(1.0, cuts[0]) == math.copysign(1.0, zeros[0])


def test_quantile_bins_refuses_nan_and_bins_infinities():
    # NaN has no rank (a sort would put each NaN last, a tie run of its own)
    with pytest.raises(ValueError, match="NaN"):
        quantile_bins(np.array([1.0, np.nan, 2.0, 3.0]), 2)
    binned, cuts = quantile_bins(np.array([np.inf, 1.0, -np.inf, np.inf]), 2)
    assert (binned.values.tolist(), cuts) == ([1, 0, 0, 1], (np.inf,))


# --- MIC -------------------------------------------------------------------------


def test_mic_identity_line_is_one():
    rng = np.random.default_rng(5)
    x = rng.permutation(200).astype(float)
    for score in (mic(x, x), mic_search(x, x, MicSearchMode.AXIS_OPTIMIZED)):
        assert score.value == pytest.approx(1.0, abs=1e-9)


def test_mic_identity_line_exhaustive_small():
    x = np.arange(12, dtype=float)
    score = mic_search(x, x, MicSearchMode.EXHAUSTIVE)
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
        mic_search(x, x, MicSearchMode.EXHAUSTIVE)


def test_mic_records_winning_layout():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=100)
    score = mic(x, x)
    assert score.bin_layout is not None
    assert score.bin_layout.n_x >= 2 and score.bin_layout.n_y >= 2


@given(st.integers(min_value=4, max_value=50_000))
@settings(max_examples=200, deadline=None)
def test_admissible_pairs_bound_order_and_cache(n):
    pairs = admissible_pairs(n)
    limit = max(n**0.6, 4 * (1 + 1e-9))
    assert pairs and all(nx >= 2 and ny >= 2 and nx * ny < limit for nx, ny in pairs)
    if n <= 2000:
        # every grid a side of which is below the bound, in pair order
        sides = range(2, math.ceil(limit) + 1)
        assert pairs == tuple((nx, ny) for nx in sides for ny in sides if nx * ny < limit)
    # one cached value per n, which no caller can change
    assert admissible_pairs(n) is pairs
    assert isinstance(pairs, tuple) and all(type(pair) is tuple for pair in pairs)
    with pytest.raises(TypeError):
        pairs[0] = (3, 3)


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
        MicSearchMode.EQUIPARTITION: mic(x, y).value,
        MicSearchMode.AXIS_OPTIMIZED: mic_search(x, y, MicSearchMode.AXIS_OPTIMIZED).value,
        MicSearchMode.EXHAUSTIVE: mic_search(x, y, MicSearchMode.EXHAUSTIVE).value,
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
    pairs = admissible_pairs(n)
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
            score = mic_search(x, y, mode)
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
    # the permutation kernel's estimates, every row and grid, in both
    # orientations, against the exact MI of each grid's tables counted
    # alone: far closer than the window that selects the grids scored exactly
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
    perm_idx = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(5)])
    for x, y in ((xv, yv), (yv, xv)):
        x_ranks, y_ranks = _RankBins(x), _RankBins(y)
        seen = []
        for grids, mi in _perm_mic_groups(x_ranks, y_ranks, perm_idx):
            for g, (nx, ny) in enumerate(grids.tolist()):
                xc, kx, _, _ = x_ranks.bins(nx)
                yc, ky, _, _ = y_ranks.bins(ny)
                exact = [_mi_bits_from_counts(_counts_from_codes(xc[row], kx, yc, ky))
                         for row in perm_idx]
                assert np.abs(mi[:, g] - exact).max() <= tolerance, (nx, ny)
                seen.append((nx, ny))
        assert sorted(seen) == sorted(admissible_pairs(n))


@pytest.mark.parametrize("n", [4, 5, 9, 31, 120, 401, 1200])
def test_mic_columns_equals_mic_of_each_column(n):
    # one call scores its columns as mic scores each alone, value and layout
    # to the bit (signed zeros in the cuts too): shuffles of one column share
    # a kernel call, distinct tie-free columns share one, and a mix of tie
    # runs makes several
    rng = np.random.default_rng(n)
    signed_zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    zero_heavy = np.where(rng.random(n) < 0.5, signed_zeros, rng.normal(size=n))
    tied = rng.integers(0, 4, size=n).astype(float)
    continuous = rng.normal(size=n)

    def shuffles(x):
        return [x] + [x[rng.permutation(n)] for _ in range(5)]

    batches = [
        shuffles(tied),
        shuffles(zero_heavy),
        shuffles(continuous),
        [rng.normal(size=n) for _ in range(5)],
        [tied, continuous, np.full(n, 2.0), zero_heavy, tied[::-1], rng.normal(size=n),
         zero_heavy[rng.permutation(n)]],
    ]
    dependent = continuous + rng.normal(size=n)
    dependent[: n // 2] = tied[: n // 2]
    for y in (dependent, zero_heavy[::-1], tied, np.full(n, 1.0)):
        for xs in batches:
            got, expected = mic_columns(xs, y), [mic(x, y) for x in xs]
            assert got == expected
            assert repr(got) == repr(expected)
            if n <= 401:  # and as the per-grid reference scores them
                assert [(s.value, s.bin_layout) for s in got] == [
                    per_grid_mic(x, y, MicSearchMode.EQUIPARTITION) for x in xs]


NAN_COLUMN = np.array([0.1, 0.5, np.nan, 0.3, 0.9, 0.7, 0.2, 0.4])


@pytest.mark.parametrize(
    "scorer",
    [mic, linear_correlation, rank_correlation,
     lambda x, y: (quantile_bins(x, 2), quantile_bins(y, 2))],
    ids=["mic", "linear_correlation", "rank_correlation", "quantile_bins"],
)
def test_every_scorer_refuses_nan(scorer):
    # NaN has no rank; a scorer that read one would return 0, nan or a
    # number that depends on where a sort puts it
    for x, y in ((NAN_COLUMN, np.arange(8.0)), (np.arange(8.0), NAN_COLUMN)):
        with pytest.raises(ValueError, match="NaN"):
            scorer(x, y)


def test_mi_bits_int32_table_matches_int64():
    # beyond N = 46340 a product of two int32 marginals no longer fits int32
    rng = np.random.default_rng(3)
    table = rng.integers(5_000, 40_000, size=(3, 4))
    assert table.sum() > 46_340
    assert _mi_bits_from_counts(table.astype(np.int32)) == _mi_bits_from_counts(table)


# --- correlations -----------------------------------------------------------------


# --- MI permutation kernel ----------------------------------------------------


def gathered_perm_mi(x, y, perm_idx):
    """Permutation MI with the codes gathered into a fresh array, leaving
    ``perm_idx`` as it was."""
    r, n = perm_idx.shape
    kx, ky = x.n_categories, y.n_categories
    flat = x.values[perm_idx] * ky + y.values + (np.arange(r) * (kx * ky))[:, None]
    counts = np.bincount(flat.ravel(), minlength=r * kx * ky).reshape(r, kx, ky)
    return _mi_bits_of_tables(counts, n)


def mi_shuffles(n, rng, reps=30):
    return np.array([np.arange(n)] + [rng.permutation(n) for _ in range(reps)])


def mi_block(x, y, perm_idx):
    """The kernel's block: the column ``shuffled_column`` gives, gathered at
    each row of ``perm_idx``."""
    return shuffled_column(Measure.MI, x, y, len(x))[perm_idx]


@pytest.mark.parametrize("n", [1, 2, 7, 300, 8000])
def test_perm_mi_in_place_matches_a_fresh_gather(n):
    rng = np.random.default_rng(n)
    x, y = cat(rng.integers(0, 3, size=n), 3), cat(rng.integers(0, 4, size=n), 4)
    y = cat(np.where(rng.random(n) < 0.3, x.values, y.values), 4)  # some dependence
    perm_idx = mi_shuffles(n, rng)
    expected = gathered_perm_mi(x, y, perm_idx)
    block = mi_block(x, y, perm_idx)
    assert _perm_values_mi(x, y, block.copy()).tolist() == expected.tolist()
    scores, error = permuted_scores(Measure.MI, x, y, block.copy())
    assert scores.tolist() == expected.tolist() and error == 0.0


def test_perm_mi_allocates_no_index_sized_array():
    # the cell index lives in the block of shuffled codes
    rng = np.random.default_rng(1)
    n = 8000
    x, y = cat(rng.integers(0, 3, size=n), 3), cat(rng.integers(0, 3, size=n), 3)
    perm_idx = mi_shuffles(n, rng, reps=99)
    block = mi_block(x, y, perm_idx)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _perm_values_mi(x, y, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < perm_idx.nbytes // 50


@pytest.mark.parametrize("row, bad", [(0, -3), (3, -3), (3, 9), (5, 9), (3, 10**6)])
def test_perm_mi_refuses_a_code_outside_the_table(row, bad):
    # a code outside [0, kx * ky) = [0, 9) puts its cell outside its row's
    # table whatever y's code in [0, 3): below the first table, in another
    # row's table, or past the last, which would otherwise score silently
    rng = np.random.default_rng(5)
    x, y = cat(rng.integers(0, 3, size=40), 3), cat(rng.integers(0, 3, size=40), 3)
    block = mi_block(x, y, mi_shuffles(40, rng, reps=5))
    block[row, 17] = bad
    with pytest.raises(InternalConsistencyError):
        _perm_values_mi(x, y, block)


def expected_shuffled_mi(a, b):
    """The mean plug-in MI in bits of two columns with category counts ``a``
    and ``b`` over all shuffles of one against the other: cell (i, j) holds
    n_ij samples with the hypergeometric probability of drawing n_ij of
    a_i from b_j (Vinh, Epps & Bailey, JMLR 2010)."""
    n = sum(a)
    lf = [math.lgamma(k + 1) for k in range(n + 1)]  # log k!
    total = 0.0
    for ai, bj in itertools.product(a, b):
        for nij in range(max(1, ai + bj - n), min(ai, bj) + 1):
            log_p = (lf[ai] + lf[bj] + lf[n - ai] + lf[n - bj] - lf[n] - lf[nij]
                     - lf[ai - nij] - lf[bj - nij] - lf[n - ai - bj + nij])
            total += nij / n * math.log2(n * nij / (ai * bj)) * math.exp(log_p)
    return total


@pytest.mark.parametrize("n, kx, ky", [(60, 3, 3), (600, 3, 3), (600, 5, 3)])
def test_perm_mi_mean_matches_the_exact_expectation(n, kx, ky):
    # 20 000 shuffles, drawn as detection draws them: the column
    # shuffled_column gives, permuted row by row.  Their mean must lie
    # within 4 standard errors of the closed form (a false alarm about once
    # in 16 000 draws of the seed); the margins are fixed by construction.
    bound, reps, chunk = 4.0, 20_000, 2_000
    rng = np.random.default_rng(n + kx)
    x, y = cat(rng.integers(0, kx, size=n), kx), cat(rng.integers(0, ky, size=n), ky)
    scores = []
    for _ in range(reps // chunk):
        block = np.tile(shuffled_column(Measure.MI, x, y, n), (chunk, 1))
        rng.permuted(block, axis=1, out=block)
        chunk_scores, error = permuted_scores(Measure.MI, x, y, block)
        assert error == 0.0
        scores.append(chunk_scores)
    scores = np.concatenate(scores)
    expected = expected_shuffled_mi(np.bincount(x.values, minlength=kx).tolist(),
                                    np.bincount(y.values, minlength=ky).tolist())
    standard_error = scores.std(ddof=1) / math.sqrt(reps)
    assert abs(scores.mean() - expected) <= bound * standard_error


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


# (value, n) pairs whose float mean of n copies is off from the value by an ulp
ULP_OFF_CONSTANTS = [(0.1, 3), (0.1, 7), (0.1, 25), (0.7, 6), (0.3, 10), (2.2, 13)]


@pytest.mark.parametrize("value, n", ULP_OFF_CONSTANTS)
def test_constant_column_is_degenerate_whatever_its_mean(value, n):
    constant = np.full(n, value)
    assert constant.mean() != value  # so centering leaves a nonzero residue
    other = np.arange(n, dtype=float)
    perm_idx = np.array([np.arange(n)] + [np.roll(np.arange(n), s) for s in range(1, 6)])
    for x, y in ((constant, other), (other, constant)):
        for score in (linear_correlation, rank_correlation):
            with pytest.raises(DegenerateSeriesError):
                score(x, y)
        for kind in (Measure.LINEAR, Measure.RANK):
            scores, error = permuted_scores(kind, x, y, perm_idx)
            assert scores.tolist() == [0.0] * 6 and error == 0.0


def test_mid_ranks_by_hand():
    assert _mid_ranks(np.array([3.0, 1.0, 2.0])).tolist() == [3.0, 1.0, 2.0]
    assert _mid_ranks(np.array([2.0, 1.0, 2.0, 2.0, 0.5])).tolist() == [4.0, 2.0, 4.0, 4.0, 1.0]
    assert _mid_ranks(np.array([1.0, 1.0, 2.0, 2.0])).tolist() == [1.5, 1.5, 3.5, 3.5]
    assert _mid_ranks(np.full(6, 7.5)).tolist() == [3.5] * 6
    assert _mid_ranks(np.full(5, 7.5)).tolist() == [3.0] * 5
    assert _mid_ranks(np.array([42.0])).tolist() == [1.0]
    # -0.0 and 0.0 compare equal, so they tie
    assert _mid_ranks(np.array([0.0, -0.0, -1.0, 1.0])).tolist() == [2.5, 2.5, 1.0, 4.0]
    assert _mid_ranks(np.arange(10.0)[::-1]).tolist() == list(np.arange(10.0, 0.0, -1.0))


@pytest.mark.parametrize("n", [2, 3, 7, 40, 333, 8000])
def test_mid_ranks_match_rankdata(n):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(n)
    for draw in (
        rng.integers(0, 3, size=n).astype(float),  # heavy ties
        rng.integers(0, max(n // 4, 1), size=n) * 0.1,
        rng.normal(size=n),
        np.where(rng.random(n) < 0.5, -1e300, 1e300) * rng.integers(1, 3, size=n),
        np.where(rng.random(n) < 0.5, -0.0, 0.0),
    ):
        expected = stats.rankdata(draw, method="average")
        got = _mid_ranks(draw)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


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
