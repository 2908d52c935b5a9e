"""Dependency measure estimators.

Implements plug-in mutual information and entropy for categorical data,
equal-frequency binning of real data, the maximal information coefficient
(normalized MI maximized over admissible binning grids), and Pearson and
Spearman correlations; :func:`permuted_scores` scores each on shuffles of
the column :func:`shuffled_column` gives, exactly but for MIC, whose
estimates it gives with their error.  One kernel, :func:`_perm_mic_groups`,
estimates every MIC grid, of shuffles and of observed columns alike;
:func:`mic_columns` scores several columns against one exactly, those
whose tie runs coincide in one kernel call, and :func:`mic` is its
one-column case.

All mutual-information values are reported in bits (base-2 logarithms).
The MIC normalizer is a ratio of logarithms and therefore base-invariant;
base 2 is used throughout for consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateSeriesError, InternalConsistencyError
from .series import CategorySeries, RealSeries, Series, as_float_values

# Rounding residue this small is clamped to zero; anything more negative
# indicates a real bug in the estimator.
_NEGATIVE_MI_TOLERANCE = 1e-12


class Measure(Enum):
    """A dependency measure that detection can score with."""

    MI = "mi"
    MIC = "mic"
    LINEAR = "linear"
    RANK = "rank"


# Exponent of MIC's grid-size bound B = N ** MIC_B_EXPONENT.
MIC_B_EXPONENT = 0.6


# One immutable tuple per recent sample count, 50 kB at N = 8000, so the
# cache holds a few MB at most.
@lru_cache(maxsize=128)
def admissible_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """MIC's admissible grids for ``n`` samples, (n_x, n_y) in pair order
    (n_x-major): ``n_x >= 2``, ``n_y >= 2`` and ``n_x * n_y < B`` with
    ``B = n ** MIC_B_EXPONENT``, raised to just above 4 when necessary so the
    2x2 grid stays admissible for small n."""
    limit = max(float(n) ** MIC_B_EXPONENT, 4.0 * (1.0 + 1e-9))
    pairs = []
    nx = 2
    while nx * 2 < limit:
        ny = 2
        while nx * ny < limit:
            pairs.append((nx, ny))
            ny += 1
        nx += 1
    return tuple(pairs)


@dataclass(frozen=True)
class BinLayout:
    """Grid shape plus (optional) value cut points of a winning binning."""

    n_x: int
    n_y: int
    x_cuts: Optional[tuple[float, ...]] = None
    y_cuts: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class DependencyScore:
    """A dependency-measure value with its provenance.

    ``value`` is in bits for MI, in [0, 1] for MIC and in [-1, 1]
    for correlations.  ``lag`` records which alignment won when a score is
    the maximum over several time lags.
    """

    value: float
    measure_kind: Measure
    sample_count: int
    bin_layout: Optional[BinLayout] = None
    lag: Optional[int] = None
    degenerate: bool = False


def contingency_table(x: CategorySeries, y: CategorySeries) -> np.ndarray:
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    return _counts_from_codes(x.values, x.n_categories, y.values, y.n_categories)


def _counts_from_codes(xc: np.ndarray, kx: int, yc: np.ndarray, ky: int) -> np.ndarray:
    return np.bincount(xc * ky + yc, minlength=kx * ky).reshape(kx, ky)


def _mi_bits_from_counts(counts: np.ndarray) -> float:
    """Plug-in mutual information in bits from a joint count table.

    The per-cell terms are summed with ``math.fsum``, which is correctly
    rounded, so the result does not depend on their order: it is
    bit-identical under transposition of the table.
    """
    n = int(counts.sum())
    if n == 0:
        raise ValueError("empty count table")
    # int64 marginals: the product below overflows int32 beyond n = 46340
    row = counts.sum(axis=1, dtype=np.int64)
    col = counts.sum(axis=0, dtype=np.int64)
    nz = counts > 0
    c = counts[nz].astype(np.float64)
    denom = (row[:, None] * col[None, :])[nz].astype(np.float64)
    terms = (c / n) * np.log2(c * n / denom)
    value = math.fsum(terms)
    if value < 0.0:
        if value < -_NEGATIVE_MI_TOLERANCE:
            raise InternalConsistencyError(
                f"mutual information fell below zero: {value}"
            )
        value = 0.0
    return value


def discrete_mutual_information(
    x: CategorySeries, y: CategorySeries
) -> DependencyScore:
    """Plug-in mutual information of two category series, in bits.

    Cells with zero joint frequency contribute nothing.  Tiny negative
    rounding residue is clamped to zero; the estimate is exactly symmetric
    in its arguments.
    """
    counts = contingency_table(x, y)
    value = _mi_bits_from_counts(counts)
    return DependencyScore(value, Measure.MI, len(x))


def _perm_values_mi(x: CategorySeries, y: CategorySeries, block: np.ndarray) -> np.ndarray:
    """MI in bits of each row of ``block`` against y, each row x's codes
    times y's category count (see :func:`shuffled_column`) in some order;
    ``block`` is scratch and is overwritten with the flat cell index.  A
    code that takes a sample out of its row's table raises: that table
    would count fewer than ``n`` samples, or the index would be negative
    or past the last table."""
    r, n = block.shape
    cells = x.n_categories * y.n_categories
    block += y.values
    block += (np.arange(r) * cells)[:, None]
    try:
        counts = np.bincount(block.ravel(), minlength=r * cells)
    except ValueError:  # a negative index
        counts = np.empty(0, dtype=np.int64)
    if len(counts) != r * cells or np.any(counts.reshape(r, cells).sum(axis=1) != n):
        raise InternalConsistencyError(f"cell index outside its table of {cells} cells")
    return _mi_bits_of_tables(counts.reshape(r, x.n_categories, y.n_categories), n)


def _mi_bits_of_tables(counts: np.ndarray, n: int) -> np.ndarray:
    """MI in bits of each table of a contiguous (reps, kx, ky) count stack
    of ``n`` samples each."""
    p = counts / n
    px = p.sum(axis=2, keepdims=True)
    py = p.sum(axis=1, keepdims=True)
    nz = counts > 0
    terms = np.divide(p, px * py, out=np.zeros_like(p), where=nz)
    np.log2(terms, out=terms, where=nz)
    terms *= p
    return np.maximum(terms.sum(axis=(1, 2)), 0.0)


def entropy(x: CategorySeries) -> float:
    """Plug-in Shannon entropy in bits; zero for a constant series."""
    counts = np.bincount(x.values, minlength=x.n_categories)
    p = counts[counts > 0] / len(x)
    return max(math.fsum(-p * np.log2(p)), 0.0)


def quantile_bins(
    x: RealSeries | np.ndarray, n_bins: int
) -> tuple[CategorySeries, tuple[float, ...]]:
    """Equal-frequency binning by rank, by selection: O(n) per bin, no sort.

    Sorted position i has nominal bin i * n_bins // n, and ties are
    assigned to the lower bin deterministically: every occurrence of a
    value lands in the bin of that value's first occurrence in sorted
    order.  Bin labels are compacted so the output category count never
    exceeds the number of occupied bins.  Returns the binned series and the
    lower-edge values of bins 1..k-1 (the cut points); -0.0 ties 0.0, and a
    cut gives the sign of the earliest sample of its value.

    The cuts come from selection, not a sort: the value at each nominal
    bin start ceil(b * n / n_bins) is selected, and counting the values
    below it and above it gives where its tie run starts and ends.  Bins
    and cuts are those of :class:`_RankBins`'s stable sort.

    Raises :class:`DegenerateSeriesError` when fewer than two distinct
    values exist, and ``ValueError`` for a NaN, which has no rank
    (:func:`as_float_values` refuses it); infinities bin like any other
    value.
    """
    values = as_float_values(x)
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    n = len(values)
    if n < n_bins:
        raise ValueError("need at least n_bins samples")
    if _is_constant(values):
        raise DegenerateSeriesError("fewer than two distinct values")
    # part[:done] holds the done smallest values.  Each position is selected
    # in the rest with one single-kth partition, positions in increasing
    # order: numpy partitions at several kth without its SIMD selection
    # (127 against 13 us at n = 8000, numpy 2.4.6 on an AVX-512 Xeon).
    part, done = values.copy(), 0
    cuts = []
    for b in range(1, n_bins):
        start = -(-b * n // n_bins)
        part[done:].partition(start - done)
        value, done = part[start], start + 1
        if np.count_nonzero(values < value) < start:
            # the value's tie run opened an earlier bin; the next run opens
            # this one if it starts before the bin ends, so before the next
            # bin's start and the positions stay in increasing order
            end = n - np.count_nonzero(values > value)
            if end * n_bins >= (b + 1) * n:
                continue
            part[done:].partition(end - done)
            value, done = part[end], end + 1
        if value == 0.0:  # the stable sort's sign: the earliest zero's
            value = values[np.argmax(values == 0.0)]
        cuts.append(float(value))
    codes = np.zeros(n, dtype=np.int64)
    for cut in cuts:
        codes += values >= cut
    return CategorySeries(codes, len(cuts) + 1), tuple(cuts)


class _RankBins:
    """Every equal-frequency binning of one column, from one stable sort,
    for MIC's equipartitions and :func:`_mid_ranks`.

    ``bins(k)`` follows :func:`quantile_bins`'s tie and label rules and
    returns the codes, the occupied-bin count, the cut values and each bin's
    start position in sorted order (every bin is a contiguous rank
    interval), in O(n) per k and cached; a property test in
    ``tests/test_measures.py`` holds its codes, counts and cut bits equal
    to :func:`quantile_bins`', which selects one binning without a sort.
    ``bin_edges(ks)`` gives the bins of several binnings at once, without
    codes.
    """

    def __init__(self, values: np.ndarray) -> None:
        self.order = np.argsort(values, kind="stable")
        self.sorted_vals = values[self.order]
        change = self.sorted_vals[1:] != self.sorted_vals[:-1]
        self.run_starts = np.concatenate(([0], np.nonzero(change)[0] + 1))
        self.run_bounds = np.append(self.run_starts, len(values))
        self.run_of = np.empty(len(values), dtype=np.int64)  # each sample's tie run
        self.run_of[self.order] = np.repeat(
            np.arange(len(self.run_starts)), np.diff(self.run_bounds)
        )
        self._cache: dict[int, tuple[np.ndarray, int, tuple[float, ...], np.ndarray]] = {}

    def _open_runs(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(binning, run) of each tie run that opens a bin of the binnings
        into ``ks[i]`` bins, binning-major.

        Sorted position i has nominal bin i * k // n and a run lands in the
        bin of its first position, so nominal bin b opens at the first run
        starting at or after ceil(b * n / k) if that run still starts in
        bin b; bins no run opens are dropped, so labels stay compact.
        """
        n = len(self.order)
        which = np.repeat(np.arange(len(ks)), ks)
        k = ks[which]
        b = np.arange(len(which)) - np.repeat(np.cumsum(ks) - ks, ks)
        run = np.searchsorted(self.run_starts, -(-b * n // k))
        opens = self.run_bounds[run] * k < (b + 1) * n
        return which[opens], run[opens]

    def _labels(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (len(ks), runs) bin label of each tie run in each binning,
        and every binning's bin starts, binning-major."""
        which, run = self._open_runs(ks)
        opens = np.zeros((len(ks), len(self.run_starts)), dtype=bool)
        opens[which, run] = True
        return np.cumsum(opens, axis=1) - 1, self.run_starts[run]

    def bins(self, k: int) -> tuple[np.ndarray, int, tuple[float, ...], np.ndarray]:
        if k not in self._cache:
            labels, starts = self._labels(np.array([k]))
            cuts = tuple(self.sorted_vals[starts[1:]].tolist())
            self._cache[k] = (labels[0][self.run_of], len(starts), cuts, starts)
        return self._cache[k]

    def bin_edges(self, ks: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bins of the binnings into ``ks[i]`` bins, binning-major: each
        bin's start and end position in sorted order, and each binning's
        occupied-bin count."""
        which, run = self._open_runs(np.asarray(ks))
        starts = self.run_starts[run]
        ends = np.append(starts[1:], len(self.order))
        ends[:-1][which[1:] != which[:-1]] = len(self.order)  # a binning's last bin
        return starts, ends, np.bincount(which, minlength=len(ks))


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    """Each value's 1-based rank, tied values given the mean of their ranks
    (Spearman's mid-ranks, exact half-integers), from :class:`_RankBins`'s
    one stable sort."""
    ranks = _RankBins(values)
    return 0.5 * (ranks.run_bounds[ranks.run_of] + ranks.run_bounds[ranks.run_of + 1] + 1)


def _segment_at(n: int, starts: np.ndarray) -> np.ndarray:
    """The segment of each sorted position 0..n-1 of a column cut at the
    sorted positions ``starts`` (0 among them), and the segment count at n."""
    bound = np.zeros(n + 1, dtype=bool)
    bound[starts] = True
    bound[n] = True
    return np.cumsum(bound) - 1


def _is_constant(values: np.ndarray) -> bool:
    return bool(np.all(values == values[0]))


# Bound on the float error of a grid's estimated normalized MI, far above
# what is seen: the permutation kernel's estimates against the exact MI of
# each grid's table give at most 1.5e-14 on random, tied, identity and
# zero-heavy columns.  A grid further below the largest estimate cannot
# win, and a permutation test's weighted estimates more than twice this
# apart order their rows as the exact scores do.
_ESTIMATE_WINDOW = 1e-9


def _xlogx(n: int) -> np.ndarray:
    """The lookup ``c * log2(c)`` for c = 0..n, 0 at c = 0."""
    c = np.arange(n + 1, dtype=np.float64)
    return c * np.log2(np.maximum(c, 1.0))


def _centered(xv: np.ndarray, yv: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Both columns less their means, and the product of their norms.

    Constancy is tested on the values, not the norms: the float mean of a
    repeated value can be off by an ulp, which leaves a nonzero residue."""
    if _is_constant(xv) or _is_constant(yv):
        raise DegenerateSeriesError("constant series has no defined correlation")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    norms = math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc))
    if norms == 0.0:  # spreads so small their squares underflow
        raise DegenerateSeriesError("series too close to constant for a correlation")
    return xc, yc, norms


def _check_indices(idx: np.ndarray, n: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InternalConsistencyError(f"permutation index outside [0, {n})")


# A group of small sides shares one segment table while its cells per
# replicate, (segments + 1) x (partner segments + 1), stay within this many
# per sample.  Counting and summing a larger table costs more than the
# passes over the (rows, N) block it saves: against a budget of 4, a budget
# of 2 took 163 against 186 ms at N = 8000, and about the same at N = 400,
# 100 rows, y half zeros (2 vCPU, numpy 2.4.6).
_TABLE_CELLS_PER_SAMPLE = 2


def _perm_mic_groups(x_ranks: _RankBins, y_ranks: _RankBins, perm_idx: np.ndarray):
    """Every admissible grid's MI in every permutation row, estimated a
    group of small sides at a time.

    Every bin is a contiguous rank interval, and every admissible grid has
    a side of at most sqrt(B) bins, the small side; each orientation puts
    it on one axis (x's, then y's, the diagonal in the first).  A group of
    consecutive small sides is counted with one ``bincount`` keyed by
    (row, small segment, partner segment), where the segments lie between
    the bin starts of the group's small binnings on the small axis, and of
    all their partner binnings on the other; the 2-D prefix sum of those
    counts gives every cell of every grid from four corner gathers.
    A permutation keeps both margins, so each table's MI is estimated from
    one gather of ``c * log2(c)`` (:func:`_xlogx`) and one sum per grid,
    less a per-grid margin constant: n * MI = sum_cells L(c) - sum_rows
    L(r) - sum_cols L(s) + L(n).

    Yields, per group: each grid's (n_x, n_y) and the (rows, grids)
    estimates in bits.  One group's tables are alive at a time; none of
    the arguments is written to.
    """
    reps, n = perm_idx.shape
    _check_indices(perm_idx, n)  # before any gather: clip would hide it
    pairs = np.array(admissible_pairs(n))
    xlogx = _xlogx(n)
    work = np.empty((reps, n), dtype=np.int64)  # each group's table keys
    for small_ranks, partner_ranks, x_small in ((x_ranks, y_ranks, True), (y_ranks, x_ranks, False)):
        # (small, partner) of each grid, each small side's partners in
        # increasing order, and the small column's sample at each partner
        # rank: C-ordered, a fancy index on axis 1 is not
        if x_small:
            grids = pairs[pairs[:, 0] <= pairs[:, 1]]
            seq = np.take(perm_idx, y_ranks.order, axis=1)
        else:
            grids = pairs[pairs[:, 1] < pairs[:, 0]][:, ::-1]
            if not len(grids):
                continue
            inverse = np.empty_like(perm_idx)
            np.put_along_axis(inverse, perm_idx, np.arange(n)[None, :], axis=1)
            seq = np.take(inverse, x_ranks.order, axis=1)
            del inverse
            _check_indices(seq, n)  # a row that repeats an index leaves gaps
        sides = np.unique(grids[:, 0])
        s_starts, s_ends, s_counts = small_ranks.bin_edges(sides)
        s_off = np.concatenate(([0], np.cumsum(s_counts)))
        p_starts, p_ends, p_counts = partner_ranks.bin_edges(range(2, grids[:, 1].max() + 1))
        p_off = np.concatenate(([0], np.cumsum(p_counts)))
        # per grid: its small side's index, partner binning's index (bin
        # count - 2) and margin constant
        side_of = np.searchsorted(sides, grids[:, 0])
        part_of = grids[:, 1] - 2
        margins = (np.add.reduceat(xlogx[s_ends - s_starts], s_off[:-1])[side_of]
                   + np.add.reduceat(xlogx[p_ends - p_starts], p_off[:-1])[part_of]
                   - xlogx[n])
        sample_start = small_ranks.run_starts[small_ranks.run_of]  # rank of each sample's tie run
        first = 0
        while first < len(sides):
            # the group's partner binnings are its first side's: a larger
            # side has fewer
            parts = part_of[side_of == first]
            partner_cuts = np.unique(p_starts[p_off[parts[0]] : p_off[parts[-1] + 1]])
            small_cuts, last = s_starts[s_off[first] : s_off[first + 1]], first + 1
            while last < len(sides):
                joined = np.union1d(small_cuts, s_starts[s_off[last] : s_off[last + 1]])
                if (len(joined) + 1) * (len(partner_cuts) + 1) > _TABLE_CELLS_PER_SAMPLE * n:
                    break
                small_cuts, last = joined, last + 1
            small_at, partner_at = _segment_at(n, small_cuts), _segment_at(n, partner_cuts)
            width = len(partner_cuts) + 1
            # table[i, j, r]: row r's samples in small segments < i and
            # partner segments < j; rows innermost, so both prefix passes
            # and every gather move a cell's counts of all rows at once
            np.take((small_at[sample_start] + 1) * (width * reps), seq, out=work, mode="clip")
            work += (partner_at[:n] + 1) * reps
            work += np.arange(reps)[:, None]
            counts = np.bincount(work.ravel(), minlength=(len(small_cuts) + 1) * width * reps)
            table = np.cumsum(counts.reshape(-1, width, reps), axis=1, dtype=np.int32)
            del counts
            for segment in range(2, len(table)):
                table[segment] += table[segment - 1]
            # each cell's small and partner bin, grid by grid
            mine = (side_of >= first) & (side_of < last)
            ks, ko = s_counts[side_of[mine]], p_counts[part_of[mine]]
            firsts = np.cumsum(ks * ko) - ks * ko
            grid = np.repeat(np.arange(len(ks)), ks * ko)
            i, j = np.divmod(np.arange(len(grid)) - firsts[grid], ko[grid])
            small = s_off[side_of[mine]][grid] + i
            partner = p_off[part_of[mine]][grid] + j
            lo, hi = small_at[s_starts[small]] * width, small_at[s_ends[small]] * width
            left, right = partner_at[p_starts[partner]], partner_at[p_ends[partner]]
            table = table.reshape(-1, reps)
            cells = np.take(table, hi + right, axis=0)
            cells -= np.take(table, lo + right, axis=0)
            cells -= np.take(table, hi + left, axis=0)
            cells += np.take(table, lo + left, axis=0)
            del table
            mi = np.add.reduceat(xlogx[cells], firsts, axis=0)
            del cells  # before the next group is counted
            mi -= margins[mine][:, None]
            mi /= n
            yield grids[mine] if x_small else grids[mine][:, ::-1], mi.T
            first = last


def _grid_estimates(x_ranks: _RankBins, y_ranks: _RankBins, perm_idx: np.ndarray) -> np.ndarray:
    """Normalized MI of x gathered at each permutation row against y on
    every admissible grid, estimated by :func:`_perm_mic_groups`: a (rows,
    grids) array, grids in pair order."""
    n = perm_idx.shape[1]
    pairs = np.array(admissible_pairs(n))
    keys = pairs[:, 0] * n + pairs[:, 1]  # increasing in pair order
    estimates = np.empty((len(perm_idx), len(pairs)))
    for grids, mi in _perm_mic_groups(x_ranks, y_ranks, perm_idx):
        estimates[:, np.searchsorted(keys, grids[:, 0] * n + grids[:, 1])] = (
            mi / np.log2(grids.min(axis=1))
        )
    return estimates


def _perm_estimates_mic(xv: np.ndarray, yv: np.ndarray, perm_idx: np.ndarray) -> np.ndarray:
    """Equipartition MIC of x gathered at each permutation row against y,
    estimated: each row's largest grid estimate, within ``_ESTIMATE_WINDOW``
    of :func:`mic` of the gathered column.  Neither column may be
    constant."""
    estimates = _grid_estimates(_RankBins(xv), _RankBins(yv), perm_idx)
    return np.minimum(estimates.max(axis=1), 1.0)


def mic_columns(
    xs: Sequence[Series | np.ndarray], y: Series | np.ndarray
) -> list[DependencyScore]:
    """:func:`mic` of each column of ``xs`` against y, value and layout.

    Every grid is estimated first (:func:`_grid_estimates`), and only the
    grids within ``_ESTIMATE_WINDOW`` of a column's largest estimate can be
    its exact winner, so only they are scored exactly, from the column's
    own bins.  Equipartition bins are rank intervals, so a column's
    estimates depend only on where its tie runs lie in sorted order:
    columns whose runs coincide (shuffles of one column, or tie-free
    columns of one length) are the rows of one kernel call, each row the
    first such column gathered at the samples holding the row's ranks.
    """
    yv = as_float_values(y)
    columns = [as_float_values(x) for x in xs]
    n = len(yv)
    if any(len(xv) != n for xv in columns):
        raise ValueError("series lengths differ")
    if n < 4:
        raise ValueError("MIC requires at least 4 samples")
    scores = [DependencyScore(0.0, Measure.MIC, n, degenerate=True)] * len(columns)
    if _is_constant(yv):
        return scores
    # each column by where its tie runs lie, with its stable sort order
    groups: dict[bytes, list[tuple[int, np.ndarray]]] = {}
    for i, xv in enumerate(columns):
        if not _is_constant(xv):
            order = np.argsort(xv, kind="stable")
            ties = xv[order[1:]] == xv[order[:-1]]
            groups.setdefault(ties.tobytes(), []).append((i, order))
    pairs = admissible_pairs(n)
    y_ranks = _RankBins(yv)
    for members in groups.values():
        perm_idx = np.empty((len(members), n), dtype=np.int64)
        for row, (_, order) in zip(perm_idx, members):
            row[order] = members[0][1]  # the first column's sample of each rank
        first_ranks = _RankBins(columns[members[0][0]])
        estimates = _grid_estimates(first_ranks, y_ranks, perm_idx)
        for (i, order), row, values in zip(members, perm_idx, estimates):
            best_value, best_layout = 0.0, None
            for g in np.flatnonzero(values >= values.max() - _ESTIMATE_WINDOW):
                nx, ny = pairs[g]
                xc, kx, _, starts = first_ranks.bins(nx)
                yc, ky, ycuts, _ = y_ranks.bins(ny)
                table = _counts_from_codes(xc[row], kx, yc, ky)
                value = _mi_bits_from_counts(table) / math.log2(min(nx, ny))
                if value > best_value or best_layout is None:
                    xcuts = tuple(columns[i][order[starts[1:]]].tolist())
                    best_value, best_layout = value, BinLayout(nx, ny, xcuts, ycuts)
            scores[i] = DependencyScore(
                min(max(best_value, 0.0), 1.0), Measure.MIC, n, bin_layout=best_layout
            )
    return scores


def mic(x: Series | np.ndarray, y: Series | np.ndarray) -> DependencyScore:
    """Maximal information coefficient over the admissible equipartition
    grids: :func:`mic_columns` of the one column x.

    For every admissible grid (:func:`admissible_pairs`) both columns are
    binned into equal-frequency bins, the binned mutual information is
    divided by ``log2(min(n_x, n_y))``, and the maximum ratio is returned,
    together with the winning bin layout; ties go to the first grid in pair
    order.  Constant inputs score 0 by convention.

    This is the equipartition approximation of MIC, the one a permutation
    test can afford.  It reads lower than the MIC of Reshef et al. (Science
    2011), which also optimizes the cut points along an axis: 0.635 against
    0.750 on y = sin(6x) + N(0, 0.5^2), x uniform on [0, 1], N = 400
    (``default_rng(0)``), where the axis-optimized search takes about 10^4
    times as long.  The axis-optimized and exhaustive searches live in
    ``tests/mic_oracle.py``, as the oracle that checks this one.
    """
    return mic_columns([x], y)[0]


def _pearson(xv: np.ndarray, yv: np.ndarray) -> float:
    xc, yc, norms = _centered(xv, yv)
    return min(max(float(xc @ yc) / norms, -1.0), 1.0)


def linear_correlation(x: RealSeries | np.ndarray, y: RealSeries | np.ndarray) -> DependencyScore:
    """Pearson product-moment correlation in [-1, 1]."""
    xv = as_float_values(x)
    yv = as_float_values(y)
    if len(xv) != len(yv):
        raise ValueError("series lengths differ")
    if len(xv) < 2:
        raise ValueError("correlation requires at least 2 samples")
    return DependencyScore(_pearson(xv, yv), Measure.LINEAR, len(xv))


def rank_correlation(x: RealSeries | np.ndarray, y: RealSeries | np.ndarray) -> DependencyScore:
    """Spearman correlation: Pearson on mid-ranks."""
    xv = as_float_values(x)
    yv = as_float_values(y)
    if len(xv) != len(yv):
        raise ValueError("series lengths differ")
    if len(xv) < 2:
        raise ValueError("correlation requires at least 2 samples")
    return DependencyScore(_pearson(_mid_ranks(xv), _mid_ranks(yv)), Measure.RANK, len(xv))


def _perm_values_corr(
    xv: np.ndarray, yv: np.ndarray, perm_idx: np.ndarray, ranked: bool
) -> np.ndarray:
    """|Pearson r| (optionally on mid-ranks) per permutation row."""
    if ranked:
        xv, yv = _mid_ranks(xv), _mid_ranks(yv)
    xc, yc, norms = _centered(xv, yv)
    return np.abs(np.clip((xc[perm_idx] @ yc) / norms, -1.0, 1.0))


# The fewest samples each measure scores; MI scores any column.
LEAST_SAMPLES = {Measure.MIC: 4, Measure.LINEAR: 2, Measure.RANK: 2}


def _scores_zero(kind: Measure, x, y, n: int) -> bool:
    return x is None or y is None or n < LEAST_SAMPLES.get(kind, 0)


def shuffled_column(kind: Measure, x, y, n: int) -> np.ndarray:
    """The column of ``n`` samples whose shuffles :func:`permuted_scores`
    reads for ``kind``: x's codes times y's category count for MI, whose
    kernel adds y's codes to them to count cells, and the sample index for
    the other measures and wherever every row scores 0."""
    if kind is Measure.MI and not _scores_zero(kind, x, y, n):
        return x.values * y.n_categories
    return np.arange(n)


def permuted_scores(kind: Measure, x, y, block: np.ndarray) -> tuple[np.ndarray, float]:
    """``kind``'s score, correlations absolute, of x shuffled against y, on
    the columns ``detection.score_dependency`` reads, and the most any of
    them can be off: each row of ``block`` is :func:`shuffled_column` of the
    same arguments shuffled, and row 0, in its own order, is the observed
    value.  A column that score flags as degenerate (None, too short,
    constant) scores 0 in every row, exactly.  ``block``, C-ordered int64,
    is scratch: MI builds its cell index in it.

    MI's and the correlations' scores are exact, off by 0.  MIC's are each
    row's largest grid estimate, off by at most ``_ESTIMATE_WINDOW`` from
    :func:`mic` of x gathered at the row, which scores a row exactly; its
    kernel leaves ``block`` as it was, so the rows can still be gathered."""
    reps, n = block.shape
    if _scores_zero(kind, x, y, n):
        return np.zeros(reps), 0.0
    if kind is Measure.MI:
        return _perm_values_mi(x, y, block), 0.0
    if kind is Measure.MIC:
        if _is_constant(x) or _is_constant(y):
            return np.zeros(reps), 0.0
        return _perm_estimates_mic(x, y, block), _ESTIMATE_WINDOW
    try:
        return _perm_values_corr(x, y, block, ranked=kind is Measure.RANK), 0.0
    except DegenerateSeriesError:
        return np.zeros(reps), 0.0
