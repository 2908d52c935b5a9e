"""Dependency measure estimators.

Implements plug-in mutual information and entropy for categorical data,
equal-frequency binning of real data, the maximal information coefficient
(normalized MI maximized over admissible binning grids), and Pearson and
Spearman correlations; :func:`permuted_scores` scores each permuted.

All mutual-information values are reported in bits (base-2 logarithms).
The MIC normalizer is a ratio of logarithms and therefore base-invariant;
base 2 is used throughout for consistency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
import scipy.stats

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


class MicSearchMode(Enum):
    EQUIPARTITION = "equipartition"
    AXIS_OPTIMIZED = "axis_optimized"
    EXHAUSTIVE = "exhaustive"


# The exhaustive grid search is a test oracle; beyond this many samples it
# is refused rather than silently slow.
EXHAUSTIVE_MAX_SAMPLES = 12


# Exponent of MIC's grid-size bound B = N ** MIC_B_EXPONENT.
MIC_B_EXPONENT = 0.6


@dataclass(frozen=True)
class MicSearchParams:
    """Grid-search bounds for the maximal information coefficient.

    The admissible grids satisfy ``n_x >= 2``, ``n_y >= 2`` and
    ``n_x * n_y < B`` with ``B = N ** MIC_B_EXPONENT``.  ``B`` is raised to
    just above 4 when necessary so the 2x2 grid stays admissible for small N.
    """

    search_mode: MicSearchMode = MicSearchMode.EQUIPARTITION

    def admissible_pairs(self, n: int) -> list[tuple[int, int]]:
        limit = max(float(n) ** MIC_B_EXPONENT, 4.0 * (1.0 + 1e-9))
        pairs: list[tuple[int, int]] = []
        nx = 2
        while nx * 2 < limit:
            ny = 2
            while nx * ny < limit:
                pairs.append((nx, ny))
                ny += 1
            nx += 1
        return pairs


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


def _perm_values_mi(x: CategorySeries, y: CategorySeries, perm_idx: np.ndarray) -> np.ndarray:
    """MI in bits for each row of permutation indices applied to x."""
    r, n = perm_idx.shape
    xc, kx, yc, ky = x.values, x.n_categories, y.values, y.n_categories
    codes = xc[perm_idx] * ky + yc[None, :]
    codes += (np.arange(r) * (kx * ky))[:, None]
    counts = np.bincount(codes.ravel(), minlength=r * kx * ky).reshape(r, kx, ky)
    return _mi_bits_of_tables(counts, n)


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
    """Equal-frequency binning by rank.

    Ties are assigned to the lower bin deterministically: every occurrence
    of a value lands in the bin of that value's first occurrence in sorted
    order.  Bin labels are compacted so the output category count never
    exceeds the number of occupied bins.  Returns the binned series and the
    lower-edge values of bins 1..k-1 (the cut points).

    Raises :class:`DegenerateSeriesError` when fewer than two distinct
    values exist.
    """
    values = as_float_values(x)
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if len(values) < n_bins:
        raise ValueError("need at least n_bins samples")
    ranks = _RankBins(values)
    if len(ranks.run_starts) < 2:
        raise DegenerateSeriesError("fewer than two distinct values")
    codes, k, cuts, _ = ranks.bins(n_bins)
    return CategorySeries(codes, k), cuts


class _RankBins:
    """Every equal-frequency binning of one column, from one stable sort.

    ``bins(k)`` follows :func:`quantile_bins`'s tie and label rules and
    returns the codes, the occupied-bin count, the cut values and each bin's
    start position in sorted order (every bin is a contiguous rank
    interval), in O(n) per k and cached.  ``bin_edges(ks)`` gives the bins
    of several binnings at once, without codes.
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

    def codes(self, ks: Sequence[int], order: np.ndarray) -> np.ndarray:
        """(len(ks), len(order)) codes of the binnings into ``ks[i]`` bins,
        samples taken in ``order``."""
        return np.take(self._labels(np.asarray(ks))[0], self.run_of[order], axis=1)

    def bin_edges(self, ks: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bins of the binnings into ``ks[i]`` bins, binning-major: each
        bin's start and end position in sorted order, and each binning's
        occupied-bin count."""
        which, run = self._open_runs(np.asarray(ks))
        starts = self.run_starts[run]
        ends = np.append(starts[1:], len(self.order))
        ends[:-1][which[1:] != which[:-1]] = len(self.order)  # a binning's last bin
        return starts, ends, np.bincount(which, minlength=len(ks))


def _prefix_counts(
    seq: np.ndarray, k: int, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix counts of code sequences at the bin starts of the other axis.

    Row ``r`` of ``seq`` holds one sequence of codes (``k`` values) in the
    other axis's rank order.  Counts per elementary segment (between
    adjacent ``starts``) summed into an int32 (rows, k, segments + 1)
    prefix table; ``at[p]`` is the prefix column of the counts before sorted
    position ``p``, for ``p`` a start or ``n``.  The table of a bin
    ``[s, e)`` is then ``prefix[..., at[e]] - prefix[..., at[s]]``.
    """
    reps, n = seq.shape
    bound = np.zeros(n + 1, dtype=bool)
    bound[starts] = True
    bound[n] = True
    at = np.cumsum(bound) - 1
    e = int(at[n])
    flat = seq * e
    flat += at[:n]  # each position's segment
    flat += (np.arange(reps) * (k * e))[:, None]
    counts = np.bincount(flat.ravel(), minlength=reps * k * e).reshape(reps, k, e)
    prefix = np.zeros((reps, k, e + 1), dtype=np.int32)
    np.cumsum(counts, axis=2, dtype=np.int32, out=prefix[:, :, 1:])
    return prefix, at


def _is_constant(values: np.ndarray) -> bool:
    return bool(np.all(values == values[0]))


def _partition_mi_best(
    x_ranks: _RankBins, y_codes: np.ndarray, ky: int, n_bins: int
) -> tuple[Optional[float], Optional[tuple[float, ...]]]:
    """Best MI over all rank partitions of x into exactly ``n_bins`` bins.

    Dynamic program over admissible cut positions with the y binning held
    fixed; returns (best MI in bits, x cut values) or (None, None) when x
    has too few distinct values for that many bins.
    """
    order, sorted_vals = x_ranks.order, x_ranks.sorted_vals
    n = len(order)
    pts = np.append(x_ranks.run_starts, n)  # cuts only between distinct values
    if len(pts) - 1 < n_bins:
        return None, None
    one_hot = np.zeros((n + 1, ky))
    one_hot[np.arange(1, n + 1), y_codes[order]] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    cum = prefix[pts]  # (Q, ky) class counts before each boundary
    marginal = cum[-1]  # fixed y marginals
    q = len(pts)

    def segment_scores(j: int, i_lo: int) -> np.ndarray:
        # I-contribution of segments (pts[i], pts[j]] for all i in [i_lo, j)
        counts = cum[j] - cum[i_lo:j]
        seg_n = counts.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(
                counts > 0,
                (counts / n) * np.log2(counts * n / (seg_n * marginal)),
                0.0,
            )
        return terms.sum(axis=1)

    neg_inf = -np.inf
    f = np.full((n_bins + 1, q), neg_inf)
    back = np.zeros((n_bins + 1, q), dtype=np.int64)
    for j in range(1, q):
        f[1, j] = segment_scores(j, 0)[0]
    for k in range(2, n_bins + 1):
        for j in range(k, q):
            scores = f[k - 1, k - 1 : j] + segment_scores(j, k - 1)
            best = int(np.argmax(scores))
            f[k, j] = scores[best]
            back[k, j] = best + (k - 1)
    best_val = f[n_bins, q - 1]
    if not np.isfinite(best_val):
        return None, None
    # Backtrack the chosen boundaries for the reported cut points.
    cuts: list[float] = []
    j = q - 1
    for k in range(n_bins, 1, -1):
        j = int(back[k, j])
        cuts.append(float(sorted_vals[pts[j]]))
    cuts.reverse()
    return max(float(best_val), 0.0), tuple(cuts)


# Bound on the float error of a grid's estimated normalized MI, far above
# what is seen: against _mi_bits_from_counts on the same tables, random,
# tied and identity columns (observed and permuted, both orientations, every
# admissible grid, N from 31 to 50 000) give at most 3.4e-15.  A grid
# further below the largest estimate cannot win.
_ESTIMATE_WINDOW = 1e-9


def _xlogx(n: int) -> np.ndarray:
    """The lookup ``c * log2(c)`` for c = 0..n, 0 at c = 0."""
    c = np.arange(n + 1, dtype=np.float64)
    return c * np.log2(np.maximum(c, 1.0))


def _mi_estimates(
    tables: np.ndarray, rows: np.ndarray, cols: np.ndarray, firsts: np.ndarray,
    xlogx: np.ndarray,
) -> np.ndarray:
    """Estimated MI in bits of count tables of n = len(xlogx) - 1 samples,
    laid side by side along the last axis of ``tables`` (..., k, columns):
    grid g's columns start at ``firsts[g]`` and end where the next grid's
    start.  ``rows`` are the row sums, (k,) for every grid or (grids, k),
    and ``cols`` each column's sum.

    With L(c) = c·log2(c) from the lookup ``xlogx``,
    n·MI = Σ_cells L(c) − Σ_rows L(r) − Σ_cols L(s) + L(n); the margins
    are one constant per grid, so a table costs one gather and one sum.
    """
    n = len(xlogx) - 1
    per_col = xlogx[tables].sum(axis=-2) - xlogx[cols]
    per_grid = np.add.reduceat(per_col, firsts, axis=-1)
    return (per_grid - xlogx[rows].sum(axis=-1) + xlogx[n]) / n


def _grid_mi_estimates(
    x_ranks: _RankBins, y_ranks: _RankBins, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """MI in bits of each equipartition grid ``(px[i], py[i])``, estimated
    by :func:`_mi_estimates`.

    Each orientation puts its grids' smaller bin count (the small side) on
    one axis; every grid with the smaller side there, the diagonal on both,
    gets its table from one prefix-count table of all small sides' codes in
    the other axis's rank order.
    """
    xlogx = _xlogx(len(x_ranks.order))
    values = np.empty(len(px))
    for ranks, partner, small, big in ((x_ranks, y_ranks, px, py), (y_ranks, x_ranks, py, px)):
        mask = small <= big
        side_of, partner_of = small[mask] - 2, big[mask] - 2
        sides, partners = np.arange(2, side_of.max() + 3), np.arange(2, partner_of.max() + 3)
        seq = ranks.codes(sides, partner.order)
        starts, ends, bin_counts = partner.bin_edges(partners)
        prefix, at = _prefix_counts(seq, int(seq.max()) + 1, starts)
        # the columns of this orientation's grids: (small side, partner bin),
        # grid by grid in id order
        wanted = np.zeros((len(sides), len(partners)), dtype=bool)
        wanted[side_of, partner_of] = True
        side, col = np.nonzero(np.repeat(wanted, bin_counts, axis=1))
        cells = prefix[side, :, at[ends[col]]] - prefix[side, :, at[starts[col]]]
        grid = side * len(partners) + np.repeat(np.arange(len(partners)), bin_counts)[col]
        firsts = np.flatnonzero(np.diff(grid, prepend=-1))
        rows = prefix[side[firsts], :, -1]  # each grid's small-side bin counts
        mi = _mi_estimates(cells.T, rows, (ends - starts)[col], firsts, xlogx)
        values[mask] = mi[np.searchsorted(grid[firsts], side_of * len(partners) + partner_of)]
    return values


def _codes_from_cut_positions(
    order: np.ndarray, cut_positions: Sequence[int], n: int
) -> np.ndarray:
    codes = np.empty(n, dtype=np.int64)
    edges = np.concatenate(([0], np.asarray(cut_positions, dtype=np.int64), [n]))
    for b in range(len(edges) - 1):
        codes[order[edges[b] : edges[b + 1]]] = b
    return codes


def mic(
    x: Series | np.ndarray,
    y: Series | np.ndarray,
    params: MicSearchParams | None = None,
) -> DependencyScore:
    """Maximal information coefficient over admissible binning grids.

    For every admissible grid the binned mutual information is divided by
    ``log2(min(n_x, n_y))`` and the maximum ratio is returned, together
    with the winning bin layout; ties go to the first grid in pair order.
    Constant inputs score 0 by convention.

    Search modes: ``EQUIPARTITION`` evaluates equal-frequency grids only;
    ``AXIS_OPTIMIZED`` additionally optimizes the cut points on one axis
    (dynamic program over rank positions) while the other axis stays
    equipartitioned; ``EXHAUSTIVE`` enumerates every rank-cut grid and is
    only permitted for N <= 12.
    """
    if params is None:
        params = MicSearchParams()
    xv = as_float_values(x)
    yv = as_float_values(y)
    if len(xv) != len(yv):
        raise ValueError("series lengths differ")
    n = len(xv)
    if n < 4:
        raise ValueError("MIC requires at least 4 samples")
    if params.search_mode is MicSearchMode.EXHAUSTIVE and n > EXHAUSTIVE_MAX_SAMPLES:
        raise ValueError(
            f"exhaustive search is permitted only for N <= {EXHAUSTIVE_MAX_SAMPLES}"
        )
    if _is_constant(xv) or _is_constant(yv):
        return DependencyScore(0.0, Measure.MIC, n, degenerate=True)

    pairs = params.admissible_pairs(n)
    x_ranks, y_ranks = _RankBins(xv), _RankBins(yv)

    best_value = 0.0
    best_layout: Optional[BinLayout] = None

    def consider(value: float, layout: BinLayout) -> None:
        nonlocal best_value, best_layout
        if value > best_value or best_layout is None:
            best_value = value
            best_layout = layout

    # Every grid scored as one float vector; only grids within the window of
    # its maximum can be the exact winner, so only they are scored exactly.
    px, py = np.array(pairs).T
    values = _grid_mi_estimates(x_ranks, y_ranks, px, py) / np.log2(np.minimum(px, py))
    for i in np.flatnonzero(values >= values.max() - _ESTIMATE_WINDOW):
        nx, ny = pairs[i]
        xc, kx, xcuts, _ = x_ranks.bins(nx)
        yc, ky, ycuts, _ = y_ranks.bins(ny)
        mi_bits = _mi_bits_from_counts(_counts_from_codes(xc, kx, yc, ky))
        consider(mi_bits / math.log2(min(nx, ny)), BinLayout(nx, ny, xcuts, ycuts))

    if params.search_mode is MicSearchMode.AXIS_OPTIMIZED:
        for nx, ny in pairs:
            norm = math.log2(min(nx, ny))
            yc, ky, ycuts, _ = y_ranks.bins(ny)
            mi_bits, xcuts = _partition_mi_best(x_ranks, yc, ky, nx)
            if mi_bits is not None:
                consider(mi_bits / norm, BinLayout(nx, ny, xcuts, ycuts))
            xc, kx, xcuts_eq, _ = x_ranks.bins(nx)
            mi_bits, ycuts_opt = _partition_mi_best(y_ranks, xc, kx, ny)
            if mi_bits is not None:
                consider(mi_bits / norm, BinLayout(nx, ny, xcuts_eq, ycuts_opt))
    elif params.search_mode is MicSearchMode.EXHAUSTIVE:
        # a cut may only fall between two distinct values
        x_interior = x_ranks.run_starts[1:].tolist()
        y_interior = y_ranks.run_starts[1:].tolist()
        for nx, ny in pairs:
            norm = math.log2(min(nx, ny))
            for xpos in itertools.combinations(x_interior, nx - 1):
                xc = _codes_from_cut_positions(x_ranks.order, xpos, n)
                for ypos in itertools.combinations(y_interior, ny - 1):
                    yc = _codes_from_cut_positions(y_ranks.order, ypos, n)
                    mi_bits = _mi_bits_from_counts(_counts_from_codes(xc, nx, yc, ny))
                    layout = BinLayout(
                        nx,
                        ny,
                        tuple(float(x_ranks.sorted_vals[p]) for p in xpos),
                        tuple(float(y_ranks.sorted_vals[p]) for p in ypos),
                    )
                    consider(mi_bits / norm, layout)

    value = min(max(best_value, 0.0), 1.0)
    return DependencyScore(value, Measure.MIC, n, bin_layout=best_layout)


def _centered(xv: np.ndarray, yv: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Both columns less their means, and the product of their norms."""
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSeriesError("constant series has no defined correlation")
    return xc, yc, sx * sy


def _perm_values_mic(xv: np.ndarray, yv: np.ndarray, perm_idx: np.ndarray) -> np.ndarray:
    """Equipartition MIC of each permutation row, maximizing over grids.

    Every bin is a contiguous rank interval and every admissible grid has a
    side of at most sqrt(B) bins.  Per orientation, one ``bin_edges`` call
    gives the bins of every partner binning; for each small side, one
    prefix-count table of its codes along the other axis's rank order gives
    the tables of all its grids, replicates stacked.  A permutation keeps
    both margins, so every table is estimated by ``_mi_estimates``; per
    replicate, only the grids within ``_ESTIMATE_WINDOW`` of its largest
    estimate are scored with ``_mi_bits_of_tables``, each on a C-ordered
    (rows, kx, ky) table.
    """
    best = np.zeros(perm_idx.shape[0])
    if _is_constant(xv) or _is_constant(yv):
        return best
    n = len(xv)
    x_ranks, y_ranks = _RankBins(xv), _RankBins(yv)
    inverse = np.empty_like(perm_idx)
    np.put_along_axis(inverse, perm_idx, np.arange(n)[None, :], axis=1)
    # C-ordered (a fancy index on axis 1 is not), so each row is contiguous
    by_y_rank = np.take(perm_idx, y_ranks.order, axis=1)  # x sample at each y rank
    by_x_rank = np.take(inverse, x_ranks.order, axis=1)  # y sample at each permuted-x rank
    pairs = MicSearchParams().admissible_pairs(n)
    xlogx = _xlogx(n)
    # per small side: its tables, its grids' column ranges and normalized
    # estimates, and whether x is its partner (tables transposed)
    sides = []
    for ranks, seq_idx, other_ranks, grids, transpose in (
        (x_ranks, by_y_rank, y_ranks, [(a, b) for a, b in pairs if a <= b], False),
        (y_ranks, by_x_rank, x_ranks, [(b, a) for a, b in pairs if b < a], True),
    ):
        if not grids:
            continue
        # every partner bin count from 2 up; binning o's bins are at
        # offsets[o - 2]:offsets[o - 1]
        partners = range(2, max(o for _, o in grids) + 1)
        starts, ends, bin_counts = other_ranks.bin_edges(partners)
        offsets = np.concatenate(([0], np.cumsum(bin_counts)))
        for small in sorted({s for s, _ in grids}):
            others = np.array([o for s, o in grids if s == small])  # consecutive
            lo, hi = offsets[others[0] - 2], offsets[others[-1] - 1]
            codes, k, _, _ = ranks.bins(small)
            prefix, at = _prefix_counts(codes[seq_idx], k, starts[lo:hi])
            # C-ordered (a fancy index on axis 2 is not)
            tables = np.take(prefix, at[ends[lo:hi]], axis=2)
            tables -= np.take(prefix, at[starts[lo:hi]], axis=2)
            bounds = offsets[np.append(others - 2, others[-1] - 1)] - lo
            norms = [math.log2(min(small, o)) for o in others]
            estimates = _mi_estimates(
                tables, np.bincount(codes, minlength=k), (ends - starts)[lo:hi],
                bounds[:-1], xlogx,
            ) / norms
            sides.append((tables, bounds, norms, estimates, transpose))
    top = np.max([e.max(axis=1) for *_, e, _ in sides], axis=0) - _ESTIMATE_WINDOW
    for tables, bounds, norms, estimates, transpose in sides:
        finalists = estimates >= top[:, None]
        for g in np.flatnonzero(finalists.any(axis=0)):
            rows = np.flatnonzero(finalists[:, g])
            table = tables[rows, :, bounds[g] : bounds[g + 1]]
            if transpose:
                table = table.transpose(0, 2, 1)
            # C-ordered, so each table sums in the order it would alone
            mi = _mi_bits_of_tables(np.ascontiguousarray(table), n) / norms[g]
            best[rows] = np.maximum(best[rows], mi)
    return np.minimum(best, 1.0)


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
    rx = scipy.stats.rankdata(xv, method="average")
    ry = scipy.stats.rankdata(yv, method="average")
    return DependencyScore(_pearson(rx, ry), Measure.RANK, len(xv))


def _perm_values_corr(
    xv: np.ndarray, yv: np.ndarray, perm_idx: np.ndarray, ranked: bool
) -> np.ndarray:
    """|Pearson r| (optionally on mid-ranks) per permutation row."""
    if ranked:
        xv = scipy.stats.rankdata(xv, method="average")
        yv = scipy.stats.rankdata(yv, method="average")
    xc, yc, norms = _centered(xv, yv)
    return np.abs(np.clip((xc[perm_idx] @ yc) / norms, -1.0, 1.0))


# The fewest samples each measure scores; MI scores any column.
LEAST_SAMPLES = {Measure.MIC: 4, Measure.LINEAR: 2, Measure.RANK: 2}


def permuted_scores(kind: Measure, x, y, perm_idx: np.ndarray) -> np.ndarray:
    """``kind``'s score, correlations absolute, of x shuffled by each row of
    ``perm_idx`` against y, on the columns ``detection.score_dependency``
    reads; row 0, the identity, is the observed value.  A column that score
    flags as degenerate (None, too short, constant) scores 0 in every row."""
    reps, n = perm_idx.shape
    if x is None or y is None or n < LEAST_SAMPLES.get(kind, 0):
        return np.zeros(reps)
    if kind is Measure.MI:
        return _perm_values_mi(x, y, perm_idx)
    if kind is Measure.MIC:
        return _perm_values_mic(x, y, perm_idx)
    try:
        return _perm_values_corr(x, y, perm_idx, ranked=kind is Measure.RANK)
    except DegenerateSeriesError:
        return np.zeros(reps)
