"""The MIC searches the detector does not run, kept as the oracle that
checks its equipartition approximation.

Reshef et al. (Science 2011) define MIC over grids whose cut points are
optimized, not only equal-frequency ones.  ``influence_scope.measures.mic``
searches the equipartition grids alone, which a permutation test can
afford; the two searches here cost far more (13-14 s for one axis-optimized
call at N = 400, against 1.4-1.7 ms, on 2 vCPU with Python 3.11.7 and numpy
2.4.6) and serve only the tests:

- ``AXIS_OPTIMIZED`` also optimizes the cut points on one axis (a dynamic
  program over rank positions) while the other axis stays equipartitioned;
- ``EXHAUSTIVE`` enumerates every rank-cut grid, for N <= 12 only.

Both start from the equipartition winner and replace it only by a strictly
better grid, so on the same input EQUIPARTITION <= AXIS_OPTIMIZED <=
EXHAUSTIVE.  Imported by the tests as ``from mic_oracle import ...``.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from influence_scope.measures import (
    BinLayout,
    DependencyScore,
    Measure,
    _counts_from_codes,
    _mi_bits_from_counts,
    _RankBins,
    admissible_pairs,
    mic,
)
from influence_scope.series import as_float_values


class MicSearchMode(Enum):
    EQUIPARTITION = "equipartition"
    AXIS_OPTIMIZED = "axis_optimized"
    EXHAUSTIVE = "exhaustive"


# The exhaustive grid search is refused rather than silently slow beyond
# this many samples.
EXHAUSTIVE_MAX_SAMPLES = 12


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


def _codes_from_cut_positions(
    order: np.ndarray, cut_positions: Sequence[int], n: int
) -> np.ndarray:
    codes = np.empty(n, dtype=np.int64)
    edges = np.concatenate(([0], np.asarray(cut_positions, dtype=np.int64), [n]))
    for b in range(len(edges) - 1):
        codes[order[edges[b] : edges[b + 1]]] = b
    return codes


def mic_search(x, y, mode: MicSearchMode) -> DependencyScore:
    """MIC of ``mode``'s search: ``mic(x, y)`` for EQUIPARTITION; otherwise
    the equipartition winner, replaced by any later grid of the mode's own
    search that is strictly better.  EXHAUSTIVE raises ``ValueError`` for
    more than ``EXHAUSTIVE_MAX_SAMPLES`` samples."""
    score = mic(x, y)  # checks the lengths and the sample count
    n = score.sample_count
    if mode is MicSearchMode.EXHAUSTIVE and n > EXHAUSTIVE_MAX_SAMPLES:
        raise ValueError(
            f"exhaustive search is permitted only for N <= {EXHAUSTIVE_MAX_SAMPLES}"
        )
    if mode is MicSearchMode.EQUIPARTITION or score.degenerate:
        return score

    x_ranks, y_ranks = _RankBins(as_float_values(x)), _RankBins(as_float_values(y))
    pairs = admissible_pairs(n)
    # the winner's value before mic clamps it to [0, 1], by mic's arithmetic
    best_layout = score.bin_layout
    nx, ny = best_layout.n_x, best_layout.n_y
    xc, kx, _, _ = x_ranks.bins(nx)
    yc, ky, _, _ = y_ranks.bins(ny)
    best_value = _mi_bits_from_counts(_counts_from_codes(xc, kx, yc, ky)) / math.log2(min(nx, ny))

    def consider(value: float, layout: BinLayout) -> None:
        nonlocal best_value, best_layout
        if value > best_value:
            best_value = value
            best_layout = layout

    if mode is MicSearchMode.AXIS_OPTIMIZED:
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
    else:
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
