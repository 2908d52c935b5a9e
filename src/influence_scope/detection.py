"""Mutual-influence detection.

Scores the dependency between a remote agent's configuration part and a
target agent's performance.  Each matrix entry searches one candidate
family: at every lag, a raw candidate over all samples and one candidate
per own configuration part of the target, partitioned by that part's value
(never by the full own configuration, so partitions stay large).
Influences that cancel out in the raw view show inside the partitions.
A matrix row's target side (each lag's partitions and the performance in
each, binned for MI) is built once; each entry adds its remote column.
The better of the best raw and the best conditioned candidate is the
headline, and a seeded permutation test of that candidate, shuffling the
remote column within each of its partitions, gives its p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.stats

from .errors import DegenerateSeriesError, InputError
from .measures import (
    DependencyScore,
    Measure,
    MicSearchParams,
    discrete_mutual_information,
    mic,
    linear_correlation,
    rank_correlation,
    quantile_bins,
    _ESTIMATE_WINDOW,
    _mi_estimates,
    _prefix_counts,
    _RankBins,
    _xlogx,
)
from .model import (
    ConfigSelector,
    PerformanceSelector,
    SampleLog,
    extract_series,
    validate_log,
)
from .series import CategorySeries, Series

PartRef = tuple[str, str]  # (agent_id, part name)


@dataclass(frozen=True)
class DetectionStrategy:
    """Knobs of the detection pipeline.

    ``own_part_bins`` also discretizes real columns for the MI measure and
    composite encodings.  Partitions smaller than ``min_partition_size``
    are listed but excluded from conditioned aggregates.
    """

    measure_kind: Measure = Measure.MI
    own_part_bins: int = 3
    min_partition_size: int = 25
    lag_set: tuple[int, ...] = (0,)
    joint_pairs: bool = False
    alpha: float = 0.05
    permutations: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.own_part_bins < 2:
            raise ValueError("own_part_bins must be >= 2")
        if self.min_partition_size < 4:
            raise ValueError("min_partition_size must be >= 4")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.permutations < 20:
            raise ValueError("permutations must be >= 20")
        if len(self.lag_set) == 0 or any(l < 0 for l in self.lag_set):
            raise ValueError("lag_set must be non-empty with non-negative lags")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "lag_set", tuple(self.lag_set))


def _natural(name: str, value: int) -> None:
    if value < 0:
        raise InputError(name, f"expected a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class PartitionScore:
    label: str
    count: int
    score: DependencyScore

    def __post_init__(self) -> None:
        _natural("count", self.count)


@dataclass(frozen=True)
class ConditionedScore:
    """Per-partition scores plus their sample-count-weighted aggregate."""

    remote: PartRef
    conditioning_part: Optional[PartRef]
    per_partition: tuple[PartitionScore, ...]
    aggregate: Optional[float]
    lag: int
    insufficient_data: bool = False


@dataclass(frozen=True)
class InfluenceEntry:
    raw: DependencyScore
    best_conditioned: Optional[ConditionedScore]
    best_lag: int
    headline: float
    p_value: float
    influenced: bool
    insufficient_data: bool = False

    def __post_init__(self) -> None:
        _natural("best_lag", self.best_lag)


@dataclass(frozen=True)
class InfluenceMatrix:
    alpha: float
    entries: dict[tuple[str, str, str], InfluenceEntry]


# --- measure application -------------------------------------------------


def _categorize(series: Series | np.ndarray, bins: int) -> Optional[CategorySeries]:
    """Categories as they are, real values in quantile bins, None for
    constant real values."""
    if isinstance(series, CategorySeries):
        return series
    try:
        return quantile_bins(series, bins)[0]
    except DegenerateSeriesError:
        return None


# The fewest samples each measure scores; MI scores any column.
_LEAST_SAMPLES = {Measure.MIC: 4, Measure.LINEAR: 2, Measure.RANK: 2}


def score_dependency(x, y, n: int, strategy: DetectionStrategy) -> DependencyScore:
    """Apply the strategy's measure to two aligned columns of ``n`` samples
    as :func:`_slice` gives them.

    Correlation measures report their absolute value so scores aggregate
    and compare on dependency strength; degenerate (constant) columns, a
    None column, and columns too short for the measure (fewer than 4
    samples for MIC, 2 for a correlation) score 0 with the degenerate flag
    set.
    """
    degenerate = DependencyScore(0.0, strategy.measure_kind, n, degenerate=True)
    if x is None or y is None or n < _LEAST_SAMPLES.get(strategy.measure_kind, 0):
        return degenerate
    try:
        if strategy.measure_kind is Measure.MI:
            return discrete_mutual_information(x, y)
        if strategy.measure_kind is Measure.MIC:
            return mic(x, y)
        if strategy.measure_kind is Measure.LINEAR:
            base = linear_correlation(x, y)
        else:
            base = rank_correlation(x, y)
        return replace(base, value=abs(base.value))
    except DegenerateSeriesError:
        return degenerate


# --- the candidate family of one entry -------------------------------------


@dataclass(frozen=True)
class _Candidate:
    """One way to score an entry: the samples at one lag, split into the
    partitions of one own part, or into one partition of all samples when
    ``own_part`` is None (the raw candidate), with each partition's
    performance and remote column from :func:`_slices`."""

    lag: int
    own_part: Optional[PartRef]
    partitions: tuple[tuple[str, np.ndarray], ...]
    perf: tuple = ()
    remote: tuple = ()


def _partition_indices(
    own: Series, strategy: DetectionStrategy
) -> tuple[tuple[str, np.ndarray], ...]:
    """Split sample indices by the own part's value.

    Nominal/ordinal: one partition per occupied category.  Real: quantile
    bins.  A constant own part, and a real one of fewer samples than
    ``own_part_bins``, yields a single all-samples partition, so
    conditioning on it reduces to the unconditioned score.
    """
    if isinstance(own, CategorySeries):
        codes = own.values
        labels = [str(c) for c in range(own.n_categories)]
    else:
        try:
            binned, _ = quantile_bins(own, strategy.own_part_bins)
        except ValueError:  # constant, or fewer samples than bins
            return (("all", np.arange(len(own))),)
        codes = binned.values
        labels = [f"bin{i}" for i in range(binned.n_categories)]
    out = []
    for code, label in enumerate(labels):
        idx = np.nonzero(codes == code)[0]
        if len(idx) > 0:
            out.append((label, idx))
    return tuple(out)


def _composite(
    a: Series, b: Series, strategy: DetectionStrategy
) -> Optional[CategorySeries]:
    """Two columns as one nominal column with a category per value pair,
    real columns quantile-binned first; None when the pairs outnumber
    ``n / min_partition_size``."""
    coded = []
    for series in (a, b):
        codes = _categorize(series, strategy.own_part_bins)
        if codes is None:  # a constant real column is one category
            codes = CategorySeries(np.zeros(len(series), dtype=np.int64), 1)
        coded.append(codes)
    ac, bc = coded
    k = ac.n_categories * bc.n_categories
    if k > len(ac) / strategy.min_partition_size:
        return None
    return CategorySeries(ac.values * bc.n_categories + bc.values, k)


def _slice(series: Series, idx: np.ndarray, strategy: DetectionStrategy):
    """``series`` at ``idx`` as the strategy's measure reads it: categories
    for MI (see :func:`_categorize`), floats for the other measures."""
    values = series.values[idx]
    if strategy.measure_kind is not Measure.MI:
        return np.asarray(values, dtype=np.float64)
    if isinstance(series, CategorySeries):
        return CategorySeries(values, series.n_categories)
    if len(values) < strategy.own_part_bins:  # too few to bin: scored as degenerate
        return None
    return _categorize(values, strategy.own_part_bins)


def _slices(series: Series, c: _Candidate, strategy: DetectionStrategy) -> tuple:
    """``series`` in each of the candidate's partitions that a scorer reads:
    the raw one, and any of at least 4 samples (None for the rest)."""
    return tuple(
        _slice(series, idx, strategy) if c.own_part is None or len(idx) >= 4 else None
        for _, idx in c.partitions
    )


def _target_side(
    log: SampleLog, target: str, own_parts: Sequence[Optional[PartRef]],
    strategy: DetectionStrategy,
) -> list[_Candidate]:
    """A row's candidates without their remote column, lag-major and in
    ``own_parts`` order (None: the raw candidate), shared by the row's
    entries: each lag's columns are extracted, partitioned and sliced once."""
    side = []
    for lag in strategy.lag_set:
        perf = extract_series(log, PerformanceSelector(target), lag)
        for own in own_parts:
            if own is None:  # partitioned as a constant own part would be
                partitions = (("0", np.arange(len(perf))),)
            else:
                column = extract_series(log, ConfigSelector(*own), lag)
                partitions = _partition_indices(column, strategy)
            c = _Candidate(lag, own, partitions)
            side.append(replace(c, perf=_slices(perf, c, strategy)))
    return side


def _with_remote(
    side: Sequence[_Candidate], log: SampleLog, remote_parts: Sequence[PartRef],
    strategy: DetectionStrategy,
) -> list[_Candidate]:
    """One entry's candidates: the target side with the remote column sliced
    into its partitions.  Two remote parts are scored as their composite;
    where it has too many categories, a lag keeps one empty raw candidate."""
    columns: dict[int, Optional[Series]] = {}
    family = []
    for c in side:
        if c.lag not in columns:
            parts = [extract_series(log, ConfigSelector(*p), c.lag) for p in remote_parts]
            columns[c.lag] = parts[0] if len(parts) == 1 else _composite(*parts, strategy)
        remote = columns[c.lag]
        if remote is not None:
            family.append(replace(c, remote=_slices(remote, c, strategy)))
        elif c.own_part is None:
            family.append(_Candidate(c.lag, None, ()))
    return family


def _raw_score(c: _Candidate, strategy: DetectionStrategy) -> DependencyScore:
    n = len(c.partitions[0][1])
    return replace(score_dependency(c.remote[0], c.perf[0], n, strategy), lag=c.lag)


def _conditioned_score(
    c: _Candidate, remote_ref: PartRef, strategy: DetectionStrategy
) -> ConditionedScore:
    """Score each partition, and aggregate those of at least
    ``min_partition_size`` samples as a sample-count-weighted mean."""
    per_partition: list[PartitionScore] = []
    weighted_sum = 0.0
    weight = 0
    for (label, idx), x, y in zip(c.partitions, c.remote, c.perf):
        count = len(idx)
        # fewer than 4 samples score as degenerate, the raw partition's too
        score = score_dependency(x if count >= 4 else None, y, count, strategy)
        per_partition.append(PartitionScore(label, count, score))
        if count >= strategy.min_partition_size:
            weighted_sum += count * score.value
            weight += count
    aggregate = weighted_sum / weight if weight else None
    return ConditionedScore(
        remote_ref, c.own_part, tuple(per_partition), aggregate, c.lag,
        insufficient_data=aggregate is None,
    )


def _aggregate_key(cs: ConditionedScore) -> float:
    return -math.inf if cs.aggregate is None else cs.aggregate


def _best(candidates, score, key):
    """(candidate, its score) of the first candidate whose score has the
    largest ``key``: a later candidate wins only when strictly better."""
    return max(((c, score(c)) for c in candidates), key=lambda pair: key(pair[1]))


def raw_influence(
    log: SampleLog, target: str, remote_part: PartRef, strategy: DetectionStrategy
) -> DependencyScore:
    """Unconditioned dependency, maximized over the strategy's lag set."""
    if remote_part[0] == target:
        raise ValueError("remote part must belong to a different agent")
    side = _target_side(log, target, (None,), strategy)
    family = _with_remote(side, log, (remote_part,), strategy)
    return _best(family, lambda c: _raw_score(c, strategy), lambda s: s.value)[1]


def conditioned_influence(
    log: SampleLog,
    target: str,
    remote_part: PartRef,
    own_part: PartRef,
    strategy: DetectionStrategy,
) -> ConditionedScore:
    """Dependency between remote part and target performance, computed
    separately inside each partition of one own configuration part, then
    aggregated as a sample-count-weighted mean.  The best lag wins.
    """
    if own_part[0] != target:
        raise ValueError("conditioning part must belong to the target agent")
    if remote_part[0] == target:
        raise ValueError("remote part must belong to a different agent")
    side = _target_side(log, target, (own_part,), strategy)
    family = _with_remote(side, log, (remote_part,), strategy)
    return _best(
        family, lambda c: _conditioned_score(c, remote_part, strategy), _aggregate_key
    )[1]


def joint_influence(
    log: SampleLog,
    target: str,
    remote_parts: tuple[PartRef, PartRef],
    strategy: DetectionStrategy,
) -> ConditionedScore:
    """Score a pair of remote parts encoded as one composite variable.

    Reveals influences where neither part alone is informative (e.g. an
    XOR coupling).  Real parts are quantile-binned first; the composite is
    nominal with one category per value combination.  Ties go to the first
    lag, then to raw before the own parts in schema order.
    """
    if not strategy.joint_pairs:
        raise ValueError("joint_pairs is disabled in this strategy")
    for part in remote_parts:
        if part[0] == target:
            raise ValueError("remote parts must belong to agents other than the target")
    composite_ref: PartRef = (remote_parts[0][0], f"{remote_parts[0][1]}+{remote_parts[1][1]}")
    own_parts = [(target, own.name) for own in log.agent(target).parts]
    side = _target_side(log, target, [None, *own_parts], strategy)
    family = _with_remote(side, log, remote_parts, strategy)
    return _best(
        family, lambda c: _conditioned_score(c, composite_ref, strategy), _aggregate_key
    )[1]


# --- vectorized permutation machinery -------------------------------------


def _perm_values_mi(
    xc: np.ndarray, kx: int, yc: np.ndarray, ky: int, perm_idx: np.ndarray
) -> np.ndarray:
    """MI in bits for each row of permutation indices applied to x."""
    r, n = perm_idx.shape
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


def _perm_values_mic(samples: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Equipartition MIC of each permutation row of each ``(x, y, perm_idx)``
    sample, one column per sample, maximizing over grids.

    Every bin is a contiguous rank interval and every admissible grid has a
    side of at most sqrt(B) bins.  Per orientation, one ``bin_edges`` call
    gives the bins of every partner binning; for each small side, one
    prefix-count table of its codes along the other axis's rank order gives
    the tables of all its grids.  A permutation keeps both margins, so every
    table is estimated by ``_mi_estimates``; per replicate, only the grids
    within ``_ESTIMATE_WINDOW`` of its largest estimate are scored with
    ``_mi_bits_of_tables``, each on a C-ordered (rows, kx, ky) table.
    """
    reps = samples[0][2].shape[0]
    best = np.zeros((reps, len(samples)))
    for j, (xv, yv, perm_idx) in enumerate(samples):
        n = len(xv)
        if np.all(xv == xv[0]) or np.all(yv == yv[0]):
            continue
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
                best[rows, j] = np.maximum(best[rows, j], mi)
    return np.minimum(best, 1.0)


def _perm_values_corr(
    xv: np.ndarray, yv: np.ndarray, perm_idx: np.ndarray, ranked: bool
) -> np.ndarray:
    """|Pearson r| (optionally on mid-ranks) per permutation row."""
    if ranked:
        xv = scipy.stats.rankdata(xv, method="average")
        yv = scipy.stats.rankdata(yv, method="average")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        return np.zeros(perm_idx.shape[0])
    r = (xc[perm_idx] @ yc) / (sx * sy)
    return np.abs(np.clip(r, -1.0, 1.0))


def _permuted(
    c: _Candidate, strategy: DetectionStrategy, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """The candidate's kernel score under ``strategy.permutations`` shuffles
    of the remote column, row 0 the identity; None when no partition is scored.

    Each scored partition draws its shuffles in turn and is shuffled within
    itself, on the columns the observed scorer read; the raw candidate's one
    partition is scored whatever its size, an own part's only from
    ``min_partition_size`` samples.  Partition scores aggregate as the
    sample-count-weighted mean.
    """
    least = 0 if c.own_part is None else strategy.min_partition_size
    sizes = [len(idx) for _, idx in c.partitions]
    scored = [s for s in zip(sizes, c.remote, c.perf) if s[0] >= least]
    if not scored:
        return None
    reps = strategy.permutations
    kind = strategy.measure_kind
    weights = np.array([n_p for n_p, _, _ in scored], dtype=np.float64)
    stats = np.zeros((reps + 1, len(scored)))
    mic_samples, mic_columns = [], []
    for j, (n_p, x, y) in enumerate(scored):
        perm_idx = np.empty((reps + 1, n_p), dtype=np.int64)
        perm_idx[0] = np.arange(n_p)  # identity row carries the observed value
        for r in range(1, reps + 1):
            perm_idx[r] = rng.permutation(n_p)
        if kind is Measure.MI:
            if x is not None and y is not None:  # None: constant, 0 under every shuffle
                stats[:, j] = _perm_values_mi(
                    x.values, x.n_categories, y.values, y.n_categories, perm_idx
                )
        elif kind is Measure.MIC:
            if n_p >= 4:  # scored below, with every partition's tables at once
                mic_samples.append((x, y, perm_idx))
                mic_columns.append(j)
        else:
            stats[:, j] = _perm_values_corr(x, y, perm_idx, ranked=kind is Measure.RANK)
    if mic_samples:
        stats[:, mic_columns] = _perm_values_mic(mic_samples)
    return stats @ weights / weights.sum()


# --- the full matrix -------------------------------------------------------


def _entry_rng(seed: int, ti: int, ri: int, pi: int) -> np.random.Generator:
    # Streams keyed on structural indices, not names, so relabeling agents
    # leaves every p-value unchanged.
    return np.random.default_rng(np.random.SeedSequence([seed, ti, ri, pi]))


def _compute_entry(
    family: Sequence[_Candidate],
    remote_part: PartRef,
    own_parts: Sequence[PartRef],
    strategy: DetectionStrategy,
    rng: np.random.Generator,
) -> InfluenceEntry:
    """The entry's best raw and best conditioned candidate; the better of the
    two is the headline, and its permutation p-value the entry's."""
    raws = [c for c in family if c.own_part is None]
    winner, raw = _best(raws, lambda c: _raw_score(c, strategy), lambda s: s.value)
    headline, best_lag = raw.value, raw.lag or 0
    # own-part-major, so a tie goes to the first own part, then to the first lag
    conditioned = sorted(
        (c for c in family if c.own_part), key=lambda c: own_parts.index(c.own_part)
    )
    best_cond: Optional[ConditionedScore] = None
    if conditioned:
        cond, best_cond = _best(
            conditioned, lambda c: _conditioned_score(c, remote_part, strategy), _aggregate_key
        )
        if _aggregate_key(best_cond) > raw.value:
            winner, best_lag = cond, best_cond.lag
            headline = float(best_cond.aggregate)  # type: ignore[arg-type]
    stats = _permuted(winner, strategy, rng)
    p_value = 1.0
    if stats is not None:
        p_value = (1 + int(np.sum(stats[1:] >= stats[0]))) / (strategy.permutations + 1)
    return InfluenceEntry(
        raw=raw,
        best_conditioned=best_cond,
        best_lag=best_lag,
        headline=headline,
        p_value=p_value,
        influenced=p_value < strategy.alpha,
        insufficient_data=raw.degenerate and (best_cond is None or best_cond.insufficient_data),
    )


def influence_matrix(
    log: SampleLog,
    strategy: DetectionStrategy,
    *,
    conditioning: bool = True,
    targets: Optional[Sequence[str]] = None,
) -> InfluenceMatrix:
    """Score every (target agent, remote agent, remote part) combination.

    ``conditioning=False`` restricts every entry to its raw score (useful
    to demonstrate influences that only the conditioned path can see).
    ``targets`` limits the rows computed; each entry derives its own RNG
    stream, so a row's values do not depend on which other rows are computed.
    """
    issues = validate_log(log)
    if issues:
        raise ValueError(f"log failed validation: {issues[:3]}")
    if len(log.schemas) < 2:
        raise ValueError("need at least 2 agents")
    wanted = set(targets) if targets is not None else None

    entries: dict[tuple[str, str, str], InfluenceEntry] = {}
    for ti, target_schema in enumerate(log.schemas):
        target = target_schema.agent_id
        if wanted is not None and target not in wanted:
            continue
        own_parts = [(target, own.name) for own in target_schema.parts] if conditioning else []
        side = _target_side(log, target, [None, *own_parts], strategy)
        for ri, remote_schema in enumerate(log.schemas):
            if remote_schema.agent_id == target:
                continue
            for pi, part in enumerate(remote_schema.parts):
                remote = (remote_schema.agent_id, part.name)
                entries[(target, *remote)] = _compute_entry(
                    _with_remote(side, log, (remote,), strategy), remote, own_parts,
                    strategy, _entry_rng(strategy.seed, ti, ri, pi),
                )
    return InfluenceMatrix(alpha=strategy.alpha, entries=entries)
