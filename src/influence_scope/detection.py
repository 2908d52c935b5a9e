"""Mutual-influence detection.

Scores the dependency between a remote agent's configuration parts and a
target agent's performance, both unconditioned (raw) and conditioned on
the target's own configuration parts.  Conditioning partitions the samples
per single own part (never per full joint own configuration) so each
partition keeps as many samples as possible; influences that cancel out in
the unconditioned view become visible inside the partitions.

Significance comes from a seeded permutation test that shuffles the remote
column within the same partitions the winning score used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.stats

from .errors import DegenerateSeriesError
from .measures import (
    DependencyScore,
    Measure,
    MicSearchParams,
    discrete_mutual_information,
    mic,
    linear_correlation,
    rank_correlation,
    quantile_bins,
    _RankBins,
)
from .model import (
    AgentSchema,
    ConfigSelector,
    PerformanceSelector,
    SampleLog,
    extract_series,
    validate_log,
)
from .series import CategorySeries, RealSeries, Series, as_float_values

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
        if self.measure_kind is Measure.ENTROPY:
            raise ValueError("entropy is not a dependency measure")
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


@dataclass(frozen=True)
class PartitionScore:
    label: str
    count: int
    score: DependencyScore


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


@dataclass(frozen=True)
class InfluenceMatrix:
    alpha: float
    entries: dict[tuple[str, str, str], InfluenceEntry]


# --- measure application -------------------------------------------------


def _categorize(series: Series, bins: int) -> CategorySeries:
    """Coerce any series to categories; real columns get quantile bins."""
    if isinstance(series, CategorySeries):
        return series
    binned, _ = quantile_bins(series, bins)
    return binned


def score_dependency(x: Series, y: Series, strategy: DetectionStrategy) -> DependencyScore:
    """Apply the strategy's measure to a pair of aligned columns.

    Correlation measures report their absolute value so scores aggregate
    and compare on dependency strength; degenerate (constant) columns score
    0 with the degenerate flag set.
    """
    n = len(x)
    try:
        if strategy.measure_kind is Measure.MI:
            xc = _categorize(x, strategy.own_part_bins)
            yc = _categorize(y, strategy.own_part_bins)
            return discrete_mutual_information(xc, yc)
        if strategy.measure_kind is Measure.MIC:
            return mic(x, y)
        xv = as_float_values(x)
        yv = as_float_values(y)
        if strategy.measure_kind is Measure.LINEAR:
            base = linear_correlation(xv, yv)
        else:
            base = rank_correlation(xv, yv)
        return replace(base, value=abs(base.value))
    except DegenerateSeriesError:
        return DependencyScore(0.0, strategy.measure_kind, n, degenerate=True)


# --- raw and conditioned scoring -----------------------------------------


def _aligned_columns(
    log: SampleLog, remote_part: PartRef, target: str, lag: int
) -> tuple[Series, RealSeries]:
    xs = extract_series(log, ConfigSelector(*remote_part), lag)
    ys = extract_series(log, PerformanceSelector(target), lag)
    return xs, ys  # type: ignore[return-value]


def raw_influence(
    log: SampleLog, target: str, remote_part: PartRef, strategy: DetectionStrategy
) -> DependencyScore:
    """Unconditioned dependency, maximized over the strategy's lag set."""
    if remote_part[0] == target:
        raise ValueError("remote part must belong to a different agent")
    best: Optional[DependencyScore] = None
    for lag in strategy.lag_set:
        xs, ys = _aligned_columns(log, remote_part, target, lag)
        score = replace(score_dependency(xs, ys, strategy), lag=lag)
        if best is None or score.value > best.value:
            best = score
    assert best is not None
    return best


def _partition_indices(
    own: Series, strategy: DetectionStrategy
) -> list[tuple[str, np.ndarray]]:
    """Split sample indices by the own part's value.

    Nominal/ordinal: one partition per occupied category.  Real: quantile
    bins.  A constant own part yields a single all-samples partition, so
    conditioning on it reduces to the unconditioned score.
    """
    if isinstance(own, CategorySeries):
        codes = own.values
        labels = [str(c) for c in range(own.n_categories)]
    else:
        try:
            binned, _ = quantile_bins(own, strategy.own_part_bins)
        except DegenerateSeriesError:
            return [("all", np.arange(len(own)))]
        codes = binned.values
        labels = [f"bin{i}" for i in range(binned.n_categories)]
    out = []
    for code, label in enumerate(labels):
        idx = np.nonzero(codes == code)[0]
        if len(idx) > 0:
            out.append((label, idx))
    return out


def _take(series: Series, idx: np.ndarray) -> Series:
    if isinstance(series, CategorySeries):
        return CategorySeries(series.values[idx], series.n_categories)
    return RealSeries(series.values[idx])


def _conditioned_at_lag(
    remote_series: Series,
    perf_series: RealSeries,
    own_series: Series,
    remote_part: PartRef,
    own_part: Optional[PartRef],
    strategy: DetectionStrategy,
    lag: int,
) -> ConditionedScore:
    partitions = _partition_indices(own_series, strategy)
    per_partition: list[PartitionScore] = []
    weighted_sum = 0.0
    weight = 0
    for label, idx in partitions:
        count = len(idx)
        if count >= 4:
            score = score_dependency(
                _take(remote_series, idx), _take(perf_series, idx), strategy
            )
        else:
            score = DependencyScore(0.0, strategy.measure_kind, count, degenerate=True)
        per_partition.append(PartitionScore(label, count, score))
        if count >= strategy.min_partition_size:
            weighted_sum += count * score.value
            weight += count
    if weight == 0:
        return ConditionedScore(
            remote_part, own_part, tuple(per_partition), None, lag, insufficient_data=True
        )
    return ConditionedScore(
        remote_part, own_part, tuple(per_partition), weighted_sum / weight, lag
    )


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
    best: Optional[ConditionedScore] = None
    for lag in strategy.lag_set:
        remote_series, perf_series = _aligned_columns(log, remote_part, target, lag)
        own_series = extract_series(log, ConfigSelector(*own_part), lag)
        cs = _conditioned_at_lag(
            remote_series, perf_series, own_series, remote_part, own_part, strategy, lag
        )
        if best is None or _aggregate_key(cs) > _aggregate_key(best):
            best = cs
    assert best is not None
    return best


def _aggregate_key(cs: ConditionedScore) -> float:
    return -math.inf if cs.aggregate is None else cs.aggregate


# --- joint (pairwise-composite) influence ---------------------------------


def joint_influence(
    log: SampleLog,
    target: str,
    remote_parts: tuple[PartRef, PartRef],
    strategy: DetectionStrategy,
) -> ConditionedScore:
    """Score a pair of remote parts encoded as one composite variable.

    Reveals influences where neither part alone is informative (e.g. an
    XOR coupling).  Real parts are quantile-binned first; the composite is
    nominal with one category per value combination.
    """
    if not strategy.joint_pairs:
        raise ValueError("joint_pairs is disabled in this strategy")
    for part in remote_parts:
        if part[0] == target:
            raise ValueError("remote parts must belong to agents other than the target")
    best: Optional[ConditionedScore] = None
    target_schema = log.agent(target)
    composite_ref: PartRef = (remote_parts[0][0], f"{remote_parts[0][1]}+{remote_parts[1][1]}")
    for lag in strategy.lag_set:
        a = extract_series(log, ConfigSelector(*remote_parts[0]), lag)
        b = extract_series(log, ConfigSelector(*remote_parts[1]), lag)
        perf = extract_series(log, PerformanceSelector(target), lag)
        try:
            ac = _categorize(a, strategy.own_part_bins)
        except DegenerateSeriesError:
            ac = CategorySeries(np.zeros(len(a), dtype=np.int64), 1)
        try:
            bc = _categorize(b, strategy.own_part_bins)
        except DegenerateSeriesError:
            bc = CategorySeries(np.zeros(len(b), dtype=np.int64), 1)
        k = ac.n_categories * bc.n_categories
        n = len(ac)
        if k > n / strategy.min_partition_size:
            cs = ConditionedScore(
                composite_ref, None, (), None, lag, insufficient_data=True
            )
        else:
            composite = CategorySeries(ac.values * bc.n_categories + bc.values, k)
            # no conditioning: single partition over all samples
            cs = _conditioned_at_lag(
                composite,
                perf,  # type: ignore[arg-type]
                CategorySeries(np.zeros(n, dtype=np.int64), 1),
                composite_ref,
                None,
                strategy,
                lag,
            )
            for own in target_schema.parts:
                own_series = extract_series(log, ConfigSelector(target, own.name), lag)
                alt = _conditioned_at_lag(
                    composite,
                    perf,  # type: ignore[arg-type]
                    own_series,
                    composite_ref,
                    (target, own.name),
                    strategy,
                    lag,
                )
                if _aggregate_key(alt) > _aggregate_key(cs):
                    cs = alt
        if best is None or _aggregate_key(cs) > _aggregate_key(best):
            best = cs
    assert best is not None
    return best


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
    """MI in bits of each table of a contiguous (reps, kx, ky) count stack."""
    p = counts / n
    px = p.sum(axis=2, keepdims=True)
    py = p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, p * np.log2(p / (px * py)), 0.0)
    return np.maximum(terms.sum(axis=(1, 2)), 0.0)


def _prefix_tables(
    seq: np.ndarray, k: int, starts_list: list[np.ndarray], n: int
) -> list[np.ndarray]:
    """Count tables of one code sequence against several rank binnings.

    ``seq`` holds each replicate's codes (``k`` values) in the other axis's
    rank order, and each entry of ``starts_list`` the bin starts of one
    binning of that axis.  Counts per elementary segment (between adjacent
    starts of any binning) summed into int32 prefix counts give every
    binning's (reps, k, bins) table by gather-and-difference.
    """
    reps = seq.shape[0]
    bounds = np.unique(np.concatenate(starts_list + [[n]]))
    e = len(bounds) - 1
    flat = seq * e + np.repeat(np.arange(e), np.diff(bounds))
    flat += (np.arange(reps) * (k * e))[:, None]
    counts = np.bincount(flat.ravel(), minlength=reps * k * e).reshape(reps, k, e)
    prefix = np.zeros((reps, k, e + 1), dtype=np.int32)
    np.cumsum(counts, axis=2, dtype=np.int32, out=prefix[:, :, 1:])
    tables = []
    for starts in starts_list:
        edges = prefix[:, :, np.searchsorted(bounds, np.append(starts, n))]
        tables.append(edges[:, :, 1:] - edges[:, :, :-1])
    return tables


def _perm_values_mic(
    xv: np.ndarray,
    yv: np.ndarray,
    perm_idx: np.ndarray,
    params: MicSearchParams,
) -> np.ndarray:
    """Equipartition MIC for each permutation row, maximizing over grids.

    Every bin is a contiguous rank interval and every admissible grid has a
    side of at most sqrt(B) bins.  For each such small side, prefix counts
    of its codes along the other axis's rank order give each grid's table
    as a difference at the other axis's bin starts.
    """
    n = len(xv)
    if np.all(xv == xv[0]) or np.all(yv == yv[0]):
        return np.zeros(perm_idx.shape[0])
    x_ranks, y_ranks = _RankBins(xv), _RankBins(yv)
    inverse = np.empty_like(perm_idx)
    np.put_along_axis(inverse, perm_idx, np.arange(n)[None, :], axis=1)
    by_y_rank = perm_idx[:, y_ranks.order]  # x sample at each y rank
    by_x_rank = inverse[:, x_ranks.order]  # y sample at each permuted-x rank
    pairs = params.admissible_pairs(n)
    best = np.zeros(perm_idx.shape[0])
    for small in sorted({min(pair) for pair in pairs}):
        for ranks, seq_idx, other_ranks, others, transpose in (
            (x_ranks, by_y_rank, y_ranks, [b for a, b in pairs if a == small <= b], False),
            (y_ranks, by_x_rank, x_ranks, [a for a, b in pairs if b == small < a], True),
        ):
            if not others:
                continue
            codes, k, _, _ = ranks.bins(small)
            starts = [other_ranks.bins(other)[3] for other in others]
            for other, table in zip(others, _prefix_tables(codes[seq_idx], k, starts, n)):
                if transpose:
                    table = table.transpose(0, 2, 1)
                mi = _mi_bits_of_tables(np.ascontiguousarray(table), n)
                np.maximum(best, mi / math.log2(min(small, other)), out=best)
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


def _perm_stat_for_partition(
    x_part: Series,
    y_part: Series,
    strategy: DetectionStrategy,
    perm_idx: np.ndarray,
) -> np.ndarray:
    if strategy.measure_kind is Measure.MI:
        try:
            xc = _categorize(x_part, strategy.own_part_bins)
            yc = _categorize(y_part, strategy.own_part_bins)
        except DegenerateSeriesError:
            return np.zeros(perm_idx.shape[0])
        return _perm_values_mi(
            xc.values, xc.n_categories, yc.values, yc.n_categories, perm_idx
        )
    xv = as_float_values(x_part)
    yv = as_float_values(y_part)
    if strategy.measure_kind is Measure.MIC:
        if len(xv) < 4:
            return np.zeros(perm_idx.shape[0])
        return _perm_values_mic(xv, yv, perm_idx, MicSearchParams())
    return _perm_values_corr(
        xv, yv, perm_idx, ranked=strategy.measure_kind is Measure.RANK
    )


def _headline_pvalue(
    log: SampleLog,
    target: str,
    remote_part: PartRef,
    strategy: DetectionStrategy,
    winning: "DependencyScore | ConditionedScore",
    rng: np.random.Generator,
) -> float:
    """Permutation p-value of the winning score's configuration.

    The remote column is shuffled within the same partitions the winning
    score used (the whole column when the raw score won), the statistic is
    recomputed per shuffle, and the standard +1 permutation formula gives
    the p-value.
    """
    reps = strategy.permutations
    if isinstance(winning, ConditionedScore):
        lag = winning.lag
    else:
        lag = winning.lag or 0
    remote_series, perf_series = _aligned_columns(log, remote_part, target, lag)
    if isinstance(winning, ConditionedScore) and winning.conditioning_part is not None:
        own_series = extract_series(
            log, ConfigSelector(*winning.conditioning_part), lag
        )
        partitions = _partition_indices(own_series, strategy)
        masks = [
            idx for _, idx in partitions if len(idx) >= strategy.min_partition_size
        ]
    else:
        masks = [np.arange(len(remote_series))]
    if not masks:
        return 1.0

    weights = np.array([len(m) for m in masks], dtype=np.float64)
    stats = np.zeros((reps + 1, len(masks)))
    for j, idx in enumerate(masks):
        n_p = len(idx)
        perm_idx = np.empty((reps + 1, n_p), dtype=np.int64)
        perm_idx[0] = np.arange(n_p)  # identity row carries the observed value
        for r in range(1, reps + 1):
            perm_idx[r] = rng.permutation(n_p)
        stats[:, j] = _perm_stat_for_partition(
            _take(remote_series, idx), _take(perf_series, idx), strategy, perm_idx
        )
    aggregate = stats @ weights / weights.sum()
    observed = aggregate[0]
    exceed = int(np.sum(aggregate[1:] >= observed))
    return (1 + exceed) / (reps + 1)


# --- the full matrix -------------------------------------------------------


def _entry_rng(seed: int, ti: int, ri: int, pi: int) -> np.random.Generator:
    # Streams keyed on structural indices, not names, so relabeling agents
    # leaves every p-value unchanged.
    return np.random.default_rng(np.random.SeedSequence([seed, ti, ri, pi]))


def _compute_entry(
    log: SampleLog,
    target_schema: AgentSchema,
    remote_schema: AgentSchema,
    part_name: str,
    strategy: DetectionStrategy,
    conditioning: bool,
    rng: np.random.Generator,
) -> InfluenceEntry:
    target = target_schema.agent_id
    remote_part: PartRef = (remote_schema.agent_id, part_name)
    raw = raw_influence(log, target, remote_part, strategy)
    best_cond: Optional[ConditionedScore] = None
    if conditioning:
        for own in target_schema.parts:
            cs = conditioned_influence(
                log, target, remote_part, (target, own.name), strategy
            )
            if best_cond is None or _aggregate_key(cs) > _aggregate_key(best_cond):
                best_cond = cs
    if best_cond is not None and _aggregate_key(best_cond) > raw.value:
        winning: "DependencyScore | ConditionedScore" = best_cond
        headline = float(best_cond.aggregate)  # type: ignore[arg-type]
        best_lag = best_cond.lag
    else:
        winning = raw
        headline = raw.value
        best_lag = raw.lag or 0
    p_value = _headline_pvalue(log, target, remote_part, strategy, winning, rng)
    insufficient = raw.degenerate and (
        best_cond is None or best_cond.insufficient_data
    )
    return InfluenceEntry(
        raw=raw,
        best_conditioned=best_cond,
        best_lag=best_lag,
        headline=headline,
        p_value=p_value,
        influenced=p_value < strategy.alpha,
        insufficient_data=insufficient,
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
        if wanted is not None and target_schema.agent_id not in wanted:
            continue
        for ri, remote_schema in enumerate(log.schemas):
            if remote_schema.agent_id == target_schema.agent_id:
                continue
            for pi, part in enumerate(remote_schema.parts):
                key = (target_schema.agent_id, remote_schema.agent_id, part.name)
                entries[key] = _compute_entry(
                    log, target_schema, remote_schema, part.name, strategy,
                    conditioning, _entry_rng(strategy.seed, ti, ri, pi),
                )
    return InfluenceMatrix(alpha=strategy.alpha, entries=entries)
