"""Mutual-influence detection.

Builds the candidate families that score a remote agent's configuration
part against a target agent's performance, selects each entry's winner and
draws its permutations; :mod:`measures` does the scoring, observed and
permuted.  Each matrix entry searches one candidate family: at every lag,
a raw candidate over all samples and one candidate per own configuration
part of the target, partitioned by that part's value (never by the full
own configuration, so partitions stay large).  Influences that cancel out
in the raw view show inside the partitions.  The better of the best raw
and the best conditioned candidate is the headline, and a seeded
permutation test of that candidate, shuffling the remote column within
each of its partitions, gives its p-value.  One builder,
:func:`_families`, gives the families of any entries of one row
together: each lag's partitions and the performance in each (binned for
MI) are built once, and each partition scores every entry's remote column
against its one performance slice in one call.

:func:`influence_matrix` cuts the entries into W contiguous runs in
matrix order, one per usable CPU (at most one per entry), forks a child
for every run but the last and merges what they give back; it reads no
column itself.  A process builds the families of a row's entries in its
run once, together, so a row is built once per run it meets, and a child
pickles its entries back over a pipe; the caller scores the last run, and
every entry itself where it cannot fork, or while another thread runs.
Each entry's RNG stream is private to it and keyed on structural
indices, and is drawn partition by partition in order, so the bytes out
do not depend on W or on the process an entry ran in.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass, replace
from itertools import groupby
from reprlib import repr as brief
from typing import BinaryIO, Optional, Sequence

import numpy as np

from .errors import DegenerateSeriesError, InputError
from .measures import (
    DependencyScore,
    Measure,
    discrete_mutual_information,
    mic,  # not called here: perfbench/layers.py wraps detection.mic by name
    mic_columns,
    linear_correlation,
    rank_correlation,
    permuted_scores,
    quantile_bins,
    _scores_zero,
    shuffled_column,
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


MAX_PERMUTATIONS = 10_000
"""20 times the most the package asks for, the recommender's 500.  It caps
the permutation test's shuffles: each of the W processes that score a matrix
holds one (permutations + 1) x N int64 buffer, the entry being scored.  At
the cap that is 10 001 x 8 bytes, about 80 kB per sample and process
(640 MB at N = 8000).  MIC's kernel peaks at about 7 such blocks of one
partition more (44 MB over a 6.4 MB block at N = 8000, 100 rows, a
tie-heavy column; 6 blocks at N = 400 and 3000), one group of segment
tables at a time, while MI builds its cell index in the shuffled codes.
Re-scoring a partition whose rows all tie row 0 holds the gathered
columns, their sort orders and the kernel's index rows as well: 7.4 to 9.7
blocks at N = 8000 and 100 rows (tied, continuous and zero-heavy columns),
which a test holds within 11."""


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
        for name, ok, rule in (
            ("own_part_bins", self.own_part_bins >= 2, "must be >= 2"),
            ("min_partition_size", self.min_partition_size >= 4, "must be >= 4"),
            ("alpha", 0.0 < self.alpha < 1.0, "must lie in (0, 1)"),
            ("permutations", 20 <= self.permutations <= MAX_PERMUTATIONS,
             f"must lie in [20, {MAX_PERMUTATIONS}]"),
            ("lag_set", len(self.lag_set) > 0 and min(self.lag_set) >= 0,
             "must be non-empty with lags >= 0"),
            ("lag_set", len(set(self.lag_set)) == len(self.lag_set), "must not repeat a lag"),
            ("seed", self.seed >= 0, "must be >= 0"),
        ):
            if not ok:
                raise InputError(name, f"{rule}, got {brief(getattr(self, name))}")
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


def score_dependency(xs: Sequence, y, n: int, strategy: DetectionStrategy) -> list[DependencyScore]:
    """Apply the strategy's measure to each column of ``xs`` against one
    column y, all aligned, of ``n`` samples as :func:`_slices` gives them:
    MIC's columns in one :func:`mic_columns` call, the other measures'
    one at a time.

    Correlation measures report their absolute value so scores aggregate
    and compare on dependency strength; degenerate (constant) columns, a
    None column, and columns too short for the measure (fewer than 4
    samples for MIC, 2 for a correlation) score 0 with the degenerate flag
    set.
    """
    kind = strategy.measure_kind
    degenerate = DependencyScore(0.0, kind, n, degenerate=True)
    scored = [x for x in xs if not _scores_zero(kind, x, y, n)]
    if kind is Measure.MIC:
        found = iter(mic_columns(scored, y) if scored else ())
    else:
        found = (_score_column(kind, x, y, degenerate) for x in scored)
    return [degenerate if _scores_zero(kind, x, y, n) else next(found) for x in xs]


def _score_column(kind: Measure, x, y, degenerate: DependencyScore) -> DependencyScore:
    try:
        if kind is Measure.MI:
            return discrete_mutual_information(x, y)
        base = (linear_correlation if kind is Measure.LINEAR else rank_correlation)(x, y)
        return replace(base, value=abs(base.value))
    except DegenerateSeriesError:
        return degenerate


# --- the candidate family of one entry -------------------------------------


@dataclass(frozen=True)
class _Candidate:
    """One way to score an entry: the samples at one lag, split into the
    partitions of one own part, or into one partition of all samples when
    ``own_part`` is None (the raw candidate), with each partition's
    performance and remote column from :func:`_slices` and the score of
    one against the other.  Its observed and permuted statistics count the
    partitions of at least ``least`` samples: any for the raw candidate,
    ``min_partition_size`` for an own part."""

    lag: int
    own_part: Optional[PartRef]
    partitions: tuple[tuple[str, np.ndarray], ...]
    least: int = 0
    perf: tuple = ()
    remote: tuple = ()
    scores: tuple[DependencyScore, ...] = ()


def _codes(
    series: Series, idx: Optional[np.ndarray], strategy: DetectionStrategy
) -> Optional[CategorySeries]:
    """``series`` at ``idx``, or all of it for None, as categories: a
    category column as it is, a real one in ``own_part_bins`` quantile
    bins, and None for a real one of fewer samples than bins or of one
    value.  The one binning rule of partitions, composites and MI's
    columns."""
    values = series.values if idx is None else series.values[idx]
    if isinstance(series, CategorySeries):
        return series if idx is None else CategorySeries(values, series.n_categories)
    if len(values) < strategy.own_part_bins:
        return None
    try:
        return quantile_bins(values, strategy.own_part_bins)[0]
    except DegenerateSeriesError:
        return None


def _partition_indices(
    own: Series, strategy: DetectionStrategy
) -> tuple[tuple[str, np.ndarray], ...]:
    """Split sample indices by the own part's :func:`_codes`: one partition
    per occupied category or quantile bin.  An own part with no codes
    yields a single all-samples partition, so conditioning on it reduces
    to the unconditioned score."""
    codes = _codes(own, None, strategy)
    if codes is None:
        return (("all", np.arange(len(own))),)
    label = str if isinstance(own, CategorySeries) else "bin{}".format
    out = []
    for code in range(codes.n_categories):
        idx = np.nonzero(codes.values == code)[0]
        if len(idx) > 0:
            out.append((label(code), idx))
    return tuple(out)


def _composite(
    a: Series, b: Series, strategy: DetectionStrategy
) -> Optional[CategorySeries]:
    """Two columns as one nominal column with a category per pair of their
    :func:`_codes`, a column with no codes counting as one category; None
    when the pairs outnumber ``n / min_partition_size``."""
    ac, bc = (
        CategorySeries(np.zeros(len(a), dtype=np.int64), 1) if codes is None else codes
        for codes in (_codes(a, None, strategy), _codes(b, None, strategy))
    )
    k = ac.n_categories * bc.n_categories
    if k > len(ac) / strategy.min_partition_size:
        return None
    return CategorySeries(ac.values * bc.n_categories + bc.values, k)


def _slices(series: Series, c: _Candidate, strategy: DetectionStrategy) -> tuple:
    """``series`` in each of the candidate's partitions that a scorer reads,
    the raw one and any of at least 4 samples (None for the rest), as the
    strategy's measure reads it: :func:`_codes` for MI, floats for the
    other measures."""
    mi = strategy.measure_kind is Measure.MI
    return tuple(
        None if c.own_part is not None and len(idx) < 4
        else _codes(series, idx, strategy) if mi
        else np.asarray(series.values[idx], dtype=np.float64)
        for _, idx in c.partitions
    )


def _families(
    log: SampleLog, target: str, own_parts: Sequence[PartRef],
    remotes: Sequence[Sequence[PartRef]], strategy: DetectionStrategy,
) -> list[list[_Candidate]]:
    """The candidate families of the row ``target``'s entries whose remote
    parts are ``remotes``, one each: at every lag, the raw candidate and one
    per part of ``own_parts`` in order, with the entry's remote column
    sliced into its partitions and scored.  Each lag's columns are extracted
    once, and each candidate's partitions sliced once; each partition scores
    every entry's column against its one performance slice with one
    :func:`score_dependency` call.  Two remote parts are scored as their
    composite; where it has too many categories, a lag keeps one empty raw
    candidate."""
    families: list[list[_Candidate]] = [[] for _ in remotes]
    for lag in strategy.lag_set:
        perf = extract_series(log, PerformanceSelector(target), lag)
        columns: list[Optional[Series]] = []
        for remote_parts in remotes:
            parts = [extract_series(log, ConfigSelector(*p), lag) for p in remote_parts]
            columns.append(parts[0] if len(parts) == 1 else _composite(*parts, strategy))
        for own in (None, *own_parts):
            if own is None:  # partitioned as a constant own part would be
                partitions = (("0", np.arange(len(perf))),)
            else:
                own_column = extract_series(log, ConfigSelector(*own), lag)
                partitions = _partition_indices(own_column, strategy)
            c = _Candidate(lag, own, partitions, 0 if own is None else strategy.min_partition_size)
            c = replace(c, perf=_slices(perf, c, strategy))
            present = [(family, _slices(column, c, strategy))
                       for family, column in zip(families, columns) if column is not None]
            scores = [
                score_dependency([remote[p] for _, remote in present], y, len(idx), strategy)
                for p, ((_, idx), y) in enumerate(zip(c.partitions, c.perf))
            ]
            for (family, remote), scored in zip(present, zip(*scores)):
                family.append(replace(c, remote=remote, scores=scored))
            if own is None:
                for family, column in zip(families, columns):
                    if column is None:
                        family.append(_Candidate(lag, None, ()))
    return families


def _conditioned_score(c: _Candidate, remote_ref: PartRef) -> ConditionedScore:
    """Each partition's score, and the sample-count-weighted mean of those
    of at least ``c.least`` samples."""
    per_partition: list[PartitionScore] = []
    weighted_sum, weight = 0.0, 0
    for (label, idx), score in zip(c.partitions, c.scores):
        count = len(idx)
        per_partition.append(PartitionScore(label, count, score))
        if count >= c.least:
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


def _search(
    family: Sequence[_Candidate], remote_part: PartRef, own_parts: Sequence[PartRef]
) -> tuple[_Candidate, dict]:
    """The one ranking of a scored family, for the matrix and the raw and
    conditioned scorers: its best raw and best conditioned candidate.
    Gives the better of the two, whose permutation test is the entry's, and
    the entry's fields but its p-value."""
    raws = [c for c in family if c.own_part is None]
    winner, raw = _best(raws, lambda c: replace(c.scores[0], lag=c.lag), lambda s: s.value)
    headline, best_lag = raw.value, raw.lag or 0
    # own-part-major, so a tie goes to the first own part, then to the first lag
    conditioned = sorted(
        (c for c in family if c.own_part), key=lambda c: own_parts.index(c.own_part)
    )
    best_cond: Optional[ConditionedScore] = None
    if conditioned:
        cond, best_cond = _best(
            conditioned, lambda c: _conditioned_score(c, remote_part), _aggregate_key
        )
        if _aggregate_key(best_cond) > raw.value:
            winner, best_lag = cond, best_cond.lag
            headline = float(best_cond.aggregate)  # type: ignore[arg-type]
    return winner, dict(
        raw=raw,
        best_conditioned=best_cond,
        best_lag=best_lag,
        headline=headline,
        insufficient_data=raw.degenerate and (best_cond is None or best_cond.insufficient_data),
    )


def _family(
    log: SampleLog, target: str, own_parts: Sequence[PartRef],
    remote_parts: Sequence[PartRef], strategy: DetectionStrategy,
) -> list[_Candidate]:
    """The candidates of one entry outside the matrix: the raw candidate and
    ``own_parts`` at every lag, lag-major, with the remote column added and
    scored."""
    if any(part[0] == target for part in remote_parts):
        raise ValueError("remote part must belong to a different agent")
    return _families(log, target, own_parts, [remote_parts], strategy)[0]


def raw_influence(
    log: SampleLog, target: str, remote_part: PartRef, strategy: DetectionStrategy
) -> DependencyScore:
    """Unconditioned dependency, maximized over the strategy's lag set: the
    raw score of the matrix's search on a family of raw candidates only."""
    family = _family(log, target, (), (remote_part,), strategy)
    return _search(family, remote_part, ())[1]["raw"]


def conditioned_influence(
    log: SampleLog, target: str, remote_part: PartRef, own_part: PartRef,
    strategy: DetectionStrategy,
) -> ConditionedScore:
    """Dependency between remote part and target performance, computed
    separately inside each partition of one own configuration part, then
    aggregated as a sample-count-weighted mean: the best conditioned score
    of the matrix's search on a family with that one own part, so the best
    lag wins and a tie goes to the first lag.
    """
    if own_part[0] != target:
        raise ValueError("conditioning part must belong to the target agent")
    family = _family(log, target, (own_part,), (remote_part,), strategy)
    return _search(family, remote_part, (own_part,))[1]["best_conditioned"]


def joint_influence(
    log: SampleLog, target: str, remote_parts: tuple[PartRef, PartRef],
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
    composite_ref: PartRef = (remote_parts[0][0], f"{remote_parts[0][1]}+{remote_parts[1][1]}")
    own_parts = [(target, own.name) for own in log.agent(target).parts]
    family = _family(log, target, own_parts, remote_parts, strategy)
    return _best(
        family, lambda c: _conditioned_score(c, composite_ref), _aggregate_key
    )[1]


# --- the permutation test -------------------------------------------------


def _partition_tests(
    c: _Candidate, strategy: DetectionStrategy, rng: np.random.Generator,
    buffer: np.ndarray,
) -> list[tuple[object, object, np.ndarray]]:
    """(remote, performance, shuffle block) of each partition the
    candidate's permutation test scores, on the columns the observed scorer
    read: those of at least ``c.least`` samples, as its aggregate counts
    them.  The blocks are C-ordered (permutations + 1, count) views of
    ``buffer``, back to back, each row the column the measure's kernel
    scores (``shuffled_column``), and rows 1 onward shuffled block by
    block, one ``rng.permuted`` call each.  Its swaps do not depend on what
    the rows hold, so row r is the column gathered at the r-th of
    successive ``rng.permutation`` calls."""
    reps = strategy.permutations + 1
    tests, start = [], 0
    for (_, idx), x, y in zip(c.partitions, c.remote, c.perf):
        if len(idx) >= c.least:
            rows = buffer[start : start + reps * len(idx)].reshape(reps, len(idx))
            rows[:] = shuffled_column(strategy.measure_kind, x, y, len(idx))
            rng.permuted(rows[1:], axis=1, out=rows[1:])
            tests.append((x, y, rows))
            start += reps * len(idx)
    return tests


def _p_value(
    tests: Sequence[tuple[object, object, np.ndarray]], strategy: DetectionStrategy
) -> float:
    """The share of shuffles, the identity counted, whose score is at least
    the observed one, partition scores aggregated as the sample-count-weighted
    mean; 1 when no partition is scored.  The kernels may overwrite the
    blocks.

    The rows are first scored with ``permuted_scores``, exact but for MIC's
    estimates.  A weighted estimate more than twice the estimates' error
    from row 0's is on the same side of row 0's exact score as its own
    exact score, so only the rows within that margin, row 0 among them, are
    scored exactly: a replicate's exact score is ``mic`` of the remote
    column gathered at its row, the observed scorer, so row 0's is the
    partition's observed score bit for bit.  A partition's unsure rows are
    re-scored with one :func:`mic_columns` call."""
    if not tests:
        return 1.0
    weights = np.array([rows.shape[1] for _, _, rows in tests], dtype=np.float64)
    stats = np.empty((strategy.permutations + 1, len(tests)))
    errors = np.empty(len(tests))
    for j, (x, y, rows) in enumerate(tests):
        stats[:, j], errors[j] = permuted_scores(strategy.measure_kind, x, y, rows)
    means = stats @ weights / weights.sum()
    error = errors.max()
    unsure = np.flatnonzero(np.abs(means - means[0]) <= 2 * error)
    if error and len(unsure) > 1:
        # only MIC's estimates have an error, and only they are re-scored
        for j in np.flatnonzero(errors):
            x, y, rows = tests[j]
            stats[unsure, j] = [score.value for score in mic_columns(x[rows[unsure]], y)]
        # the product over every row, as when all are exact, so an
        # exact row's mean has the bits it would have there
        means = stats @ weights / weights.sum()
    return (1 + int(np.sum(means[1:] >= means[0]))) / (strategy.permutations + 1)


# --- the full matrix -------------------------------------------------------


# the Generator named as a string: reading np.random here would import it
# with the package, on every command's start-up
_Task = tuple[tuple[str, str, str], list[PartRef], "np.random.Generator"]


def _entry_rng(seed: int, ti: int, ri: int, pi: int) -> np.random.Generator:
    # Streams keyed on structural indices, not names, so relabeling agents
    # leaves every p-value unchanged.
    return np.random.default_rng(np.random.SeedSequence([seed, ti, ri, pi]))


def _tasks(
    log: SampleLog, strategy: DetectionStrategy, conditioning: bool,
    wanted: Optional[set[str]],
) -> list[_Task]:
    """Each entry's key, the target's own parts and the entry's RNG stream,
    in matrix order.  No column is read here: the process that scores an
    entry builds its family."""
    tasks = []
    for ti, target_schema in enumerate(log.schemas):
        target = target_schema.agent_id
        if wanted is not None and target not in wanted:
            continue
        own_parts = [(target, own.name) for own in target_schema.parts] if conditioning else []
        for ri, remote_schema in enumerate(log.schemas):
            if remote_schema.agent_id == target:
                continue
            for pi, part in enumerate(remote_schema.parts):
                key = (target, remote_schema.agent_id, part.name)
                tasks.append((key, own_parts, _entry_rng(strategy.seed, ti, ri, pi)))
    return tasks


def _score_entry(
    family: list[_Candidate], strategy: DetectionStrategy, task: _Task, buffer: np.ndarray
) -> InfluenceEntry:
    """One entry from its scored candidate family: the observed search and
    the permutation test, the shuffles drawn into ``buffer``."""
    key, own_parts, rng = task
    winner, fields = _search(family, key[1:], own_parts)
    tests = _partition_tests(winner, strategy, rng, buffer)
    p_value = _p_value(tests, strategy)
    return InfluenceEntry(**fields, p_value=p_value, influenced=p_value < strategy.alpha)


def _score_share(
    log: SampleLog, strategy: DetectionStrategy, run: Sequence[_Task]
) -> tuple[list[InfluenceEntry], Optional[Exception]]:
    """The entries of ``run``, a contiguous run of tasks in matrix order,
    scored in order up to the first that raises; and that error, or None.

    The run is scored one matrix row at a time: the families of the row's
    entries in the run are built and scored together (:func:`_families`),
    then each entry is searched and tested in order.  An error in building
    or scoring the families is the row's, and is raised before any of the
    row's entries in the run."""
    buffer = np.empty((strategy.permutations + 1) * len(log.t), dtype=np.int64)
    done: list[InfluenceEntry] = []
    try:
        for target, row in groupby(run, key=lambda task: task[0][0]):
            row = list(row)
            remotes = [(task[0][1:],) for task in row]
            for task, family in zip(row, _families(log, target, row[0][1], remotes, strategy)):
                done.append(_score_entry(family, strategy, task, buffer))
    except Exception as exc:  # the caller raises the first failing run's
        return done, exc
    return done, None


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _worker_count(entries: int) -> int:
    """How many processes score the matrix, this one included: one per usable
    CPU up to one per entry (one for none), and only this one where it cannot
    fork safely, or while another thread runs that a child would lose."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return 1 if threading.active_count() > 1 else max(1, min(_cpu_count(), entries))


def _fork_share(
    log: SampleLog, strategy: DetectionStrategy, run: Sequence[_Task]
) -> Optional[tuple[int, BinaryIO]]:
    """Fork a child that scores ``run`` and pickles what
    :func:`_score_share` gives back over a pipe; the child's pid and the
    pipe's read end, or None when ``fork`` fails."""
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on fork while the process has more than one
            # OS thread.  No other Python thread runs here (see
            # _worker_count); the rest are BLAS's own pool, which is
            # fork-aware and starts again in the child.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)",
                DeprecationWarning,
            )
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the child never returns into the caller's frames
        status = 1
        try:
            os.close(read_end)
            done, failure = _score_share(log, strategy, run)
            if failure is not None:
                try:
                    pickle.loads(pickle.dumps(failure))
                except Exception:
                    failure = RuntimeError(repr(failure))
            with open(write_end, "wb") as pipe:
                pickle.dump((done, failure), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _scored(
    log: SampleLog, strategy: DetectionStrategy, tasks: Sequence[_Task]
) -> list[InfluenceEntry]:
    """Every task's entry, in order.  The tasks are cut into W contiguous
    runs in matrix order: this process forks a child for every run but the
    last, and scores the last itself together with every run it could not
    fork.  Each run stops at its first failure, so the first failing run's
    error is the lowest failing index's, as a serial loop would raise it."""
    workers = _worker_count(len(tasks))
    bounds = [len(tasks) * w // workers for w in range(workers)]
    children: list[tuple[int, BinaryIO]] = []
    runs = []
    try:
        for start, stop in zip(bounds, bounds[1:]):
            child = _fork_share(log, strategy, tasks[start:stop])
            if child is None:
                break
            children.append(child)
        mine = _score_share(log, strategy, tasks[bounds[len(children)]:])
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(f"worker process {pid} ended with code {code} "
                                   "before sending its entries")
            runs.append(pickle.loads(data))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    entries: list[InfluenceEntry] = []
    for done, failure in [*runs, mine]:
        if failure is not None:
            raise failure
        entries += done
    return entries


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
    ``targets``, a sequence of agent ids of the log (not one string),
    limits the rows computed; each entry derives its own RNG stream, so a
    row's values do not depend on which other rows are computed.
    Entries are scored in up to one process per usable CPU, forked and
    reaped inside the call; the bytes out do not depend on how many.
    """
    issues = validate_log(log)
    if issues:
        raise ValueError(f"log failed validation: {issues[:3]}")
    if len(log.schemas) < 2:
        raise InputError("schemas", f"need at least 2 agents, got {len(log.schemas)}")
    if isinstance(targets, str):
        raise InputError("targets", f"must be a sequence of agent ids, not the string {targets!r}")
    agents = {schema.agent_id for schema in log.schemas}
    for target in () if targets is None else targets:
        if target not in agents:
            raise InputError("targets", f"no agent {target!r} in the log")
    if not len(log.t):
        raise InputError("records", "need at least 1 record, got 0")
    late = [lag for lag in strategy.lag_set if lag >= len(log.t)]
    if late:
        raise InputError("lag_set", f"lag {late[0]} >= record count {len(log.t)}")
    tasks = _tasks(log, strategy, conditioning, set(targets) if targets is not None else None)
    entries = _scored(log, strategy, tasks)
    return InfluenceMatrix(
        alpha=strategy.alpha, entries={task[0]: entry for task, entry in zip(tasks, entries)}
    )
