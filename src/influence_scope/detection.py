"""Mutual-influence detection.

Builds the candidate families that score a remote agent's configuration
part against a target agent's performance, selects each entry's winner and
draws its permutations; :mod:`measures` does the scoring, observed and
permuted.  Each matrix entry searches one candidate family: at every lag,
a raw candidate over all samples and one candidate per own configuration
part of the target, partitioned by that part's value (never by the full
own configuration, so partitions stay large).  Influences that cancel out
in the raw view show inside the partitions.  A matrix row's target side
(each lag's partitions and the performance in each, binned for MI) is
built once; each entry adds its remote column.  The better of the best raw
and the best conditioned candidate is the headline, and a seeded
permutation test of that candidate, shuffling the remote column within
each of its partitions, gives its p-value.

:func:`influence_matrix` builds every row's target side in the calling
process, then forks one child per further usable CPU (W processes in all,
at most one per entry).  Worker w scores the entries k = w (mod W) in
matrix order, each in full, and a child pickles its entries back over a
pipe; the caller scores every entry itself where it cannot fork, or while
another thread runs.  Each entry's RNG stream is private to it and keyed
on structural indices, and is drawn partition by partition in order, so
the bytes out do not depend on W or on the process an entry ran in.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass, replace
from reprlib import repr as brief
from typing import BinaryIO, Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateSeriesError, InputError
from .measures import (
    LEAST_SAMPLES,
    DependencyScore,
    Measure,
    discrete_mutual_information,
    mic,
    linear_correlation,
    rank_correlation,
    permuted_scores,
    quantile_bins,
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
the permutation test's indices: each of the W processes that score a matrix
holds one (permutations + 1) x N int64 buffer, the entry being scored.  At
the cap that is 10 001 x 8 bytes, about 80 kB per sample and process
(640 MB at N = 8000); MIC's kernel adds four work arrays of one partition's
size, while MI builds its cell index in the drawn indices."""


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


def _categorize(series: Series | np.ndarray, bins: int) -> Optional[CategorySeries]:
    """Categories as they are, real values in quantile bins, None for
    constant real values."""
    if isinstance(series, CategorySeries):
        return series
    try:
        return quantile_bins(series, bins)[0]
    except DegenerateSeriesError:
        return None


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
    if x is None or y is None or n < LEAST_SAMPLES.get(strategy.measure_kind, 0):
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


# --- the permutation test -------------------------------------------------


def _partition_tests(
    c: _Candidate, strategy: DetectionStrategy, buffer: np.ndarray
) -> list[tuple[object, object, np.ndarray]]:
    """(remote, performance, shuffle block) of each partition the
    candidate's permutation test scores, on the columns the observed scorer
    read: the raw candidate's one partition whatever its size, an own
    part's from ``min_partition_size`` samples.  The blocks are C-ordered
    (permutations + 1, count) views of ``buffer``, back to back, with every
    row the identity."""
    least = 0 if c.own_part is None else strategy.min_partition_size
    reps = strategy.permutations + 1
    tests, start = [], 0
    for (_, idx), x, y in zip(c.partitions, c.remote, c.perf):
        if len(idx) >= least:
            rows = buffer[start : start + reps * len(idx)].reshape(reps, len(idx))
            rows[:] = np.arange(len(idx))
            tests.append((x, y, rows))
            start += reps * len(idx)
    return tests


def _draw_permutations(blocks: Sequence[np.ndarray], rng: np.random.Generator) -> None:
    """Shuffle rows 1 onward of each identity block in turn, as successive
    ``rng.permutation`` calls would, with one ``permuted`` call per block."""
    for rows in blocks:
        rng.permuted(rows[1:], axis=1, out=rows[1:])


def _p_value(
    tests: Sequence[tuple[object, object, np.ndarray]], strategy: DetectionStrategy
) -> float:
    """The share of shuffles, the identity counted, whose kernel score is at
    least the observed one, partition scores aggregated as the
    sample-count-weighted mean; 1 when no partition is scored.  The kernels
    may overwrite the blocks."""
    if not tests:
        return 1.0
    weights = np.array([rows.shape[1] for _, _, rows in tests], dtype=np.float64)
    stats = np.empty((strategy.permutations + 1, len(tests)))
    for j, (x, y, rows) in enumerate(tests):
        stats[:, j] = permuted_scores(strategy.measure_kind, x, y, rows)
    stats = stats @ weights / weights.sum()
    return (1 + int(np.sum(stats[1:] >= stats[0]))) / (strategy.permutations + 1)


# --- the full matrix -------------------------------------------------------


# the Generator named as a string: reading np.random here would import it
# with the package, on every command's start-up
_Task = tuple[tuple[str, str, str], list[_Candidate], list[PartRef], "np.random.Generator"]


def _entry_rng(seed: int, ti: int, ri: int, pi: int) -> np.random.Generator:
    # Streams keyed on structural indices, not names, so relabeling agents
    # leaves every p-value unchanged.
    return np.random.default_rng(np.random.SeedSequence([seed, ti, ri, pi]))


def _search(
    family: Sequence[_Candidate],
    remote_part: PartRef,
    own_parts: Sequence[PartRef],
    strategy: DetectionStrategy,
) -> tuple[_Candidate, dict]:
    """The entry's observed search: its best raw and best conditioned
    candidate.  Gives the better of the two, whose permutation test is the
    entry's, and the entry's fields but its p-value."""
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
    return winner, dict(
        raw=raw,
        best_conditioned=best_cond,
        best_lag=best_lag,
        headline=headline,
        insufficient_data=raw.degenerate and (best_cond is None or best_cond.insufficient_data),
    )


def _tasks(
    log: SampleLog, strategy: DetectionStrategy, conditioning: bool,
    wanted: Optional[set[str]],
) -> list[_Task]:
    """Each entry's key, its row's target side, the target's own parts and
    the entry's RNG stream, in matrix order.  Every row's side is built
    here, once, before any entry is scored."""
    tasks = []
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
                key = (target, remote_schema.agent_id, part.name)
                tasks.append((key, side, own_parts, _entry_rng(strategy.seed, ti, ri, pi)))
    return tasks


def _score_entry(
    log: SampleLog, strategy: DetectionStrategy, task: _Task, buffer: np.ndarray
) -> InfluenceEntry:
    """One entry: its candidate family, observed search and permutation
    test, the shuffles drawn into ``buffer``."""
    key, side, own_parts, rng = task
    family = _with_remote(side, log, (key[1:],), strategy)
    winner, fields = _search(family, key[1:], own_parts, strategy)
    tests = _partition_tests(winner, strategy, buffer)
    _draw_permutations([rows for _, _, rows in tests], rng)
    p_value = _p_value(tests, strategy)
    return InfluenceEntry(**fields, p_value=p_value, influenced=p_value < strategy.alpha)


def _score_share(
    log: SampleLog, strategy: DetectionStrategy, tasks: Sequence[_Task], share: Iterable[int]
) -> tuple[dict[int, InfluenceEntry], Optional[tuple[int, Exception]]]:
    """The entries at the indices ``share``, scored in order up to the
    first that raises, by index; and that index and error, or None."""
    buffer = np.empty((strategy.permutations + 1) * len(log.t), dtype=np.int64)
    done = {}
    for k in share:
        try:
            done[k] = _score_entry(log, strategy, tasks[k], buffer)
        except Exception as exc:  # the caller raises the lowest failing index's
            return done, (k, exc)
    return done, None


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _worker_count(entries: int) -> int:
    """How many processes score the matrix, this one included: one per
    usable CPU up to one per entry, and only this one where it cannot fork
    safely, or while another thread runs that a child would lose."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return 1 if threading.active_count() > 1 else min(_cpu_count(), entries)


def _fork_share(
    log: SampleLog, strategy: DetectionStrategy, tasks: Sequence[_Task], share: Iterable[int]
) -> Optional[tuple[int, BinaryIO]]:
    """Fork a child that scores ``share`` and pickles what
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
            done, failure = _score_share(log, strategy, tasks, share)
            if failure is not None:
                k, exc = failure
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    failure = (k, RuntimeError(repr(exc)))
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
    """Every task's entry, in order.  Worker w of W scores the entries k with
    k = w (mod W): this process is worker 0 and forks the others, and takes
    on the share of any it could not fork.  The error of the lowest failing
    index is raised, as a serial loop would raise it."""
    workers = _worker_count(len(tasks))
    children: list[tuple[int, BinaryIO]] = []
    try:
        for w in range(1, workers):
            child = _fork_share(log, strategy, tasks, range(w, len(tasks), workers))
            if child is None:
                break
            children.append(child)
        forked = 1 + len(children)
        mine = (k for k in range(len(tasks)) if not 0 < k % workers < forked)
        done, failure = _score_share(log, strategy, tasks, mine)
        failures = [failure] if failure else []
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
            child_done, child_failure = pickle.loads(data)
            done.update(child_done)
            failures += [child_failure] if child_failure else []
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [done[k] for k in range(len(tasks))]


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
    Entries are scored in up to one process per usable CPU, forked and
    reaped inside the call; the bytes out do not depend on how many.
    """
    issues = validate_log(log)
    if issues:
        raise ValueError(f"log failed validation: {issues[:3]}")
    if len(log.schemas) < 2:
        raise ValueError("need at least 2 agents")
    tasks = _tasks(log, strategy, conditioning, set(targets) if targets is not None else None)
    entries = _scored(log, strategy, tasks)
    return InfluenceMatrix(
        alpha=strategy.alpha, entries={task[0]: entry for task, entry in zip(tasks, entries)}
    )
