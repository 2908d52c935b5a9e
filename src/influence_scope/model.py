"""Agent schemas and the sample-log format consumed by every detector.

A log holds, at each time step, every agent's configuration-part values
and one performance scalar per agent.  Nominal and ordinal parts carry
category labels; real-valued parts carry floats inside a declared interval.

The columns are the log: a time column, one typed column per declared part
(int64 category codes or float64 reals) and one float64 performance column
per agent.  They are decoded once, with every validation finding, from one
value list per column that the readers and the simulator fill directly, so
validation returns stored findings and extracting a column is a slice.
Python values come back out ``CHUNK`` steps at a time, so no reader of
them holds a whole log's worth.  A per-step :class:`SampleRecord` is only
a constructor input and a read-only view of a valid log.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from reprlib import repr as brief
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import InputError, expect, finite, is_number
from .series import CategorySeries, RealSeries, Series

ConfigValue = Union[str, float]
PartKey = tuple[str, str]  # (agent_id, part name)


def _check_categories(kind) -> None:
    for i, label in enumerate(kind.categories):
        expect(label, str, f"categories[{i}]")
    if len(kind.categories) < 2:
        raise InputError("categories",
                         f"{type(kind).__name__.lower()} parts need at least 2 categories")
    if len(set(kind.categories)) != len(kind.categories):
        raise InputError("categories", "duplicate category labels")


@dataclass(frozen=True)
class Nominal:
    """Unordered categories."""

    categories: tuple[str, ...]
    __post_init__ = _check_categories


@dataclass(frozen=True)
class Ordinal:
    """Ordered categories; the declared order is the rank order."""

    categories: tuple[str, ...]
    __post_init__ = _check_categories


@dataclass(frozen=True)
class RealInterval:
    """A real-valued part bounded to [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        finite(self.lower, "lower")
        finite(self.upper, "upper")
        if not (self.lower < self.upper):
            raise ValueError("interval requires lower < upper")


PartKind = Union[Nominal, Ordinal, RealInterval]


_NAME = re.compile(r"[A-Za-z0-9_]+")


def check_name(field: str, noun: str, name: str) -> None:
    """Refuse an agent id or part name outside ``[A-Za-z0-9_]+`` at
    ``field``: names join as ``agent.part`` into a log's config keys and
    CSV header, so a dot in one would let two parts share a key."""
    if not _NAME.fullmatch(name):
        raise InputError(field, f"{noun} {brief(name)} not in [A-Za-z0-9_]+")


@dataclass(frozen=True)
class ConfigPartSchema:
    name: str
    kind: PartKind

    def __post_init__(self) -> None:
        check_name("name", "part name", self.name)
        if self.name == "perf":  # the CSV header's agent.perf is the performance
            raise InputError("name", "part name 'perf' is taken by the performance column")


@dataclass(frozen=True)
class AgentSchema:
    agent_id: str
    parts: tuple[ConfigPartSchema, ...]

    def __post_init__(self) -> None:
        check_name("agent_id", "agent id", self.agent_id)
        names = [p.name for p in self.parts]
        if len(set(names)) != len(names):
            raise InputError("parts", f"duplicate part names in agent {self.agent_id!r}")

    def part(self, name: str) -> ConfigPartSchema:
        for p in self.parts:
            if p.name == name:
                return p
        raise KeyError(f"agent {self.agent_id!r} has no part {name!r}")


@dataclass(frozen=True)
class SampleRecord:
    t: int
    config: dict[PartKey, ConfigValue]
    performance: dict[str, float]


@dataclass(frozen=True)
class ConfigSelector:
    agent_id: str
    part: str


@dataclass(frozen=True)
class PerformanceSelector:
    agent_id: str


Selector = Union[ConfigSelector, PerformanceSelector]


@dataclass(frozen=True)
class Issue:
    """One validation finding; record_index is None for schema-level issues."""

    record_index: int | None
    path: str
    message: str


NO_VALUE = object()  # the value of a part or performance that a step does not give

# Steps per chunk of :meth:`SampleLog.value_chunks`, the most that a log
# writer holds as Python values and text at once.
CHUNK = 4096


class SampleLog:
    """Schemas, a time column, one typed column per declared part and per
    agent's performance, and the validation findings of their values.

    ``SampleLog(schemas, records)`` moves records into columns, and
    :meth:`from_columns` takes the value lists a reader or the simulator
    filled; :meth:`value_chunks` gives the columns back as Python values,
    a chunk of steps at a time, which :attr:`records`, the log writer and
    ``simulate``'s summary read.  Building a log never fails on bad values:
    every finding is kept for :func:`validate_log`.  A bad value has no
    column code, so a log with findings gives no value chunks, records,
    series or files.
    """

    __slots__ = ("schemas", "t", "columns", "issues")

    def __init__(self, schemas: Sequence[AgentSchema], records: Sequence[SampleRecord]) -> None:
        records, self.schemas = tuple(records), tuple(schemas)
        configs, performances = [r.config for r in records], [r.performance for r in records]
        columns = transpose(self.schemas, configs, performances)
        self.t, self.columns, self.issues = _decode(self.schemas, [r.t for r in records], *columns)

    @classmethod
    def from_columns(cls, schemas, t, columns, undeclared=(), unknown=()) -> SampleLog:
        """The log of the time steps ``t`` and one value list per part, then
        per performance, in schema order (``NO_VALUE`` where a step has
        none), with the strays that :func:`transpose` describes."""
        log = cls.__new__(cls)
        log.schemas = tuple(schemas)
        log.t, log.columns, log.issues = _decode(log.schemas, t, columns, undeclared, unknown)
        return log

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleLog):
            return NotImplemented
        arrays = [(log.t, *log.columns.values()) for log in (self, other)]
        return (self.schemas, self.issues) == (other.schemas, other.issues) and all(
            map(np.array_equal, *arrays))

    def agent(self, agent_id: str) -> AgentSchema:
        for schema in self.schemas:
            if schema.agent_id == agent_id:
                return schema
        raise KeyError(f"unknown agent {agent_id!r}")

    def check_valid(self) -> None:
        """Raise ValueError if the log has validation findings."""
        if self.issues:
            raise ValueError(f"log failed validation: {list(self.issues[:3])}")

    def value_chunks(self) -> Iterator[tuple[list[int], dict[PartKey, list], dict[str, list]]]:
        """The columns of a valid log as Python values, as records hold
        them, ``CHUNK`` steps at a time: per chunk the time steps, each
        part's values (category labels or floats) keyed by (agent, part),
        and each agent's performances keyed by agent id, in schema order.
        A log with findings raises here, before any chunk is given."""
        self.check_valid()
        kinds = {(s.agent_id, p.name): p.kind for s in self.schemas for p in s.parts}
        labels = {key: np.array(kind.categories, dtype=object) for key, kind in kinds.items()
                  if not isinstance(kind, RealInterval)}

        def chunk(cut: slice) -> tuple[list[int], dict[PartKey, list], dict[str, list]]:
            parts = {}
            for key in kinds:
                column = self.columns[ConfigSelector(*key)][cut]
                parts[key] = (labels[key][column] if key in labels else column).tolist()
            return self.t[cut].tolist(), parts, {
                s.agent_id: self.columns[PerformanceSelector(s.agent_id)][cut].tolist()
                for s in self.schemas}
        return (chunk(slice(i, i + CHUNK)) for i in range(0, len(self.t), CHUNK))

    @property
    def records(self) -> tuple[SampleRecord, ...]:
        """The steps of a valid log as records."""
        return tuple(SampleRecord(step, dict(zip(parts, v)), dict(zip(perfs, v[len(parts):])))
                     for t, parts, perfs in self.value_chunks()
                     for step, *v in zip(t, *parts.values(), *perfs.values()))


def transpose(schemas, configs, performances, key=lambda *key: key) -> tuple:
    """Each step's dict of part values, keyed by ``key(agent, part)``, and of
    performances, keyed by agent id, as :meth:`SampleLog.from_columns` takes
    them: the value lists, the (step, ``"agent.part"``) of each value of an
    undeclared part and the (step, agent id) of each unknown performance."""
    parts = [key(s.agent_id, p.name) for s in schemas for p in s.parts]
    agents = [s.agent_id for s in schemas]
    columns = [[d.get(k, NO_VALUE) for d in configs] for k in parts]
    columns += [[d.get(a, NO_VALUE) for d in performances] for a in agents]
    declared, known = set(parts), set(agents)
    undeclared = [(i, k if isinstance(k, str) else "{}.{}".format(*k))
                  for i, d in enumerate(configs) if not d.keys() <= declared
                  for k in d if k not in declared]
    unknown = [(i, a) for i, d in enumerate(performances)
               if not d.keys() <= known for a in d if a not in known]
    return columns, undeclared, unknown


def _decode_part(
    kind: Optional[PartKind], values: Sequence
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """One column (category codes, or reals for a real part and for a
    performance, whose ``kind`` is None) and its bad values as (step index,
    message)."""
    if isinstance(kind, (Nominal, Ordinal)):
        index = {label: code for code, label in enumerate(kind.categories)}
        column = np.array([index.get(v, -1) if isinstance(v, str) else -1 for v in values],
                          dtype=np.int64)
        bad = np.flatnonzero(column < 0)
    elif kind is None:
        column = np.array([math.nan if v is NO_VALUE else float(v) for v in values], dtype=float)
        bad = np.flatnonzero(~np.isfinite(column))
    else:
        # no boolean reads as a number, and an int beyond the float range as nan
        reals = [v if type(v) is float or is_number(v) and abs(v) <= sys.float_info.max
                 else math.nan for v in values]
        column = np.array(reals, dtype=float)
        bad = np.flatnonzero(~np.isfinite(column) | (column < kind.lower) | (column > kind.upper))
    found = []
    for i in bad.tolist():
        value = values[i]
        if kind is None:
            message = "missing performance" if value is NO_VALUE else "non-finite performance"
        elif value is NO_VALUE:
            message = "missing config value"
        elif isinstance(kind, (Nominal, Ordinal)):
            message = f"unknown category {brief(value)}"
        elif is_number(value) and (isinstance(value, int) or math.isfinite(value)):
            message = f"value {brief(value)} outside [{kind.lower}, {kind.upper}]"
        else:
            message = f"non-finite value {brief(value)}"
        found.append((i, message))
    return column, found


def _decode(
    schemas: tuple[AgentSchema, ...], t: Sequence, columns: Sequence[Sequence],
    undeclared: Sequence[tuple[int, str]], unknown: Sequence[tuple[int, str]],
) -> tuple[np.ndarray, dict[Selector, np.ndarray], tuple[Issue, ...]]:
    """The time column, the typed column of every declared part and every
    agent's performance (see :meth:`SampleLog.from_columns`), and every log
    invariant violated, schema findings first, then by step."""
    ids = [schema.agent_id for schema in schemas]
    issues = [Issue(None, a, "duplicate agent id") for k, a in enumerate(ids) if a in ids[:k]]

    # (step index, slot, finding): the slot orders one step's findings as
    # the checks are listed, the time step first.
    found: list[tuple[int, int, Issue]] = []
    try:
        times = np.array(t, dtype=np.int64)
    except OverflowError:  # compare the steps as Python ints instead
        times = np.array(t, dtype=object)
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        for i in np.flatnonzero((times < low) | (times > high)).tolist():
            message = f"time step {brief(t[i])} does not fit in 64 bits"
            found.append((i, 0, Issue(i, "t", message)))
    for i in np.flatnonzero(times < 0).tolist():
        found.append((i, 0, Issue(i, "t", f"negative time step {brief(t[i])}")))
    for i in (np.flatnonzero(times[1:] <= times[:-1]) + 1).tolist():
        steps = f"{brief(t[i - 1])} -> {brief(t[i])}"
        found.append((i, 1, Issue(i, "t", f"time steps not strictly increasing ({steps})")))
    found += [(i, 2, Issue(i, path, "undeclared config part")) for i, path in undeclared]

    parts = [ConfigSelector(s.agent_id, p.name) for s in schemas for p in s.parts]
    values = dict(zip(parts + [PerformanceSelector(a) for a in ids], columns))
    typed: dict[Selector, np.ndarray] = {}
    slot = 3
    for schema in schemas:  # its parts, then its performance (kind None)
        keys = [(ConfigSelector(schema.agent_id, p.name), p.kind) for p in schema.parts]
        for key, kind in keys + [(PerformanceSelector(schema.agent_id), None)]:
            typed[key], bad = _decode_part(kind, values[key])
            path = f"{key.agent_id}.{'perf' if kind is None else key.part}"
            found += [(i, slot, Issue(i, path, m)) for i, m in bad]
            slot += 1
    found += [(i, slot, Issue(i, f"{agent}.perf", "performance for unknown agent"))
              for i, agent in unknown]

    for column in (times, *typed.values()):
        column.setflags(write=False)
    found.sort(key=lambda f: f[:2])
    return times, typed, tuple(issues + [issue for _, _, issue in found])


def validate_log(log: SampleLog) -> list[Issue]:
    """Every log invariant the log violates; an empty list means it is valid."""
    return list(log.issues)


def extract_series(log: SampleLog, source: Selector, lag: int = 0) -> Series:
    """Slice one stored column, aligned for a configuration-to-performance lag.

    With lag L a configuration column keeps its first ``N - L`` entries and
    a performance column drops its first L, so that configuration at time t
    lines up with performance at time t + L.  Both sides end up with the
    same length.  A log with validation findings has no columns.
    """
    log.check_valid()
    n = len(log.t)
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if lag >= n:
        raise ValueError(f"lag {lag} >= record count {n}")

    if isinstance(source, PerformanceSelector):
        return RealSeries(log.columns[source][lag:])

    kind = log.agent(source.agent_id).part(source.part).kind
    column = log.columns[source][: n - lag]
    if isinstance(kind, RealInterval):
        return RealSeries(column)
    return CategorySeries(column, len(kind.categories))
