"""Agent schemas and the sample-log format consumed by every detector.

A log is a time-ordered sequence of records, each holding every agent's
configuration-part values and one performance scalar per agent.  Nominal
and ordinal parts carry category labels; real-valued parts carry floats
inside a declared interval.

Records are the input and output form only: a log decodes them once, when
it is built, into typed columns (int64 category codes, float64 reals and
performances) and keeps every validation finding of that pass, so
extracting a column is a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from reprlib import repr as brief
from typing import Union

import numpy as np

from .series import CategorySeries, RealSeries, Series

ConfigValue = Union[str, float]
PartKey = tuple[str, str]  # (agent_id, part name)


@dataclass(frozen=True)
class Nominal:
    """Unordered categories."""

    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.categories) < 2:
            raise ValueError("nominal parts need at least 2 categories")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate category labels")


@dataclass(frozen=True)
class Ordinal:
    """Ordered categories; the declared order is the rank order."""

    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.categories) < 2:
            raise ValueError("ordinal parts need at least 2 categories")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate category labels")


@dataclass(frozen=True)
class RealInterval:
    """A real-valued part bounded to [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower < self.upper):
            raise ValueError("interval requires lower < upper")


PartKind = Union[Nominal, Ordinal, RealInterval]


@dataclass(frozen=True)
class ConfigPartSchema:
    name: str
    kind: PartKind


@dataclass(frozen=True)
class AgentSchema:
    agent_id: str
    parts: tuple[ConfigPartSchema, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.parts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate part names in agent {self.agent_id!r}")

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


@dataclass(frozen=True)
class SampleLog:
    """Schemas and records, decoded once into typed columns.

    Building a log never fails on bad values: every finding is kept for
    :func:`validate_log`, and a log with findings yields no columns.
    """

    schemas: tuple[AgentSchema, ...]
    records: tuple[SampleRecord, ...]
    _columns: dict[Selector, np.ndarray] = field(init=False, repr=False, compare=False)
    _issues: tuple[Issue, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        columns, issues = _decode(self.schemas, self.records)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_issues", issues)

    def agent(self, agent_id: str) -> AgentSchema:
        for schema in self.schemas:
            if schema.agent_id == agent_id:
                return schema
        raise KeyError(f"unknown agent {agent_id!r}")


_MISSING = object()


def _category_code(index: dict, value) -> int:
    try:
        return index.get(value, -1)
    except TypeError:  # unhashable, so never a category label
        return -1


def _decode_part(kind: PartKind, values: list) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """One part's column (category codes or reals) and its bad values as
    (record index, message)."""
    if isinstance(kind, (Nominal, Ordinal)):
        index = {label: code for code, label in enumerate(kind.categories)}
        column = np.array([_category_code(index, v) for v in values], dtype=np.int64)
        bad = np.flatnonzero(column < 0)
    else:
        column = np.array(
            [v if isinstance(v, (int, float)) else math.nan for v in values],
            dtype=np.float64,
        )
        bad = np.flatnonzero(
            ~np.isfinite(column) | (column < kind.lower) | (column > kind.upper)
        )
    found = []
    for i in bad.tolist():
        value = values[i]
        if value is _MISSING:
            message = "missing config value"
        elif isinstance(kind, (Nominal, Ordinal)):
            message = f"unknown category {value!r}"
        elif not math.isfinite(column[i]):
            message = f"non-finite value {value!r}"
        else:
            message = f"value {value!r} outside [{kind.lower}, {kind.upper}]"
        found.append((i, message))
    return column, found


def _decode(
    schemas: tuple[AgentSchema, ...], records: tuple[SampleRecord, ...]
) -> tuple[dict[Selector, np.ndarray], tuple[Issue, ...]]:
    """The column of every declared part and every agent's performance, and
    every log invariant violated, schema findings first, then by record."""
    issues: list[Issue] = []
    agents: set[str] = set()
    for schema in schemas:
        if schema.agent_id in agents:
            issues.append(Issue(None, schema.agent_id, "duplicate agent id"))
        agents.add(schema.agent_id)
    declared = {(s.agent_id, p.name) for s in schemas for p in s.parts}

    # (record index, slot, finding): the slot orders one record's findings
    # as the checks are listed, the time step first.
    found: list[tuple[int, int, Issue]] = []
    try:
        t = np.array([r.t for r in records], dtype=np.int64)
    except OverflowError:  # compare the steps as Python ints instead
        t = np.array([r.t for r in records], dtype=object)
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        for i in np.flatnonzero((t < low) | (t > high)).tolist():
            message = f"time step {brief(records[i].t)} does not fit in 64 bits"
            found.append((i, 0, Issue(i, "t", message)))
    for i in np.flatnonzero(t < 0).tolist():
        found.append((i, 0, Issue(i, "t", f"negative time step {brief(records[i].t)}")))
    for i in (np.flatnonzero(t[1:] <= t[:-1]) + 1).tolist():
        steps = f"{brief(records[i - 1].t)} -> {brief(records[i].t)}"
        message = f"time steps not strictly increasing ({steps})"
        found.append((i, 1, Issue(i, "t", message)))
    for i, record in enumerate(records):
        if not record.config.keys() <= declared:
            found += [
                (i, 2, Issue(i, f"{key[0]}.{key[1]}", "undeclared config part"))
                for key in record.config
                if key not in declared
            ]

    columns: dict[Selector, np.ndarray] = {}
    slot = 3
    for schema in schemas:
        for part in schema.parts:
            key = (schema.agent_id, part.name)
            values = [r.config.get(key, _MISSING) for r in records]
            columns[ConfigSelector(*key)], bad = _decode_part(part.kind, values)
            found += [(i, slot, Issue(i, f"{key[0]}.{key[1]}", m)) for i, m in bad]
            slot += 1
        values = [r.performance.get(schema.agent_id, _MISSING) for r in records]
        column = np.array(
            [math.nan if v is _MISSING else float(v) for v in values], dtype=np.float64
        )
        columns[PerformanceSelector(schema.agent_id)] = column
        path = f"{schema.agent_id}.perf"
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            message = "missing performance" if values[i] is _MISSING else "non-finite performance"
            found.append((i, slot, Issue(i, path, message)))
        slot += 1
    for i, record in enumerate(records):
        if not record.performance.keys() <= agents:
            found += [
                (i, slot, Issue(i, f"{agent_id}.perf", "performance for unknown agent"))
                for agent_id in record.performance
                if agent_id not in agents
            ]

    for column in columns.values():
        column.setflags(write=False)
    found.sort(key=lambda f: f[:2])
    return columns, tuple(issues + [issue for _, _, issue in found])


def validate_log(log: SampleLog) -> list[Issue]:
    """Every log invariant the log violates; an empty list means it is valid."""
    return list(log._issues)


def extract_series(log: SampleLog, source: Selector, lag: int = 0) -> Series:
    """Slice one stored column, aligned for a configuration-to-performance lag.

    With lag L a configuration column keeps its first ``N - L`` entries and
    a performance column drops its first L, so that configuration at time t
    lines up with performance at time t + L.  Both sides end up with the
    same length.  A log with validation findings has no columns.
    """
    if log._issues:
        raise ValueError(f"log failed validation: {list(log._issues[:3])}")
    n = len(log.records)
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if lag >= n:
        raise ValueError(f"lag {lag} >= record count {n}")

    if isinstance(source, PerformanceSelector):
        log.agent(source.agent_id)
        return RealSeries(log._columns[source][lag:])

    kind = log.agent(source.agent_id).part(source.part).kind
    column = log._columns[source][: n - lag]
    if isinstance(kind, RealInterval):
        return RealSeries(column)
    return CategorySeries(column, len(kind.categories))
