"""Canonical file formats: sample logs, influence matrices, reports.

JSON is the primary interchange format for logs (it embeds the agent
schemas) and for matrices.  Logs additionally serialize to a flat CSV with
header ``t,<agent>.<part>,...,<agent>.perf,...`` so they stay inspectable
with standard tools; reading CSV back requires the schemas.

One encoder writes matrices, strategies, recommendations, schemas and
system descriptors from their dataclass fields; one strict decoder reads
strategies, schemas and descriptors back, each value checked against its
field's type (no string or boolean is read as a number).  All
serialization is canonical: sorted keys, shortest round-trip float
formatting; serialize -> parse -> serialize is byte-identical for valid
inputs.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from reprlib import repr as brief
from typing import Union, get_args, get_origin, get_type_hints

from .detection import DetectionStrategy, InfluenceMatrix
from .errors import InputError, expect, finite, integer, natural, need, number
from .model import AgentSchema, Nominal, Ordinal, RealInterval, SampleLog, transpose
from .taxonomy import (
    InfiniteRealPart, NominalPart, OrdinalPart, StrategyRecommendation, SystemDescriptor
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")

# The (key, tag) of each part kind: ``_data`` writes the tag, and
# ``_from_data`` reads it to tell the members of a ``Union`` apart.
_TAGS = {Nominal: ("type", "nominal"), Ordinal: ("type", "ordinal"),
         RealInterval: ("type", "real"), NominalPart: ("kind", "nominal"),
         OrdinalPart: ("kind", "ordinal"), InfiniteRealPart: ("kind", "infinite_real")}
# The one field whose JSON key is not its name.
_KEYS = {"measure_kind": "measure"}


def _data(value):
    """JSON data of a result: a dataclass gives one key per field, named as
    in ``_KEYS``, and a part kind's tag; enums give their values and tuples
    lists."""
    if is_dataclass(value):
        data = {_KEYS.get(f.name, f.name): _data(getattr(value, f.name)) for f in fields(value)}
        if type(value) in _TAGS:
            key, tag = _TAGS[type(value)]
            data[key] = tag
        return data
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_data(v) for v in value]
    return value


def _from_data(cls, data, path: str):
    """A ``cls`` built from JSON data, the inverse of ``_data``.  An absent
    field takes its default, and each value must fit its field's type; a
    key that names no field, a bad value, and a value the constructor
    refuses each raise :class:`InputError` at its path."""
    at = path + "." if path else ""
    hints = get_type_hints(cls)
    known = {_KEYS.get(f.name, f.name): f for f in fields(cls)}
    tag_key = _TAGS.get(cls, (None,))[0]
    values = {}
    for key, value in expect(data, dict, path).items():
        if key == tag_key:
            continue
        if key not in known:
            noun = re.sub(r".*(?=[A-Z])", "", cls.__name__).lower()  # DetectionStrategy: strategy
            raise InputError(at + key, f"not a {noun} field")
        name = known[key].name
        values[name] = _typed(hints[name], value, at + key)
    for key, f in known.items():
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise InputError(at + key, "missing field")
    try:
        return cls(**values)
    except InputError as exc:  # a check that names its field, such as max_lag
        raise InputError(at + exc.path, exc.message) from None
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def _typed(hint, value, path: str):
    """``value`` read as JSON data of the type ``hint``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and type(None) in args:  # Optional[X]
        return None if value is None else _typed(args[0], value, path)
    if origin is Union:  # part kinds, told apart by their tag
        key = _TAGS[args[0]][0]
        tag = need(expect(value, dict, path), key, path + ".")
        for kind in args:
            if _TAGS[kind][1] == tag:
                return _from_data(kind, value, path)
        raise InputError(f"{path}.{key}", f"unknown part kind {brief(tag)}")
    if origin is tuple:  # tuple[X, ...]
        items = expect(value, list, path)
        return tuple(_typed(args[0], v, f"{path}[{i}]") for i, v in enumerate(items))
    if is_dataclass(hint):
        return _from_data(hint, value, path)
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise InputError(path, f"{brief(value)} is not a valid {hint.__name__}") from None
    if hint is int:
        return integer(value, path)
    if hint is float:
        return finite(value, path)
    return expect(value, hint, path)  # bool or str


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _check_names(log: SampleLog) -> None:
    for schema in log.schemas:
        if not _NAME_RE.match(schema.agent_id):
            raise ValueError(f"agent id {schema.agent_id!r} not in [A-Za-z0-9_]+")
        for part in schema.parts:
            if not _NAME_RE.match(part.name):
                raise ValueError(f"part name {part.name!r} not in [A-Za-z0-9_]+")


# --- sample logs: JSON -------------------------------------------------------


def log_to_dict(log: SampleLog) -> dict:
    _check_names(log)
    records = [{"t": t, "config": config, "performance": performance}
               for t, config, performance in log.steps("{}.{}".format)]
    return {"schemas": _data(log.schemas), "records": records}


def log_from_dict(data: dict) -> SampleLog:
    """Build a log from parsed JSON, each record's values straight into their
    columns.  A field that cannot be read raises :class:`InputError` at its
    path; values that read but do not fit the schemas are validation
    findings of the log (see ``validate_log``)."""
    schemas = _typed(tuple[AgentSchema, ...], need(expect(data, dict, ""), "schemas"), "schemas")
    t, configs, performances = [], [], []
    for i, r in enumerate(need(data, "records", kind=list)):
        # Plain indexing keeps the read fast; ``field`` names what failed,
        # and the checks below raise with no path of their own.
        field = "config"
        try:
            configs.append(expect(r["config"], dict, ""))
            field = "t"
            t.append(r["t"] if type(r["t"]) is int else integer(r["t"], ""))
            field = "performance"
            for agent, value in expect(r["performance"], dict, "").items():
                if type(value) is not float:
                    field = "performance." + agent
                    # a non-finite number reads, and is a finding of the log
                    float(expect(value, float, ""))
            performances.append(r["performance"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            expect(r, dict, f"records[{i}]")
            message = "missing field" if isinstance(exc, KeyError) else str(exc)
            raise InputError(f"records[{i}].{field}", message) from None
    columns = transpose(schemas, configs, performances, "{}.{}".format)
    return SampleLog.from_columns(schemas, t, *columns)


def log_to_json(log: SampleLog) -> str:
    return _canonical_json(log_to_dict(log))


def log_from_json(text: str) -> SampleLog:
    return log_from_dict(json.loads(text))


# --- sample logs: CSV ---------------------------------------------------------


def _header(schemas) -> list[str]:
    return ["t", *(f"{s.agent_id}.{p.name}" for s in schemas for p in s.parts),
            *(f"{s.agent_id}.perf" for s in schemas)]


def log_to_csv(log: SampleLog) -> str:
    _check_names(log)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # writes floats by repr
    writer.writerow(_header(log.schemas))
    writer.writerows((t, *config.values(), *performance.values())
                     for t, config, performance in log.steps())
    return buf.getvalue()


def log_from_csv(text: str, schemas: tuple[AgentSchema, ...]) -> SampleLog:
    """Build a log from the CSV :func:`log_to_csv` writes.  A header cell
    that is wrong, missing or extra raises :class:`InputError` at
    ``header[j]``.  A row with a missing or extra cell, and a cell that does
    not read as its column's type (an integer ``t``, a number for a real
    part or a performance), raise :class:`InputError` at
    ``rows[i].<column>``, or ``rows[i][j]`` for an extra cell, counting data
    rows from 0 after the header."""
    reader = csv.reader(io.StringIO(text))
    header, expected = next(reader, []), _header(schemas)
    for j, (found, name) in enumerate(zip(header, expected)):
        if found != name:
            raise InputError(f"header[{j}]", f"expected {brief(name)}, found {brief(found)}")
    j = min(len(header), len(expected))
    if len(header) < len(expected):
        raise InputError(f"header[{j}]", f"missing cell, expected {brief(expected[j])}")
    if len(header) > len(expected):
        raise InputError(f"header[{j}]", f"extra cell {brief(header[j])}")
    rows = list(reader)
    for i, row in enumerate(rows):
        if len(row) < len(header):
            raise InputError(f"rows[{i}].{header[len(row)]}", "missing cell")
        if len(row) > len(header):
            raise InputError(f"rows[{i}][{len(header)}]", f"extra cell {brief(row[len(header)])}")
    reads = [int] + [str if isinstance(p.kind, (Nominal, Ordinal)) else float
                     for s in schemas for p in s.parts] + [float] * len(schemas)
    columns = []
    for name, read, cells in zip(header, reads, zip(*rows) if rows else [()] * len(header)):
        column = []
        try:
            for cell in cells:
                column.append(read(cell))
        except ValueError:
            kind = "an integer" if read is int else "a number"
            message = f"expected {kind}, got {brief(cells[len(column)])}"
            raise InputError(f"rows[{len(column)}].{name}", message) from None
        columns.append(column)
    t, *columns = columns
    return SampleLog.from_columns(schemas, t, columns)


# --- strategies ---------------------------------------------------------------


def strategy_to_dict(strategy: DetectionStrategy) -> dict:
    return _data(strategy)


def recommendation_to_json(recommendation: StrategyRecommendation) -> str:
    return _canonical_json(_data(recommendation))


def strategy_from_dict(data: dict) -> DetectionStrategy:
    return _from_data(DetectionStrategy, data, "")


# --- system descriptors -----------------------------------------------------------


def descriptor_to_dict(descriptor: SystemDescriptor) -> dict:
    return _data(descriptor)


def descriptor_from_dict(data: dict) -> SystemDescriptor:
    return _from_data(SystemDescriptor, data, "")


# --- influence matrices --------------------------------------------------------


def matrix_to_dict(matrix: InfluenceMatrix) -> dict:
    entries = [
        {"target": target, "remote_agent": remote, "remote_part": part,
         **_data(matrix.entries[(target, remote, part)])}
        for target, remote, part in sorted(matrix.entries)
    ]
    return {"alpha": matrix.alpha, "entries": entries}


def matrix_to_json(matrix: InfluenceMatrix) -> str:
    return _canonical_json(matrix_to_dict(matrix))


def matrix_data_from_json(text: str) -> dict:
    """Parse a matrix for ``render_report`` and ``matrix_summary_csv``,
    checking the presence and type of every field they read."""
    data = expect(json.loads(text), dict, "")
    number(data, "alpha")
    for i, e in enumerate(need(data, "entries", kind=list)):
        at = f"entries[{i}]."
        expect(e, dict, at[:-1])
        for key in ("target", "remote_agent", "remote_part"):
            need(e, key, at, str)
        natural(e, "best_lag", at)
        need(e, "influenced", at, bool)
        number(e, "headline", at)
        number(e, "p_value", at)
        cond = e.get("best_conditioned")
        if cond and expect(cond, dict, at + "best_conditioned").get("per_partition"):
            at += "best_conditioned."
            if need(cond, "aggregate", at) is not None:
                number(cond, "aggregate", at)
            cp = cond.get("conditioning_part")
            if cp and len(expect(cp, list, at + "conditioning_part")) < 2:
                raise InputError(at + "conditioning_part", "expected [agent, part]")
            for k, name in enumerate(cp or ()):
                expect(name, str, f"{at}conditioning_part[{k}]")
            for j, p in enumerate(expect(cond["per_partition"], list, at + "per_partition")):
                p_at = f"{at}per_partition[{j}]."
                need(expect(p, dict, p_at[:-1]), "label", p_at, str)
                natural(p, "count", p_at)
                number(need(p, "score", p_at, dict), "value", p_at + "score.")
    return data


def matrix_summary_csv(matrix_data: dict) -> str:
    """Flat per-entry summary from a matrix dict (as parsed from JSON)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["target", "remote_agent", "remote_part", "score", "p_value", "influenced"])
    for e in matrix_data["entries"]:
        writer.writerow(
            [
                e["target"],
                e["remote_agent"],
                e["remote_part"],
                repr(float(e["headline"])),
                repr(float(e["p_value"])),
                str(bool(e["influenced"])).lower(),
            ]
        )
    return buf.getvalue()


def render_report(matrix_data: dict) -> str:
    """Human-readable report: flagged influences ranked first, then the
    rest, each with its per-partition table when one exists."""
    lines = []
    entries = sorted(
        matrix_data["entries"],
        key=lambda e: (not e["influenced"], -float(e["headline"])),
    )
    flagged = [e for e in entries if e["influenced"]]
    lines.append(f"influence report: {len(matrix_data['entries'])} entries, "
                 f"{len(flagged)} flagged (alpha={matrix_data['alpha']})")
    lines.append("")
    for rank, e in enumerate(entries, start=1):
        mark = "INFLUENCED" if e["influenced"] else "no influence"
        lines.append(
            f"{rank}. {e['target']} <- {e['remote_agent']}.{e['remote_part']}: "
            f"score={e['headline']:.6g} p={e['p_value']:.6g} lag={e['best_lag']} [{mark}]"
        )
        cond = e.get("best_conditioned")
        if cond and cond.get("per_partition"):
            cp = cond.get("conditioning_part")
            cp_name = f"{cp[0]}.{cp[1]}" if cp else "(none)"
            lines.append(f"   conditioned on {cp_name}, aggregate={cond['aggregate']}")
            for p in cond["per_partition"]:
                lines.append(
                    f"     partition {p['label']}: n={p['count']} "
                    f"score={p['score']['value']:.6g}"
                )
    return "\n".join(lines) + "\n"
