"""Canonical file formats: sample logs, influence matrices, reports.

JSON is the primary interchange format for logs (it embeds the agent
schemas) and for matrices.  Logs additionally serialize to a flat CSV with
header ``t,<agent>.<part>,...,<agent>.perf,...`` so they stay inspectable
with standard tools.  One writer, :func:`write_log`, writes both files a
chunk of steps at a time, each chunk's floats formatted once: the JSON
records fill one row template, giving the bytes of the canonical
``json.dumps(sort_keys=True, indent=2)``, and ``csv.writer`` writes the
CSV rows.

One encoder writes matrices, strategies, recommendations, schemas and
system descriptors from their dataclass fields; one strict decoder reads
every input back from its dataclass fields (scenarios, log schemas,
strategies, descriptors and matrices), each value checked against its
field's type (no string or boolean is read as a number, no float as an
integer).  All
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
from functools import cache
from reprlib import repr as brief
from typing import Optional, TextIO, Union, get_args, get_origin, get_type_hints

from .detection import DetectionStrategy, InfluenceEntry, InfluenceMatrix
from .errors import InputError, expect, finite, integer, need
from .model import AgentSchema, Nominal, Ordinal, RealInterval, SampleLog, transpose
from .taxonomy import (
    InfiniteRealPart, NominalPart, OrdinalPart, StrategyRecommendation, SystemDescriptor
)

# The (key, tag) of each part kind: ``_data`` writes the tag, and
# ``_from_data`` reads it to tell the members of a ``Union`` apart.
_TAGS = {Nominal: ("type", "nominal"), Ordinal: ("type", "ordinal"),
         RealInterval: ("type", "real"), NominalPart: ("kind", "nominal"),
         OrdinalPart: ("kind", "ordinal"), InfiniteRealPart: ("kind", "infinite_real")}
# The fields whose JSON key is not their name.
_KEYS = {"measure_kind": "measure", "camera_id": "id", "configs": "fixed"}
# The fields of a matrix entry's key, written into the entry's object.
_ENTRY_KEY = ("target", "remote_agent", "remote_part")


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


@cache
def _fields(cls) -> dict:
    """(name, type, required) of each field of ``cls``, by its JSON key."""
    hints = get_type_hints(cls)
    return {_KEYS.get(f.name, f.name): (f.name, hints[f.name], f.default is MISSING
                                        and f.default_factory is MISSING) for f in fields(cls)}


def _from_data(cls, data, path: str, **read):
    """A ``cls`` built from JSON data, the inverse of ``_data``, and from the
    fields ``read`` that the caller has read itself.  An absent field takes
    its default, and each value must fit its field's type; a key that names
    no field or a field in ``read``, a bad value, and a value the
    constructor refuses each raise :class:`InputError` at its path."""
    at = path + "." if path else ""
    known = _fields(cls)
    tag_key = _TAGS.get(cls, (None,))[0]
    values = dict(read)
    for key, value in expect(data, dict, path).items():
        if key == tag_key:
            continue
        if key not in known or known[key][0] in read:
            # the last word of the name, but the one before a last "Spec"
            noun = re.search(r"[A-Z][a-z]*(?=(Spec)?$)", cls.__name__)[0].lower()
            raise InputError(at + key, f"not {'an' if noun[0] in 'aeiou' else 'a'} {noun} field")
        name, hint, _ = known[key]
        values[name] = _typed(hint, value, at + key)
    for key, (name, _, required) in known.items():
        if required and name not in values:
            raise InputError(at + key, "missing field")
    try:
        return cls(**values)
    except InputError as exc:  # a check that names its field, such as max_lag
        raise InputError(at + exc.path, exc.message) from None
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def _typed(hint, value, path: str):
    """``value`` read as JSON data of the type ``hint``."""
    if hint is float:
        return finite(value, path)
    if hint is int:
        return integer(value, path)
    if hint is bool or hint is str:
        return expect(value, hint, path)
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
    if origin is tuple:  # tuple[X, ...], or one of a fixed length such as tuple[X, Y]
        items = expect(value, list, path)
        if args[-1] is Ellipsis:
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise InputError(path, f"expected a list of {len(args)}, got {brief(value)}")
        return tuple(_typed(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, items)))
    if is_dataclass(hint):
        return _from_data(hint, value, path)
    try:  # the hints left are enums
        return hint(value)
    except ValueError:
        raise InputError(path, f"{brief(value)} is not a valid {hint.__name__}") from None


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# --- sample logs: JSON -------------------------------------------------------


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


def _object(items: dict[str, str], indent: str) -> str:
    """The object of the JSON texts ``items`` as :func:`_canonical_json`
    writes it at ``indent``."""
    lines = [f"{indent}  {json.dumps(key)}: {text}" for key, text in sorted(items.items())]
    return "{\n" + ",\n".join(lines) + f"\n{indent}}}" if lines else "{}"


def write_log(log: SampleLog, json_file: Optional[TextIO] = None,
              csv_file: Optional[TextIO] = None) -> None:
    """Write a valid log as JSON to ``json_file`` and as CSV to ``csv_file``
    (either None to skip it) a chunk of steps (:meth:`SampleLog.value_chunks`)
    at a time, each chunk's reals and performances formatted once by
    ``repr``, as json and the csv module write them.  The JSON has the bytes
    of :func:`_canonical_json`: a head, one row template filled per record,
    and a tail with the schemas."""
    chunks = log.value_chunks()  # refuses a log with findings before any write
    kinds = {f"{s.agent_id}.{p.name}": p.kind for s in log.schemas for p in s.parts}
    encode = {name: {label: json.dumps(label) for label in kind.categories}.__getitem__
              for name, kind in kinds.items() if not isinstance(kind, RealInterval)}
    # names match [A-Za-z0-9_]+ (model.check_name), so the template holds no
    # other % than its fields, and no name in the CSV header needs quoting
    fields = {"config": _object(dict.fromkeys(kinds, "%s"), " " * 6), "t": "%s",
              "performance": _object({s.agent_id: "%s" for s in log.schemas}, " " * 6)}
    row = "    " + _object(fields, "    ")
    if json_file is not None:
        json_file.write('{\n  "records": [')
    if csv_file is not None:
        header = ["t", *kinds, *(f"{s.agent_id}.perf" for s in log.schemas)]
        csv_file.write(",".join(header) + "\n")
    separator = "\n"
    for t, parts, performances in chunks:
        parts = {name: column if name in encode else list(map(float.__repr__, column))
                 for name, column in zip(kinds, parts.values())}
        performances = {agent: list(map(float.__repr__, column))
                        for agent, column in performances.items()}
        if json_file is not None:
            rows = zip(*(map(encode[name], parts[name]) if name in encode else parts[name]
                         for name in sorted(parts)),
                       *(performances[agent] for agent in sorted(performances)), t)
            json_file.write(separator + ",\n".join(map(row.__mod__, rows)))
            separator = ",\n"
        if csv_file is not None:
            buf = io.StringIO()  # csv.writer makes one write per row
            csv.writer(buf, lineterminator="\n").writerows(
                zip(t, *parts.values(), *performances.values()))
            csv_file.write(buf.getvalue())
    if json_file is not None:
        # JSON strings hold no raw newline, so every line break is the layout's
        schemas = _canonical_json(_data(log.schemas))[:-1].replace("\n", "\n  ")
        end = "\n  ]" if len(log.t) else "]"
        json_file.write(f'{end},\n  "schemas": {schemas}\n}}\n')


def log_to_json(log: SampleLog) -> str:
    """The JSON text of :func:`write_log`."""
    text = io.StringIO()
    write_log(log, json_file=text)
    return text.getvalue()


def log_to_csv(log: SampleLog) -> str:
    """The CSV text of :func:`write_log`."""
    text = io.StringIO()
    write_log(log, csv_file=text)
    return text.getvalue()


def log_from_json(text: str) -> SampleLog:
    return log_from_dict(json.loads(text))


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


def matrix_to_json(matrix: InfluenceMatrix) -> str:
    entries = [{**dict(zip(_ENTRY_KEY, key)), **_data(matrix.entries[key])}
               for key in sorted(matrix.entries)]
    return _canonical_json({"alpha": matrix.alpha, "entries": entries})


def matrix_from_json(text: str) -> InfluenceMatrix:
    """Read the matrix :func:`matrix_to_json` writes: each entry is decoded
    as an :class:`InfluenceEntry`, keyed by its target, remote agent and
    remote part, and a key given twice is refused at its entry."""
    data = dict(expect(json.loads(text), dict, ""))
    entries = {}
    for i, item in enumerate(need(data, "entries", kind=list)):
        at = f"entries[{i}]"
        item = dict(expect(item, dict, at))
        key = tuple(need(item, name, at + ".", str) for name in _ENTRY_KEY)
        if key in entries:
            raise InputError(at, f"repeats the entry of {'/'.join(key)}")
        for name in _ENTRY_KEY:
            del item[name]
        entries[key] = _from_data(InfluenceEntry, item, at)
    del data["entries"]
    return _from_data(InfluenceMatrix, data, "", entries=entries)


def matrix_summary_csv(matrix: InfluenceMatrix) -> str:
    """Flat per-entry summary of a matrix, one row per entry in key order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*_ENTRY_KEY, "score", "p_value", "influenced"])
    for key in sorted(matrix.entries):
        e = matrix.entries[key]
        writer.writerow([*key, repr(float(e.headline)), repr(float(e.p_value)),
                         str(e.influenced).lower()])
    return buf.getvalue()


def render_report(matrix: InfluenceMatrix) -> str:
    """Human-readable report: flagged influences ranked first, then the
    rest, each with its per-partition table when one exists."""
    ranked = sorted(matrix.entries.items(),  # ties in key order
                    key=lambda item: (not item[1].influenced, -item[1].headline, item[0]))
    flagged = sum(e.influenced for _, e in ranked)
    lines = [f"influence report: {len(ranked)} entries, {flagged} flagged "
             f"(alpha={matrix.alpha})", ""]
    for rank, ((target, remote, part), e) in enumerate(ranked, start=1):
        mark = "INFLUENCED" if e.influenced else "no influence"
        lines.append(f"{rank}. {target} <- {remote}.{part}: score={e.headline:.6g} "
                     f"p={e.p_value:.6g} lag={e.best_lag} [{mark}]")
        cond = e.best_conditioned
        if cond and cond.per_partition:
            cp = cond.conditioning_part
            cp_name = f"{cp[0]}.{cp[1]}" if cp else "(none)"
            lines.append(f"   conditioned on {cp_name}, aggregate={cond.aggregate}")
            for p in cond.per_partition:
                lines.append(f"     partition {p.label}: n={p.count} score={p.score.value:.6g}")
    return "\n".join(lines) + "\n"
