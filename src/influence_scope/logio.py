"""Canonical file formats: sample logs, influence matrices, reports.

JSON is the primary interchange format for logs (it embeds the agent
schemas) and for matrices.  Logs additionally serialize to a flat CSV with
header ``t,<agent>.<part>,...,<agent>.perf,...`` so they stay inspectable
with standard tools; reading CSV back requires the schemas.

All serialization is canonical: fixed field order, sorted keys, shortest
round-trip float formatting.  serialize -> parse -> serialize is
byte-identical for valid inputs.
"""

from __future__ import annotations

import csv
import io
import json
import re

from .detection import ConditionedScore, DetectionStrategy, InfluenceMatrix
from .measures import BinLayout, DependencyScore, Measure
from .model import (
    AgentSchema,
    ConfigPartSchema,
    Nominal,
    Ordinal,
    RealInterval,
    SampleLog,
    SampleRecord,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


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


def _kind_to_dict(kind) -> dict:
    if isinstance(kind, Nominal):
        return {"type": "nominal", "categories": list(kind.categories)}
    if isinstance(kind, Ordinal):
        return {"type": "ordinal", "categories": list(kind.categories)}
    return {"type": "real", "lower": kind.lower, "upper": kind.upper}


def _kind_from_dict(data: dict):
    if data["type"] == "nominal":
        return Nominal(tuple(data["categories"]))
    if data["type"] == "ordinal":
        return Ordinal(tuple(data["categories"]))
    if data["type"] == "real":
        return RealInterval(float(data["lower"]), float(data["upper"]))
    raise ValueError(f"unknown part kind {data['type']!r}")


def log_to_dict(log: SampleLog) -> dict:
    _check_names(log)
    schemas = [
        {
            "agent_id": s.agent_id,
            "parts": [{"name": p.name, "kind": _kind_to_dict(p.kind)} for p in s.parts],
        }
        for s in log.schemas
    ]
    records = []
    for r in log.records:
        config = {}
        for s in log.schemas:
            for p in s.parts:
                config[f"{s.agent_id}.{p.name}"] = r.config[(s.agent_id, p.name)]
        records.append(
            {
                "t": r.t,
                "config": config,
                "performance": {a: r.performance[a] for a in sorted(r.performance)},
            }
        )
    return {"schemas": schemas, "records": records}


def log_from_dict(data: dict) -> SampleLog:
    schemas = tuple(
        AgentSchema(
            s["agent_id"],
            tuple(ConfigPartSchema(p["name"], _kind_from_dict(p["kind"])) for p in s["parts"]),
        )
        for s in data["schemas"]
    )
    records = []
    for i, r in enumerate(data["records"]):
        config = {}
        for key, value in r["config"].items():
            agent, part = key.split(".", 1)
            config[(agent, part)] = value
        performance = {}
        for a, v in r["performance"].items():
            try:
                performance[a] = float(v)
            except (TypeError, ValueError):
                raise ValueError(
                    f"records[{i}].performance.{a}: expected a number, got {v!r}"
                ) from None
        records.append(SampleRecord(t=int(r["t"]), config=config, performance=performance))
    return SampleLog(schemas=schemas, records=tuple(records))


def log_to_json(log: SampleLog) -> str:
    return _canonical_json(log_to_dict(log))


def log_from_json(text: str) -> SampleLog:
    return log_from_dict(json.loads(text))


# --- sample logs: CSV ---------------------------------------------------------


def _columns(log: SampleLog) -> list[str]:
    cols = []
    for s in log.schemas:
        for p in s.parts:
            cols.append(f"{s.agent_id}.{p.name}")
    for s in log.schemas:
        cols.append(f"{s.agent_id}.perf")
    return cols


def log_to_csv(log: SampleLog) -> str:
    _check_names(log)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + _columns(log))
    for r in log.records:
        row: list[str] = [str(r.t)]
        for s in log.schemas:
            for p in s.parts:
                value = r.config[(s.agent_id, p.name)]
                row.append(repr(value) if isinstance(value, float) else str(value))
        for s in log.schemas:
            row.append(repr(float(r.performance[s.agent_id])))
        writer.writerow(row)
    return buf.getvalue()


def log_from_csv(text: str, schemas: tuple[AgentSchema, ...]) -> SampleLog:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    probe = SampleLog(schemas=schemas, records=())
    expected = ["t"] + _columns(probe)
    if header != expected:
        raise ValueError(f"unexpected CSV header {header!r}")
    records = []
    for row in reader:
        values = dict(zip(header, row))
        config = {}
        performance = {}
        for s in schemas:
            for p in s.parts:
                raw = values[f"{s.agent_id}.{p.name}"]
                if isinstance(p.kind, RealInterval):
                    config[(s.agent_id, p.name)] = float(raw)
                else:
                    config[(s.agent_id, p.name)] = raw
            performance[s.agent_id] = float(values[f"{s.agent_id}.perf"])
        records.append(SampleRecord(int(values["t"]), config, performance))
    return SampleLog(schemas=schemas, records=tuple(records))


# --- strategies ---------------------------------------------------------------


def strategy_to_dict(strategy: DetectionStrategy) -> dict:
    return {
        "measure": strategy.measure_kind.value,
        "own_part_bins": strategy.own_part_bins,
        "min_partition_size": strategy.min_partition_size,
        "lag_set": list(strategy.lag_set),
        "joint_pairs": strategy.joint_pairs,
        "alpha": strategy.alpha,
        "permutations": strategy.permutations,
        "seed": strategy.seed,
    }


def strategy_from_dict(data: dict) -> DetectionStrategy:
    defaults = DetectionStrategy()
    return DetectionStrategy(
        measure_kind=Measure(data.get("measure", defaults.measure_kind.value)),
        own_part_bins=int(data.get("own_part_bins", defaults.own_part_bins)),
        min_partition_size=int(
            data.get("min_partition_size", defaults.min_partition_size)
        ),
        lag_set=tuple(int(l) for l in data.get("lag_set", defaults.lag_set)),
        joint_pairs=bool(data.get("joint_pairs", defaults.joint_pairs)),
        alpha=float(data.get("alpha", defaults.alpha)),
        permutations=int(data.get("permutations", defaults.permutations)),
        seed=int(data.get("seed", defaults.seed)),
    )


# --- influence matrices --------------------------------------------------------


def _layout_to_dict(layout: BinLayout | None) -> dict | None:
    if layout is None:
        return None
    return {
        "n_x": layout.n_x,
        "n_y": layout.n_y,
        "x_cuts": list(layout.x_cuts) if layout.x_cuts is not None else None,
        "y_cuts": list(layout.y_cuts) if layout.y_cuts is not None else None,
    }


def _score_to_dict(score: DependencyScore) -> dict:
    return {
        "value": score.value,
        "measure": score.measure_kind.value,
        "sample_count": score.sample_count,
        "bin_layout": _layout_to_dict(score.bin_layout),
        "lag": score.lag,
        "degenerate": score.degenerate,
    }


def _conditioned_to_dict(cs: ConditionedScore | None) -> dict | None:
    if cs is None:
        return None
    return {
        "remote": list(cs.remote),
        "conditioning_part": list(cs.conditioning_part) if cs.conditioning_part else None,
        "per_partition": [
            {"label": p.label, "count": p.count, "score": _score_to_dict(p.score)}
            for p in cs.per_partition
        ],
        "aggregate": cs.aggregate,
        "lag": cs.lag,
        "insufficient_data": cs.insufficient_data,
    }


def matrix_to_dict(matrix: InfluenceMatrix) -> dict:
    entries = []
    for key in sorted(matrix.entries):
        target, remote, part = key
        e = matrix.entries[key]
        entries.append(
            {
                "target": target,
                "remote_agent": remote,
                "remote_part": part,
                "raw": _score_to_dict(e.raw),
                "best_conditioned": _conditioned_to_dict(e.best_conditioned),
                "best_lag": e.best_lag,
                "headline": e.headline,
                "p_value": e.p_value,
                "influenced": e.influenced,
                "insufficient_data": e.insufficient_data,
            }
        )
    return {"alpha": matrix.alpha, "entries": entries}


def matrix_to_json(matrix: InfluenceMatrix) -> str:
    return _canonical_json(matrix_to_dict(matrix))


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
