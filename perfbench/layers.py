"""Layer boundaries the traced run wraps, and the per-layer metrics it reports.

A span name is ``<layer>.<function>``; the layer is the package module that
owns the function, wherever the pipeline calls it from.  ``taxonomy`` is a
rule lookup outside every workload and has no layer here.
"""

from __future__ import annotations

from pathlib import Path

LAYERS = ("cli", "camera", "model", "measures", "detection", "logio")

# (module whose attribute the pipeline calls through, attribute, span name)
TRACED = (
    ("influence_scope.cli", "run_scenario", "camera.run_scenario"),
    ("influence_scope.camera", "run_scenario", "camera.run_scenario"),
    ("influence_scope.cli", "validate_log", "model.validate_log"),
    ("influence_scope.model", "validate_log", "model.validate_log"),
    ("influence_scope.detection", "validate_log", "model.validate_log"),
    ("influence_scope.detection", "extract_series", "model.extract_series"),
    ("influence_scope.detection", "discrete_mutual_information", "measures.mi"),
    ("influence_scope.detection", "mic", "measures.mic"),
    ("influence_scope.detection", "quantile_bins", "measures.quantile_bins"),
    ("influence_scope.measures", "quantile_bins", "measures.quantile_bins"),
    ("influence_scope.cli", "influence_matrix", "detection.influence_matrix"),
    ("influence_scope.detection", "influence_matrix", "detection.influence_matrix"),
    ("influence_scope.detection", "raw_influence", "detection.raw_influence"),
    ("influence_scope.detection", "conditioned_influence", "detection.conditioned_influence"),
    ("influence_scope.cli", "log_to_json", "logio.log_to_json"),
    ("influence_scope.logio", "log_to_json", "logio.log_to_json"),
    ("influence_scope.cli", "log_to_csv", "logio.log_to_csv"),
    ("influence_scope.cli", "log_from_json", "logio.log_from_json"),
    ("influence_scope.logio", "log_from_json", "logio.log_from_json"),
    ("influence_scope.cli", "matrix_to_json", "logio.matrix_to_json"),
    ("influence_scope.logio", "matrix_to_json", "logio.matrix_to_json"),
    ("influence_scope.cli", "matrix_summary_csv", "logio.matrix_summary_csv"),
    ("influence_scope.cli", "render_report", "logio.render_report"),
)
# Counted without a span, so the measure calls below stay children of the
# raw or conditioned span that asked for the score.
COUNTED = (("influence_scope.detection", "score_dependency", "detection.score_dependency"),)

# Metric name -> unit.  Times are self times (child spans excluded) except
# the cli.* spans, which are whole commands and partition a trio-cli-mi pass.
UNITS = {
    "cli.simulate_s": "s",
    "cli.detect_s": "s",
    "cli.report_s": "s",
    "camera.run_s": "s",
    "camera.steps_per_s": "1/s",
    "camera.targets_credited": "count",
    "model.validate_s": "s",
    "model.extract_calls": "count",
    "model.extract_s": "s",
    "measures.mi_calls": "count",
    "measures.mi_s": "s",
    "measures.quantile_bins_calls": "count",
    "measures.quantile_bins_s": "s",
    "measures.mic_calls": "count",
    "measures.mic_s": "s",
    "detection.entries": "count",
    "detection.candidates": "count",
    "detection.raw_s": "s",
    "detection.conditioned_s": "s",
    "detection.score_calls": "count",
    "detection.flagged": "count",
    "detection.permute_s": "s",
    "logio.write_s": "s",
    "logio.log_bytes": "bytes",
    "logio.read_s": "s",
    "logio.matrix_write_s": "s",
    "null_flag_share": "share",
    "planted_hit_share": "share",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_names": "count",
    **{f"src.lines.{layer}": "lines" for layer in LAYERS},
    "src.lines.total": "lines",
}


def unit_metrics(totals: dict, selfs: dict, calls: dict, observed: dict, lags: int) -> dict:
    """Function-level metrics of one traced unit of work.

    ``totals`` and ``selfs`` map span names to seconds with and without
    child spans, ``calls`` counts calls per name, and ``observed`` holds what
    the pass read off its own outputs.
    """
    s = selfs.get
    run_s = s("camera.run_scenario", 0.0)
    return {
        "cli.simulate_s": totals.get("cli.simulate", 0.0),
        "cli.detect_s": totals.get("cli.detect", 0.0),
        "cli.report_s": totals.get("cli.report", 0.0),
        "camera.run_s": run_s,
        "camera.steps_per_s": observed["steps"] / run_s if run_s else 0.0,
        "camera.targets_credited": observed["targets_credited"],
        "model.validate_s": s("model.validate_log", 0.0),
        "model.extract_calls": calls.get("model.extract_series", 0),
        "model.extract_s": s("model.extract_series", 0.0),
        "measures.mi_calls": calls.get("measures.mi", 0),
        "measures.mi_s": s("measures.mi", 0.0),
        "measures.quantile_bins_calls": calls.get("measures.quantile_bins", 0),
        "measures.quantile_bins_s": s("measures.quantile_bins", 0.0),
        "measures.mic_calls": calls.get("measures.mic", 0),
        "measures.mic_s": s("measures.mic", 0.0),
        "detection.entries": observed["entries"],
        "detection.candidates": lags
        * (calls.get("detection.raw_influence", 0) + calls.get("detection.conditioned_influence", 0)),
        "detection.raw_s": s("detection.raw_influence", 0.0),
        "detection.conditioned_s": s("detection.conditioned_influence", 0.0),
        "detection.score_calls": calls.get("detection.score_dependency", 0),
        "detection.flagged": observed["flagged"],
        "detection.permute_s": s("detection.influence_matrix", 0.0),
        "logio.write_s": s("logio.log_to_json", 0.0) + s("logio.log_to_csv", 0.0),
        "logio.log_bytes": observed["log_bytes"],
        "logio.read_s": s("logio.log_from_json", 0.0),
        "logio.matrix_write_s": s("logio.matrix_to_json", 0.0)
        + s("logio.matrix_summary_csv", 0.0)
        + s("logio.render_report", 0.0),
        "null_flag_share": observed["null_flag_share"],
        "planted_hit_share": observed["planted_hit_share"],
    }


def layer_self_seconds(selfs: dict) -> dict:
    out = {f"self.{layer}_s": 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        out[f"self.{name.split('.', 1)[0]}_s"] += seconds
    return out


def source_lines(package: Path) -> dict:
    """Line count of each layer's module and of the whole package."""

    def lines(path: Path) -> int:
        return len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else 0

    out = {f"src.lines.{layer}": lines(package / f"{layer}.py") for layer in LAYERS}
    out["src.lines.total"] = sum(lines(p) for p in package.rglob("*.py"))
    return out
