"""Command-line front end: simulate -> detect -> recommend -> report.

Exit codes: 0 success, 2 input/validation error, 3 I/O error.  Finding no
influence is a result, not an error.  The ``INFLUENCE_SCOPE_LOG``
environment variable sets the diagnostic logging level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .camera import ScenarioError, run_scenario, scenario_from_dict
from .detection import DetectionStrategy, Measure, influence_matrix
from .logio import (
    log_from_json,
    log_to_csv,
    log_to_json,
    matrix_summary_csv,
    matrix_to_json,
    render_report,
    strategy_from_dict,
    strategy_to_dict,
)
from .model import validate_log
from .taxonomy import builtin_descriptor, descriptor_from_dict, recommend_strategy

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

log = logging.getLogger("influence_scope")


class InputFailure(Exception):
    pass


def _configure_logging() -> None:
    level_name = os.environ.get("INFLUENCE_SCOPE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        raw = json.loads(_read_text(args.scenario))
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"malformed scenario JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        spec = scenario_from_dict(raw)
        sample_log = run_scenario(spec, steps=args.steps, seed=args.seed)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out = Path(args.out)
    try:
        _write_text(str(out), log_to_json(sample_log))
        _write_text(str(out.with_suffix(".csv")), log_to_csv(sample_log))
    except OSError as exc:
        print(f"cannot write log: {exc}", file=sys.stderr)
        return EXIT_IO

    total = [
        sum(r.performance.values()) for r in sample_log.records
    ]
    mean_perf = sum(total) / len(total)
    print(f"wrote {len(sample_log.records)} records to {out}")
    print(f"mean system performance: {mean_perf:.6g}")
    return EXIT_OK


def _strategy_from_args(args: argparse.Namespace) -> DetectionStrategy:
    if args.strategy:
        data = json.loads(_read_text(args.strategy))
    else:
        data = {}
    if args.measure:
        data["measure"] = args.measure
    if args.lags:
        data["lag_set"] = [int(l) for l in args.lags.split(",")]
    if args.alpha is not None:
        data["alpha"] = args.alpha
    if args.permutations is not None:
        data["permutations"] = args.permutations
    if args.seed is not None:
        data["seed"] = args.seed
    return strategy_from_dict(data)


def cmd_detect(args: argparse.Namespace) -> int:
    try:
        sample_log = log_from_json(_read_text(args.log))
    except OSError as exc:
        print(f"cannot read log: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"malformed log: {exc}", file=sys.stderr)
        return EXIT_INPUT

    issues = validate_log(sample_log)
    if issues:
        print(f"log failed validation ({len(issues)} issues):", file=sys.stderr)
        for issue in issues[:20]:
            print(f"  record={issue.record_index} {issue.path}: {issue.message}",
                  file=sys.stderr)
        return EXIT_INPUT

    try:
        strategy = _strategy_from_args(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"invalid strategy: {exc}", file=sys.stderr)
        return EXIT_INPUT

    log.info("running detection with %s", strategy_to_dict(strategy))
    matrix = influence_matrix(sample_log, strategy)
    matrix_json = matrix_to_json(matrix)

    out = Path(args.out)
    try:
        _write_text(str(out), matrix_json)
        _write_text(str(out.with_suffix(".csv")), matrix_summary_csv(json.loads(matrix_json)))
    except OSError as exc:
        print(f"cannot write matrix: {exc}", file=sys.stderr)
        return EXIT_IO

    flagged = [
        key for key in sorted(matrix.entries) if matrix.entries[key].influenced
    ]
    if flagged:
        print("flagged influences:")
        for target, remote, part in flagged:
            entry = matrix.entries[(target, remote, part)]
            print(f"  {target} <- {remote}.{part} "
                  f"(score={entry.headline:.6g}, p={entry.p_value:.6g})")
    else:
        print("no influences flagged")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    try:
        if args.builtin:
            descriptor = builtin_descriptor(args.builtin)
        else:
            descriptor = descriptor_from_dict(json.loads(_read_text(args.descriptor)))
    except OSError as exc:
        print(f"cannot read descriptor: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"invalid descriptor: {exc}", file=sys.stderr)
        return EXIT_INPUT

    recommendation = recommend_strategy(descriptor)
    payload = {
        "strategy": strategy_to_dict(recommendation.strategy),
        "notes": list(recommendation.notes),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    try:
        data = json.loads(_read_text(args.matrix))
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError("not an influence matrix")
    except OSError as exc:
        print(f"cannot read matrix: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"malformed matrix: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out = Path(args.out)
    try:
        _write_text(str(out), render_report(data))
        _write_text(str(out.with_suffix(".csv")), matrix_summary_csv(data))
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote report to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="influence-scope",
        description="Detect hidden mutual influences between configurable agents",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="run a camera scenario and write a sample log")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True, help="output log path (JSON; CSV written alongside)")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="compute the influence matrix from a log")
    p_det.add_argument("log", help="sample log JSON file")
    p_det.add_argument("--strategy", help="strategy JSON file")
    p_det.add_argument(
        "--measure", choices=[m.value for m in Measure if m is not Measure.ENTROPY]
    )
    p_det.add_argument("--lags", help="comma-separated lags, e.g. 0,1,2")
    p_det.add_argument("--alpha", type=float)
    p_det.add_argument("--permutations", type=int)
    p_det.add_argument("--seed", type=int)
    p_det.add_argument("--out", required=True, help="output matrix path (JSON; CSV written alongside)")
    p_det.set_defaults(func=cmd_detect)

    p_rec = sub.add_parser("recommend", help="recommend a detection strategy")
    group = p_rec.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", help="builtin descriptor name (e.g. scn)")
    group.add_argument("--descriptor", help="descriptor JSON file")
    p_rec.set_defaults(func=cmd_recommend)

    p_rep = sub.add_parser("report", help="render a matrix as text + CSV")
    p_rep.add_argument("matrix", help="influence matrix JSON file")
    p_rep.add_argument("--out", required=True, help="output report path (text; CSV alongside)")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
