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

from .camera import MAX_STEPS, run_scenario, scenario_from_dict
from .detection import Measure, influence_matrix
from .logio import (  # log_to_csv, log_to_json: unused here; perfbench's trace wraps them
    descriptor_from_dict,
    log_from_json,
    log_to_csv,
    log_to_json,
    matrix_from_json,
    matrix_summary_csv,
    matrix_to_json,
    recommendation_to_json,
    render_report,
    strategy_from_dict,
    strategy_to_dict,
    write_log,
)
from .model import validate_log
from .taxonomy import BUILTINS, builtin_descriptor, recommend_strategy

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

log = logging.getLogger("influence_scope")


class _Failure(Exception):
    """``_Failure(code, message)`` ends a command; ``main`` prints the message."""


def _configure_logging() -> None:
    level_name = os.environ.get("INFLUENCE_SCOPE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _guarded(what: str, run):
    """``run()``, under the one map from failures to exit codes: a file that
    cannot be read or written exits 3, an input rejected as a ValueError
    (JSON syntax included) exits 2."""
    try:
        return run()
    except OSError as exc:
        raise _Failure(EXIT_IO, f"I/O error on {what}: {exc}") from None
    except ValueError as exc:
        raise _Failure(EXIT_INPUT, f"invalid {what}: {exc}") from None


def _load(path: str, what: str, parse):
    return _guarded(what, lambda: parse(Path(path).read_text(encoding="utf-8")))


def _save(path: Path, text: str, what: str) -> None:
    _guarded(what, lambda: path.write_text(text, encoding="utf-8"))


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load(args.scenario, "scenario", lambda text: scenario_from_dict(json.loads(text)))
    sample_log = _guarded("scenario", lambda: run_scenario(spec, steps=args.steps, seed=args.seed))
    out = Path(args.out)

    def write() -> None:
        with (open(out, "w", encoding="utf-8") as json_file,
              open(out.with_suffix(".csv"), "w", encoding="utf-8") as csv_file):
            write_log(sample_log, json_file, csv_file)
    _guarded("log", write)

    # one sum across all chunks: Python 3.12's sum compensates within one call
    total = sum(sum(step) for _, _, performances in sample_log.value_chunks()
                for step in zip(*performances.values()))
    print(f"wrote {len(sample_log.t)} records to {out}")
    print(f"mean system performance: {total / len(sample_log.t):.6g}")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    sample_log = _load(args.log, "log", log_from_json)
    issues = validate_log(sample_log)
    if issues:
        print(f"log failed validation ({len(issues)} issues):", file=sys.stderr)
        for issue in issues[:20]:
            print(f"  record={issue.record_index} {issue.path}: {issue.message}",
                  file=sys.stderr)
        return EXIT_INPUT

    data = _load(args.strategy, "strategy", json.loads) if args.strategy else {}
    if isinstance(data, dict):  # the options override the file
        options = dict(measure=args.measure, lag_set=args.lags, alpha=args.alpha,
                       permutations=args.permutations, seed=args.seed)
        data.update((k, v) for k, v in options.items() if v is not None)
    strategy = _guarded("strategy", lambda: strategy_from_dict(data))

    log.info("running detection with %s", strategy_to_dict(strategy))
    matrix = _guarded("log or strategy", lambda: influence_matrix(sample_log, strategy))
    out = Path(args.out)
    _save(out, matrix_to_json(matrix), "matrix")
    _save(out.with_suffix(".csv"), matrix_summary_csv(matrix), "matrix")

    flagged = [key for key in sorted(matrix.entries) if matrix.entries[key].influenced]
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
    if args.descriptor:
        descriptor = _load(
            args.descriptor, "descriptor", lambda text: descriptor_from_dict(json.loads(text))
        )
    elif args.builtin in BUILTINS:
        descriptor = builtin_descriptor(args.builtin)
    else:
        raise _Failure(EXIT_INPUT, f"unknown builtin descriptor {args.builtin!r}")

    print(recommendation_to_json(recommend_strategy(descriptor)), end="")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    matrix = _load(args.matrix, "matrix", matrix_from_json)
    out = Path(args.out)
    _save(out, render_report(matrix), "report")
    _save(out.with_suffix(".csv"), matrix_summary_csv(matrix), "report")
    print(f"wrote report to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    def lags(text: str) -> list[int]:  # argparse names the type in its errors
        return [int(lag) for lag in text.split(",")]

    def at_least(low: int, most: float = float("inf")):
        def integer(text: str) -> int:
            if int(text) < low:
                raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
            if int(text) > most:
                raise argparse.ArgumentTypeError(f"must be <= {most}, got {text}")
            return int(text)
        return integer

    def output(text: str) -> str:
        # the CSV goes to the same name with the suffix .csv
        if Path(text).suffix == ".csv":
            raise argparse.ArgumentTypeError(f"{text} ends in .csv, the name of the CSV "
                                             "written alongside")
        return text

    parser = argparse.ArgumentParser(
        prog="influence-scope",
        description="Detect hidden mutual influences between configurable agents",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="run a camera scenario and write a sample log")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--steps", type=at_least(1, MAX_STEPS), default=None)
    p_sim.add_argument("--seed", type=at_least(0), default=None)
    p_sim.add_argument("--out", required=True, type=output,
                       help="output log path (JSON; CSV written alongside)")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="compute the influence matrix from a log")
    p_det.add_argument("log", help="sample log JSON file")
    p_det.add_argument("--strategy", help="strategy JSON file")
    p_det.add_argument("--measure", choices=[m.value for m in Measure])
    p_det.add_argument("--lags", type=lags, help="comma-separated lags, e.g. 0,1,2")
    p_det.add_argument("--alpha", type=float)
    p_det.add_argument("--permutations", type=int)
    p_det.add_argument("--seed", type=int)
    p_det.add_argument("--out", required=True, type=output,
                       help="output matrix path (JSON; CSV written alongside)")
    p_det.set_defaults(func=cmd_detect)

    p_rec = sub.add_parser("recommend", help="recommend a detection strategy")
    group = p_rec.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", help="builtin descriptor name (e.g. scn)")
    group.add_argument("--descriptor", help="descriptor JSON file")
    p_rec.set_defaults(func=cmd_recommend)

    p_rep = sub.add_parser("report", help="render a matrix as text + CSV")
    p_rep.add_argument("matrix", help="influence matrix JSON file")
    p_rep.add_argument("--out", required=True, type=output,
                       help="output report path (text; CSV alongside)")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        code, message = failure.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
