"""Layered benchmark of influence-scope.

    python3 perfbench/run.py --workload trio-mic --seed 1 --seconds 20 --trace 0

Runs one workload against the package sources in ``src/`` of the checkout
this file sits in, single-threaded, in this process.

``--trace 0`` sets the inputs up five times and reports the median set-up
time, then repeats timed passes for ``--seconds`` and reports the median
pass time and the peak resident memory of the process.

``--trace 1`` sets up once with tracing on, then alternates untraced and
traced passes for ``--seconds`` and reports the per-layer metrics of
``layers.py`` as medians over the traced passes.  Spans are kept in memory
and written to ``.perfbench_out/`` when the run ends.

Every pass is checked (see ``workloads.py``), and its matrix JSON must be
byte-identical to every other pass of the run, traced or not.  Each metric
is printed on its own line with its unit; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without package sources the run exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
from spans import Recorder

# workloads.py imports the package, so it is imported only after bootstrap().

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "influence_scope"
OUT = ROOT / ".perfbench_out"
SETUPS = 5
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def bootstrap() -> None:
    """Import the package from this checkout's sources, or exit with 2."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package sources at {PACKAGE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent))
    import influence_scope

    if Path(influence_scope.__file__).resolve().parent != PACKAGE:
        print(f"imported influence_scope from {influence_scope.__file__}", file=sys.stderr)
        sys.exit(2)


def _checked_pass(workload, inputs, span=contextlib.nullcontext):
    """Run one pass; a pass that raises counts as failed, not as fatal."""
    try:
        return workload.run_pass(inputs, span)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _failed_passes(outcomes) -> int:
    """Passes that raised, failed a check, or differ from the first pass."""
    first = next((o for o in outcomes if o is not None), None)
    failed = 0
    for o in outcomes:
        if o is None:
            failed += 1
            continue
        if o.matrix_json != first.matrix_json:
            o.failures.append("matrix JSON differs from the first pass")
        if o.observed["log_bytes"] != first.observed["log_bytes"]:
            o.failures.append("log byte count differs from the first pass")
        for failure in o.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        failed += bool(o.failures)
    return failed


def _untraced(workload, seed: int, seconds: float):
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(_checked_pass(workload, inputs))
    failed = _failed_passes(outcomes)
    done = [o for o in outcomes if o is not None]
    if not done:
        return {}, [], len(outcomes), failed
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(o.seconds for o in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUPS} set-ups",
        "pass_s": f"median of {len(done)} passes",
        "peak_rss_mb": "whole process",
    }
    lines = [(name, value, END_TO_END_UNITS[name], notes[name]) for name, value in metrics.items()]
    lines.append(("failed_share", failed / len(outcomes), "share",
                  f"{failed}/{len(outcomes)} passes"))
    lines += _share_lines(done[0], workload)
    return metrics, lines, len(outcomes), failed


def _share_lines(outcome, workload):
    totals = {"null_flag_share": len(workload.truth.null),
              "planted_hit_share": len(workload.truth.planted)}
    return [(name, outcome.observed[name], "share",
             f"{round(outcome.observed[name] * total)}/{total} entries")
            for name, total in totals.items()]


def _median(values: list):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _merged(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}


def _traced(workload, seed: int, seconds: float, spans_path: Path):
    rec = Recorder()
    rec.pass_id = "setup"
    with rec.installed(layers.TRACED, layers.COUNTED):
        inputs = workload.setup(seed)
    untraced, traced = [], []
    start = time.perf_counter()
    while not (untraced and traced) or time.perf_counter() - start < seconds:
        if len(untraced) <= len(traced):
            untraced.append(_checked_pass(workload, inputs))
            continue
        rec.pass_id = f"pass{len(traced)}"
        with rec.installed(layers.TRACED, layers.COUNTED):
            traced.append((rec.pass_id, _checked_pass(workload, inputs, rec.span)))
    setup = (rec.totals("setup"), rec.self_times("setup"), rec.call_counts("setup"))
    per_pass = []
    for pass_id, o in traced:
        if o is None:
            continue
        selfs = rec.self_times(pass_id)
        calls = rec.call_counts(pass_id)
        if calls != rec.call_counts(traced[0][0]):
            o.failures.append("call counts differ from the first traced pass")
        m = layers.unit_metrics(
            _merged(rec.totals(pass_id), setup[0]),
            _merged(selfs, setup[1]),
            _merged(calls, setup[2]),
            o.observed,
            workload.lags,
        )
        m.update(layers.layer_self_seconds(selfs))
        m["trace.pass_s"] = o.seconds
        m["trace.unattributed_s"] = o.seconds - rec.top_level_seconds(pass_id)
        per_pass.append(m)
    outcomes = untraced + [o for _, o in traced]
    failed = _failed_passes(outcomes)
    done = [o for o in untraced if o is not None]
    if not (per_pass and done):
        return {}, [], len(outcomes), max(failed, 1)

    metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(
        o.seconds for o in done
    )
    metrics["trace.absent_names"] = len(rec.absent)
    metrics.update(layers.source_lines(PACKAGE))
    spans_path.write_text(json.dumps(rec.to_json()))

    lines = [
        (name, metrics[name], unit, f"median of {len(per_pass)} traced passes")
        for name, unit in layers.UNITS.items()
    ]
    lines += [(f"absent: {label}", 0, "count", "wrapped name not in the program")
              for label in rec.absent]
    return metrics, lines, len(outcomes), failed


def measure(workload_name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; returns the result object and the report lines.

    ``scale`` shrinks the workload's inputs for the benchmark's own tests.
    """
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[workload_name](Path(tmp), scale)
        if trace:
            spans_path = OUT / f"spans-{workload_name}-seed{seed}.json"
            metrics, lines, attempted, failed = _traced(workload, seed, seconds, spans_path)
            units = layers.UNITS
        else:
            metrics, lines, attempted, failed = _untraced(workload, seed, seconds)
            units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # A run without a single good pass reports every metric as 0.
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("trio-cli-mi", "trio-mic", "nominal-lags"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {result['attempted']} passes, {result['failed']} failed")
    for name, value, unit, note in lines:
        print(f"  {name:<30} {value!r:<24} {unit:<6} {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
