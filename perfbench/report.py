"""Run every workload, untraced and traced, and print one table.

    python3 perfbench/report.py --seeds 1,2,3 --trace-seeds 1 [--out perfbench/baseline.json]

Each run is ``run.py`` in its own process for ``run_seconds`` of
``BENCHMARK.json``, one after another; each seed runs every workload before
the next seed starts.  For every workload the table shows each end-to-end
metric over the untraced seeds (median, quartiles, and the quartile spread
as a share of the median) and each per-layer metric over the traced seeds
(median).  ``--out`` also
writes the table, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated untraced seeds")
    parser.add_argument("--trace-seeds", default="1", help="comma-separated traced seeds")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    runs = {name: {"attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
            for name in names}
    for trace, seeds, key in ((0, args.seeds, "end_to_end"), (1, args.trace_seeds, "per_layer")):
        # The seed is the outer loop: host speed drifts over minutes, and
        # interleaving spreads that drift over every workload alike instead
        # of over the seeds of whichever workload runs at the time.
        for seed in (int(s) for s in seeds.split(",") if s):
            for name in names:
                result = _run(name, seed, seconds, trace)
                runs[name]["attempted"] += result["attempted"]
                runs[name]["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    runs[name][key].setdefault(metric, []).append(m["value"])

    table = {}
    for name, run in runs.items():
        row = {"attempted": run["attempted"], "failed": run["failed"]}
        print(f"{name}: {row['failed']}/{row['attempted']} passes failed")
        for key in ("end_to_end", "per_layer"):
            units = {m["name"]: m["unit"] for m in benchmark[key]}
            row[key] = {metric: {"unit": units[metric], **_summary(v)}
                        for metric, v in run[key].items()}
            for metric, s in row[key].items():
                spread = f"spread {s['spread']:.4f}" if "spread" in s else ""
                print(f"  {metric:<30} {s['median']:<24.6g} {s['unit']:<6} {spread}")
        table[name] = row
    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "seeds": args.seeds,
                                        "trace_seeds": args.trace_seeds, "workloads": table},
                                       indent=2) + "\n")
    return 0 if all(row["failed"] == 0 for row in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
