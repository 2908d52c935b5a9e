"""Benchmark workloads: seeded inputs, one timed pass, and its checks.

Each workload builds its inputs from the seed in ``setup`` and runs the
pipeline once per ``run_pass``, single-threaded, as one closed-loop caller.
Only the pipeline is timed; the checks run after the clock stops.  Every
call into the package goes through a module attribute (``camera.run_scenario``
rather than a name bound at import), so the traced run can wrap it.

Import this module only after ``src`` is on ``sys.path`` (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from influence_scope import camera, cli, detection, logio, model

SCENARIO = Path(__file__).with_name("camera-trio.json")
PERMUTATIONS = 99

# --- ground truth ---------------------------------------------------------

Key = tuple[str, str, str]  # (target agent, remote agent, remote part)


@dataclass(frozen=True)
class GroundTruth:
    """Matrix entries known to be influenced (planted) or not (null).

    Entries in neither set have uncertain ground truth and count in
    neither share.
    """

    planted: frozenset[Key]
    null: frozenset[Key]


def trio_truth() -> GroundTruth:
    # cam3 cannot reach the ground cam1 and cam2 can see; cam1 and cam2
    # overlap, and pan and tilt move a footprint while zoom only resizes it,
    # so their zoom entries are left uncertain.
    cams = ("cam1", "cam2", "cam3")
    planted = {(t, r, p) for t, r in (("cam1", "cam2"), ("cam2", "cam1")) for p in ("pan", "tilt")}
    null = {
        (t, r, p)
        for t in cams
        for r in cams
        if t != r and "cam3" in (t, r)
        for p in ("pan", "tilt", "zoom")
    }
    return GroundTruth(frozenset(planted), frozenset(null))


AGENTS = ("a0", "a1", "a2")
PARTS = ("p0", "p1", "p2")
CATEGORIES = ("c0", "c1", "c2")
SHIFT = 0.5
# (target, remote agent, remote part, lag, target's own part or None).
# With an own part the target's performance rises by SHIFT, lag steps later,
# when the two parts agree: every remote value agrees a third of the time, so
# only conditioning on the own part shows it.  Without one it rises when the
# remote part reads "c0".
COUPLINGS = (("a1", "a0", "p0", 1, "p1"), ("a2", "a1", "p2", 2, None))


def nominal_truth() -> GroundTruth:
    planted = {(t, r, p) for t, r, p, _, _ in COUPLINGS}
    every = {(t, r, p) for t in AGENTS for r in AGENTS if t != r for p in PARTS}
    return GroundTruth(frozenset(planted), frozenset(every - planted))


def nominal_log(n: int, seed: int) -> model.SampleLog:
    """Three agents with three uniform nominal parts each and the
    ``COUPLINGS`` planted into otherwise independent uniform performance."""
    rng = np.random.default_rng(seed)
    codes = {(a, p): rng.integers(0, len(CATEGORIES), size=n) for a in AGENTS for p in PARTS}
    perf = {a: rng.uniform(size=n) for a in AGENTS}
    for target, remote, part, lag, own in COUPLINGS:
        x = codes[(remote, part)]
        hit = x == codes[(target, own)] if own else x == 0
        perf[target][lag:] += SHIFT * hit[: n - lag]
    kind = model.Nominal(CATEGORIES)
    schemas = tuple(
        model.AgentSchema(a, tuple(model.ConfigPartSchema(p, kind) for p in PARTS))
        for a in AGENTS
    )
    labels = {key: [CATEGORIES[c] for c in column] for key, column in codes.items()}
    perf_lists = {a: column.tolist() for a, column in perf.items()}
    records = tuple(
        model.SampleRecord(
            t,
            {key: column[t] for key, column in labels.items()},
            {a: column[t] for a, column in perf_lists.items()},
        )
        for t in range(n)
    )
    return model.SampleLog(schemas, records)


def flag_shares(matrix: dict, truth: GroundTruth) -> dict[str, tuple[int, int]]:
    """(flagged, total) over the null and the planted entries."""
    flagged = {
        (e["target"], e["remote_agent"], e["remote_part"])
        for e in matrix["entries"]
        if e["influenced"]
    }
    return {
        "null_flag_share": (len(flagged & truth.null), len(truth.null)),
        "planted_hit_share": (len(flagged & truth.planted), len(truth.planted)),
    }


# --- passes -----------------------------------------------------------------


@dataclass
class PassOutcome:
    seconds: float
    matrix_json: str
    observed: dict[str, float]
    failures: list[str] = field(default_factory=list)


def _credit_failures(system_perf: list[float]) -> list[str]:
    # Each newly observed target splits exactly 1 among its observers, so a
    # record's system performance is a whole number up to float rounding.
    bad = [i for i, s in enumerate(system_perf) if abs(s - round(s)) > 1e-9]
    return [f"{len(bad)} records with non-integer system performance"] if bad else []


def _matrix_observations(matrix_json: str, truth: GroundTruth) -> dict[str, float]:
    matrix = json.loads(matrix_json)
    shares = flag_shares(matrix, truth)
    return {
        "entries": len(matrix["entries"]),
        "flagged": sum(e["influenced"] for e in matrix["entries"]),
        **{name: hit / total for name, (hit, total) in shares.items()},
    }


class TrioCli:
    """The README path: ``simulate`` -> ``detect --measure mi`` -> ``report``
    through ``cli.main`` in this process, with files in a work directory."""

    name = "trio-cli-mi"
    lags = 1

    def __init__(self, workdir: Path, scale: float = 1.0) -> None:
        self.workdir = workdir
        self.steps = max(50, round(1500 * scale))
        self.truth = trio_truth()

    def setup(self, seed: int) -> int:
        # Every command-line call pays a fresh interpreter's import.
        subprocess.run(
            [sys.executable, "-c", "import influence_scope.cli"],
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        shutil.copyfile(SCENARIO, self.workdir / "scenario.json")
        return seed

    def run_pass(self, seed: int, span=contextlib.nullcontext) -> PassOutcome:
        w = self.workdir
        steps = [
            ("cli.simulate", ["simulate", str(w / "scenario.json"), "--steps", str(self.steps),
                              "--seed", str(seed), "--out", str(w / "log.json")]),
            ("cli.detect", ["detect", str(w / "log.json"), "--measure", "mi",
                            "--permutations", str(PERMUTATIONS), "--seed", str(seed),
                            "--out", str(w / "matrix.json")]),
            ("cli.report", ["report", str(w / "matrix.json"), "--out", str(w / "report.txt")]),
        ]
        codes = []
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in steps:
                with span(name):
                    codes.append(cli.main(argv))
        seconds = time.perf_counter() - start

        failures = [f"exit codes {codes}"] if any(codes) else []
        records = json.loads((w / "log.json").read_text())["records"]
        system = [math.fsum(r["performance"].values()) for r in records]
        failures += _credit_failures(system)
        if len(records) != self.steps:
            failures.append(f"{len(records)} records, expected {self.steps}")
        if not (w / "report.txt").read_text():
            failures.append("empty report")
        matrix_json = (w / "matrix.json").read_text()
        observed = {
            "steps": len(records),
            "targets_credited": round(math.fsum(system)),
            "log_bytes": (w / "log.json").stat().st_size + (w / "log.csv").stat().st_size,
            **_matrix_observations(matrix_json, self.truth),
        }
        return PassOutcome(seconds, matrix_json, observed, failures)


class TrioMic:
    """MIC with a permutation test on a camera-trio log simulated in set-up."""

    name = "trio-mic"
    lags = 1

    def __init__(self, workdir: Path, scale: float = 1.0) -> None:
        self.steps = max(50, round(1200 * scale))
        self.spec = camera.scenario_from_dict(json.loads(SCENARIO.read_text()))
        self.truth = trio_truth()

    def setup(self, seed: int) -> tuple[int, model.SampleLog]:
        return seed, camera.run_scenario(self.spec, steps=self.steps, seed=seed)

    def run_pass(self, inputs, span=contextlib.nullcontext) -> PassOutcome:
        seed, log = inputs
        strategy = detection.DetectionStrategy(
            measure_kind=detection.Measure.MIC, permutations=PERMUTATIONS, seed=seed
        )
        start = time.perf_counter()
        matrix = detection.influence_matrix(log, strategy)
        matrix_json = logio.matrix_to_json(matrix)
        seconds = time.perf_counter() - start

        system = [math.fsum(r.performance.values()) for r in log.records]
        observed = {
            "steps": len(log.records),
            "targets_credited": round(math.fsum(system)),
            "log_bytes": 0,
            **_matrix_observations(matrix_json, self.truth),
        }
        return PassOutcome(seconds, matrix_json, observed, _credit_failures(system))


class NominalLags:
    """Read, validate and score a multi-part, multi-lag nominal log."""

    name = "nominal-lags"
    lags = 3

    def __init__(self, workdir: Path, scale: float = 1.0) -> None:
        self.n = max(200, round(8000 * scale))
        self.truth = nominal_truth()

    def setup(self, seed: int) -> tuple[int, str]:
        return seed, logio.log_to_json(nominal_log(self.n, seed))

    def run_pass(self, inputs, span=contextlib.nullcontext) -> PassOutcome:
        seed, text = inputs
        strategy = detection.DetectionStrategy(
            permutations=PERMUTATIONS, lag_set=(0, 1, 2), seed=seed
        )
        start = time.perf_counter()
        log = logio.log_from_json(text)
        issues = model.validate_log(log)
        matrix = detection.influence_matrix(log, strategy)
        matrix_json = logio.matrix_to_json(matrix)
        seconds = time.perf_counter() - start

        failures = [f"{len(issues)} validation issues"] if issues else []
        if len(log.records) != self.n:
            failures.append(f"{len(log.records)} records, expected {self.n}")
        observed = {
            "steps": 0,
            "targets_credited": 0,
            "log_bytes": len(text.encode()),
            **_matrix_observations(matrix_json, self.truth),
        }
        return PassOutcome(seconds, matrix_json, observed, failures)


WORKLOADS = {w.name: w for w in (TrioCli, TrioMic, NominalLags)}
