"""Small-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import workloads  # noqa: E402
from influence_scope import camera, logio, model  # noqa: E402
from spans import Recorder  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_generators_are_deterministic_per_seed(tmp_path):
    def nominal(seed):
        return logio.log_to_json(workloads.nominal_log(300, seed))

    def trio(seed):
        _, log = workloads.TrioMic(tmp_path, scale=0.05).setup(seed)
        return logio.log_to_json(log)

    for make in (nominal, trio):
        assert make(3) == make(3)
        assert make(3) != make(4)


def _gap(y: np.ndarray, x: np.ndarray) -> float:
    """Spread of the mean of y across the values of x."""
    means = [y[x == c].mean() for c in np.unique(x)]
    return max(means) - min(means)


def test_nominal_ground_truth_matches_generator():
    truth = workloads.nominal_truth()
    agents, parts = workloads.AGENTS, workloads.PARTS
    assert truth.planted.isdisjoint(truth.null)
    assert len(truth.planted | truth.null) == len(agents) * (len(agents) - 1) * len(parts)

    log = workloads.nominal_log(6000, seed=0)
    planted = {(t, r, p): (lag, own) for t, r, p, lag, own in workloads.COUPLINGS}
    limit = 0.3 * workloads.SHIFT  # largest effect that still counts as absent
    for t in agents:
        for r in agents:
            if r == t:
                continue
            for p in parts:
                for lag in (0, 1, 2):
                    x = model.extract_series(log, model.ConfigSelector(r, p), lag).values
                    y = model.extract_series(log, model.PerformanceSelector(t), lag).values
                    own = {
                        o: model.extract_series(log, model.ConfigSelector(t, o), lag).values
                        for o in parts
                    }
                    conditioned = {
                        o: max(_gap(y[z == c], x[z == c]) for c in np.unique(z))
                        for o, z in own.items()
                    }
                    expected = planted.get((t, r, p))
                    if expected is None or expected[0] != lag:
                        assert _gap(y, x) < limit, (t, r, p, lag)
                        assert max(conditioned.values()) < limit, (t, r, p, lag)
                    elif expected[1] is None:
                        assert _gap(y, x) > 0.8 * workloads.SHIFT, (t, r, p, lag)
                    else:
                        assert _gap(y, x) < limit, (t, r, p, lag)
                        assert conditioned[expected[1]] > 0.8 * workloads.SHIFT, (t, r, p, lag)


def test_trio_ground_truth_matches_scenario_geometry():
    # A camera's footprint never leaves the disc of this radius around its
    # base, so disjoint discs cannot share a target.
    spec = camera.scenario_from_dict(json.loads(workloads.SCENARIO.read_text()))
    reach = {
        c.camera_id: (
            c.pose.x,
            c.pose.y,
            c.pose.z * math.tan(c.tilt_max)
            + c.pose.z * math.tan(c.base_half_angle) / math.cos(c.tilt_max)
            + spec.detection_radius,
        )
        for c in spec.cameras
    }

    def overlap(a, b):
        (xa, ya, ra), (xb, yb, rb) = reach[a], reach[b]
        return math.hypot(xa - xb, ya - yb) < ra + rb

    truth = workloads.trio_truth()
    assert all(overlap(t, r) for t, r, _ in truth.planted)
    assert not any(overlap(t, r) for t, r, _ in truth.null)
    assert len(truth.planted) == 4 and len(truth.null) == 12


def test_absent_wrapped_name_is_reported_not_raised():
    rec = Recorder()
    targets = [
        ("influence_scope.detection", "no_such_function", "detection.no_such_function"),
        ("influence_scope.detection", "extract_series", "model.extract_series"),
    ]
    original = model.extract_series
    with rec.installed(targets):
        assert workloads.detection.extract_series is not original
    assert workloads.detection.extract_series is original
    assert rec.absent == ["influence_scope.detection.no_such_function"]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_printed_with_its_unit(workload, trace):
    result, lines = run.measure(workload, seed=1, seconds=0.0, trace=bool(trace), scale=0.05)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = {name: unit for name, _, unit, _ in lines}
    for m in expected:
        assert printed[m["name"]] == m["unit"]
