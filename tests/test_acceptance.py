"""Acceptance gate: one test per shipped guarantee, each printing a
PASS/FAIL line with its tolerance and runtime budget."""

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from influence_scope import (
    CategorySeries,
    DetectionStrategy,
    Measure,
    conditioned_influence,
    discrete_mutual_information,
    influence_matrix,
    mic,
    raw_influence,
    run_scenario,
    scenario_from_dict,
)
from influence_scope.cli import main

from camera_oracle import replay
from conftest import coupled_log, independent_log
from mic_oracle import MicSearchMode, mic_search

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(capsys, number, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def load_scenario(name):
    return scenario_from_dict(json.loads((SCENARIOS / name).read_text()))


def test_acceptance_1_conditioned_detection(capsys):
    """Agreement-coupled agents, N=10000: raw MI <= 0.005 bits, conditioned
    aggregate >= 0.98 bits, pipeline flags (B, A) at p <= 0.01 and the
    unconditioned variant does not.  Budget 5 s."""
    t0 = time.perf_counter()
    log = coupled_log(10000, seed=7)
    strategy = DetectionStrategy(permutations=199, seed=0)

    raw = raw_influence(log, "B", ("A", "cfg"), strategy)
    cond = conditioned_influence(log, "B", ("A", "cfg"), ("B", "cfg"), strategy)
    matrix = influence_matrix(log, strategy)
    unconditioned = influence_matrix(log, strategy, conditioning=False)
    entry = matrix.entries[("B", "A", "cfg")]
    flat = unconditioned.entries[("B", "A", "cfg")]
    elapsed = time.perf_counter() - t0

    ok = (
        raw.value <= 0.005
        and cond.aggregate is not None
        and cond.aggregate >= 0.98
        and entry.influenced
        and entry.p_value <= 0.01
        and not flat.influenced
        and elapsed < 5.0
    )
    report(
        capsys,
        1,
        ok,
        f"raw={raw.value:.2e} bits (<=0.005), conditioned={cond.aggregate:.4f}"
        f" (>=0.98), p={entry.p_value:.4f} (<=0.01), unconditioned flagged="
        f"{flat.influenced} (want False), {elapsed:.1f}s (<5s)",
    )


def test_acceptance_2_mic_calibration(capsys):
    """MIC = 1.0 +- 1e-9 on an identity relation (every search mode), 0.0 on
    constants, and the N=200 independent-uniform noise floor stays below
    0.35 (frozen median 0.0587193342).  Budget 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    x = rng.permutation(200).astype(float)
    identity_ok = all(
        abs(score.value - 1.0) <= 1e-9
        for score in (mic(x, x), mic_search(x, x, MicSearchMode.AXIS_OPTIMIZED))
    )
    small = np.arange(12, dtype=float)
    identity_ok &= (
        abs(mic_search(small, small, MicSearchMode.EXHAUSTIVE).value - 1.0)
        <= 1e-9
    )
    constant_ok = mic(np.full(50, 2.0), rng.uniform(size=50)).value == 0.0

    null_values = [
        mic(
            np.random.default_rng(seed).uniform(size=200),
            np.random.default_rng(seed + 10_000).uniform(size=200),
        ).value
        for seed in range(100)
    ]
    median = float(np.median(null_values))
    elapsed = time.perf_counter() - t0
    ok = (
        identity_ok
        and constant_ok
        and median < 0.35
        and abs(median - 0.05871933423419839) <= 1e-12
        and elapsed < 10.0
    )
    report(
        capsys,
        2,
        ok,
        f"identity within 1e-9: {identity_ok}, constant zero: {constant_ok},"
        f" null median={median:.6f} (<0.35, frozen 0.058719), {elapsed:.1f}s (<10s)",
    )


def _mi_oracle(counts):
    """Naive double-loop evaluation of the MI definition from a joint table."""
    n = counts.sum()
    px = counts.sum(axis=1) / n
    py = counts.sum(axis=0) / n
    total = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j]:
                pxy = counts[i, j] / n
                total += pxy * math.log2(pxy / (px[i] * py[j]))
    return total


def _series_from_table(counts):
    xs, ys = [], []
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            xs.extend([i] * counts[i, j])
            ys.extend([j] * counts[i, j])
    return (
        CategorySeries(np.array(xs, dtype=np.int64), counts.shape[0]),
        CategorySeries(np.array(ys, dtype=np.int64), counts.shape[1]),
    )


def test_acceptance_3_oracles(capsys):
    """MI matches a direct evaluation of its definition on every joint table
    with N <= 8 and <= 3 categories per axis (within 1e-12); MIC search
    modes are ordered Equipartition <= AxisOptimized <= Exhaustive on 100
    random inputs with N <= 12.  Budget 60 s."""
    t0 = time.perf_counter()
    worst = 0.0
    tables = 0
    for kx, ky in itertools.product((2, 3), repeat=2):
        cells = kx * ky
        for n in range(1, 9):
            for combo in itertools.combinations(range(n + cells - 1), cells - 1):
                counts = np.array(
                    [b - a - 1 for a, b in zip((-1,) + combo, combo + (n + cells - 1,))]
                ).reshape(kx, ky)
                x, y = _series_from_table(counts)
                got = discrete_mutual_information(x, y).value
                worst = max(worst, abs(got - _mi_oracle(counts)))
                tables += 1
    mi_ok = worst <= 1e-12

    rng = np.random.default_rng(0)
    dominance_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 13))
        x = rng.uniform(size=n)
        y = rng.uniform(size=n)
        if rng.uniform() < 0.3:
            y = np.round(y, 1)  # inject ties
        equi = mic(x, y).value
        axis = mic_search(x, y, MicSearchMode.AXIS_OPTIMIZED).value
        full = mic_search(x, y, MicSearchMode.EXHAUSTIVE).value
        if not (equi <= axis + 1e-12 and axis <= full + 1e-12):
            dominance_ok = False
    elapsed = time.perf_counter() - t0
    ok = mi_ok and dominance_ok and elapsed < 60.0
    report(
        capsys,
        3,
        ok,
        f"MI oracle over {tables} tables, worst |diff|={worst:.2e} (<=1e-12);"
        f" mode dominance on 100 random inputs: {dominance_ok}; {elapsed:.1f}s (<60s)",
    )


def test_acceptance_4_credit_conservation(capsys):
    """overlap-pair scenario, 5000 steps of ``run_scenario``: in every step
    the logged per-camera performances equal, as floats, the oracle's exact
    credits from the same draws, and those credits sum to the count of newly
    observed targets, exactly (each such target's fractions sum to 1).
    Budget 5 s."""
    t0 = time.perf_counter()
    spec = load_scenario("overlap-pair.json")
    log = run_scenario(spec, steps=5000)
    exact_ok, detected = True, 0
    for record, (state, credits, _) in zip(log.records, replay(spec, 5000, spec.seed), strict=True):
        perfs = [record.performance[cam.camera_id] for cam in spec.cameras]
        newly = int(state.target_detected.sum()) - detected
        detected += newly
        if sum(credits) != Fraction(newly) or [float(c) for c in credits] != perfs:
            exact_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = exact_ok and elapsed < 5.0
    report(
        capsys,
        4,
        ok,
        f"exact credit conservation over 5000 steps: {exact_ok}; {elapsed:.1f}s (<5s)",
    )


def test_acceptance_5_camera_influence_detection(capsys):
    """camera-trio scenario (cam1 and cam2 share potential footprint space,
    cam3 is disjoint), 5000 steps per seed: (cam1, cam2, pan) and
    (cam1, cam2, tilt) flagged with p < 0.05 and every (cam1, cam3, *)
    entry unflagged, in >= 9 of the 10 fixed seeds 0..9.  Budget 3 min."""
    t0 = time.perf_counter()
    spec = load_scenario("camera-trio.json")
    # alpha is Bonferroni-corrected over the three parts of a remote agent
    strategy = DetectionStrategy(
        measure_kind=Measure.MI, permutations=99, alpha=0.05 / 3, seed=0
    )
    passes = 0
    for seed in range(10):
        log = run_scenario(spec, steps=5000, seed=seed)
        matrix = influence_matrix(log, strategy, targets=["cam1"])
        e = matrix.entries
        seed_ok = (
            e[("cam1", "cam2", "pan")].influenced
            and e[("cam1", "cam2", "pan")].p_value < 0.05
            and e[("cam1", "cam2", "tilt")].influenced
            and e[("cam1", "cam2", "tilt")].p_value < 0.05
            and not any(
                e[("cam1", "cam3", part)].influenced
                for part in ("pan", "tilt", "zoom")
            )
        )
        passes += seed_ok
    elapsed = time.perf_counter() - t0
    ok = passes >= 9 and elapsed < 180.0
    report(
        capsys,
        5,
        ok,
        f"{passes}/10 fixed seeds detect (cam1<-cam2 pan, tilt; cam1<-cam3 quiet)"
        f" (need >=9); {elapsed:.0f}s (<180s)",
    )


def test_acceptance_6_null_calibration(capsys):
    """Two fully independent agents: flagged fraction over 100 seeds stays
    at or below 0.10 at alpha = 0.05."""
    t0 = time.perf_counter()
    strategy = DetectionStrategy(permutations=99, seed=0)
    flagged = total = 0
    for seed in range(100):
        matrix = influence_matrix(independent_log(1000, seed=seed), strategy)
        for entry in matrix.entries.values():
            total += 1
            flagged += entry.influenced
    fraction = flagged / total
    elapsed = time.perf_counter() - t0
    ok = fraction <= 0.10
    report(
        capsys,
        6,
        ok,
        f"null flagged fraction {flagged}/{total} = {fraction:.3f} (<=0.10),"
        f" {elapsed:.0f}s",
    )


def test_acceptance_7_determinism(capsys, tmp_path):
    """Two full simulate -> detect runs with identical seeds produce
    byte-identical matrix JSON."""
    t0 = time.perf_counter()
    outputs = []
    for tag in ("a", "b"):
        log_out = tmp_path / f"log-{tag}.json"
        matrix_out = tmp_path / f"matrix-{tag}.json"
        assert (
            main(
                [
                    "simulate",
                    str(SCENARIOS / "overlap-pair.json"),
                    "--out",
                    str(log_out),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "detect",
                    str(log_out),
                    "--permutations",
                    "99",
                    "--out",
                    str(matrix_out),
                ]
            )
            == 0
        )
        outputs.append(matrix_out.read_bytes())
    identical = outputs[0] == outputs[1]
    elapsed = time.perf_counter() - t0
    report(
        capsys,
        7,
        identical,
        f"matrix JSON byte-identical across runs: {identical}; {elapsed:.0f}s",
    )


def test_acceptance_8_taxonomy_conformance(capsys):
    """recommend --builtin scn selects MIC, lag_set [0], joint_pairs false."""
    code = main(["recommend", "--builtin", "scn"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    strategy = payload["strategy"]
    ok = (
        code == 0
        and strategy["measure"] == "mic"
        and strategy["lag_set"] == [0]
        and strategy["joint_pairs"] is False
    )
    report(
        capsys,
        8,
        ok,
        f"measure={strategy['measure']}, lag_set={strategy['lag_set']},"
        f" joint_pairs={strategy['joint_pairs']}",
    )
