"""Influence detection: raw and conditioned scores, the matrix pipeline and
its significance layer."""

import hashlib
import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from influence_scope import (
    AgentSchema,
    ConfigPartSchema,
    DetectionStrategy,
    Measure,
    Nominal,
    Ordinal,
    RealInterval,
    SampleLog,
    SampleRecord,
    conditioned_influence,
    entropy,
    extract_series,
    influence_matrix,
    joint_influence,
    raw_influence,
    run_scenario,
    scenario_from_dict,
)
from influence_scope import detection
from influence_scope.errors import InputError, InternalConsistencyError
from influence_scope.logio import matrix_from_json, matrix_to_json
from influence_scope.measures import (
    _ESTIMATE_WINDOW, LEAST_SAMPLES, _perm_mic_groups, _perm_values_mi, _RankBins,
    admissible_pairs, mic,
    permuted_scores, quantile_bins, shuffled_column,
)
from influence_scope.model import ConfigSelector
from influence_scope.series import CategorySeries

from conftest import coupled_log, independent_log

FAST = DetectionStrategy(permutations=99)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def single_part_schema(agent_id, cats=("c1", "c2")):
    return AgentSchema(agent_id, (ConfigPartSchema("cfg", Nominal(cats)),))


# --- strategy ---------------------------------------------------------------------


def test_strategy_rejects_few_permutations():
    with pytest.raises(ValueError):
        DetectionStrategy(permutations=19)


def test_strategy_rejects_a_repeated_lag():
    with pytest.raises(InputError, match="lag_set: must not repeat a lag"):
        DetectionStrategy(lag_set=(0, 1, 0))


def test_matrix_refuses_a_lag_beyond_the_log_before_building_any_row(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a target side was built")

    monkeypatch.setattr(detection, "_target_side", unreachable)
    with pytest.raises(InputError, match="lag_set: lag 30 >= record count 30") as raised:
        influence_matrix(coupled_log(30), DetectionStrategy(lag_set=(0, 30, 40)))
    assert raised.value.path == "lag_set"


# --- raw influence ----------------------------------------------------------


def test_raw_influence_invisible_on_agreement_coupling(coupled_10k):
    score = raw_influence(coupled_10k, "B", ("A", "cfg"), FAST)
    assert score.value <= 0.005


def test_raw_influence_copy_equals_entropy():
    rng = np.random.default_rng(0)
    n = 600
    a = rng.integers(0, 2, size=n)
    cats = ("c1", "c2")
    records = tuple(
        SampleRecord(
            t,
            {("A", "cfg"): cats[a[t]], ("B", "cfg"): "c1"},
            {"A": 0.0, "B": float(a[t])},
        )
        for t in range(n)
    )
    log = SampleLog(
        (single_part_schema("A"), AgentSchema("B", (ConfigPartSchema("cfg", Nominal(cats)),))),
        records,
    )
    score = raw_influence(log, "B", ("A", "cfg"), FAST)
    cfg = extract_series(log, ConfigSelector("A", "cfg"))
    assert score.value == pytest.approx(entropy(cfg), abs=1e-9)


def test_raw_influence_picks_winning_lag():
    rng = np.random.default_rng(2)
    n = 500
    a = rng.integers(0, 2, size=n)
    cats = ("c1", "c2")
    records = []
    for t in range(n):
        prev = a[t - 1] if t > 0 else 0
        records.append(
            SampleRecord(
                t,
                {("A", "cfg"): cats[a[t]], ("B", "cfg"): "c1"},
                {"A": 0.0, "B": float(prev)},
            )
        )
    log = SampleLog(
        (single_part_schema("A"), single_part_schema("B")), tuple(records)
    )
    strategy = DetectionStrategy(lag_set=(0, 1), permutations=99)
    score = raw_influence(log, "B", ("A", "cfg"), strategy)
    assert score.lag == 1
    assert score.value > 0.9


def test_raw_influence_rejects_self_remote():
    with pytest.raises(ValueError):
        raw_influence(coupled_log(100), "B", ("B", "cfg"), FAST)


# --- conditioned influence -----------------------------------------------------


def test_conditioning_reveals_agreement_coupling(coupled_10k):
    cs = conditioned_influence(coupled_10k, "B", ("A", "cfg"), ("B", "cfg"), FAST)
    assert cs.aggregate is not None
    assert cs.aggregate >= 0.98
    raw = raw_influence(coupled_10k, "B", ("A", "cfg"), FAST)
    assert cs.aggregate - raw.value > 0.9


def test_conditioning_on_independent_noise_stays_low():
    log = independent_log(4000, seed=3)
    cs = conditioned_influence(log, "B", ("A", "cfg"), ("B", "cfg"), FAST)
    assert cs.aggregate is not None
    assert cs.aggregate < 0.01


def test_conditioning_on_constant_part_equals_raw():
    rng = np.random.default_rng(4)
    n = 800
    a = rng.integers(0, 2, size=n)
    cats = ("c1", "c2")
    records = tuple(
        SampleRecord(
            t,
            {("A", "cfg"): cats[a[t]], ("B", "cfg"): "c1"},
            {"A": 0.0, "B": float(a[t]) + 0.1 * rng.standard_normal()},
        )
        for t in range(n)
    )
    log = SampleLog((single_part_schema("A"), single_part_schema("B")), records)
    cs = conditioned_influence(log, "B", ("A", "cfg"), ("B", "cfg"), FAST)
    raw = raw_influence(log, "B", ("A", "cfg"), FAST)
    assert len(cs.per_partition) == 1
    assert cs.aggregate == pytest.approx(raw.value, abs=1e-12)


def real_parts_log(own, seed=4):
    """B's performance follows A's real part ``x``; A's real part ``z`` is
    noise, and B's one own part is real and takes the values ``own``."""
    n = len(own)
    rng = np.random.default_rng(seed)
    x, z, noise = rng.uniform(size=n), rng.uniform(size=n), rng.standard_normal(n)
    unit = RealInterval(0.0, 1.0)
    schemas = (
        AgentSchema("A", (ConfigPartSchema("x", unit), ConfigPartSchema("z", unit))),
        AgentSchema("B", (ConfigPartSchema("own", unit),)),
    )
    records = tuple(
        SampleRecord(
            t,
            {("A", "x"): float(x[t]), ("A", "z"): float(z[t]), ("B", "own"): float(own[t])},
            {"A": 0.0, "B": float(x[t] + 0.1 * noise[t])},
        )
        for t in range(n)
    )
    return SampleLog(schemas, records)


@pytest.mark.parametrize("case", ["constant", "fewer samples than bins"])
def test_conditioning_on_an_unbinnable_real_part_equals_raw(case):
    # a real own part with no quantile bins is one partition of all samples
    if case == "constant":
        log, strategy = real_parts_log(np.full(300, 0.5)), FAST
    else:  # a correlation reads the 30 samples that 40 bins cannot split
        log = real_parts_log(np.linspace(0.0, 1.0, 30))
        strategy = DetectionStrategy(measure_kind=Measure.LINEAR, own_part_bins=40,
                                     permutations=99)
    cs = conditioned_influence(log, "B", ("A", "x"), ("B", "own"), strategy)
    raw = raw_influence(log, "B", ("A", "x"), strategy)
    assert [(p.label, p.count) for p in cs.per_partition] == [("all", len(log.t))]
    assert raw.value > 0.5
    assert cs.aggregate == pytest.approx(raw.value, abs=1e-12)


def test_conditioned_weighted_mean_identity(coupled_10k):
    cs = conditioned_influence(coupled_10k, "B", ("A", "cfg"), ("B", "cfg"), FAST)
    used = [p for p in cs.per_partition if p.count >= FAST.min_partition_size]
    recomputed = sum(p.count * p.score.value for p in used) / sum(p.count for p in used)
    assert cs.aggregate == pytest.approx(recomputed, abs=1e-12)


def test_conditioned_insufficient_data_flag():
    log = coupled_log(60, seed=1)
    strategy = DetectionStrategy(min_partition_size=100, permutations=99)
    cs = conditioned_influence(log, "B", ("A", "cfg"), ("B", "cfg"), strategy)
    assert cs.insufficient_data
    assert cs.aggregate is None


def sized_log(sizes, seed=3):
    """B's performance follows A's part ``cfg`` in part; B's own part
    ``own`` takes its k-th category in ``sizes[k]`` of the records."""
    rng = np.random.default_rng(seed)
    own = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    cfg = rng.integers(0, 2, size=len(own))
    perf = cfg + rng.standard_normal(len(own))
    cats = ("c0", "c1", "c2")
    schemas = (single_part_schema("A"),
               AgentSchema("B", (ConfigPartSchema("own", Nominal(cats[: len(sizes)])),)))
    records = tuple(
        SampleRecord(t, {("A", "cfg"): f"c{cfg[t] + 1}", ("B", "own"): cats[own[t]]},
                     {"A": 0.0, "B": float(perf[t])})
        for t in range(len(own))
    )
    return SampleLog(schemas, records)


@pytest.mark.parametrize(
    "sizes, own, tested",
    [((24, 25, 26), ("B", "own"), [25, 26]), ((4, 6), None, [10])],
    ids=["own part", "raw"],
)
def test_observed_and_permuted_statistics_count_the_same_partitions(sizes, own, tested):
    # an own part's partitions count from min_partition_size samples, the
    # raw candidate's one partition at any size, in the observed aggregate
    # and in the permutation test alike
    strategy = DetectionStrategy(min_partition_size=25, permutations=20)
    log = sized_log(sizes)
    side = detection._target_side(log, "B", [None, ("B", "own")], strategy)
    family = detection._with_remote(side, log, [(("A", "cfg"),)], strategy)[0]
    c = next(c for c in family if c.own_part == own)
    cs = detection._conditioned_score(c, ("A", "cfg"))
    buffer = np.empty((strategy.permutations + 1) * len(log.t), dtype=np.int64)
    tests = detection._partition_tests(c, strategy, np.random.default_rng(0), buffer)
    assert [rows.shape[1] for _, _, rows in tests] == tested
    counted = [p for p in cs.per_partition if p.count in tested]
    weighted_sum = 0.0
    for p in counted:
        weighted_sum += p.count * p.score.value
    assert cs.aggregate == weighted_sum / sum(p.count for p in counted)
    if own is not None:  # the 24-sample partition would move the aggregate
        everything = sum(p.count * p.score.value for p in cs.per_partition) / sum(sizes)
        assert everything != pytest.approx(cs.aggregate)


# --- influence matrix -----------------------------------------------------------


def test_matrix_flags_only_the_coupled_entry(coupled_10k):
    matrix = influence_matrix(coupled_10k, FAST)
    entry = matrix.entries[("B", "A", "cfg")]
    assert entry.influenced
    assert entry.p_value <= 0.01
    assert not matrix.entries[("A", "B", "cfg")].influenced


def test_matrix_unconditioned_variant_misses_it(coupled_10k):
    matrix = influence_matrix(coupled_10k, FAST, conditioning=False)
    assert not matrix.entries[("B", "A", "cfg")].influenced


def test_matrix_has_no_self_entries(coupled_10k):
    assert all(t != r for t, r, _ in influence_matrix(coupled_10k, FAST).entries)


def test_matrix_is_deterministic():
    log = coupled_log(1500, seed=9)
    first = influence_matrix(log, FAST)
    second = influence_matrix(log, FAST)
    assert first.entries == second.entries


def test_matrix_relabeling_equivariance():
    log = coupled_log(1500, seed=12)
    renamed_schemas = tuple(
        AgentSchema("agent_" + s.agent_id, s.parts) for s in log.schemas
    )
    renamed_records = tuple(
        SampleRecord(
            r.t,
            {("agent_" + a, p): v for (a, p), v in r.config.items()},
            {"agent_" + a: v for a, v in r.performance.items()},
        )
        for r in log.records
    )
    renamed = SampleLog(renamed_schemas, renamed_records)
    base = influence_matrix(log, FAST)
    mapped = influence_matrix(renamed, FAST)
    for (t, r, p), entry in base.entries.items():
        twin = mapped.entries[("agent_" + t, "agent_" + r, p)]
        assert twin.headline == entry.headline
        assert twin.p_value == entry.p_value
        assert twin.influenced == entry.influenced


def test_matrix_symmetric_xor_coupling_both_directions():
    rng = np.random.default_rng(21)
    n = 4000
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    x = a ^ b
    cats = ("c1", "c2")
    records = tuple(
        SampleRecord(
            t,
            {("A", "cfg"): cats[a[t]], ("B", "cfg"): cats[b[t]]},
            {"A": float(x[t]), "B": float(x[t])},
        )
        for t in range(n)
    )
    log = SampleLog((single_part_schema("A"), single_part_schema("B")), records)
    matrix = influence_matrix(log, FAST)
    assert matrix.entries[("B", "A", "cfg")].influenced
    assert matrix.entries[("A", "B", "cfg")].influenced


def test_matrix_monotone_encoding_invariance():
    rng = np.random.default_rng(17)
    n = 1200
    a = rng.uniform(size=n)
    b = rng.uniform(size=n)
    perf_b = np.where((a > 0.5) == (b > 0.5), 1.0, 0.5)
    schema = lambda name: AgentSchema(
        name, (ConfigPartSchema("knob", RealInterval(-100.0, 100.0)),)
    )

    def build(transform):
        records = tuple(
            SampleRecord(
                t,
                {("A", "knob"): float(transform(a[t])), ("B", "knob"): float(b[t])},
                {"A": 0.0, "B": float(perf_b[t])},
            )
            for t in range(n)
        )
        return SampleLog((schema("A"), schema("B")), records)

    base = influence_matrix(build(lambda v: v), FAST, targets=["B"])
    warped = influence_matrix(build(lambda v: math.exp(3 * v)), FAST, targets=["B"])
    for key, entry in base.entries.items():
        assert warped.entries[key].headline == entry.headline
        assert warped.entries[key].p_value == entry.p_value


def test_matrix_requires_two_agents():
    log = coupled_log(50)
    solo = SampleLog(
        (log.schemas[0],),
        tuple(
            SampleRecord(r.t, {("A", "cfg"): r.config[("A", "cfg")]}, {"A": r.performance["A"]})
            for r in log.records
        ),
    )
    with pytest.raises(InputError) as raised:
        influence_matrix(solo, FAST)
    assert (raised.value.path, raised.value.message) == ("schemas", "need at least 2 agents, got 1")


def test_matrix_refuses_targets_it_has_no_row_for(monkeypatch):
    # an unknown id used to drop its row silently, and a string was read as
    # a set of characters: "cam1" asked for agents c, a, m and 1
    log = coupled_log(200)
    expected = influence_matrix(log, FAST, targets=("B",))
    assert [key[0] for key in expected.entries] == ["B"]

    def unreachable(*args):
        raise AssertionError("a target side was built")

    monkeypatch.setattr(detection, "_target_side", unreachable)
    for targets, message in (
        (["Z"], "no agent 'Z' in the log"),
        (["B", "Z", "Y"], "no agent 'Z' in the log"),
        ("B", "must be a sequence of agent ids, not the string 'B'"),
        ("cam1", "must be a sequence of agent ids, not the string 'cam1'"),
    ):
        with pytest.raises(InputError) as raised:
            influence_matrix(log, FAST, targets=targets)
        assert (raised.value.path, raised.value.message) == ("targets", message)


# --- joint influence --------------------------------------------------------------


def xor_log(n=4000, seed=8):
    """C's performance is the XOR of A's and B's binary parts."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    cats = ("c1", "c2")
    records = tuple(
        SampleRecord(
            t,
            {
                ("A", "cfg"): cats[a[t]],
                ("B", "cfg"): cats[b[t]],
                ("C", "cfg"): "c1",
            },
            {"A": 0.0, "B": 0.0, "C": float(a[t] ^ b[t])},
        )
        for t in range(n)
    )
    schemas = (
        single_part_schema("A"),
        single_part_schema("B"),
        single_part_schema("C"),
    )
    return SampleLog(schemas, records)


JOINT = DetectionStrategy(joint_pairs=True, permutations=99)


def test_joint_score_reveals_xor():
    log = xor_log()
    single_a = raw_influence(log, "C", ("A", "cfg"), JOINT)
    single_b = raw_influence(log, "C", ("B", "cfg"), JOINT)
    pair = joint_influence(log, "C", (("A", "cfg"), ("B", "cfg")), JOINT)
    assert single_a.value < 0.01
    assert single_b.value < 0.01
    assert pair.aggregate is not None
    assert pair.aggregate > 0.95


def test_joint_score_tracks_single_part_when_one_suffices():
    rng = np.random.default_rng(14)
    n = 4000
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    cats = ("c1", "c2")
    records = tuple(
        SampleRecord(
            t,
            {("A", "cfg"): cats[a[t]], ("B", "cfg"): cats[b[t]], ("C", "cfg"): "c1"},
            {"A": 0.0, "B": 0.0, "C": float(a[t])},
        )
        for t in range(n)
    )
    schemas = (
        single_part_schema("A"),
        single_part_schema("B"),
        single_part_schema("C"),
    )
    log = SampleLog(schemas, records)
    single = raw_influence(log, "C", ("A", "cfg"), JOINT)
    pair = joint_influence(log, "C", (("A", "cfg"), ("B", "cfg")), JOINT)
    assert pair.aggregate == pytest.approx(single.value, abs=0.01)


def test_joint_score_null_stays_quiet():
    quiet = 0
    for seed in range(20):
        log = xor_log(n=500, seed=100 + seed)
        # break the coupling: fresh independent performance
        rng = np.random.default_rng(seed)
        records = tuple(
            SampleRecord(r.t, r.config, {**r.performance, "C": float(v)})
            for r, v in zip(log.records, rng.uniform(size=len(log.records)))
        )
        log = SampleLog(log.schemas, records)
        pair = joint_influence(log, "C", (("A", "cfg"), ("B", "cfg")), JOINT)
        if pair.aggregate is not None and pair.aggregate < 0.05:
            quiet += 1
    assert quiet >= 19


def test_joint_requires_enabled_strategy():
    with pytest.raises(ValueError):
        joint_influence(xor_log(200), "C", (("A", "cfg"), ("B", "cfg")), FAST)


def test_joint_score_of_a_constant_real_part_and_a_nominal_one_is_the_nominal_ones():
    # the constant real column is one category, so the composite's
    # categories are the nominal part's
    rng = np.random.default_rng(15)
    n = 400
    mode = rng.integers(0, 2, size=n)
    cats = ("c1", "c2")
    schemas = (
        AgentSchema("A", (ConfigPartSchema("level", RealInterval(0.0, 1.0)),
                          ConfigPartSchema("mode", Nominal(cats)))),
        single_part_schema("B"),
    )
    records = tuple(
        SampleRecord(
            t,
            {("A", "level"): 0.25, ("A", "mode"): cats[mode[t]], ("B", "cfg"): "c1"},
            {"A": 0.0, "B": float(mode[t] + 0.5 * rng.standard_normal())},
        )
        for t in range(n)
    )
    log = SampleLog(schemas, records)
    single = raw_influence(log, "B", ("A", "mode"), JOINT)
    pair = joint_influence(log, "B", (("A", "level"), ("A", "mode")), JOINT)
    assert pair.conditioning_part is None
    assert pair.per_partition[0].score == replace(single, lag=None)
    assert single.value > 0.1
    assert pair.aggregate == pytest.approx(single.value, abs=1e-12)


def test_joint_score_of_a_log_shorter_than_own_part_bins_is_insufficient_data():
    # two samples cannot fill own_part_bins = 3 bins: the composite of two
    # such real parts is one category, too many for so few samples, as the
    # matrix scores each of the parts alone as degenerate
    log = real_parts_log([0.2, 0.7])
    pair = joint_influence(log, "B", (("A", "x"), ("A", "z")), JOINT)
    assert (pair.conditioning_part, pair.per_partition, pair.aggregate) == (None, (), None)
    assert pair.insufficient_data
    entries = influence_matrix(log, JOINT).entries
    assert all(e.insufficient_data and e.p_value == 1.0 for e in entries.values())
    assert matrix_digest(log, JOINT) == (
        "c40636b42b0f457075d52e23687d87301235270ab178b359add35e3d74fb917e"
    )


# --- golden matrix bytes ------------------------------------------------------------

GOLDEN = DetectionStrategy(lag_set=(0, 1), permutations=49)


def nominal_parts_log(n=600, seed=4):
    """Two agents with two nominal parts and one ordinal part each; B's
    performance rises one step after A's mode agrees with B's own mode."""
    parts = (
        ("mode", Nominal(("m0", "m1", "m2"))),
        ("shape", Nominal(("s0", "s1"))),
        ("level", Ordinal(("low", "mid", "high"))),
    )
    rng = np.random.default_rng(seed)
    codes = {
        (a, p): rng.integers(0, len(kind.categories), size=n)
        for a in "AB"
        for p, kind in parts
    }
    perf = {a: rng.uniform(size=n) for a in "AB"}
    perf["B"][1:] += 0.5 * (codes[("A", "mode")] == codes[("B", "mode")])[:-1]
    schemas = tuple(
        AgentSchema(a, tuple(ConfigPartSchema(p, kind) for p, kind in parts))
        for a in "AB"
    )
    records = tuple(
        SampleRecord(
            t,
            {(a, p): kind.categories[codes[(a, p)][t]] for a in "AB" for p, kind in parts},
            {a: float(perf[a][t]) for a in "AB"},
        )
        for t in range(n)
    )
    return SampleLog(schemas, records)


def matrix_digest(log, strategy=GOLDEN):
    text = matrix_to_json(influence_matrix(log, strategy))
    return hashlib.sha256(text.encode()).hexdigest()


def overlap_pair_log():
    spec = scenario_from_dict(json.loads((SCENARIOS / "overlap-pair.json").read_text()))
    return run_scenario(spec, steps=300, seed=11)


def test_golden_matrix_real_parts():
    spec = scenario_from_dict(json.loads((SCENARIOS / "overlap-pair.json").read_text()))
    log = run_scenario(spec, steps=300, seed=11)
    assert matrix_digest(log) == (
        "7b24d214056f4470d6c47c7349b86bb1955f9b7c95a2c707eb3d718c13e61d6e"
    )


def test_golden_matrix_nominal_parts():
    assert matrix_digest(nominal_parts_log()) == (
        "e2d5d879dfc16740573727b8d18f1311f1e2ce118d247919b8bcab7eaa47df73"
    )


GOLDEN_MIC = DetectionStrategy(measure_kind=Measure.MIC, lag_set=(0, 1), permutations=49)


def rounded_real_log(n=400, seed=5):
    """Two agents with one real part each; every value is rounded to one
    decimal, so each column has many ties.  B's performance rises with A's
    knob one step later."""
    rng = np.random.default_rng(seed)
    knob = {a: np.round(rng.uniform(0.0, 2.0, size=n), 1) for a in "AB"}
    perf = {a: rng.uniform(size=n) for a in "AB"}
    perf["B"][1:] += 0.5 * knob["A"][:-1]
    schemas = tuple(
        AgentSchema(a, (ConfigPartSchema("knob", RealInterval(0.0, 2.0)),)) for a in "AB"
    )
    records = tuple(
        SampleRecord(
            t,
            {(a, "knob"): float(knob[a][t]) for a in "AB"},
            {a: round(float(perf[a][t]), 1) for a in "AB"},
        )
        for t in range(n)
    )
    return SampleLog(schemas, records)


def test_golden_matrix_mic():
    spec = scenario_from_dict(json.loads((SCENARIOS / "overlap-pair.json").read_text()))
    log = run_scenario(spec, steps=300, seed=11)
    assert matrix_digest(log, GOLDEN_MIC) == (
        "d5d2ddbc596a5786027da0dd7b5a1d494ea6edfe7ed096573f1f66b332cb7475"
    )
    assert matrix_digest(rounded_real_log(), GOLDEN_MIC) == (
        "96dc33f16d7555a069202870a86108ef9a774637ba4edeb2fe65180ac9c9346d"
    )


def test_golden_matrix_mi_tied_reals():
    # MI bins every partition's performance and real remote column, so the
    # tie runs of one-decimal values straddle the nominal bin starts
    assert matrix_digest(rounded_real_log()) == (
        "bd23bdccd9c94bcc0747a6dbc980d606973726bba60db27d330fba6fa6044ccf"
    )
    assert matrix_digest(rounded_real_log(), GOLDEN_LAGS) == (
        "ed23def2499df2538bc8a0bb84d004d8dbe9591dbd4097847792693f90f8770b"
    )


@pytest.mark.parametrize("measure", list(Measure), ids=lambda m: m.value)
def test_matrix_reads_back_as_written(measure):
    # every field detect writes decodes to the same entry, MIC's bin layouts too
    strategy = DetectionStrategy(measure_kind=measure, lag_set=(0, 1), permutations=20)
    matrix = influence_matrix(rounded_real_log(200), strategy)
    assert matrix_from_json(matrix_to_json(matrix)) == matrix


@pytest.mark.parametrize(
    "measure, digest",
    [(Measure.LINEAR, "ddbba6205f2ea905805db40909be536585ea75c27c18e786311a5a1c6776f055"),
     (Measure.RANK, "49e4935207c1b16a7516ca56d2e46c05467fdb803648ca4dbd50169e06c741a2")],
    ids=["linear", "rank"],
)
def test_golden_matrix_correlations(measure, digest):
    assert matrix_digest(overlap_pair_log(), replace(GOLDEN, measure_kind=measure)) == digest


GOLDEN_LAGS = DetectionStrategy(lag_set=(0, 1, 2), permutations=49)


def three_agent_log(n=600, seed=6):
    """Three agents with three nominal parts of three categories each, the
    shape of the benchmark's nominal log.  B's performance rises when A's
    p0 agrees with B's own p1, C's two steps after B's p2 is c0, and C's
    performance is constant while C's own p0 is c0."""
    agents, parts, cats = "ABC", ("p0", "p1", "p2"), ("c0", "c1", "c2")
    rng = np.random.default_rng(seed)
    codes = {(a, p): rng.integers(0, len(cats), size=n) for a in agents for p in parts}
    perf = {a: rng.uniform(size=n) for a in agents}
    perf["B"] += 0.5 * (codes[("A", "p0")] == codes[("B", "p1")])
    perf["C"][2:] += 0.5 * (codes[("B", "p2")] == 0)[:-2]
    perf["C"][codes[("C", "p0")] == 0] = 0.25
    schemas = tuple(
        AgentSchema(a, tuple(ConfigPartSchema(p, Nominal(cats)) for p in parts)) for a in agents
    )
    records = tuple(
        SampleRecord(
            t,
            {(a, p): cats[codes[(a, p)][t]] for a in agents for p in parts},
            {a: float(perf[a][t]) for a in agents},
        )
        for t in range(n)
    )
    return SampleLog(schemas, records)


def test_golden_matrix_three_agents_three_lags():
    log = three_agent_log()
    lag0 = conditioned_influence(log, "C", ("A", "p0"), ("C", "p0"), DetectionStrategy())
    assert lag0.per_partition[0].score.degenerate  # C's constant partition
    assert matrix_digest(log, GOLDEN_LAGS) == (
        "c34a62748df8854a7863727a4dee2263da8d0b3f1cd79e88df057fe1a4509989"
    )


@pytest.mark.parametrize(
    "log, target, pair, digest",
    [(three_agent_log, "C", (("A", "p0"), ("B", "p2")),
      "010ccd09e4615f4f6e5879c6a8810dd583383a6bd8bba8da0d0fe6552873a38b"),
     (overlap_pair_log, "cam_b", (("cam_a", "pan"), ("cam_far", "zoom")),
      "6e8b271074e1ef935dfc493b10559caf3ce6be3a5251c5a827edb88449390f50")],
    ids=["nominal", "real"],
)
def test_golden_joint_scores(log, target, pair, digest):
    score = joint_influence(log(), target, pair, replace(GOLDEN_LAGS, joint_pairs=True))
    assert hashlib.sha256(repr(score).encode()).hexdigest() == digest


def test_matrix_rows_do_not_depend_on_the_other_rows():
    log = three_agent_log()
    full = influence_matrix(log, GOLDEN_LAGS).entries
    for target in "ABC":
        row = influence_matrix(log, GOLDEN_LAGS, targets=[target]).entries
        assert row == {key: entry for key, entry in full.items() if key[0] == target}


@pytest.mark.parametrize("conditioning", [True, False], ids=["conditioned", "raw"])
def test_each_partition_is_binned_once(monkeypatch, conditioning):
    # the performance is binned once per (target, lag, partition), whatever
    # the remote parts and the permutation test read of it
    calls = []

    def counted(*args):
        calls.append(args)
        return quantile_bins(*args)

    monkeypatch.setattr(detection, "quantile_bins", counted)
    log = three_agent_log()
    influence_matrix(log, GOLDEN_LAGS, conditioning=conditioning)
    partitions = [
        1 + sum(len(part.kind.categories) for part in schema.parts) * conditioning
        for schema in log.schemas
    ]
    assert len(calls) == len(GOLDEN_LAGS.lag_set) * sum(partitions)


def test_golden_matrix_mic_camera_trio():
    # the benchmark's log size: N = 1200 reaches the larger grids and the
    # raw candidate's full-log search
    spec = scenario_from_dict(json.loads((SCENARIOS / "camera-trio.json").read_text()))
    log = run_scenario(spec, steps=1200, seed=1)
    strategy = DetectionStrategy(measure_kind=Measure.MIC, permutations=20, seed=1)
    assert matrix_digest(log, strategy) == (
        "8a809ac13dba545b08a9826c6d46e6bca762948c2a739c8c2c01d2bf6dde4b03"
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_golden_matrix_mic_camera_trio_at_every_worker_count(monkeypatch, workers):
    # a worker scores the remote columns of its share of a row together, so
    # which columns share a MIC call changes with W; the bytes must not
    spec = scenario_from_dict(json.loads((SCENARIOS / "camera-trio.json").read_text()))
    log = run_scenario(spec, steps=400, seed=1)
    strategy = DetectionStrategy(measure_kind=Measure.MIC, permutations=49, seed=1)
    use_workers(monkeypatch, workers)
    assert matrix_digest(log, strategy) == (
        "814c3c48e8cab4b1708c09033d861349e447f493b4d9b47aed8611ede49efb76"
    )


# --- MIC permutation kernel ---------------------------------------------------------


def per_grid_perm_mic(xv, yv, perm_idx):
    """Permutation MIC from one count table per admissible grid."""
    best = np.zeros(perm_idx.shape[0])
    if len(np.unique(xv)) < 2 or len(np.unique(yv)) < 2:
        return best
    for nx, ny in admissible_pairs(len(xv)):
        xs, _ = quantile_bins(xv, nx)
        ys, _ = quantile_bins(yv, ny)
        mi = _perm_values_mi(xs, ys, shuffled(Measure.MI, xs, ys, perm_idx))
        best = np.maximum(best, mi / math.log2(min(nx, ny)))
    return np.minimum(best, 1.0)


def perm_mic_estimates(xv, yv, perm_idx):
    """MIC's permuted scores of x gathered at each row of ``perm_idx``,
    checked as estimates: within a thousandth of the window of ``mic`` of
    the gathered column and of the MIC of one count table per grid, and
    exact, off by 0, where a column is constant."""
    got, error = permuted_scores(Measure.MIC, xv, yv, perm_idx)
    tolerance = _ESTIMATE_WINDOW / 1000
    exact = [mic(xv[row], yv).value for row in perm_idx]
    assert np.abs(got - exact).max() <= tolerance
    assert np.abs(got - per_grid_perm_mic(xv, yv, perm_idx)).max() <= tolerance
    constant = len(np.unique(xv)) < 2 or len(np.unique(yv)) < 2
    assert error == (0.0 if constant else _ESTIMATE_WINDOW)
    if constant:
        assert got.tolist() == [0.0] * len(perm_idx)
    return got


def mic_columns(n, kind, rng):
    """Two columns of ``n`` samples.  zeros: y is exactly 0.0 in at least
    half its samples and continuous elsewhere, the shape of a camera's
    performance, which is 0 while it tracks nothing."""
    ties = lambda: rng.integers(0, 4, size=n).astype(float)
    continuous = lambda: rng.normal(size=n)
    if kind == "identity":
        xv = rng.permutation(n).astype(float)
        return xv, xv.copy()
    if kind == "zeros":
        xv = continuous()
        yv = xv + continuous()
        yv[rng.permutation(n)[: (n + 1) // 2]] = 0.0
        return xv, yv
    xv, yv = {
        "ties": (ties(), ties()),
        "continuous": (continuous(), continuous()),
        "mixed": (ties(), continuous()),
        "constant": (np.full(n, 2.0), continuous()),
    }[kind]
    if kind != "constant":
        yv[: n // 2] += xv[: n // 2]  # some dependence, so the maxima differ
    return xv, yv


@pytest.mark.parametrize("n", [4, 5, 9, 31, 120, 300, 1200, 3000])
@pytest.mark.parametrize(
    "kind", ["ties", "continuous", "mixed", "constant", "identity", "zeros"])
def test_perm_mic_matches_per_grid_tables(n, kind):
    # identity: the observed row ties exactly 1.0 on many grids (53 at
    # N = 1200), and the largest of their estimates must still read 1
    rng = np.random.default_rng(n)
    xv, yv = mic_columns(n, kind, rng)
    perm_idx = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(20)])
    for x, y in ((xv, yv), (yv, xv)):
        perm_mic_estimates(x, y, perm_idx)


@pytest.mark.parametrize("kind", ["zeros", "continuous"])
def test_perm_mic_of_several_groups_matches_per_grid_tables(kind):
    # at N = 8000 each orientation's small sides need several segment
    # tables, so cells are read from tables of differing partner segments
    n = 8000
    rng = np.random.default_rng(n)
    xv, yv = mic_columns(n, kind, rng)
    perm_idx = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(5)])
    groups = [(pairs[0, 0] <= pairs[0, 1])
              for pairs, _ in _perm_mic_groups(_RankBins(xv), _RankBins(yv), perm_idx)]
    assert groups.count(True) >= 2 and groups.count(False) >= 2
    perm_mic_estimates(xv, yv, perm_idx)


def test_perm_mic_memory_stays_within_ten_index_blocks():
    # one group's segment table and cells are alive at a time; one table
    # per orientation would peak near 33 blocks here
    n = 8000
    rng = np.random.default_rng(8)
    xv, yv = rng.normal(size=n), rng.integers(0, 4, size=n).astype(float)
    yv[: n // 2] += xv[: n // 2]
    perm_idx = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(99)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        permuted_scores(Measure.MIC, xv, yv, perm_idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 10 * perm_idx.nbytes


def test_mic_rescore_of_tied_rows_stays_within_eleven_index_blocks():
    # every row ties row 0, so _p_value re-scores all 100 with one
    # mic_columns call: the gathered columns, their sort orders and the
    # kernel's index rows, 3 blocks, over the kernel's own peak of at most 7
    n = 8000
    strategy = DetectionStrategy(measure_kind=Measure.MIC, permutations=99)
    for kind in ("continuous", "zeros"):
        xv, yv = mic_columns(n, kind, np.random.default_rng(n))
        rows = np.tile(np.arange(n), (strategy.permutations + 1, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert detection._p_value([(xv, yv, rows)], strategy) == 1.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 11 * rows.nbytes, kind


def test_perm_mic_of_several_partitions_matches_per_grid_tables():
    # the partitions of one candidate, tied and continuous, each scored alone
    rng = np.random.default_rng(7)
    for n in (5, 31, 120, 121, 400, 1200):
        xv = rng.integers(0, 6, size=n).astype(float) if n % 2 else rng.normal(size=n)
        yv = rng.normal(size=n)
        yv[: n // 3] += xv[: n // 3]
        perm_idx = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(30)])
        assert perm_mic_estimates(xv, yv, perm_idx).shape == (31,)


@pytest.mark.parametrize("bad", [-1, 40, 10**6])
def test_perm_mic_refuses_an_index_outside_the_column(bad):
    # the kernel gathers with mode="clip", so an out-of-range index would
    # otherwise score silently
    rng = np.random.default_rng(5)
    xv, yv = rng.normal(size=40), rng.normal(size=40)
    perm_idx = shuffles(40, rng, reps=5)
    perm_idx[3, 17] = bad
    with pytest.raises(InternalConsistencyError):
        permuted_scores(Measure.MIC, xv, yv, perm_idx)


def test_perm_mic_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(6)
    xv, yv = rng.integers(0, 5, size=300).astype(float), rng.normal(size=300)
    perm_idx = shuffles(300, rng)
    before = [a.copy() for a in (xv, yv, perm_idx)]
    first = permuted_scores(Measure.MIC, xv, yv, perm_idx)[0]
    for a, b in zip((xv, yv, perm_idx), before):
        assert np.array_equal(a, b)
    assert permuted_scores(Measure.MIC, xv, yv, perm_idx)[0].tolist() == first.tolist()


def measured(kind, codes):
    """Integer codes as ``score_dependency`` reads them for ``kind``."""
    if kind is Measure.MI:
        return CategorySeries(codes, 4)
    return codes.astype(np.float64)


def shuffles(n, rng, reps=20):
    return np.array([np.arange(n)] + [rng.permutation(n) for _ in range(reps)])


def shuffled(kind, x, y, perm_idx):
    """The block ``permuted_scores`` reads: the measure's column gathered at
    each row of index permutations."""
    return shuffled_column(kind, x, y, perm_idx.shape[1])[perm_idx]


@pytest.mark.parametrize("kind", list(Measure))
def test_permuted_scores_zero_where_score_dependency_is_degenerate(kind):
    strategy = DetectionStrategy(measure_kind=kind)
    rng = np.random.default_rng(3)
    column = lambda n: measured(kind, rng.integers(0, 4, size=n))
    constant = measured(kind, np.full(40, 2))
    cases = [(None, column(40)), (column(40), None), (constant, column(40)),
             (column(40), constant)]
    if kind in LEAST_SAMPLES:
        n = LEAST_SAMPLES[kind] - 1
        cases.append((column(n), column(n)))
    for x, y in cases:
        n = len(x if x is not None else y)
        score = detection.score_dependency([x], y, n, strategy)[0]
        assert score.value == 0.0
        assert score.degenerate or kind is Measure.MI  # constant categories: MI 0
        block = shuffled(kind, x, y, shuffles(n, rng))
        scores, error = permuted_scores(kind, x, y, block)
        assert scores.tolist() == [0.0] * 21 and error == 0.0
    # row 0 is the identity, so it carries the observed value
    for n in (60, 300):
        codes = rng.integers(0, 4, size=n)
        x, y = measured(kind, codes), measured(kind, (codes + rng.integers(0, 2, size=n)) % 4)
        observed = detection.score_dependency([x], y, n, strategy)[0]
        assert not observed.degenerate and observed.value > 0.1
        block = shuffled(kind, x, y, shuffles(n, rng))
        assert abs(permuted_scores(kind, x, y, block)[0][0] - observed.value) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 300, 8000])
def test_permuted_draws_the_stream_of_successive_permutations(n):
    # _permuted draws a partition's shuffles in one rng.permuted call; the
    # golden digests pin that stream to successive rng.permutation calls
    reps = 99
    one, each = np.random.default_rng(n), np.random.default_rng(n)
    rows = np.tile(np.arange(n), (reps, 1))
    one.permuted(rows, axis=1, out=rows)
    expected = np.array([each.permutation(n) for _ in range(reps)])
    assert np.array_equal(rows, expected)
    assert one.bit_generator.state == each.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 5, 300, 8000])
def test_permuted_swaps_do_not_depend_on_the_rows(n):
    # a block of a tied column shuffled in place holds the column gathered at
    # the shuffles of the sample index: what the permutation test relies on
    reps = 99
    column = np.random.default_rng(0).integers(0, 3, size=n) * 3
    rows, index = np.tile(column, (reps, 1)), np.tile(np.arange(n), (reps, 1))
    np.random.default_rng(n).permuted(rows, axis=1, out=rows)
    np.random.default_rng(n).permuted(index, axis=1, out=index)
    assert np.array_equal(rows, column[index])


# --- the permutation test in worker processes -----------------------------------------


def serial_permuted(c, strategy, rng):
    """The permutation test in one loop, each partition's index shuffles
    drawn into a fresh array just before the measure's column is gathered
    at them and scored: the reference that shuffling the column in place,
    in worker processes, must reproduce."""
    least = 0 if c.own_part is None else strategy.min_partition_size
    scored = [(len(idx), x, y) for (_, idx), x, y in zip(c.partitions, c.remote, c.perf)
              if len(idx) >= least]
    if not scored:
        return None
    weights = np.array([n_p for n_p, _, _ in scored], dtype=np.float64)
    stats = np.empty((strategy.permutations + 1, len(scored)))
    for j, (n_p, x, y) in enumerate(scored):
        # row 0 the identity; the rest as successive rng.permutation(n_p) calls
        perm_idx = np.tile(np.arange(n_p), (strategy.permutations + 1, 1))
        rng.permuted(perm_idx[1:], axis=1, out=perm_idx[1:])
        block = shuffled(strategy.measure_kind, x, y, perm_idx)
        stats[:, j] = exact_scores(strategy.measure_kind, x, y, block)
    return stats @ weights / weights.sum()


def exact_scores(kind, x, y, block):
    """Every row's exact score: MIC's, which its kernel estimates, is ``mic``
    of x gathered at the row; the other kernels' are exact."""
    scores, error = permuted_scores(kind, x, y, block.copy())
    if error:
        scores = np.array([mic(x[row], y).value for row in block])
    return scores


def serial_p_values(log, strategy):
    """Each entry's p-value, and the number of partitions its winner's
    test scores (0 for a raw winner)."""
    out = {}
    for key, side, own_parts, rng in detection._tasks(log, strategy, True, None):
        family = detection._with_remote(side, log, [(key[1:],)], strategy)[0]
        winner, _ = detection._search(family, key[1:], own_parts, strategy)
        stats = serial_permuted(winner, strategy, rng)
        p_value = 1.0 if stats is None else (
            (1 + int(np.sum(stats[1:] >= stats[0]))) / (strategy.permutations + 1))
        scored = 0 if winner.own_part is None else sum(
            len(idx) >= strategy.min_partition_size for _, idx in winner.partitions)
        out[key] = (p_value, scored)
    return out


def use_workers(monkeypatch, count):
    """W processes per matrix, the caller included, whatever the CPUs."""
    monkeypatch.setattr(detection, "_cpu_count", lambda: count)


def patched_fork(monkeypatch, outcomes):
    """``os.fork`` that forks or raises ``OSError`` as ``outcomes`` says,
    call by call; the list it returns grows by one per call."""
    calls = []
    fork = os.fork

    def patched():
        calls.append(None)
        if outcomes[len(calls) - 1] == "fail":
            raise OSError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", patched)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("measure", list(Measure), ids=lambda m: m.value)
def test_matrix_p_values_match_the_serial_permutation_test(monkeypatch, measure):
    # W = 2 and 3 fork on any host, and row subsets move each entry's worker
    strategy = DetectionStrategy(measure_kind=measure, lag_set=(0, 1, 2), permutations=20)
    forks = patched_fork(monkeypatch, ["fork"] * 2)
    scored = []
    for log in (three_agent_log(240), tie_log()):
        reference = serial_p_values(log, strategy)
        scored += [count for _, count in reference.values()]
        for targets in (None, ["B"], ["C", "A"]):
            expected = {key: p for key, (p, _) in reference.items()
                        if targets is None or key[0] in targets}
            texts = set()
            for workers in (1, 2, 3):
                use_workers(monkeypatch, workers)
                forks.clear()
                matrix = influence_matrix(log, strategy, targets=targets)
                assert len(forks) == workers - 1
                assert_no_child_left()
                assert list(matrix.entries) == list(expected)
                assert {key: e.p_value for key, e in matrix.entries.items()} == expected
                texts.add(matrix_to_json(matrix))
            assert len(texts) == 1
    assert 0 in scored and max(scored) >= 2  # raw winners, and several partitions


def exact_p_value(tests, strategy):
    """(1 + #{s_r >= s_0}) / (R + 1) from every row's exact score."""
    weights = np.array([rows.shape[1] for _, _, rows in tests], dtype=np.float64)
    stats = np.column_stack([exact_scores(strategy.measure_kind, x, y, rows)
                             for x, y, rows in tests])
    means = stats @ weights / weights.sum()
    return (1 + int(np.sum(means[1:] >= means[0]))) / (strategy.permutations + 1)


def repeat_row_zero(tests, share, rng):
    """Rows 1 .. share * R of each block repeat row 0; the rest are shuffles."""
    for _, _, rows in tests:
        repeats = round(share * (len(rows) - 1))
        rows[1 : 1 + repeats] = rows[0]
        rows[1 + repeats :] = rows[0][np.argsort(rng.random(rows[1 + repeats :].shape), axis=1)]


@pytest.mark.parametrize("share", [1.0, 0.5])
def test_mic_p_value_from_estimates_equals_the_exact_one(monkeypatch, share):
    # a row that repeats row 0 ties it exactly, inside any margin, so only
    # an exact score can count it; with every row repeated p must be 1
    strategy = DetectionStrategy(measure_kind=Measure.MIC, permutations=40)
    rng = np.random.default_rng(12)
    # the sample count of each column detection re-scores exactly, and the
    # column count of each call
    rescored, calls, score = [], [], detection.mic_columns

    def counted(xs, y):
        calls.append(len(xs))
        rescored.extend(len(x) for x in xs)
        return score(xs, y)

    monkeypatch.setattr(detection, "mic_columns", counted)
    synthetic, rescored_entries = [], 0
    for n, kind in ((30, "ties"), (120, "zeros"), (400, "continuous")):
        xv, yv = mic_columns(n, kind, rng)
        synthetic.append((xv, yv, np.tile(np.arange(n), (strategy.permutations + 1, 1))))
    log = tie_log()
    buffer = np.empty((strategy.permutations + 1) * len(log.records) * 2, dtype=np.int64)
    entries = [synthetic]
    for key, side, own_parts, entry_rng in detection._tasks(log, strategy, True, None):
        family = detection._with_remote(side, log, [(key[1:],)], strategy)[0]
        winner, _ = detection._search(family, key[1:], own_parts, strategy)
        entries.append(detection._partition_tests(winner, strategy, entry_rng, buffer.copy()))
    for tests in entries:
        repeat_row_zero(tests, share, rng)
        expected = exact_p_value(tests, strategy)
        rescored.clear()
        calls.clear()
        assert detection._p_value(tests, strategy) == expected
        if share == 1.0:
            assert expected == 1.0
        # row 0 and every repeat, the same rows in each partition that MIC
        # estimates (a degenerate one scores an exact 0 in every row)
        estimated = [rows.shape[1] for x, y, rows in tests
                     if permuted_scores(Measure.MIC, x, y, rows.copy())[1]]
        if not estimated:
            assert rescored == []
            continue
        unsure = len(rescored) // len(estimated)
        assert rescored == [n for n in estimated for _ in range(unsure)]
        assert unsure >= 1 + round(share * strategy.permutations)
        assert calls == [unsure] * len(estimated)  # one call per partition
        rescored_entries += 1
    assert len(entries) > 2 and max(len(tests) for tests in entries) >= 2
    assert rescored_entries > 2


def test_concurrent_matrices_match_the_serial_permutation_test(monkeypatch):
    # more callers than cores and a short switch interval: while other
    # threads run, each caller scores its entries alone and forks nothing,
    # and any state the callers shared would change a p-value
    use_workers(monkeypatch, 3)
    forks = patched_fork(monkeypatch, ["fail"] * 100)
    strategy = DetectionStrategy(lag_set=(0, 1, 2), permutations=20)
    logs = [three_agent_log(240, seed) for seed in range(6, 6 + (os.cpu_count() or 1) + 2)]
    expected = [{key: p for key, (p, _) in serial_p_values(log, strategy).items()}
                for log in logs]
    got = [None] * len(logs)

    def run(i):
        got[i] = {key: e.p_value for key, e in influence_matrix(logs[i], strategy).entries.items()}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(logs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == expected
    assert forks == []


def test_worker_w_scores_every_wth_entry_in_matrix_order(monkeypatch, tmp_path):
    use_workers(monkeypatch, 3)
    journal = tmp_path / "scored"
    score = detection._score_entry

    def recorded(log, strategy, task, buffer):
        with open(journal, "a") as out:
            out.write(f"{os.getpid()} {' '.join(task[0])}\n")
        return score(log, strategy, task, buffer)

    monkeypatch.setattr(detection, "_score_entry", recorded)
    keys = list(influence_matrix(three_agent_log(120), FAST).entries)
    assert_no_child_left()
    by_process = {}
    for line in journal.read_text().splitlines():
        pid, *key = line.split()
        by_process.setdefault(int(pid), []).append(tuple(key))
    assert by_process.pop(os.getpid()) == keys[0::3]
    assert sorted(by_process.values()) == sorted([keys[1::3], keys[2::3]])


@pytest.mark.parametrize("case", ["one-cpu", "no-fork", "no-affinity", "another-thread",
                                  "fork-fails", "second-fork-fails"])
def test_the_caller_scores_alone_where_it_cannot_fork(monkeypatch, case):
    log = three_agent_log(120)
    use_workers(monkeypatch, 1)
    expected = matrix_to_json(influence_matrix(log, FAST))
    use_workers(monkeypatch, 1 if case == "one-cpu" else 3)
    outcomes = {"fork-fails": ["fail"], "second-fork-fails": ["fork", "fail"]}
    forks = patched_fork(monkeypatch, outcomes.get(case, []))
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    if case == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    if case == "another-thread":
        other.start()
    try:
        assert matrix_to_json(influence_matrix(log, FAST)) == expected
    finally:
        release.set()
    if case == "another-thread":
        other.join(timeout=10)
        assert not other.is_alive()
    assert len(forks) == len(outcomes.get(case, []))
    assert_no_child_left()


FAILURES = {
    # for W = 2 and 3, a child fails first and the caller later, or the
    # caller first (on its first entry) and a child later
    "child-first": {5: InputError("entries[5]", "bad value"), 6: ValueError("entry 6")},
    "caller-first": {0: InternalConsistencyError("entry 0"), 1: ValueError("entry 1")},
}


def failing_entries(monkeypatch, log, failures):
    """``_score_entry`` raising ``failures[k]`` at the entry of index k in
    matrix order, in whichever process scores it."""
    keys = [task[0] for task in detection._tasks(log, FAST, True, None)]
    score = detection._score_entry

    def failing(log, strategy, task, buffer):
        k = keys.index(task[0])
        if k in failures:
            raise failures[k]
        return score(log, strategy, task, buffer)

    monkeypatch.setattr(detection, "_score_entry", failing)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", list(FAILURES))
def test_a_failed_entry_raises_the_serial_loops_error_and_leaves_no_child(
    monkeypatch, case, workers
):
    use_workers(monkeypatch, workers)
    log = three_agent_log(120)
    failures = FAILURES[case]
    failing_entries(monkeypatch, log, failures)
    first = failures[min(failures)]
    with pytest.raises(type(first)) as raised:
        influence_matrix(log, FAST)
    assert type(raised.value) is type(first)
    assert str(raised.value) == str(first)
    if isinstance(first, InputError):  # the CLI reads its path to exit 2
        assert (raised.value.path, raised.value.message) == (first.path, first.message)
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_row_that_fails_to_score_raises_its_error(monkeypatch, workers):
    # a row's families are built and scored together, so their error is the
    # row's, given at the row's lowest index in each worker's share
    use_workers(monkeypatch, workers)
    build = detection._with_remote

    def failing(side, log, remotes, strategy):
        if side[1].own_part[0] == "B":
            raise ValueError("row B")
        return build(side, log, remotes, strategy)

    monkeypatch.setattr(detection, "_with_remote", failing)
    with pytest.raises(ValueError, match="row B"):
        influence_matrix(three_agent_log(120), FAST)
    assert_no_child_left()


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class Unloadable(Exception):
    """Pickles, but its one argument cannot rebuild it."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("error", [Unpicklable("entry 7"), Unloadable("entry 7", "B")],
                         ids=["unpicklable", "unloadable"])
@pytest.mark.parametrize("workers", [1, 2])
def test_an_error_that_will_not_pickle_comes_back_as_a_runtime_error(
    monkeypatch, workers, error
):
    # entry 7 is a child's for W = 2
    use_workers(monkeypatch, workers)
    log = three_agent_log(120)
    failing_entries(monkeypatch, log, {7: error})
    with pytest.raises(Exception) as raised:
        influence_matrix(log, FAST)
    if workers == 1:
        assert raised.value is error
    else:
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == repr(error)
    assert_no_child_left()


def test_a_child_that_dies_fails_the_call(monkeypatch):
    use_workers(monkeypatch, 2)
    caller, score = os.getpid(), detection._score_entry

    def dying(log, strategy, task, buffer):
        if os.getpid() != caller:
            os._exit(3)
        return score(log, strategy, task, buffer)

    monkeypatch.setattr(detection, "_score_entry", dying)
    with pytest.raises(RuntimeError, match="ended with code 3"):
        influence_matrix(three_agent_log(120), FAST)
    assert_no_child_left()


@pytest.mark.parametrize("when", ["scoring", "waiting"])
def test_an_interrupted_caller_kills_and_reaps_every_child(monkeypatch, when):
    # the children would run for a minute; the caller is interrupted on its
    # first entry, or by a timer while it waits for their pipes
    use_workers(monkeypatch, 3)
    caller, score = os.getpid(), detection._score_entry

    def slow_children(log, strategy, task, buffer):
        if os.getpid() != caller:
            time.sleep(60)
            os._exit(0)
        if when == "scoring":
            raise KeyboardInterrupt
        return score(log, strategy, task, buffer)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(detection, "_score_entry", slow_children)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        if when == "waiting":
            signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(KeyboardInterrupt):
            influence_matrix(three_agent_log(120), FAST)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert_no_child_left()


# --- tie order of the candidate search ----------------------------------------------


def tie_log(m=50):
    """4m + 1 records scored exactly 1.0 or 0.0 by MI in several candidates.

    A's part ``x`` alternates and ``idle`` is constant.  B's performance is
    x XOR s for a sign s of period 0, 0, 1, 1; B's own part ``p`` is s, with
    the last record in a category of its own, and ``q`` is the next step's
    s.  So (p, lag 0) and (q, lag 1) both split B's samples into partitions
    where performance is a balanced function of x, and raw scores near 0.
    C's performance copies x and C.p is B.p: raw at lag 1 and p at both
    lags score 1.0.
    """
    n = 4 * m + 1
    cats = ("c0", "c1", "c2")
    x = [t % 2 for t in range(n)]
    s = [(t // 2) % 2 for t in range(n + 1)]
    p, q = s[: n - 1] + [2], s[1:]
    nominal = lambda name, k=3: ConfigPartSchema(name, Nominal(cats[:k]))
    schemas = (
        AgentSchema("A", (nominal("x", 2), nominal("idle", 2))),
        AgentSchema("B", (nominal("p"), nominal("q"))),
        AgentSchema("C", (nominal("p"),)),
    )
    records = tuple(
        SampleRecord(
            t,
            {("A", "x"): cats[x[t]], ("A", "idle"): "c0", ("B", "p"): cats[p[t]],
             ("B", "q"): cats[q[t]], ("C", "p"): cats[p[t]]},
            {"A": 0.0, "B": float(x[t] ^ s[t]), "C": float(x[t])},
        )
        for t in range(n)
    )
    return SampleLog(schemas, records)


def at_lag(log, target, remote, own, lag):
    return conditioned_influence(log, target, remote, own, DetectionStrategy(lag_set=(lag,)))


@pytest.mark.parametrize("lags", [(0, 1), (1, 0)])
def test_lag_ties_go_to_the_first_listed_lag(lags):
    log = tie_log()
    strategy = DetectionStrategy(lag_set=lags)
    raw = raw_influence(log, "B", ("A", "idle"), strategy)
    assert (raw.value, raw.lag) == (0.0, lags[0])
    assert [at_lag(log, "C", ("A", "x"), ("C", "p"), lag).aggregate for lag in lags] == [1.0, 1.0]
    cs = conditioned_influence(log, "C", ("A", "x"), ("C", "p"), strategy)
    assert (cs.aggregate, cs.lag) == (1.0, lags[0])


def test_matrix_own_part_tie_goes_to_the_first_own_part():
    # (q, lag 1) ties (p, lag 0) and comes first in lag order, but the
    # matrix searches own part by own part.
    log = tie_log()
    assert at_lag(log, "B", ("A", "x"), ("B", "q"), 1).aggregate == 1.0
    assert at_lag(log, "B", ("A", "x"), ("B", "p"), 0).aggregate == 1.0
    entry = influence_matrix(log, DetectionStrategy(lag_set=(1, 0))).entries[("B", "A", "x")]
    assert entry.best_conditioned.conditioning_part == ("B", "p")
    assert (entry.best_conditioned.lag, entry.best_lag) == (0, 0)
    assert entry.headline == 1.0 > entry.raw.value


def test_matrix_conditioned_tie_with_raw_goes_to_raw():
    entry = influence_matrix(tie_log(), DetectionStrategy(lag_set=(0, 1))).entries[("C", "A", "x")]
    assert entry.raw.value == entry.best_conditioned.aggregate == entry.headline == 1.0
    assert (entry.raw.lag, entry.best_conditioned.lag) == (1, 0)
    assert entry.best_lag == 1


@pytest.mark.parametrize("lags, own", [((1, 0), ("B", "q")), ((0, 1), ("B", "p"))])
def test_joint_tie_goes_to_the_first_lag_then_the_first_own_part(lags, own):
    strategy = DetectionStrategy(lag_set=lags, joint_pairs=True)
    pair = joint_influence(tie_log(), "B", (("A", "x"), ("A", "idle")), strategy)
    assert (pair.aggregate, pair.conditioning_part, pair.lag) == (1.0, own, lags[0])


@pytest.mark.parametrize(
    "log, strategy",
    [(overlap_pair_log, GOLDEN), (nominal_parts_log, GOLDEN),
     (overlap_pair_log, GOLDEN_MIC), (rounded_real_log, GOLDEN_MIC)],
    ids=["real", "nominal", "mic-real", "mic-rounded"],
)
def test_golden_entries_match_the_public_scores(log, strategy):
    log = log()
    for (target, remote, part), entry in influence_matrix(log, strategy).entries.items():
        assert entry.raw == raw_influence(log, target, (remote, part), strategy)
        per_own = [
            conditioned_influence(log, target, (remote, part), (target, own.name), strategy)
            for own in log.agent(target).parts
        ]
        best = max(per_own, key=lambda cs: -math.inf if cs.aggregate is None else cs.aggregate)
        assert entry.best_conditioned == best
