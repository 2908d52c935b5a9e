"""End-to-end command-line flows and the exit-code contract."""

import csv
import json
from pathlib import Path

import pytest

from influence_scope import run_scenario, scenario_from_dict
from influence_scope.cli import main
from influence_scope.detection import MAX_PERMUTATIONS
from influence_scope.logio import log_to_json

from conftest import coupled_log, independent_log

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_log(tmp_path, log, name="log.json"):
    path = tmp_path / name
    path.write_text(log_to_json(log))
    return path


# --- simulate ---------------------------------------------------------------


def test_simulate_writes_log_and_csv(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(
        [
            "simulate",
            str(SCENARIOS / "overlap-pair.json"),
            "--steps",
            "40",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "40 records" in capsys.readouterr().out
    assert out.exists()
    assert (tmp_path / "run.csv").exists()


def test_simulate_summary_pinned_on_camera_trio(tmp_path, capsys):
    out = tmp_path / "trio.json"
    argv = ["simulate", str(SCENARIOS / "camera-trio.json"), "--steps", "300", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote 300 records to {out}",
        "mean system performance: 29.55",
    ]


def test_simulate_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "scen.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "x.json")]) == 2


def test_simulate_invalid_field_is_input_error(tmp_path, capsys):
    data = json.loads((SCENARIOS / "overlap-pair.json").read_text())
    del data["cameras"][0]["tilt_max"]
    bad = tmp_path / "scen.json"
    bad.write_text(json.dumps(data))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "x.json")]) == 2
    assert "cameras[0]" in capsys.readouterr().err


def test_simulate_missing_scenario_is_io_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["simulate", str(missing), "--out", str(tmp_path / "x.json")]) == 3


def test_simulate_unwritable_out_is_io_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    code = main(
        ["simulate", str(SCENARIOS / "overlap-pair.json"), "--steps", "5", "--out", str(out)]
    )
    assert code == 3


# --- detect ------------------------------------------------------------------


def test_detect_flags_exactly_the_coupled_entry(tmp_path, capsys):
    log_path = write_log(tmp_path, coupled_log(4000, seed=2))
    out = tmp_path / "matrix.json"
    code = main(
        ["detect", str(log_path), "--permutations", "99", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "B <- A.cfg" in printed
    matrix = json.loads(out.read_text())
    flagged = [
        (e["target"], e["remote_agent"]) for e in matrix["entries"] if e["influenced"]
    ]
    assert flagged == [("B", "A")]
    assert (tmp_path / "matrix.csv").exists()


def test_detect_quiet_on_independent_fixture(tmp_path, capsys):
    log_path = write_log(tmp_path, independent_log(2000, seed=4))
    out = tmp_path / "matrix.json"
    code = main(
        ["detect", str(log_path), "--permutations", "99", "--out", str(out)]
    )
    # finding nothing is a result, not an error
    assert code == 0
    assert "no influences flagged" in capsys.readouterr().out


def test_detect_invalid_log_is_input_error(tmp_path, capsys):
    data = json.loads(log_to_json(coupled_log(30)))
    del data["records"][5]["config"]["A.cfg"]
    log_path = tmp_path / "broken.json"
    log_path.write_text(json.dumps(data))
    code = main(["detect", str(log_path), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "validation" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, "fast", [1.0]])
def test_detect_non_numeric_performance_is_input_error(tmp_path, capsys, value):
    spec = scenario_from_dict(json.loads((SCENARIOS / "overlap-pair.json").read_text()))
    data = json.loads(log_to_json(run_scenario(spec, steps=30, seed=0)))
    data["records"][3]["performance"]["cam_a"] = value
    log_path = tmp_path / "broken.json"
    log_path.write_text(json.dumps(data))
    code = main(["detect", str(log_path), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "records[3].performance.cam_a" in capsys.readouterr().err


def test_detect_invalid_strategy_is_input_error(tmp_path):
    log_path = write_log(tmp_path, coupled_log(200))
    code = main(
        [
            "detect",
            str(log_path),
            "--alpha",
            "2.0",
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 2


def test_detect_entropy_strategy_is_input_error(tmp_path):
    log_path = write_log(tmp_path, coupled_log(200))
    strategy_path = tmp_path / "strategy.json"
    strategy_path.write_text(json.dumps({"measure": "entropy"}))
    code = main(
        [
            "detect",
            str(log_path),
            "--strategy",
            str(strategy_path),
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 2


def test_detect_unreadable_lag_exits_2(tmp_path, capsys):
    log_path = write_log(tmp_path, coupled_log(200))
    with pytest.raises(SystemExit) as raised:
        main(["detect", str(log_path), "--lags", "0,x", "--out", str(tmp_path / "m.json")])
    assert raised.value.code == 2
    assert "--lags" in capsys.readouterr().err


def test_detect_lag_beyond_log_is_input_error(tmp_path, capsys):
    log_path = write_log(tmp_path, coupled_log(200))
    code = main(["detect", str(log_path), "--lags", "0,500", "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "lag 500" in capsys.readouterr().err


@pytest.fixture(scope="module")
def five_step_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("short") / "run.json"
    argv = ["simulate", str(SCENARIOS / "overlap-pair.json"), "--steps", "5", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("lags", ["0,2", "0,3", "4"])
@pytest.mark.parametrize("measure", ["mi", "mic", "linear", "rank"])
def test_detect_lag_leaving_a_short_column_scores_it_as_degenerate(
    five_step_log, tmp_path, measure, lags
):
    # a lag of 2 leaves 3 samples, too few for MIC; one of 3 or 4 leaves
    # fewer than own_part_bins real own-part samples to bin
    out = tmp_path / "m.json"
    argv = ["detect", str(five_step_log), "--measure", measure, "--lags", lags]
    assert main([*argv, "--permutations", "20", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["entries"]


def test_detect_lag_of_the_record_count_is_still_refused(five_step_log, tmp_path, capsys):
    code = main(["detect", str(five_step_log), "--lags", "5", "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "lag 5 >= record count 5" in capsys.readouterr().err


def test_detect_missing_log_is_io_error(tmp_path):
    assert main(["detect", str(tmp_path / "nope.json"), "--out", str(tmp_path / "m.json")]) == 3


# --- recommend ------------------------------------------------------------------


def test_recommend_builtin_camera_network(capsys):
    assert main(["recommend", "--builtin", "scn"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"]["measure"] == "mic"
    assert payload["strategy"]["lag_set"] == [0]
    assert payload["strategy"]["joint_pairs"] is False
    assert payload["notes"]


def test_recommend_delayed_descriptor(tmp_path, capsys):
    descriptor = {
        "agent_scale": "small",
        "part_kinds": [{"kind": "nominal", "categories": 2}],
        "communication": {"kind": "free", "cost": None},
        "influence_locality": "neighborhood",
        "jointness": "pairwise",
        "dependency_class": "stochastic",
        "distinctiveness": "distinct",
        "temporality": {"delayed": True, "max_lag": 3},
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(descriptor))
    assert main(["recommend", "--descriptor", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"]["lag_set"] == [0, 1, 2, 3]


SCN_RECOMMENDATION = """\
{
  "notes": [
    "stochastic dependencies over real-valued parts: MIC searches binning grids for arbitrary dependency shapes"
  ],
  "strategy": {
    "alpha": 0.05,
    "joint_pairs": false,
    "lag_set": [
      0
    ],
    "measure": "mic",
    "min_partition_size": 25,
    "own_part_bins": 3,
    "permutations": 200,
    "seed": 0
  }
}
"""


def test_recommend_builtin_stdout_is_pinned(capsys):
    assert main(["recommend", "--builtin", "scn"]) == 0
    assert capsys.readouterr().out == SCN_RECOMMENDATION


DELAYED_JOINT_SUBTLE = {
    "agent_scale": "large",
    "part_kinds": [{"kind": "ordinal", "categories": 4}, {"kind": "infinite_real"}],
    "communication": {"kind": "neighbors_only", "cost": None},
    "influence_locality": "multi_hop",
    "jointness": "joint",
    "dependency_class": "stochastic",
    "distinctiveness": "subtle",
    "temporality": {"delayed": True, "max_lag": 2},
}
DELAYED_JOINT_SUBTLE_RECOMMENDATION = """\
{
  "notes": [
    "stochastic dependencies over real-valued parts: MIC searches binning grids for arbitrary dependency shapes",
    "delayed influence: scan lags 0..2",
    "joint influences: score composite remote-part pairs too",
    "subtle dependencies: more permutations and larger partitions stabilize the significance test",
    "large system with neighbor-limited communication: restrict candidate remote agents to declared neighborhoods"
  ],
  "strategy": {
    "alpha": 0.05,
    "joint_pairs": true,
    "lag_set": [
      0,
      1,
      2
    ],
    "measure": "mic",
    "min_partition_size": 50,
    "own_part_bins": 3,
    "permutations": 500,
    "seed": 0
  }
}
"""


def test_recommend_descriptor_stdout_is_pinned(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(DELAYED_JOINT_SUBTLE))
    assert main(["recommend", "--descriptor", str(path)]) == 0
    assert capsys.readouterr().out == DELAYED_JOINT_SUBTLE_RECOMMENDATION


def test_recommend_unknown_builtin_is_input_error():
    assert main(["recommend", "--builtin", "foo"]) == 2


def test_recommend_bad_descriptor_json_is_input_error(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("{oops")
    assert main(["recommend", "--descriptor", str(path)]) == 2


# --- report ---------------------------------------------------------------------


def detect_to_matrix(tmp_path):
    log_path = write_log(tmp_path, coupled_log(4000, seed=2))
    out = tmp_path / "matrix.json"
    assert main(["detect", str(log_path), "--permutations", "99", "--out", str(out)]) == 0
    return out


def test_report_ranks_flagged_first(tmp_path):
    matrix_path = detect_to_matrix(tmp_path)
    out = tmp_path / "report.txt"
    assert main(["report", str(matrix_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2].startswith("1. B <- A.cfg")
    assert "INFLUENCED" in lines[2]


def test_report_csv_round_trips_headline_scores(tmp_path):
    matrix_path = detect_to_matrix(tmp_path)
    out = tmp_path / "report.txt"
    assert main(["report", str(matrix_path), "--out", str(out)]) == 0
    matrix = json.loads(matrix_path.read_text())
    expected = {
        (e["target"], e["remote_agent"], e["remote_part"]): e["headline"]
        for e in matrix["entries"]
    }
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    parsed = {
        (r["target"], r["remote_agent"], r["remote_part"]): float(r["score"])
        for r in rows
    }
    assert parsed == expected


def test_report_empty_file_is_input_error(tmp_path):
    empty = tmp_path / "m.json"
    empty.write_text("")
    assert main(["report", str(empty), "--out", str(tmp_path / "r.txt")]) == 2


def test_report_non_matrix_json_is_input_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[1, 2, 3]")
    assert main(["report", str(path), "--out", str(tmp_path / "r.txt")]) == 2


# --- malformed input: exit 2 with the field path, never a traceback -------------------

DESCRIPTOR = {
    "agent_scale": "small",
    "part_kinds": [{"kind": "nominal", "categories": 2}],
    "communication": {"kind": "free", "cost": None},
    "influence_locality": "neighborhood",
    "jointness": "pairwise",
    "dependency_class": "stochastic",
    "distinctiveness": "distinct",
}
MATRIX = {
    "alpha": 0.05,
    "entries": [
        {"target": "B", "remote_agent": "A", "remote_part": "cfg", "headline": 0.5,
         "p_value": 0.01, "influenced": True, "best_lag": 0,
         "raw": {"value": 0.1, "measure": "mi", "sample_count": 60},
         "best_conditioned": {"remote": ["A", "cfg"], "conditioning_part": ["B", "cfg"],
                              "aggregate": 0.5, "lag": 0,
                              "per_partition": [{"label": "0", "count": 30,
                                                 "score": {"value": 0.5, "measure": "mi",
                                                           "sample_count": 30}}]}}
    ],
}
CONDITIONED = ["entries", 0, "best_conditioned"]
DELETE = object()


def put(doc, keys, value):
    """``doc`` with the item at ``keys`` replaced by ``value`` (or deleted)."""
    target = doc
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return doc


def run_on(tmp_path, command, doc):
    """Run ``command`` with ``doc`` as its JSON input file."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    if command == "log":
        return main(["detect", str(path), "--out", out])
    if command == "strategy":
        log_path = write_log(tmp_path, coupled_log(200))
        return main(["detect", str(log_path), "--strategy", str(path), "--out", out])
    if command == "descriptor":
        return main(["recommend", "--descriptor", str(path)])
    if command == "scenario":
        return main(["simulate", str(path), "--steps", "5", "--out", out])
    return main(["report", str(path), "--out", out])


REAL_KIND = ["schemas", 0, "parts", 0, "kind"]


@pytest.mark.parametrize(
    "command, edit, expected",
    [
        ("log", lambda d: put(d, ["records", 3, "t"], None), "records[3].t"),
        ("log", lambda d: put(d, ["records", 3, "config"], [1, 2]), "records[3].config"),
        ("log", lambda d: put(d, ["records", 3], 7), "records[3]: expected an object"),
        ("log", lambda d: [d], "expected an object"),
        ("log", lambda d: put(d, ["schemas", 0, "parts"], 4), "schemas[0].parts"),
        ("log", lambda d: put(d, ["schemas", 0, "parts", 0, "kind", "categories"], 2),
         "schemas[0].parts[0].kind.categories"),
        ("log", lambda d: put(d, ["schemas", 0, "parts", 0, "kind", "categories"], "ab"),
         "schemas[0].parts[0].kind.categories: expected a list"),
        ("log", lambda d: put(d, REAL_KIND, {"type": "real", "lower": "0", "upper": 1.0}),
         "schemas[0].parts[0].kind.lower: expected a number"),
        ("log", lambda d: put(d, REAL_KIND, {"type": "real", "lower": 0.0, "upper": True}),
         "schemas[0].parts[0].kind.upper: expected a number"),
        ("log", lambda d: put(d, ["schemas", 0, "owner"], "x"),
         "schemas[0].owner: not a schema field"),
        ("log", lambda d: put(d, ["records", 3, "t"], 2.7), "records[3].t: expected an integer"),
        ("log", lambda d: put(d, ["records", 3, "t"], "5"), "records[3].t: expected an integer"),
        ("log", lambda d: put(d, ["records", 3, "t"], 3.0), "records[3].t: expected an integer"),
        ("log", lambda d: put(d, ["records", 3, "performance", "A"], "1.5"),
         "records[3].performance.A: expected a number"),
        ("log", lambda d: put(d, ["records", 3, "performance", "A"], True),
         "records[3].performance.A: expected a number"),
        ("strategy", lambda d: [d], "expected an object"),
        ("strategy", lambda d: put(d, ["lag_set"], 3), "lag_set"),
        ("strategy", lambda d: put(d, ["permutations"], None), "permutations"),
        ("strategy", lambda d: json.loads(SCN_RECOMMENDATION), "notes: not a strategy field"),
        ("strategy", lambda d: put(d, ["joint_pairs"], "false"),
         "joint_pairs: expected true or false"),
        ("strategy", lambda d: put(d, ["lag_set"], "12"), "lag_set: expected a list"),
        ("strategy", lambda d: put(d, ["lag_set"], [True, 2.7]),
         "lag_set[0]: expected an integer"),
        ("strategy", lambda d: put(d, ["lag_set"], [0, 2.7]), "lag_set[1]: expected an integer"),
        ("strategy", lambda d: put(d, ["own_part_bins"], 2.9),
         "own_part_bins: expected an integer"),
        ("strategy", lambda d: put(d, ["permutations"], 20.99),
         "permutations: expected an integer"),
        ("strategy", lambda d: put(d, ["permutations"], 20.0),
         "permutations: expected an integer"),
        ("strategy", lambda d: put(d, ["seed"], "3"), "seed: expected an integer"),
        ("strategy", lambda d: put(d, ["alpha"], "0.1"), "alpha: expected a number"),
        ("strategy", lambda d: put(d, ["own_part_bins"], 1), "own_part_bins: must be >= 2"),
        ("strategy", lambda d: put(d, ["min_partition_size"], 3),
         "min_partition_size: must be >= 4"),
        ("strategy", lambda d: put(d, ["alpha"], 1.0), "alpha: must lie in (0, 1)"),
        ("strategy", lambda d: put(d, ["permutations"], 19),
         f"permutations: must lie in [20, {MAX_PERMUTATIONS}], got 19"),
        ("strategy", lambda d: put(d, ["permutations"], 2**62), "permutations: must lie in"),
        ("strategy", lambda d: put(d, ["permutations"], 10**400), "permutations: must lie in"),
        ("strategy", lambda d: put(d, ["permutations"], MAX_PERMUTATIONS + 1),
         f"permutations: must lie in [20, {MAX_PERMUTATIONS}], got {MAX_PERMUTATIONS + 1}"),
        ("strategy", lambda d: put(d, ["lag_set"], []), "lag_set: must be non-empty"),
        ("strategy", lambda d: put(d, ["lag_set"], [0, -1]), "lag_set: must be non-empty"),
        ("strategy", lambda d: put(d, ["seed"], -1), "seed: must be >= 0"),
        ("descriptor", lambda d: [d], "expected an object"),
        ("descriptor", lambda d: put(d, ["part_kinds"], 3), "part_kinds"),
        ("descriptor", lambda d: put(d, ["temporality"], {"delayed": "false", "max_lag": 0}),
         "temporality.delayed: expected true or false"),
        ("descriptor", lambda d: put(d, ["hardware_heterogeneous"], 1),
         "hardware_heterogeneous: expected true or false"),
        ("descriptor", lambda d: put(d, ["part_kinds", 0, "categories"], "2"),
         "part_kinds[0].categories: expected an integer"),
        ("descriptor", lambda d: put(d, ["colour"], "red"), "colour: not a descriptor field"),
        ("descriptor", lambda d: put(d, ["communication", "hops"], 2),
         "communication.hops: not a communication field"),
        ("descriptor", lambda d: put(d, ["communication", "cost"], "low"),
         "communication: cost level only applies to multi-hop communication"),
        ("descriptor", lambda d: put(d, ["temporality"], {"delayed": False, "max_lag": 2}),
         "temporality: immediate influence must not carry a lag"),
        ("scenario", lambda d: put(d, ["arrival_rate"], -5), "arrival_rate: must be >= 0"),
        ("scenario", lambda d: put(d, ["detection_radius"], -1),
         "detection_radius: must be >= 0"),
        ("scenario", lambda d: put(d, ["scene", "width"], 0), "scene.width: must be > 0"),
        ("scenario", lambda d: put(d, ["steps"], 0), "steps: must be >= 1"),
        ("scenario", lambda d: put(d, ["steps"], 5.0), "steps: expected an integer"),
        ("scenario", lambda d: put(d, ["scene", "depth"], 10), "scene.depth: not a scene field"),
        ("scenario", lambda d: put(d, ["width"], 10), "width: not a scenario field"),
        ("scenario", lambda d: put(d, ["policy"], "fixed"), "policy: unknown policy 'fixed'"),
        ("scenario", lambda d: put(d, ["cameras", 0, "id"], "cam_far"),
         "cameras[2].id: duplicate camera id 'cam_far'"),
        ("scenario", lambda d: put(d, ["seed"], -1), "seed: must be >= 0"),
        ("matrix", lambda d: put(d, ["entries", 0, "influenced"], DELETE),
         "entries[0].influenced"),
        ("matrix", lambda d: put(d, ["entries"], 5), "entries"),
        ("matrix", lambda d: put(d, ["alpha"], "0.05"), "alpha: expected a number"),
        ("matrix", lambda d: put(d, ["entries", 0, "target"], 1),
         "entries[0].target: expected a string"),
        ("matrix", lambda d: put(d, ["entries", 0, "remote_part"], None),
         "entries[0].remote_part: expected a string"),
        ("matrix", lambda d: put(d, ["entries", 0, "best_lag"], [1]),
         "entries[0].best_lag: expected an integer"),
        ("matrix", lambda d: put(d, ["entries", 0, "best_lag"], True),
         "entries[0].best_lag: expected an integer"),
        ("matrix", lambda d: put(d, ["entries", 0, "best_lag"], -1),
         "entries[0].best_lag: expected a non-negative integer"),
        ("matrix", lambda d: put(d, ["entries", 0, "influenced"], "yes"),
         "entries[0].influenced: expected true or false"),
        ("matrix", lambda d: put(d, CONDITIONED + ["aggregate"], "a"),
         "entries[0].best_conditioned.aggregate: expected a number"),
        ("matrix", lambda d: put(d, CONDITIONED + ["conditioning_part"], ["B", 3]),
         "entries[0].best_conditioned.conditioning_part[1]: expected a string"),
        ("matrix", lambda d: put(d, CONDITIONED + ["per_partition", 0, "count"], "many"),
         "entries[0].best_conditioned.per_partition[0].count: expected an integer"),
        ("matrix", lambda d: put(d, CONDITIONED + ["per_partition", 0, "count"], 30.0),
         "entries[0].best_conditioned.per_partition[0].count: expected an integer"),
        ("matrix", lambda d: put(d, CONDITIONED + ["per_partition", 0, "count"], -30),
         "entries[0].best_conditioned.per_partition[0].count: expected a non-negative integer"),
        ("matrix", lambda d: put(d, ["entries"], d["entries"] * 2),
         "entries[1]: repeats the entry of B/A/cfg"),
        ("matrix", lambda d: put(d, ["colour"], "red"), "colour: not a matrix field"),
        ("matrix", lambda d: put(d, ["entries", 0, "colour"], "red"),
         "entries[0].colour: not an entry field"),
        ("matrix", lambda d: put(d, CONDITIONED + ["per_partition", 0, "label"], 0),
         "entries[0].best_conditioned.per_partition[0].label: expected a string"),
    ],
    ids=lambda v: v if isinstance(v, str) else "edit",
)
def test_malformed_input_exits_2_with_field_path(tmp_path, capsys, command, edit, expected):
    base = {
        "log": lambda: json.loads(log_to_json(coupled_log(30))),
        "strategy": lambda: {"permutations": 20},
        "descriptor": lambda: json.loads(json.dumps(DESCRIPTOR)),
        "matrix": lambda: json.loads(json.dumps(MATRIX)),
        "scenario": lambda: json.loads((SCENARIOS / "overlap-pair.json").read_text()),
    }[command]
    assert run_on(tmp_path, command, base()) == 0
    capsys.readouterr()
    assert run_on(tmp_path, command, edit(base())) == 2
    err = capsys.readouterr().err
    assert f"invalid {command}: {expected}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "option, value, expected",
    [("--seed", "-1", "must be >= 0"), ("--steps", "0", "must be >= 1"),
     ("--seed", "2.5", "invalid integer value"), ("--steps", "x", "invalid integer value")],
)
def test_simulate_bad_option_exits_2_naming_it(tmp_path, capsys, option, value, expected):
    # refused before the scenario is read, never blamed on it
    with pytest.raises(SystemExit) as raised:
        main(["simulate", str(SCENARIOS / "overlap-pair.json"), option, value,
              "--out", str(tmp_path / "out.json")])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: {expected}" in err and "invalid scenario" not in err


@pytest.mark.parametrize("command", ["simulate", "detect", "report"])
def test_out_ending_in_csv_exits_2_before_any_work(tmp_path, capsys, command):
    # the CSV written alongside would take the same name and overwrite it;
    # the input is missing, so any work done would exit 3 instead
    with pytest.raises(SystemExit) as raised:
        main([command, str(tmp_path / "missing.json"), "--out", str(tmp_path / "run.csv")])
    assert raised.value.code == 2
    assert "argument --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_detect_missing_strategy_is_io_error(tmp_path):
    log_path = write_log(tmp_path, coupled_log(200))
    code = main(
        ["detect", str(log_path), "--strategy", str(tmp_path / "nope.json"),
         "--out", str(tmp_path / "m.json")]
    )
    assert code == 3


# --- determinism across full runs ---------------------------------------------------


def test_simulate_detect_byte_identical(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        log_out = tmp_path / f"log-{tag}.json"
        matrix_out = tmp_path / f"matrix-{tag}.json"
        assert (
            main(
                [
                    "simulate",
                    str(SCENARIOS / "overlap-pair.json"),
                    "--steps",
                    "300",
                    "--seed",
                    "11",
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
                    "49",
                    "--out",
                    str(matrix_out),
                ]
            )
            == 0
        )
        outputs.append(matrix_out.read_bytes())
    assert outputs[0] == outputs[1]


# --- values that read as numbers but no later stage can use ---------------------------


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize(
    "keys, path",
    [(["scene", "width"], "scene.width"), (["scene", "height"], "scene.height"),
     (["cameras", 0, "zoom_max"], "cameras[0].zoom_max"), (["arrival_rate"], "arrival_rate")],
    ids=["scene.width", "scene.height", "zoom_max", "arrival_rate"],
)
def test_simulate_non_finite_number_exits_2_with_field_path(tmp_path, capsys, keys, path, value):
    data = put(json.loads((SCENARIOS / "overlap-pair.json").read_text()), keys, value)
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps(data))  # Infinity, -Infinity and NaN, as Python writes them
    assert main(["simulate", str(scenario), "--steps", "5", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert f"invalid scenario: {path}: expected a finite number" in err
    assert "Traceback" not in err


LENGTHS = [(["cameras", 0, "pose", "z"], "cameras[0].pose.z", "pose.z"),
           (["cameras", 1, "pose", "x"], "cameras[1].pose.x", "pose.x"),
           (["cameras", 0, "pose", "y"], "cameras[0].pose.y", "pose.y"),
           (["detection_radius"], "detection_radius", "detection_radius"),
           (["scene", "width"], "scene.width", "scene.width")]


@pytest.mark.parametrize(
    "keys, path, value, limit",
    [pytest.param(keys, path, value, "1e+100", id=f"{name}-{value:g}")
     for keys, path, name in LENGTHS for value in (1e308, -1e101)]
    + [pytest.param(["arrival_rate"], "arrival_rate", value, "1e+06", id=f"arrival_rate-{value:g}")
       for value in (1e12, 1e200)],
)
def test_simulate_huge_length_exits_2_with_field_path(tmp_path, capsys, keys, path, value, limit):
    # finite, but the footprint arithmetic would square a length past the
    # float range, and a step's arrivals would not fit in memory
    data = put(json.loads((SCENARIOS / "overlap-pair.json").read_text()), keys, value)
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps(data))
    assert main(["simulate", str(scenario), "--steps", "5", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert f"invalid scenario: {path}: magnitude above {limit}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_lag, code", [(10**400, 2), (1001, 2), (1000, 0)],
                         ids=["10^400", "1001", "1000"])
def test_recommend_bounds_max_lag(tmp_path, capsys, max_lag, code):
    doc = {**DESCRIPTOR, "temporality": {"delayed": True, "max_lag": max_lag}}
    assert run_on(tmp_path, "descriptor", doc) == code
    err = capsys.readouterr().err
    assert ("invalid descriptor: temporality.max_lag" in err) == (code == 2)
    assert "Traceback" not in err


def test_detect_time_step_beyond_int64_is_a_finding(tmp_path, capsys):
    doc = json.loads(log_to_json(coupled_log(30)))
    doc["records"][3]["t"] = 10**400
    assert run_on(tmp_path, "log", doc) == 2
    err = capsys.readouterr().err
    assert "record=3 t: time step" in err and "does not fit in 64 bits" in err
    assert "Traceback" not in err


def test_detect_real_part_beyond_float_range_is_a_finding(tmp_path, capsys):
    spec = scenario_from_dict(json.loads((SCENARIOS / "overlap-pair.json").read_text()))
    doc = json.loads(log_to_json(run_scenario(spec, steps=30, seed=0)))
    doc["records"][2]["config"]["cam_a.zoom"] = 10**400
    assert run_on(tmp_path, "log", doc) == 2
    err = capsys.readouterr().err
    assert "record=2 cam_a.zoom: value" in err and "outside" in err
    assert "Traceback" not in err


def test_detect_partitions_smaller_than_own_part_bins_score_as_degenerate(tmp_path, capsys):
    # Each own-part partition of B's real performance has about 100 samples,
    # too few for 150 quantile bins.
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({"own_part_bins": 150}))
    out = tmp_path / "m.json"
    log_path = write_log(tmp_path, independent_log(200, seed=1))
    assert main(["detect", str(log_path), "--strategy", str(strategy), "--out", str(out)]) == 0
    for entry in json.loads(out.read_text())["entries"]:
        partitions = entry["best_conditioned"]["per_partition"]
        assert partitions and all(p["score"]["degenerate"] for p in partitions)
