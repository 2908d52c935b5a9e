"""End-to-end command-line flows and the exit-code contract."""

import csv
import json
from pathlib import Path

import pytest

from influence_scope import run_scenario, scenario_from_dict
from influence_scope.cli import main
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


def test_detect_lag_beyond_log_is_input_error(tmp_path, capsys):
    log_path = write_log(tmp_path, coupled_log(200))
    code = main(["detect", str(log_path), "--lags", "0,500", "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "lag 500" in capsys.readouterr().err


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
         "p_value": 0.01, "influenced": True, "best_lag": 0, "best_conditioned": None}
    ],
}
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
    return main(["report", str(path), "--out", out])


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
        ("strategy", lambda d: [d], "expected an object"),
        ("strategy", lambda d: put(d, ["lag_set"], 3), "lag_set"),
        ("strategy", lambda d: put(d, ["permutations"], None), "permutations"),
        ("descriptor", lambda d: [d], "expected an object"),
        ("descriptor", lambda d: put(d, ["part_kinds"], 3), "part_kinds"),
        ("matrix", lambda d: put(d, ["entries", 0, "influenced"], DELETE),
         "entries[0].influenced"),
        ("matrix", lambda d: put(d, ["entries"], 5), "entries"),
    ],
    ids=lambda v: v if isinstance(v, str) else "edit",
)
def test_malformed_input_exits_2_with_field_path(tmp_path, capsys, command, edit, expected):
    base = {
        "log": lambda: json.loads(log_to_json(coupled_log(30))),
        "strategy": lambda: {"permutations": 20},
        "descriptor": lambda: json.loads(json.dumps(DESCRIPTOR)),
        "matrix": lambda: json.loads(json.dumps(MATRIX)),
    }[command]
    assert run_on(tmp_path, command, base()) == 0
    capsys.readouterr()
    assert run_on(tmp_path, command, edit(base())) == 2
    err = capsys.readouterr().err
    assert f"invalid {command}: {expected}" in err
    assert "Traceback" not in err


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
