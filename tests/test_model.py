"""Sample-log data model: schemas, validation, column extraction and the
canonical serialization round trip."""

import csv
import hashlib
import io
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from influence_scope import (
    AgentSchema,
    CategorySeries,
    ConfigPartSchema,
    ConfigSelector,
    Nominal,
    Ordinal,
    PerformanceSelector,
    RealInterval,
    RealSeries,
    SampleLog,
    SampleRecord,
    discrete_mutual_information,
    extract_series,
    run_scenario,
    scenario_from_dict,
    validate_log,
)
from influence_scope.errors import InputError
from influence_scope.model import Issue
from influence_scope import model
from influence_scope.logio import log_from_dict, log_from_json, log_to_csv, log_to_json, write_log

from conftest import SHARED_KEYS, coupled_log, independent_log, renamed_log_doc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def camera_like_log(n=5):
    schema = AgentSchema(
        "cam",
        (
            ConfigPartSchema("pan", RealInterval(0.0, 6.2832)),
            ConfigPartSchema("mode", Nominal(("wide", "narrow"))),
        ),
    )
    records = tuple(
        SampleRecord(
            t=t,
            config={("cam", "pan"): 0.5 + 0.1 * t, ("cam", "mode"): "wide"},
            performance={"cam": float(t)},
        )
        for t in range(n)
    )
    return SampleLog(schemas=(schema,), records=records)


def with_record(log, index, **changes):
    """The log with one record's fields replaced."""
    record = replace(log.records[index], **changes)
    return SampleLog(
        log.schemas, log.records[:index] + (record,) + log.records[index + 1 :]
    )


# --- schema invariants ---------------------------------------------------------


def test_nominal_needs_two_categories():
    with pytest.raises(ValueError):
        Nominal(("only",))


def test_ordinal_rejects_duplicate_categories():
    with pytest.raises(ValueError):
        Ordinal(("a", "a"))


def test_real_interval_needs_positive_width():
    with pytest.raises(ValueError):
        RealInterval(1.0, 1.0)


def test_agent_schema_rejects_duplicate_parts():
    part = ConfigPartSchema("p", Nominal(("a", "b")))
    with pytest.raises(ValueError):
        AgentSchema("x", (part, part))


@pytest.mark.parametrize(
    "make, part, kind, field, message",
    [
        (lambda: Nominal((1, 2)), 1, {"categories": [1, 2]}, "categories[0]",
         "expected a string, got 1"),
        (lambda: RealInterval(-math.inf, math.inf), 0, {"lower": -math.inf, "upper": math.inf},
         "lower", "expected a finite number, got -inf"),
    ],
    ids=["non-string-label", "infinite-bound"],
)
def test_a_kind_refuses_what_the_log_reader_refuses_with_its_message(
    make, part, kind, field, message
):
    # such a kind built a valid log whose JSON the log reader refused
    with pytest.raises(InputError) as built:
        make()
    assert (built.value.path, built.value.message) == (field, message)
    doc = json.loads(log_to_json(camera_like_log()))
    doc["schemas"][0]["parts"][part]["kind"].update(kind)
    with pytest.raises(InputError) as read:
        log_from_dict(doc)
    assert (read.value.path, read.value.message) == (
        f"schemas[0].parts[{part}].kind.{field}", message)


def test_a_category_column_codes_numpy_strings_and_refuses_other_labels():
    records = [SampleRecord(t, {("cam", "pan"): 1.0, ("cam", "mode"): mode}, {"cam": 0.5})
               for t, mode in enumerate([np.str_("narrow"), "wide", 1, ("wide",), ["wide"]])]
    log = SampleLog(camera_like_log().schemas, records)
    assert log.columns[ConfigSelector("cam", "mode")].tolist() == [1, 0, -1, -1, -1]
    assert [(i.record_index, i.message) for i in log.issues] == [
        (2, "unknown category 1"), (3, "unknown category ('wide',)"),
        (4, "unknown category ['wide']")]


# --- validate_log ---------------------------------------------------------------


def test_validate_well_formed_log():
    assert validate_log(coupled_log(50)) == []


def test_validate_reports_missing_part_value():
    log = camera_like_log()
    broken = log.records[2]
    config = dict(broken.config)
    del config[("cam", "pan")]
    records = (
        log.records[:2]
        + (SampleRecord(broken.t, config, broken.performance),)
        + log.records[3:]
    )
    issues = validate_log(SampleLog(log.schemas, records))
    assert len(issues) == 1
    assert issues[0].record_index == 2
    assert issues[0].path == "cam.pan"


def test_validate_reports_out_of_range_real():
    log = camera_like_log()
    bad = dict(log.records[0].config)
    bad[("cam", "pan")] = 7.0
    records = (SampleRecord(0, bad, log.records[0].performance),) + log.records[1:]
    issues = validate_log(SampleLog(log.schemas, records))
    assert len(issues) == 1
    assert "7.0" in issues[0].message
    assert issues[0].path == "cam.pan"


def test_validate_reports_unknown_category():
    log = camera_like_log()
    bad = dict(log.records[1].config)
    bad[("cam", "mode")] = "zoomed"
    records = (
        log.records[:1]
        + (SampleRecord(1, bad, log.records[1].performance),)
        + log.records[2:]
    )
    issues = validate_log(SampleLog(log.schemas, records))
    assert [i.path for i in issues] == ["cam.mode"]


def test_validate_reports_non_increasing_time():
    log = camera_like_log()
    r = log.records[3]
    records = log.records[:3] + (SampleRecord(1, r.config, r.performance),) + log.records[4:]
    issues = validate_log(SampleLog(log.schemas, records))
    assert any(i.path == "t" for i in issues)


def test_validate_reports_non_finite_performance():
    log = camera_like_log()
    r = log.records[0]
    records = (SampleRecord(0, r.config, {"cam": float("nan")}),) + log.records[1:]
    issues = validate_log(SampleLog(log.schemas, records))
    assert [i.path for i in issues] == ["cam.perf"]


def test_validate_reports_duplicate_agent_id():
    log = camera_like_log()
    twice = SampleLog(log.schemas * 2, log.records)
    assert validate_log(twice) == [Issue(None, "cam", "duplicate agent id")]


def test_validate_reports_negative_time():
    log = with_record(camera_like_log(), 0, t=-1)
    assert validate_log(log) == [Issue(0, "t", "negative time step -1")]


@pytest.mark.parametrize("t", [2**63, 10**400, -(2**63) - 1], ids=["2^63", "10^400", "-2^63-1"])
def test_validate_reports_time_step_beyond_int64(t):
    log = with_record(camera_like_log(), 2, t=t)
    issues = [i for i in validate_log(log) if "64 bits" in i.message]
    assert [(i.record_index, i.path) for i in issues] == [(2, "t")]
    assert len(issues[0].message) < 100


def test_time_steps_at_the_int64_limits_are_valid():
    log = camera_like_log(2)
    low, high = -(2**63), 2**63 - 1
    first, second = log.records  # a log with findings has no records view
    log = SampleLog(log.schemas, (replace(first, t=low), replace(second, t=high)))
    assert validate_log(log) == [Issue(0, "t", f"negative time step {low}")]


def test_validate_reports_undeclared_part():
    log = camera_like_log()
    config = {**log.records[2].config, ("cam", "roll"): 0.1}
    issues = validate_log(with_record(log, 2, config=config))
    assert issues == [Issue(2, "cam.roll", "undeclared config part")]


@pytest.mark.parametrize("value, shown", [("wide", "'wide'"), (True, "True")],
                         ids=["string", "boolean"])
def test_validate_reports_non_numeric_real(value, shown):
    log = camera_like_log()
    config = {**log.records[1].config, ("cam", "pan"): value}
    issues = validate_log(with_record(log, 1, config=config))
    assert issues == [Issue(1, "cam.pan", f"non-finite value {shown}")]


def test_json_boolean_real_is_a_finding():
    doc = json.loads(log_to_json(camera_like_log()))
    doc["records"][2]["config"]["cam.pan"] = True
    log = log_from_dict(doc)
    assert validate_log(log) == [Issue(2, "cam.pan", "non-finite value True")]


def test_validate_reports_missing_performance():
    log = with_record(camera_like_log(), 3, performance={})
    assert validate_log(log) == [Issue(3, "cam.perf", "missing performance")]


def test_validate_reports_performance_for_unknown_agent():
    log = with_record(camera_like_log(), 4, performance={"cam": 4.0, "ghost": 1.0})
    issues = validate_log(log)
    assert issues == [Issue(4, "ghost.perf", "performance for unknown agent")]


def test_validate_orders_findings_within_a_record():
    log = camera_like_log()
    config = {("cam", "roll"): 0.1, ("cam", "mode"): "zoomed"}
    broken = with_record(
        log, 2, t=-2, config=config, performance={"ghost": 1.0}
    )
    assert validate_log(broken) == [
        Issue(2, "t", "negative time step -2"),
        Issue(2, "t", "time steps not strictly increasing (1 -> -2)"),
        Issue(2, "cam.roll", "undeclared config part"),
        Issue(2, "cam.pan", "missing config value"),
        Issue(2, "cam.mode", "unknown category 'zoomed'"),
        Issue(2, "cam.perf", "missing performance"),
        Issue(2, "ghost.perf", "performance for unknown agent"),
    ]


# --- extract_series --------------------------------------------------------------


def test_extract_lag_zero_full_length():
    log = coupled_log(100)
    series = extract_series(log, ConfigSelector("A", "cfg"), lag=0)
    assert isinstance(series, CategorySeries)
    assert len(series) == 100


def test_extract_lag_trims_symmetrically():
    log = coupled_log(100)
    cfg = extract_series(log, ConfigSelector("A", "cfg"), lag=3)
    perf = extract_series(log, PerformanceSelector("B"), lag=3)
    assert len(cfg) == 97
    assert len(perf) == 97
    # performance side drops its first `lag` entries
    assert perf.values[0] == log.records[3].performance["B"]


def test_extract_lag_beyond_records_rejected():
    with pytest.raises(ValueError):
        extract_series(coupled_log(10), ConfigSelector("A", "cfg"), lag=10)


def test_extract_rejects_log_with_findings():
    log = with_record(camera_like_log(), 1, performance={"cam": float("nan")})
    with pytest.raises(ValueError):
        extract_series(log, ConfigSelector("cam", "mode"))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: camera_like_log().schemas[0].part("zoom"), KeyError,
         "agent 'cam' has no part 'zoom'"),
        (lambda: camera_like_log().agent("dome"), KeyError, "unknown agent 'dome'"),
        (lambda: extract_series(camera_like_log(), ConfigSelector("cam", "mode"), lag=-1),
         ValueError, "lag must be >= 0"),
    ],
    ids=["unknown-part", "unknown-agent", "negative-lag"],
)
def test_model_refuses_a_bad_argument(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CategorySeries([0, 3], 3), "category identifiers must lie in [0, 3)"),
        (lambda: CategorySeries([-1, 0], 2), "category identifiers must lie in [0, 2)"),
        (lambda: CategorySeries([0], 0), "n_categories must be >= 1"),
        (lambda: RealSeries([]), "RealSeries requires a non-empty 1-D sequence"),
        (lambda: RealSeries([0.5, math.inf]), "RealSeries entries must be finite"),
    ],
    ids=["id-too-large", "negative-id", "no-categories", "empty", "infinite"],
)
def test_series_refuses_a_bad_column(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def delayed_copy_log(n=400, seed=1):
    """B's performance at step t equals A's config at step t-1."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    cats = ("c1", "c2")
    records = []
    for t in range(n):
        prev = a[t - 1] if t > 0 else 0
        records.append(
            SampleRecord(
                t=t,
                config={("A", "cfg"): cats[a[t]], ("B", "cfg"): "c1" if t % 2 else "c2"},
                performance={"A": 0.5, "B": float(prev)},
            )
        )
    schemas = (
        AgentSchema("A", (ConfigPartSchema("cfg", Nominal(cats)),)),
        AgentSchema("B", (ConfigPartSchema("cfg", Nominal(cats)),)),
    )
    return SampleLog(schemas=schemas, records=tuple(records))


def test_delay_one_alignment_recovers_the_copy():
    log = delayed_copy_log()
    perf_bins = lambda series: CategorySeries(
        series.values.astype(np.int64), 2
    )
    cfg0 = extract_series(log, ConfigSelector("A", "cfg"), lag=0)
    cfg1 = extract_series(log, ConfigSelector("A", "cfg"), lag=1)
    perf0 = perf_bins(extract_series(log, PerformanceSelector("B"), lag=0))
    perf1 = perf_bins(extract_series(log, PerformanceSelector("B"), lag=1))
    assert discrete_mutual_information(cfg1, perf1).value == pytest.approx(1.0, abs=0.01)
    assert discrete_mutual_information(cfg0, perf0).value < 0.05


# --- canonical round trips --------------------------------------------------------


def test_json_round_trip_is_byte_identical():
    log = coupled_log(40, seed=5)
    text = log_to_json(log)
    assert log_to_json(log_from_json(text)) == text


def test_json_bytes_pinned_on_every_part_kind():
    schema = AgentSchema(
        "a",
        (
            ConfigPartSchema("mode", Nominal(("wide", "narrow"))),
            ConfigPartSchema("level", Ordinal(("lo", "mid", "hi"))),
            ConfigPartSchema("pan", RealInterval(-1.5, 2.25)),
        ),
    )
    records = tuple(
        SampleRecord(
            t=t,
            config={("a", "mode"): ("wide", "narrow")[t % 2],
                     ("a", "level"): ("lo", "mid", "hi")[t % 3], ("a", "pan"): 0.1 * t - 1.0},
            performance={"a": t / 3},
        )
        for t in range(6)
    )
    text = log_to_json(SampleLog(schemas=(schema,), records=records))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c14653e2c57f32f9682c5e83ad720c065cba1c2576ff2e07f3521a93ba735d6d"
    )


def test_csv_bytes_pinned_on_every_part_kind():
    schema = AgentSchema(
        "a",
        (
            ConfigPartSchema("mode", Nominal(("wide", "narrow"))),
            ConfigPartSchema("level", Ordinal(("lo", "mid", "hi"))),
            ConfigPartSchema("pan", RealInterval(-1.5, 2.25)),
        ),
    )
    records = tuple(
        SampleRecord(
            t=t,
            config={("a", "mode"): ("wide", "narrow")[t % 2],
                     ("a", "level"): ("lo", "mid", "hi")[t % 3], ("a", "pan"): 0.1 * t - 1.0},
            performance={"a": t / 3},
        )
        for t in range(6)
    )
    text = log_to_csv(SampleLog(schemas=(schema,), records=records))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a6e4461c79816c3a696654403296521144f7448904042b046b451f3e449b2c97"
    )


LABELS = ('say "hi"', "a,b", "é", "")


def unsorted_log(n):
    """Agents and parts declared out of sorted key order, labels that need
    quoting or escaping, and an agent with no parts."""
    real, level = RealInterval(-1.0, 1.0), Ordinal(("lo", "hi"))
    schemas = (
        AgentSchema("b", (ConfigPartSchema("z", Nominal(LABELS)),
                          ConfigPartSchema("a", real),
                          ConfigPartSchema("p10", level),
                          ConfigPartSchema("p2", Nominal(LABELS)))),
        AgentSchema("a", ()),
        AgentSchema("a_b", (ConfigPartSchema("p2", real),
                            ConfigPartSchema("p10", Nominal(LABELS)))),
    )
    records = tuple(
        SampleRecord(
            t=2 * t + 1,
            config={("b", "z"): LABELS[t % 4], ("b", "a"): 0.1 * t - 0.5,
                    ("b", "p10"): ("lo", "hi")[t % 2], ("b", "p2"): LABELS[(t + 1) % 4],
                    ("a_b", "p2"): -t / 7, ("a_b", "p10"): LABELS[(3 * t) % 4]},
            performance={"b": t / 3, "a": 1e-300 * t, "a_b": -0.0 if t == 2 else 2.5 * t},
        )
        for t in range(n)
    )
    return SampleLog(schemas, records)


def partless_log(n):
    """One agent with no parts: every record's config is empty."""
    records = tuple(SampleRecord(t, {}, {"solo": t / 9}) for t in range(n))
    return SampleLog((AgentSchema("solo", ()),), records)


@pytest.mark.parametrize("make", [unsorted_log, partless_log], ids=["unsorted", "partless"])
@pytest.mark.parametrize("n", [0, 1, 7], ids=["empty", "one", "seven"])
def test_writers_match_the_reference_encoders(make, n, monkeypatch):
    log = make(n)
    # one chunk, then chunk boundaries between records: the JSON separators
    # and the CSV rows must not change across them
    for chunk in (model.CHUNK, 1, 3):
        monkeypatch.setattr(model, "CHUNK", chunk)
        text = log_to_json(log)
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        records = [{"t": r.t, "config": {f"{a}.{p}": v for (a, p), v in r.config.items()},
                    "performance": r.performance} for r in log.records]
        assert json.loads(text)["records"] == records
        assert log_from_json(text) == log
        assert log_to_json(log_from_json(text)) == text

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", *(f"{s.agent_id}.{p.name}" for s in log.schemas for p in s.parts),
                         *(f"{s.agent_id}.perf" for s in log.schemas)])
        writer.writerows([r.t, *r.config.values(), *r.performance.values()] for r in log.records)
        assert log_to_csv(log) == buf.getvalue()


@pytest.mark.parametrize("make", [unsorted_log, partless_log], ids=["unsorted", "partless"])
@pytest.mark.parametrize("n", [0, 1, 7], ids=["empty", "one", "seven"])
def test_write_log_into_two_buffers_gives_the_two_writers(make, n, monkeypatch):
    log = make(n)
    monkeypatch.setattr(model, "CHUNK", 3)
    json_file, csv_file = io.StringIO(), io.StringIO()
    write_log(log, json_file, csv_file)
    assert [json_file.getvalue(), csv_file.getvalue()] == [log_to_json(log), log_to_csv(log)]


class _Sink:
    """A text file that keeps nothing it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("chunks", [2, 8])
def test_write_log_peak_is_bounded_per_chunk(chunks, monkeypatch):
    # Stated before measuring: per step of a chunk the writer holds 13
    # Python numbers (about 32 B each), 12 float texts (about 75 B each),
    # one JSON row (about 0.5 kB) in a list and again in the chunk's text,
    # and a CSV row (about 0.2 kB) twice, near 2.8 kB in all, so 4 kB per
    # step of one chunk, plus 64 kB for the template and the schemas,
    # bounds the peak above the log at any number of chunks.
    size = 500
    monkeypatch.setattr(model, "CHUNK", size)
    spec = scenario_from_dict(json.loads((SCENARIOS / "camera-trio.json").read_text()))
    log = run_scenario(spec, steps=chunks * size, seed=0)
    tracemalloc.start()
    try:
        write_log(log, _Sink(), _Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096 * size + 65536


def test_csv_header_layout():
    log = independent_log(3)
    header = log_to_csv(log).splitlines()[0]
    assert header == "t,A.cfg,B.cfg,A.perf,B.perf"


def test_serialization_rejects_hostile_names():
    for agent in ("bad agent", "agent\n"):  # the whole name must match, a last newline too
        with pytest.raises(InputError) as err:
            AgentSchema(agent, (ConfigPartSchema("p", Nominal(("a", "b"))),))
        assert (err.value.path, err.value.message) == (
            "agent_id", f"agent id {agent!r} not in [A-Za-z0-9_]+")


@pytest.mark.parametrize("agents, parts, path, message", SHARED_KEYS)
def test_json_refuses_a_name_that_could_share_a_key_at_its_field(agents, parts, path, message):
    with pytest.raises(InputError) as err:
        log_from_dict(renamed_log_doc(agents, parts))
    assert (err.value.path, err.value.message) == (path, message)


# --- one log, two readers ---------------------------------------------------------


def every_kind_log(n=8):
    """Two agents with a nominal, an ordinal and a real part each."""
    schemas = tuple(
        AgentSchema(
            agent,
            (
                ConfigPartSchema("mode", Nominal(("wide", "narrow"))),
                ConfigPartSchema("level", Ordinal(("lo", "mid", "hi"))),
                ConfigPartSchema("pan", RealInterval(-1.5, 2.25)),
            ),
        )
        for agent in ("a", "b")
    )
    records = tuple(
        SampleRecord(
            t=3 * t + 1,
            config={
                key: value
                for k, agent in enumerate(("a", "b"))
                for key, value in (
                    ((agent, "mode"), ("wide", "narrow")[(t + k) % 2]),
                    ((agent, "level"), ("lo", "mid", "hi")[(t * k) % 3]),
                    ((agent, "pan"), 0.25 * (t % 12) - 1.25 - k / 7),
                )
            },
            performance={"b": t / 3, "a": -0.0 if t == 2 else 1e-300 * t},
        )
        for t in range(n)
    )
    return SampleLog(schemas, records)


def assert_same_log(log, other):
    """Equal schemas, findings and columns, a nan equal to a nan."""
    assert log.schemas == other.schemas
    assert validate_log(log) == validate_log(other)
    np.testing.assert_array_equal(log.t, other.t)
    assert list(log.columns) == list(other.columns)
    for key, column in log.columns.items():
        assert column.dtype == other.columns[key].dtype
        np.testing.assert_array_equal(column, other.columns[key])


@pytest.mark.parametrize("make", [every_kind_log, camera_like_log, coupled_log],
                         ids=["every-kind", "camera-like", "coupled"])
def test_records_json_and_csv_read_to_the_same_columns(make):
    log = make(12)
    from_json = log_from_json(log_to_json(log))
    assert_same_log(log, from_json)
    assert from_json == log
    assert from_json.records == log.records
    assert log_to_csv(from_json) == log_to_csv(log)


def test_records_and_json_give_the_same_seven_findings():
    config = {("cam", "roll"): 0.1, ("cam", "mode"): "zoomed"}
    broken = with_record(camera_like_log(), 2, t=-2, config=config, performance={"ghost": 1.0})
    doc = json.loads(log_to_json(camera_like_log()))
    doc["records"][2] = {"t": -2, "config": {"cam.roll": 0.1, "cam.mode": "zoomed"},
                         "performance": {"ghost": 1.0}}
    assert len(validate_log(broken)) == 7
    assert_same_log(broken, log_from_dict(doc))


def test_records_and_json_give_the_same_five_findings():
    config = {("cam", "pan"): 7.0, ("cam", "mode"): "zoomed"}
    nan = float("nan")
    broken = with_record(camera_like_log(), 2, t=-2, config=config, performance={"cam": nan})
    doc = json.loads(log_to_json(camera_like_log()))
    doc["records"][2] = {"t": -2, "config": {"cam.pan": 7.0, "cam.mode": "zoomed"},
                         "performance": {"cam": nan}}
    assert len(validate_log(broken)) == 5
    assert_same_log(broken, log_from_dict(doc))


def set_field(key, value):
    return lambda record: record.__setitem__(key, value)


def set_performance(agent, value):
    return lambda record: record["performance"].__setitem__(agent, value)


@pytest.mark.parametrize(
    "edit, path, message",
    [
        (lambda r: r.pop("t"), "records[2].t", "missing field"),
        (lambda r: r.pop("config"), "records[2].config", "missing field"),
        (lambda r: r.pop("performance"), "records[2].performance", "missing field"),
        (set_field("config", [1]), "records[2].config", "expected an object, got [1]"),
        (set_field("performance", [0.5]), "records[2].performance",
         "expected an object, got [0.5]"),
        (set_field("t", True), "records[2].t", "expected an integer, got True"),
        (set_field("t", 2.0), "records[2].t", "expected an integer, got 2.0"),
        (set_performance("B", "fast"), "records[2].performance.B",
         "expected a number, got 'fast'"),
        (set_performance("B", None), "records[2].performance.B", "expected a number, got None"),
        (lambda r: r.clear() or r.__setitem__("row", [2]), "records[2].config", "missing field"),
    ],
    ids=["no-t", "no-config", "no-performance", "config-list", "performance-list",
         "boolean-t", "non-integer-t", "non-numeric", "null-performance", "foreign-record"],
)
def test_json_refuses_a_malformed_record_at_its_field(edit, path, message):
    doc = json.loads(log_to_json(coupled_log(5)))
    edit(doc["records"][2])
    with pytest.raises(InputError) as err:
        log_from_dict(doc)
    assert (err.value.path, err.value.message) == (path, message)


def test_json_refuses_a_record_that_is_not_an_object():
    doc = json.loads(log_to_json(coupled_log(5)))
    doc["records"][2] = [2, "c2", "c1", 0.73, 0.5]
    with pytest.raises(InputError) as err:
        log_from_dict(doc)
    assert (err.value.path, err.value.message) == (
        "records[2]", "expected an object, got [2, 'c2', 'c1', 0.73, 0.5]")


@pytest.mark.parametrize("write", [log_to_json, log_to_csv], ids=["json", "csv"])
def test_writers_refuse_a_log_with_findings(write):
    log = with_record(camera_like_log(), 1, performance={"cam": float("nan")})
    with pytest.raises(ValueError, match="failed validation"):
        write(log)
    with pytest.raises(ValueError, match="failed validation"):
        log.records
