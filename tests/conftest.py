"""Shared builders for synthetic sample logs used across the test suite."""

import json

import numpy as np
import pytest

from influence_scope import (
    AgentSchema,
    ConfigPartSchema,
    Nominal,
    SampleLog,
    SampleRecord,
)
from influence_scope.logio import log_to_json


def binary_agent(agent_id: str) -> AgentSchema:
    return AgentSchema(
        agent_id, (ConfigPartSchema("cfg", Nominal(("c1", "c2"))),)
    )


def coupled_log(n: int, seed: int = 0) -> SampleLog:
    """Two agents with uniform independent binary configurations.

    B's performance is 1.0 when the configurations agree and 0.5 when they
    disagree, so B depends on A only through B's own configuration.  A's
    performance is independent noise.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    noise = rng.uniform(size=n)
    cats = ("c1", "c2")
    records = []
    for t in range(n):
        perf_b = 1.0 if a[t] == b[t] else 0.5
        records.append(
            SampleRecord(
                t=t,
                config={("A", "cfg"): cats[a[t]], ("B", "cfg"): cats[b[t]]},
                performance={"A": float(noise[t]), "B": perf_b},
            )
        )
    return SampleLog(
        schemas=(binary_agent("A"), binary_agent("B")), records=tuple(records)
    )


def independent_log(n: int, seed: int = 0) -> SampleLog:
    """Two agents whose configurations and performances share nothing."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    pa = rng.uniform(size=n)
    pb = rng.uniform(size=n)
    cats = ("c1", "c2")
    records = tuple(
        SampleRecord(
            t=t,
            config={("A", "cfg"): cats[a[t]], ("B", "cfg"): cats[b[t]]},
            performance={"A": float(pa[t]), "B": float(pb[t])},
        )
        for t in range(n)
    )
    return SampleLog(
        schemas=(binary_agent("A"), binary_agent("B")), records=records
    )


def renamed_log_doc(agents, parts, n=40):
    """``coupled_log``'s JSON with agent i renamed ``agents[i]`` and its one
    part ``parts[i]``, the records keyed by the new names."""
    doc = json.loads(log_to_json(coupled_log(n)))
    for schema, agent, part in zip(doc["schemas"], agents, parts):
        schema["agent_id"], schema["parts"][0]["name"] = agent, part
    for record in doc["records"]:
        values = list(record["config"].values()), list(record["performance"].values())
        record["config"] = {f"{a}.{p}": v for a, p, v in zip(agents, parts, values[0])}
        record["performance"] = dict(zip(agents, values[1]))
    return doc


# Agent "a.b" with part "c" and agent "a" with part "b.c" would both read the
# config key "a.b.c", and a part "perf" would share its CSV column with the
# agent's performance.
SHARED_KEYS = [
    pytest.param(("a.b", "a"), ("c", "b.c"), "schemas[0].agent_id",
                 "agent id 'a.b' not in [A-Za-z0-9_]+", id="dotted-agent"),
    pytest.param(("ab", "a"), ("c", "b.c"), "schemas[1].parts[0].name",
                 "part name 'b.c' not in [A-Za-z0-9_]+", id="dotted-part"),
    pytest.param(("A", "B"), ("cfg", "perf"), "schemas[1].parts[0].name",
                 "part name 'perf' is taken by the performance column", id="perf-part"),
]


@pytest.fixture(scope="session")
def coupled_10k() -> SampleLog:
    return coupled_log(10000, seed=7)
