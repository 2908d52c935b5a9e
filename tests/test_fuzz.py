"""Node-replacement fuzz of every command-line input.

Each node of a valid scenario, log, strategy, descriptor and matrix is
replaced by each of a fixed set of JSON values, or deleted, and the command
that reads the edited file runs in this process.  It must exit 0, 2 or 3,
never with a traceback.
"""

import json

import pytest

from influence_scope.cli import main
from influence_scope.logio import log_to_json

from conftest import coupled_log
from test_cli import DESCRIPTOR, MATRIX, SCENARIOS

DELETE = object()
# Infinity and the 400-digit integer are written as json.dumps writes them.
VALUES = [None, True, False, 0, -1, 2.5, "", "x", "x y", [], {}, float("inf"), 10**400, [1, 2],
          DELETE]
LOG = json.loads(log_to_json(coupled_log(40)))
STRATEGY = {"measure": "mi", "lag_set": [0, 1], "own_part_bins": 3, "min_partition_size": 25,
            "joint_pairs": False, "alpha": 0.05, "permutations": 20, "seed": 0}


def nodes(doc, keys=()):
    """The key path of ``doc`` and of every node below it."""
    yield keys
    if isinstance(doc, (dict, list)):
        for key, child in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from nodes(child, (*keys, key))


def edited(doc, keys, value):
    """A copy of ``doc`` with the node at ``keys`` replaced by ``value``, or deleted."""
    if not keys:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return doc


# input kind -> (valid document, the key paths of the nodes to edit, command line)
INPUTS = {
    "scenario": (json.loads((SCENARIOS / "overlap-pair.json").read_text()), [()],
                 ["simulate", "{input}", "--steps", "5", "--out", "{out}"]),
    "log": (LOG, [("schemas",), ("records", 3)],
            ["detect", "{input}", "--permutations", "20", "--out", "{out}"]),
    "strategy": (STRATEGY, [()], ["detect", "{log}", "--strategy", "{input}", "--out", "{out}"]),
    "descriptor": (DESCRIPTOR, [()], ["recommend", "--descriptor", "{input}"]),
    "matrix": (MATRIX, [()], ["report", "{input}", "--out", "{out}"]),
}


def fuzz_codes(kind: str, workdir) -> dict:
    """The exit code of each edit of the ``kind`` input, by (key path,
    value), or the exception it ended in."""
    doc, roots, argv = INPUTS[kind]
    files = {"input": workdir / "input.json", "log": workdir / "log.json",
             "out": workdir / "out.json"}
    files["log"].write_text(json.dumps(LOG))
    argv = [arg.format(**files) for arg in argv]
    codes = {}
    for root in roots:
        start = doc
        for key in root:
            start = start[key]
        for keys in nodes(start, root):
            for value in VALUES:
                if value is DELETE and not keys:
                    continue
                files["input"].write_text(json.dumps(edited(doc, keys, value)))
                case = keys, "delete" if value is DELETE else json.dumps(value)[:20]
                try:
                    codes[case] = main(argv)
                except Exception as exc:  # noqa: BLE001 - the failure this test looks for
                    codes[case] = exc
    return codes


@pytest.mark.parametrize("kind", INPUTS)
def test_every_edited_input_exits_0_2_or_3(tmp_path, capsys, kind):
    codes = fuzz_codes(kind, tmp_path)
    assert len(codes) > 100
    assert not {case: code for case, code in codes.items() if code not in (0, 2, 3)}
    assert "Traceback" not in capsys.readouterr().err
