"""The benchmark's traced run wraps package attributes by name, and a name
it cannot find is only reported, not failed.  Renaming one of them must
fail here instead of silently dropping a span."""

import importlib
import runpy
from pathlib import Path

import pytest

LAYERS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"))


@pytest.mark.parametrize("module, attribute, span", LAYERS["TRACED"] + LAYERS["COUNTED"])
def test_benchmark_hook_exists(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span
