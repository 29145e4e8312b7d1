"""The benchmark harness reaches into the package by name; every name it
wraps must still exist, or only its traced run would find out."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """perfbench/run.py imported read-only (nothing in it runs at import)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_and_probed_names_resolve(harness):
    pairs = [*harness.TRACED, *harness.PROBED]
    assert pairs
    for module, attr in pairs:
        target = getattr(importlib.import_module(f"fedsparse.{module}"), attr, None)
        assert callable(target), f"fedsparse.{module}.{attr}"
