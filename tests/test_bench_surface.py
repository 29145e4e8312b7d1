"""The benchmark harness reaches into the package by name and reads some
arguments by position; every name it wraps must still exist and every
position it reads must still hold its argument, or only its traced run
would find out."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_harness(monkeypatch):
    """perfbench/run.py imported read-only (nothing in it runs at import)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def harness(monkeypatch):
    return load_harness(monkeypatch)


def test_traced_and_probed_names_resolve(harness):
    pairs = [*harness.TRACED, *harness.PROBED]
    assert pairs
    for module, attr in pairs:
        target = getattr(importlib.import_module(f"fedsparse.{module}"), attr, None)
        assert callable(target), f"fedsparse.{module}.{attr}"


def test_positional_contract_of_the_counters():
    """The harness counters read arguments by position: backward's third is
    the batch inputs (rows), client_local_train's first and third the client
    and the config, run_round's first, fifth and sixth the server and the
    training and test sets."""
    from fedsparse import federation, model

    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(model.backward)[2] == "inputs"
    assert names(federation.client_local_train)[0:3:2] == ["client", "cfg"]
    assert [names(federation.run_round)[i] for i in (0, 4, 5)] == [
        "server", "train_ds", "test_ds"]
