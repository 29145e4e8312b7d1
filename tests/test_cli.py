"""CLI behavior: subcommands, output files, exit codes, determinism."""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path, PurePosixPath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsparse
from fedsparse import cli, federation
from fedsparse.cli import EXIT_OK, EXIT_PARTIAL, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from fedsparse.config import (ConfigError, CsvDataConfig, ModelConfig, SyntheticDataConfig,
                              cell_policy, parse_config, parse_config_dict)
from fedsparse.federation import build_dataset, run_experiment
from fedsparse.data import csv_text, gen_synthetic
from fedsparse.partition import MIN_ALPHA
from fedsparse.sparsify import POLICY_PARAM, SparsityPolicy, retained_count
from oracles import oracle_sweep, output_files


def write_boundary_case(tmp: str, case: dict) -> Path:
    """The config file of a TestRun.BOUNDARY_CASES draw, and its CSV if any,
    written under tmp."""
    kind, classes, per_class, spare = case["data"]
    if kind == "rare_class_csv":
        ds = gen_synthetic(classes, 6, 3, 2.0, rng_seed=case["seed"])
        rows = [np.flatnonzero(ds.labels == c)[:per_class if c < classes - 1 else 1]
                for c in range(classes)]
        data = Path(tmp, "data.csv")
        data.write_text(csv_text(ds.subset(np.sort(np.concatenate(rows)))))
        dataset = {"kind": "csv", "path": str(data), "input_dim": 3,
                   "classes": classes + spare, "normalize": True}
    else:
        dataset = {"kind": "synthetic", "classes": classes, "per_class": per_class,
                   "input_dim": 3}
    doc = {key: value for key, value in case.items() if key != "data"}
    config = Path(tmp, "config.json")
    config.write_text(json.dumps({**doc, "dataset": dataset, "model": {"hidden": [4]}}))
    return config


SMOKE = {
    "seed": 3,
    "dataset": {"kind": "synthetic", "classes": 3, "per_class": 20,
                "input_dim": 4, "separation": 2.0},
    "policy": {"kind": "top_k", "rate": 0.3},
    "rounds": 2, "local_epochs": 1, "batch_size": 8,
    "learning_rate": 0.05, "alpha": 0.5,
}


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMOKE))
    return path, dict(SMOKE), tmp_path / "out"


class TestRun:
    def test_smoke_outputs(self, smoke_config, capsys):
        path, _, out = smoke_config
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        metrics = Path(out, "metrics.csv").read_text().splitlines()
        assert metrics[0] == "round,global_loss,top1_accuracy,uplink_bytes,downlink_bytes"
        assert len(metrics) == 3  # header + one row per round
        assert metrics[1].split(",")[0] == "0"

        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["rounds_completed"] == 2
        assert summary["config"]["seed"] == 3
        assert "wall_time_s" in summary and "version" in summary

        rows = [int(r.split(",")[3])
                for r in metrics[1:]]
        assert summary["total_uplink_bytes"] == sum(rows)

        partitions = Path(out, "partitions.csv").read_text().splitlines()
        assert partitions[0] == "sample_index,client_id"
        assert len(partitions) == 1 + 48  # train split of 60 samples at 0.2

    def test_partitions_csv_lists_every_sample_once(self, smoke_config):
        path, _, out = smoke_config
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
        lines = Path(out, "partitions.csv").read_text().splitlines()
        assert lines[0] == "sample_index,client_id"
        pairs = [tuple(map(int, line.split(","))) for line in lines[1:]]
        assert [i for i, _ in pairs] == list(range(48))  # sorted, each sample once
        cfg = parse_config(path)
        parts = run_experiment(cfg, *build_dataset(cfg)).partitions
        lookup = {int(i): p.client_id for p in parts for i in p.sample_indices}
        assert all(lookup[i] == c for i, c in pairs)

    def test_run_loads_no_process_pool(self, smoke_config):
        """Only `sweep --jobs N` needs multiprocessing; `run` does not import it."""
        path, _, out = smoke_config
        script = ("import sys, fedsparse.cli\n"
                  f"assert fedsparse.cli.main(['run', {str(path)!r}, '--out', {str(out)!r},"
                  " '--quiet']) == 0\n"
                  "print(sorted(m for m in ('multiprocessing', 'concurrent.futures',"
                  " 'socket', 'logging') if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(fedsparse.__file__))
        stdout = subprocess.run([sys.executable, "-c", script], check=True,
                                capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=src)).stdout
        assert stdout.strip() == "[]"

    def test_rerun_is_byte_identical(self, smoke_config):
        path, _, out = smoke_config
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        first = Path(out, "metrics.csv").read_bytes()
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        second = Path(out, "metrics.csv").read_bytes()
        assert first == second

    def test_stream_rows_include_elapsed(self, smoke_config, capsys):
        path, _, out = smoke_config
        assert main(["run", str(path), "--out", str(out), "--stream", "--quiet"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith(",elapsed_s")
        assert len(lines) == 3

    def test_csv_dataset_is_normalized_by_train_statistics(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"classes": 3, "per_class": 20, "input_dim": 4,
                                    "separation": 2.0, "seed": 1}))
        data = tmp_path / "data.csv"
        assert main(["gen-data", str(spec), "-o", str(data)]) == EXIT_OK
        doc = {
            "seed": 3,
            "dataset": {"kind": "csv", "path": str(data), "input_dim": 4,
                        "classes": 3, "normalize": True},
            "policy": {"kind": "top_k", "rate": 0.3},
            "rounds": 2, "batch_size": 8, "alpha": 0.5,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
        for name in ("metrics.csv", "summary.json", "partitions.csv"):
            assert (out / name).is_file()

        cfg = parse_config(path)
        train, test = build_dataset(cfg)
        raw_train, raw_test = build_dataset(
            replace(cfg, dataset=replace(cfg.dataset, normalize=False)))
        mean, std = raw_train.inputs.mean(axis=0), raw_train.inputs.std(axis=0)
        assert np.array_equal(train.inputs, (raw_train.inputs - mean) / std)
        assert np.array_equal(test.inputs, (raw_test.inputs - mean) / std)
        assert np.array_equal(test.labels, raw_test.labels)
        assert not np.allclose(test.inputs.mean(axis=0), 0.0)  # not its own statistics

    # Small configs near the edges of every run input. "rare_class_csv" is a
    # CSV of per_class rows of each class but the last, which has one row,
    # declared with 0 or 1 classes more than it has; 40 clients outnumber
    # every training set here; a threshold of 1e9 keeps nothing and a rate
    # of 1e-9 keeps one entry.
    BOUNDARY_CASES = st.fixed_dictionaries({
        "data": st.tuples(st.sampled_from(["synthetic", "rare_class_csv"]),
                          st.integers(2, 4), st.sampled_from(range(1, 7)),
                          st.integers(0, 1)),
        "seed": st.integers(0, 3),
        "clients": st.sampled_from([1, 2, 3, 40]),
        "alpha": st.sampled_from([MIN_ALPHA, 0.3, 1e3]),
        "test_fraction": st.sampled_from([1e-3, 0.3, 0.5, 0.999]),
        "participation": st.sampled_from([1e-9, 0.5, 1.0]),
        "batch_size": st.sampled_from([1, 4, 1000]),
        "policy": st.sampled_from([{"kind": "top_k", "rate": 1e-9},
                                   {"kind": "random", "rate": 0.3},
                                   {"kind": "threshold", "tau": 1e9},
                                   {"kind": "dense"}]),
        "learning_rate": st.sampled_from([0.05, 1e150]),
        "sparsify_site": st.sampled_from(["uploaded_delta", "local_gradient"]),
        "rounds": st.integers(1, 2),
        "local_epochs": st.integers(1, 2),
    })
    PINNED = {"seed": 3, "clients": 3, "alpha": 0.3, "test_fraction": 0.2,
              "participation": 1.0, "batch_size": 8, "policy": {"kind": "top_k", "rate": 0.3},
              "learning_rate": 0.05, "sparsify_site": "uploaded_delta", "rounds": 1,
              "local_epochs": 1}

    @given(case=BOUNDARY_CASES)
    @example(case={**PINNED, "data": ("rare_class_csv", 3, 6, 0)})
    @example(case={**PINNED, "data": ("synthetic", 3, 1, 0)})
    @example(case={**PINNED, "data": ("synthetic", 2, 6, 0), "learning_rate": 1e150,
                   "sparsify_site": "local_gradient", "batch_size": 4, "rounds": 2})
    @settings(max_examples=150, deadline=None)
    def test_outcome_contract_under_either_warning_filter(self, case):
        """`run` in-process under the default filter and under warnings as
        errors: the same exit code and stderr both times, and the outcome is
        exit 0 with three outputs, exit 1 with one config error line naming
        its key, or exit 2 with one error line. Nothing raises out of main."""
        with tempfile.TemporaryDirectory() as tmp:
            config = write_boundary_case(tmp, case)
            outcomes = []
            for action in ("default", "error"):
                out = Path(tmp, action)
                err = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter(action)
                    code = main(["run", str(config), "--out", str(out), "--quiet"])
                outcomes.append((code, err.getvalue()))
                if code == EXIT_OK:
                    assert err.getvalue() == ""
                    for name in ("metrics.csv", "summary.json", "partitions.csv"):
                        assert (out / name).is_file()
                elif code == EXIT_USAGE:
                    assert re.fullmatch(r"fedsparse: config error: [\w.]+: [^\n]+\n",
                                        err.getvalue())
                else:
                    assert code == EXIT_RUNTIME
                    assert re.fullmatch(r"fedsparse: error: [^\n]+\n", err.getvalue())
            assert outcomes[0] == outcomes[1]


class TestSurface:
    def test_subcommands_are_run_sweep_and_gen_data(self):
        [sub] = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == ["gen-data", "run", "sweep"]


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"classes": 3, "per_class": 10,
                                    "input_dim": 5, "separation": 2.0, "seed": 4}))
        out = tmp_path / "data.csv"
        assert main(["gen-data", str(spec), "-o", str(out)]) == EXIT_OK
        from fedsparse.data import load_csv
        ds = load_csv(out, 5, 3)
        assert len(ds) == 30


class TestSweep:
    def write_grid(self, tmp_path, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return path

    # A grid of 1-2 values per key over a TestRun boundary draw: 1e-7 is an
    # alpha below MIN_ALPHA and 1.5 a rate out of range for top_k and random,
    # so a cell can fail on its own while its neighbours run.
    GRIDS = st.fixed_dictionaries({
        "alpha": st.lists(st.sampled_from([1e-7, 0.3, 1e3]), min_size=1, max_size=2),
        "policy": st.lists(st.sampled_from(["top_k", "random", "threshold", "dense"]),
                           min_size=1, max_size=2),
        "rate": st.lists(st.sampled_from([1e-9, 0.3, 1.5]), min_size=1, max_size=1),
    })
    # 2 alphas x (4 top-k rates + dense): 10 cells, not 16
    GRID_G = {"alpha": [0.3, 0.6], "rate": [0.1, 0.2, 0.3, 0.4],
              "policy": ["top_k", "dense"]}
    # a failing alpha and an out-of-range rate next to cells that run, a
    # repeated rate, alphas and kinds out of order, and 0.05 as a tau
    GRID_P = {"alpha": [0.5, 1e-7], "policy": ["top_k", "dense", "threshold"],
              "rate": [0.05, 1.5, 0.05]}
    SYNTHETIC = {**TestRun.PINNED, "data": ("synthetic", 3, 6, 0)}

    # Pinned grids, each run at --jobs 1 and, where listed, through the real
    # process pool at --jobs 3
    PINNED_GRIDS = {
        "grid_g": (SYNTHETIC, GRID_G, (1, 3)),
        "partial_failure": (SYNTHETIC, GRID_P, (1, 3)),
        "every_cell_diverges": (
            {**TestRun.PINNED, "data": ("synthetic", 2, 6, 0), "learning_rate": 1e150,
             "sparsify_site": "local_gradient", "batch_size": 4, "rounds": 2},
            {"alpha": [0.3, 1e3], "policy": ["random", "top_k"], "rate": [0.3]}, (1, 3)),
        "base_config_error": (
            {**TestRun.PINNED, "data": ("synthetic", 3, 1, 0)}, GRID_G, (1, 3)),
        # values that print alike at 6 significant digits
        "near_equal_labels": (
            SYNTHETIC, {"alpha": [0.5, 0.50000001], "rate": [0.1, 0.1000001]}, (1, 3)),
        # labels longer than their column's least width
        "long_labels": (SYNTHETIC, {"alpha": [0.1 + 0.2, 1e3], "rate": [0.1 + 0.2]}, (1,)),
        # more clients than training rows: the split's config error
        "split_config_error": (
            {**TestRun.PINNED, "data": ("rare_class_csv", 3, 6, 0), "clients": 40},
            {"alpha": [0.3], "policy": ["top_k", "dense"], "rate": [0.3]}, (1,)),
    }

    def check_sweep(self, case, grid, actions, jobs):
        """`sweep` in-process under each warning filter in actions, at each
        --jobs value: the exit code, stderr lines and files of oracle_sweep,
        which builds them from `fedsparse run` calls. No two rows or columns
        of the pivot share a label."""
        with tempfile.TemporaryDirectory() as tmp:
            config = write_boundary_case(tmp, case)
            grid_path = self.write_grid(Path(tmp), grid)
            expected = oracle_sweep(config, grid)
            for action, count in itertools.product(actions, jobs):
                out = Path(tmp, f"{action}_{count}")
                err = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter(action)
                    code = main(["sweep", str(config), "--grid", str(grid_path),
                                 "--out", str(out), "--quiet", "--jobs", str(count)])
                assert (code, err.getvalue().splitlines(), output_files(out)) == expected, \
                    (action, count)
                assert out.exists() == bool(expected[2])
        for block in filter(None, expected[2].get("sweep.txt", b"").decode().split("\n\n")):
            _, header, *rows = block.splitlines()
            for labels in (header.split(), [row.split()[0] for row in rows]):
                assert len(set(labels)) == len(labels), block

    @given(case=TestRun.BOUNDARY_CASES, grid=GRIDS)
    @settings(max_examples=40, deadline=None)
    def test_outputs_equal_per_cell_runs(self, case, grid):
        self.check_sweep(case, grid, ("default", "error"), (1,))

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("name", list(PINNED_GRIDS))
    def test_pinned_grid_equals_per_cell_runs(self, name, action):
        case, grid, jobs = self.PINNED_GRIDS[name]
        self.check_sweep(case, grid, (action,), jobs)

    def test_oracle_calls_no_sweep_code(self, smoke_config, tmp_path, monkeypatch):
        """oracle_sweep gives a sweep's outcome with the sweep's own code made
        to raise, so the property compares two independent builds."""
        path, _, out = smoke_config
        grid = self.write_grid(tmp_path, self.GRID_P)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sweep", str(path), "--grid", str(grid), "--out", str(out), "--quiet"])

        def sweep_code(*args, **kwargs):
            raise AssertionError("oracle_sweep called sweep code")

        for module, name in [(cli, "_cmd_sweep"), (cli, "_run_cell"), (cli, "_pivot_table"),
                             (cli, "parse_grid"), (cli, "cell_policy"),
                             (fedsparse.config, "parse_grid"), (fedsparse.config, "cell_policy")]:
            monkeypatch.setattr(module, name, sweep_code)
        assert oracle_sweep(path, self.GRID_P) == \
            (code, err.getvalue().splitlines(), output_files(out))
        assert code == EXIT_PARTIAL

    @staticmethod
    def record_pool(monkeypatch, failing_call=None):
        """Swap in an in-process ProcessPoolExecutor; returns the max_workers
        values it is asked for. The future of submit number failing_call
        raises instead of running its cell, as a dead worker's would."""
        import concurrent.futures
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)
                self.calls = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                if self.calls == failing_call:
                    future.set_exception(RuntimeError("worker died"))
                else:
                    future.set_result(fn(*args))
                self.calls += 1
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return requested

    def test_jobs_capped_at_cell_count(self, smoke_config, tmp_path, monkeypatch):
        """--jobs 64 on two cells asks for two workers; the recorder starts none."""
        requested = self.record_pool(monkeypatch)
        path, _, out = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4, 0.8], "rate": [0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--out", str(out), "--quiet",
                     "--jobs", "64"]) == EXIT_OK
        assert requested == [2]
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3 and all(r.endswith(",ok") for r in rows[1:])

    def test_failed_future_fails_only_its_cell(self, smoke_config, tmp_path,
                                               monkeypatch, capsys):
        requested = self.record_pool(monkeypatch, failing_call=1)
        path, _, out = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4, 0.8, 1.2], "rate": [0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--out", str(out), "--quiet",
                     "--jobs", "3"]) == EXIT_PARTIAL
        assert requested == [3]
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["ok", "failed", "ok"]
        assert rows[2] == "0.8,top_k,0.2,,,failed"
        assert "cell alpha=0.8 policy=top_k rate=0.2 failed: worker died" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_dataset_is_built_once(self, smoke_config, tmp_path, monkeypatch, jobs):
        """Four cells, one build from the base config, in process or through
        the pool (the in-process stand-in, so every build is counted). Both
        names are counted: cli's, which the sweep calls, and federation's,
        which a build left inside the run would call."""
        requested = self.record_pool(monkeypatch)
        builds = []

        def counting(config):
            builds.append(config)
            return build_dataset(config)

        monkeypatch.setattr(cli, "build_dataset", counting)
        monkeypatch.setattr(federation, "build_dataset", counting)
        path, doc, out = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4, 0.8], "rate": [0.2],
                                          "policy": ["top_k", "dense"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--out", str(out), "--quiet",
                     "--jobs", jobs]) == EXIT_OK
        assert len(os.listdir(Path(out, "cells"))) == 4
        assert [(c.seed, c.alpha, c.policy) for c in builds] == \
            [(doc["seed"], doc["alpha"], parse_config(path).policy)]
        assert requested == ([] if jobs == "1" else [3])


def test_outputs_get_the_umask_mode(smoke_config, tmp_path):
    """run, sweep and gen-data outputs are created as open(path, "w") creates a file."""
    path, _, _ = smoke_config
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5], "rate": [0.3], "policy": ["top_k"]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"classes": 2, "per_class": 5, "input_dim": 3}))
    old = os.umask(0o027)
    try:
        assert main(["run", str(path), "--quiet", "--out", str(tmp_path / "run")]) \
            == EXIT_OK
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        assert main(["gen-data", str(spec), "-o", str(tmp_path / "data" / "data.csv")]) \
            == EXIT_OK
    finally:
        os.umask(old)
    cell = os.path.join("sweep", "cells", "cell_000")
    outputs = [os.path.join(d, name) for d in ("run", cell)
               for name in ("metrics.csv", "summary.json", "partitions.csv")]
    outputs += [os.path.join("sweep", "sweep.csv"), os.path.join("sweep", "sweep.txt"),
                os.path.join("data", "data.csv")]
    for name in outputs:
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640, name
    for d in ("run", "sweep", cell, "data"):
        assert not [f for f in os.listdir(tmp_path / d) if f.startswith(".tmp-")]


@pytest.mark.parametrize("value", ["99", "not-an-int"])
def test_seed_environment_variable_is_ignored(smoke_config, tmp_path, monkeypatch, value):
    """A run is its config file and its command line: with FEDSPARSE_SEED
    exported, `run` and a one-cell `sweep` write what they write without it."""
    path, doc, _ = smoke_config
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [doc["alpha"]], "rate": [0.3]}))

    def outputs(name):
        run, sweep = tmp_path / name / "run", tmp_path / name / "sweep"
        assert main(["run", str(path), "--out", str(run), "--quiet"]) == EXIT_OK
        assert main(["sweep", str(path), "--grid", str(grid), "--out", str(sweep),
                     "--quiet"]) == EXIT_OK
        return [((d / "metrics.csv").read_bytes(),
                 json.loads((d / "summary.json").read_text())["config"]["seed"])
                for d in (run, sweep / "cells" / "cell_000")]

    without = outputs("without")
    assert [seed for _, seed in without] == [doc["seed"]] * 2
    monkeypatch.setenv("FEDSPARSE_SEED", value)
    assert outputs("with") == without


def test_out_defaults_to_out(smoke_config, tmp_path, monkeypatch):
    """Without --out, `run` and `sweep` write into ./out."""
    path, _, _ = smoke_config
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5], "rate": [0.3]}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", str(path), "--quiet"]) == EXIT_OK
    assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
    assert os.listdir(work) == ["out"]
    assert sorted(os.listdir(work / "out")) == [
        "cells", "metrics.csv", "partitions.csv", "summary.json", "sweep.csv", "sweep.txt"]


# Pinned outcomes. Each row is one CLI call in a directory holding its input
# files: the exit code, the exact stderr lines and every file the call leaves.
# Codes are literals, so a change to cli's EXIT_* values shows here. A new
# outcome is a new row.

@dataclass(frozen=True)
class Outcome:
    id: str
    files: dict  # name -> text or bytes
    argv: list
    code: int
    stderr: list
    outputs: tuple = ()  # every file the call leaves besides `files`
    check: tuple = ()  # (reader of the row's directory, the value it must give)
    # (base document, {key: value}): the input file is the base with these
    # keys replaced, and the rule has an owning type, so the same edit made
    # in code must raise the row's message (test_code_built_input_gives_the_row_message)
    edit: tuple = ()


def dataset(**keys) -> dict:
    return {"kind": "synthetic", "classes": 3, "per_class": 20, "input_dim": 4, **keys}


def csv_dataset(input_dim, classes, **keys) -> dict:
    return {"kind": "csv", "path": "data.csv", "input_dim": input_dim, "classes": classes,
            **keys}


TOP_K = {"kind": "top_k", "rate": 0.3}
CI = {"seed": 4, "dataset": dataset(), "policy": TOP_K}  # the workflow's base config
RUN = ["run", "config.json", "--out", "out", "--quiet"]
SWEEP = ["sweep", "config.json", "--grid", "grid.json", "--out", "out", "--quiet"]
GEN = ["gen-data", "spec.json", "-o", "x.csv"]
RUN_FILES = ("metrics.csv", "partitions.csv", "summary.json")
RUN_OUTPUTS = tuple(f"out/{name}" for name in RUN_FILES)
BIG = 10 ** 400  # an integer beyond float range
CONFIG_ERROR = "fedsparse: config error: "
RUN_USAGE = "usage: fedsparse run [-h] [--out OUT] [--stream] [--quiet] config"
SWEEP_USAGE = ["usage: fedsparse sweep [-h] --grid GRID [--jobs JOBS] [--out OUT] [--quiet]",
               "                       config"]


def sweep_outputs(cells: int) -> tuple:
    return ("out/sweep.csv", "out/sweep.txt") + tuple(
        f"out/cells/cell_{i:03d}/{name}" for i in range(cells) for name in RUN_FILES)


def inputs(doc=SMOKE, grid=None, data=None, **keys) -> dict:
    """config.json holding doc with keys replaced, and grid.json and
    data.csv when given."""
    files = {"config.json": json.dumps({**doc, **keys})}
    if grid is not None:
        files["grid.json"] = json.dumps(grid)
    if data is not None:
        files["data.csv"] = data
    return files


def synthetic_csv(classes, per_class, input_dim, seed, separation=3.0) -> str:
    """What `gen-data` writes for that spec (separation defaults to 3.0)."""
    return csv_text(gen_synthetic(classes, per_class, input_dim, separation, rng_seed=seed))


def rare_class_csv() -> str:
    """30 + 30 + 1 rows: the third class has a single sample."""
    ds = gen_synthetic(3, 30, 4, 2.0, rng_seed=1)
    return csv_text(ds.subset(np.concatenate([np.flatnonzero(ds.labels < 2),
                                              np.flatnonzero(ds.labels == 2)[:1]])))


def final_loss_is_finite_and_huge(directory: Path) -> bool:
    loss = float((directory / "out" / "metrics.csv").read_text().splitlines()[-1].split(",")[1])
    return math.isfinite(loss) and loss > 1e290


def sweep_status(directory: Path) -> list:
    return [row.rsplit(",", 1)[1]
            for row in (directory / "out" / "sweep.csv").read_text().splitlines()[1:]]


CI_SPLIT = inputs({**CI, "dataset": csv_dataset(3, 2)}, clients=20, rounds=1,
                  grid={"alpha": [0.3, 0.6], "policy": ["top_k", "dense"], "rate": [0.3]},
                  data=synthetic_csv(2, 5, 3, seed=1))
INPUT_MISTAKE = {"seed": 3, "dataset": csv_dataset(2, 2), "policy": TOP_K, "rounds": 1,
                 "batch_size": 8}
INPUT_MISTAKES = {
    "missing_csv": (inputs(INPUT_MISTAKE), 2,
                    "fedsparse: error: [Errno 2] No such file or directory: 'data.csv'"),
    "malformed_row": (inputs(INPUT_MISTAKE, data="0.5,1.0,0\n0.25,1\n1.5,2.0,1\n"), 2,
                      "fedsparse: error: data.csv:2: expected 3 columns, got 2"),
    "normalize_one_training_row": (
        inputs({**INPUT_MISTAKE, "dataset": csv_dataset(2, 2, normalize=True)}, clients=1,
               test_fraction=0.5, data="0.5,1.0,0\n1.5,2.0,0\n"), 1,
        CONFIG_ERROR + "dataset.normalize: needs at least two training rows, the split "
                       "leaves 1"),
    "every_class_a_single_row": (
        inputs(INPUT_MISTAKE, data="0.5,1.0,0\n1.5,2.0,1\n"), 1,
        CONFIG_ERROR + "dataset: every class has a single row, which stays in train, so no "
                       "test_fraction leaves a test row"),
}
MISTAKE_GRID = json.dumps({"alpha": [0.3, 0.6], "rate": [0.3], "policy": ["top_k", "random"]})
SPLIT_MISTAKES = {
    "empty_test_split": ({"test_fraction": 1e-3},
                         "test_fraction: must be large enough to leave a test row, but 0.001 "
                         "of every class rounds to none"),
    "more_clients_than_training_rows": (
        {"clients": 49}, "clients: must be <= 48, the training rows the split leaves"),
}
SPLIT_BASE = {**CI, "seed": 3, "dataset": dataset(), "rounds": 1, "test_fraction": 0.2}
ONE_CELL = {"alpha": [0.5], "rate": [0.3]}
INVALID_JSON = ("invalid JSON: Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)")
NOT_UTF8 = "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
NON_FINITE = [("infinite", math.inf), ("negative_infinite", -math.inf), ("nan", math.nan)]
ALPHA_FINITE = "alpha: must be finite"
ALPHA_FLOOR = "alpha: must be >= 1e-05 (smaller can underflow every Dirichlet draw)"
LEARNING_RATE_FINITE = "learning_rate: must be finite"
RATE_RANGE = "policy.rate: must be in (0, 1]"
SEPARATION_FINITE = "separation: must be finite"  # under dataset. or spec.
PER_CLASS_INTEGER = "dataset.per_class: must be an integer"

# Rules a config type owns in its __post_init__ (SparsityPolicy's for the
# policy): (row id, keys that replace SMOKE's, message). Each is a row, and
# test_code_built_input_gives_the_row_message makes the same edit in code.
OWNED_RULES = [
    ("negative_seed", {"seed": -1}, "seed: must be >= 0"),
    ("zero_clients", {"clients": 0}, "clients: must be >= 1"),
    ("clients_past_the_u16_id", {"clients": 65536},
     "clients: must be <= 65535 (the FSU1 client id is a u16)"),
    *((f"{name}_alpha", {"alpha": value}, ALPHA_FINITE) for name, value in NON_FINITE),
    *((name, {"alpha": value}, "alpha: must be > 0")
      for name, value in [("zero_alpha", 0.0), ("negative_alpha", -1.0)]),
    *((name, {"alpha": value}, ALPHA_FLOOR)
      for name, value in [("alpha_below_the_floor", 1e-7), ("tiny_alpha", 1e-300),
                          ("alpha_just_below_the_floor", 0.999 * MIN_ALPHA)]),
    ("unknown_sparsify_site", {"sparsify_site": "midway"},
     "sparsify_site: must be 'uploaded_delta' or 'local_gradient'"),
    ("zero_rounds", {"rounds": 0}, "rounds: must be >= 1"),
    ("rounds_past_the_u32_round", {"rounds": 2 ** 32},
     "rounds: must be <= 4294967295 (the FSU1 round is a u32)"),
    ("zero_local_epochs", {"local_epochs": 0}, "local_epochs: must be >= 1"),
    *((f"{name}_learning_rate", {"learning_rate": value}, LEARNING_RATE_FINITE)
      for name, value in NON_FINITE),
    *((name, {"learning_rate": value}, "learning_rate: must be > 0")
      for name, value in [("zero_learning_rate", 0.0), ("negative_learning_rate", -0.5)]),
    ("zero_batch_size", {"batch_size": 0}, "batch_size: must be >= 1"),
    *((name, {"participation": value}, "participation: must be in (0, 1]")
      for name, value in [("zero_participation", 0.0), ("participation_above_one", 1.5)]),
    *((name, {"test_fraction": value}, "test_fraction: must be in (0, 1)")
      for name, value in [("zero_test_fraction", 0.0), ("test_fraction_of_one", 1.0)]),
    # the split of 3 classes of 100 rows: 0.004 of 100 rounds to no test row,
    # and at 0.2 it leaves 240 training rows
    ("test_fraction_below_one_test_row",
     {"dataset": dataset(per_class=100), "test_fraction": 0.004},
     "test_fraction: must be large enough to leave a test row, but 0.004 of every class "
     "rounds to none"),
    ("clients_past_240_training_rows", {"dataset": dataset(per_class=100), "clients": 241},
     "clients: must be <= 240, the training rows the split leaves"),
    ("clients_past_3_training_rows",
     {"dataset": dataset(per_class=2), "clients": 4, "test_fraction": 0.999},
     "clients: must be <= 3, the training rows the split leaves"),
    # input_dim d, one hidden layer of h, c classes: h * (d + 1 + c) + c params
    ("model_past_the_u32_index",
     {"model": {"hidden": [4]}, "dataset": dataset(input_dim=2 ** 30 - 7, classes=5)},
     "model.hidden: gives 4294967297 params, more than 4294967296 (the FSU1 index is a u32)"),
    *((name, {"dataset": data}, "dataset.classes: must be >= 2")
      for name, data in [("one_class", dataset(classes=1)), ("csv_one_class", csv_dataset(3, 1))]),
    *((name, {"dataset": data}, "dataset.input_dim: must be >= 1")
      for name, data in [("zero_input_dim", dataset(input_dim=0)),
                         ("csv_zero_input_dim", csv_dataset(0, 2))]),
    *((name, {"dataset": dataset(per_class=value)}, "dataset.per_class: must be >= 2")
      for name, value in [("zero_per_class", 0), ("single_sample_synthetic", 1)]),
    *((f"{name}_separation", {"dataset": dataset(separation=value)},
       "dataset." + SEPARATION_FINITE) for name, value in NON_FINITE),
    ("negative_separation", {"dataset": dataset(separation=-0.5)},
     "dataset.separation: must be >= 0"),
    ("zero_width_hidden_layer", {"model": {"hidden": [4, 0]}},
     "model.hidden: every width must be >= 1"),
    ("unknown_activation", {"model": {"activation": "sigmoid"}},
     "model.activation: must be 'relu' or 'tanh'"),
    *((name, {"policy": policy}, RATE_RANGE)
      for name, policy in [("top_k_rate_above_one", {"kind": "top_k", "rate": 1.5}),
                           ("zero_random_rate", {"kind": "random", "rate": 0.0})]),
    ("top_k_without_rate", {"policy": {"kind": "top_k"}}, "policy.rate: is required for top_k"),
    ("threshold_without_tau", {"policy": {"kind": "threshold"}},
     "policy.tau: is required for threshold"),
    *((f"{name}_tau", {"policy": {"kind": "threshold", "tau": value}},
       "policy.tau: must be finite") for name, value in NON_FINITE),
    ("negative_tau", {"policy": {"kind": "threshold", "tau": -1.0}}, "policy.tau: must be >= 0"),
    ("unknown_policy_kind", {"policy": {"kind": "banana"}},
     "policy.kind: must be one of 'top_k', 'threshold', 'random', 'dense'"),
    ("tau_on_top_k", {"policy": {"kind": "top_k", "rate": 0.2, "tau": -5.0}},
     "policy.tau: top_k takes only rate"),
    ("rate_on_threshold", {"policy": {"kind": "threshold", "tau": 0.1, "rate": 0.2}},
     "policy.rate: threshold takes only tau"),
    *((f"{param}_on_dense", {"policy": {"kind": "dense", param: 0.5}},
       f"policy.{param}: dense takes no parameters") for param in ("rate", "tau")),
]
# Rules the reader and the parser own: the file's JSON (UTF-8, no key given
# twice) and its shape (types, presence, unknown keys), as (row id,
# config.json, message)
PARSER_RULES = [
    ("config_missing_dataset", json.dumps({"seed": 1}), "dataset: is required"),
    *((f"config_missing_{key}", json.dumps({k: v for k, v in SMOKE.items() if k != key}),
       f"{key}: is required") for key in ("seed", "policy")),
    ("config_not_an_object", "[]", "config: must be a JSON object"),
    ("config_invalid_json", "{not json", "config.json: " + INVALID_JSON),
    ("config_in_utf16", json.dumps(SMOKE).encode("utf-16"), "config.json: " + NOT_UTF8),
    ("duplicate_key", json.dumps(SMOKE)[:-1] + ', "rounds": 1}',
     "config.json: duplicate key 'rounds'"),
    ("duplicate_dataset_key",
     json.dumps(SMOKE).replace('"per_class": 20', '"per_class": 20, "per_class": 30'),
     "config.json: duplicate key 'per_class'"),
    *((name, json.dumps({**SMOKE, **keys}), message) for name, keys, message in [
        ("misspelt_key", {"lerning_rate": 0.1}, "unknown key 'lerning_rate'"),
        ("unknown_dataset_key", {"dataset": dataset(classez=4)},
         "unknown key 'classez' in dataset"),
        ("dataset_not_an_object", {"dataset": []}, "dataset: must be an object"),
        ("model_not_an_object", {"model": [16]}, "model: must be an object"),
        ("unknown_dataset_kind", {"dataset": {"kind": "parquet"}},
         "dataset.kind: must be 'synthetic' or 'csv', got 'parquet'"),
        ("csv_without_path", {"dataset": {"kind": "csv"}}, "dataset.path: is required"),
        ("seed_a_string", {"seed": "banana"}, "seed: must be an integer"),
        ("alpha_a_string", {"alpha": "big"}, "alpha: must be a number"),
        ("sparsify_site_a_number", {"sparsify_site": 1}, "sparsify_site: must be a string"),
        ("hidden_of_floats", {"model": {"hidden": [8.5]}},
         "model.hidden: must be a list of integers"),
        ("csv_normalize_a_string", {"dataset": csv_dataset(4, 3, normalize="yes")},
         "dataset.normalize: must be true or false"),
        # an integer beyond float range fails as its float spelling (1e400) does
        ("oversized_learning_rate", {"learning_rate": BIG}, LEARNING_RATE_FINITE),
        ("oversized_policy_rate", {"policy": {"kind": "top_k", "rate": BIG}}, RATE_RANGE),
        ("oversized_separation", {"dataset": dataset(separation=BIG)},
         "dataset." + SEPARATION_FINITE),
        ("oversized_per_class", {"dataset": dataset(per_class=BIG)}, PER_CLASS_INTEGER)]),
    ("per_class_past_the_int_digit_limit",
     json.dumps(SMOKE).replace('"per_class": 20', '"per_class": ' + "9" * 5000),
     PER_CLASS_INTEGER),
]
# gen-data spec rules: (row id, spec.json, message, whether
# SyntheticDataConfig owns the rule)
SPEC_RULES = [
    ("unknown_key", {"classses": 3}, "unknown key 'classses' in spec", False),
    ("classes_a_string", {"classes": "3"}, "spec.classes: must be an integer", False),
    ("per_class_a_float", {"per_class": 2.5}, "spec.per_class: must be an integer", False),
    ("input_dim_a_bool", {"input_dim": True}, "spec.input_dim: must be an integer", False),
    ("seed_a_string", {"seed": "0"}, "spec.seed: must be an integer", False),
    ("negative_seed", {"seed": -1}, "spec.seed: must be >= 0", False),
    *((f"{name}_separation", {"separation": value}, "spec." + SEPARATION_FINITE, True)
      for name, value in NON_FINITE),
    ("one_per_class", {"per_class": 1}, "spec.per_class: must be >= 2", True),
]

OUTCOMES = [
    # a diverging run names its client, round, epoch and batch; a non-finite
    # round loss stops it, the last round included (exit 2)
    *(Outcome(f"diverge_in_round_0_{site}", inputs(sparsify_site=site, rounds=3,
                                                   learning_rate=1e150),
              RUN, 2, [f"fedsparse: error: client 1: non-finite {what} in round 0, epoch 0, "
                       f"batch 2"])
      for site, what in [("uploaded_delta", "parameters"), ("local_gradient", "gradient")]),
    *(Outcome(f"diverge_after_eval_{site}", inputs(sparsify_site=site, rounds=3, batch_size=64,
                                                   learning_rate=1e150),
              RUN, 2, ["fedsparse: error: global loss non-finite in round 1"])
      for site in ("uploaded_delta", "local_gradient")),
    *(Outcome(f"ci_diverge_{site}", inputs(CI, sparsify_site=site, rounds=3, local_epochs=2,
                                           batch_size=8, learning_rate=1e150),
              RUN, 2, [f"fedsparse: error: client 0: non-finite {what} in round 0, epoch 0, "
                       f"batch 2"])
      for site, what in [("uploaded_delta", "parameters"), ("local_gradient", "gradient")]),
    *(Outcome(f"last_round_loss_{site}", inputs(CI, sparsify_site=site, rounds=1,
                                                local_epochs=1, batch_size=64,
                                                learning_rate=1e160),
              RUN, 2, ["fedsparse: error: global loss non-finite in round 0"])
      for site in ("uploaded_delta", "local_gradient")),
    Outcome("finite_but_huge_model", inputs({**CI, "seed": 0}, rounds=1, local_epochs=1,
                                            batch_size=64, learning_rate=1e150),
            RUN, 0, [], RUN_OUTPUTS, (final_loss_is_finite_and_huge, True)),
    # mistakes only the config can fix exit 1 with one line naming the key
    # and write nothing
    *(Outcome(f"output_dir_key_{command}", inputs(output_dir="elsewhere", grid=grid), argv, 1,
              [CONFIG_ERROR + "unknown key 'output_dir'"])
      for command, argv, grid in [("run", RUN, None), ("sweep", SWEEP, ONE_CELL)]),
    *(Outcome(id, inputs(**keys), RUN, 1, [CONFIG_ERROR + message], edit=(SMOKE, keys))
      for id, keys, message in OWNED_RULES),
    *(Outcome(id, {"config.json": text}, RUN, 1, [CONFIG_ERROR + message])
      for id, text, message in PARSER_RULES),
    *(Outcome(f"{name}_{kind}", inputs(
        {**SPLIT_BASE, "dataset": dataset() if kind == "synthetic" else csv_dataset(4, 3)},
        data=synthetic_csv(3, 20, 4, seed=1) if kind == "csv" else None, **override),
        RUN, 1, [CONFIG_ERROR + message],
        edit=(SPLIT_BASE, override) if kind == "synthetic" else ())
      for name, (override, message) in SPLIT_MISTAKES.items() for kind in ("synthetic", "csv")),
    Outcome("config_file_missing", {}, RUN, 1,
            [CONFIG_ERROR + "config file not found: config.json"]),
    # input a run can load: a one-sample class stays in train
    Outcome("rare_class_csv", inputs(
        {"seed": 3, "dataset": csv_dataset(4, 3, normalize=True), "rounds": 2, "batch_size": 8,
         "policy": TOP_K}, data=rare_class_csv()),
        RUN, 0, [], RUN_OUTPUTS),
    Outcome("ci_rare_class_csv", inputs(
        {**CI, "dataset": csv_dataset(4, 4, normalize=True)}, rounds=3, local_epochs=2,
        batch_size=8, learning_rate=0.05,
        data=synthetic_csv(3, 20, 4, seed=2) + "0.5,-0.5,1.0,0.0,3\n"),
        RUN, 0, [], RUN_OUTPUTS),
    # an input mistake in a CSV set: the same exit and line from run and from a
    # sweep, which builds its input once, before any cell or worker starts
    Outcome("non_utf8_csv_byte", inputs(
        {"seed": 3, "policy": {"kind": "dense"}, "dataset": csv_dataset(2, 2)},
        data=b"1.0,2.0,0\n1.0,2.0\xff,1\n"),
        RUN, 2, ["fedsparse: error: data.csv:2: 'utf-8' codec can't decode byte 0xff in "
                 "position 7: invalid start byte"]),
    *(Outcome(f"{name}_{command}", {**files, "grid.json": MISTAKE_GRID},
              RUN if command == "run" else SWEEP + ["--jobs", "3"], code, [line])
      for name, (files, code, line) in INPUT_MISTAKES.items() for command in ("run", "sweep")),
    *(Outcome(f"ci_csv_split_{command}", CI_SPLIT, argv, 1,
              [CONFIG_ERROR + "clients: must be <= 8, the training rows the split leaves"])
      for command, argv in [("run", RUN), ("sweep", SWEEP + ["--jobs", "2"])]),
    # grid mistakes exit 1 and write nothing
    *(Outcome(f"grid_{name}", inputs(grid=grid), SWEEP, 1, [CONFIG_ERROR + message])
      for name, grid, message in [
          ("alpha_not_a_list", {"alpha": 0.5, "rate": [0.3]},
           "grid.alpha: must be a list of numbers"),
          ("alpha_of_bools", {"alpha": [True], "rate": [0.3]},
           "grid.alpha: must be a list of numbers"),
          ("policy_not_a_list", {"alpha": [0.5], "rate": [0.3], "policy": "top_k"},
           "grid.policy: must be a list of strings"),
          ("rate_of_strings", {"alpha": [0.5], "rate": ["x"]},
           "grid.rate: must be a list of numbers"),
          ("unknown_policy_kind", {"alpha": [0.5], "rate": [0.3], "policy": ["top_k", "nope"]},
           "grid.policy: unknown kind 'nope'"),
          ("empty_alpha_list", {"alpha": [], "rate": [0.3]},
           "grid: alpha, policy and rate lists must be nonempty"),
          ("unknown_key", {"alpha": [0.5], "rate": [0.3], "rates": [0.2]},
           "unknown key 'rates' in grid"),
          ("not_an_object", [0.5], "grid: must be a JSON object")]),
    Outcome("grid_file_missing", inputs(), SWEEP, 1,
            [CONFIG_ERROR + "grid file not found: grid.json"]),
    *(Outcome(f"grid_{name}", {**inputs(), "grid.json": text}, SWEEP, 1,
              [CONFIG_ERROR + "grid.json: " + message])
      for name, text, message in [
          ("invalid_json", "{not json", INVALID_JSON),
          ("in_utf16", json.dumps(ONE_CELL).encode("utf-16"), NOT_UTF8),
          ("duplicate_key", '{"alpha": [0.5], "rate": [0.3], "rate": [0.2]}',
           "duplicate key 'rate'")]),
    # a cell that fails is a failed row; the others still run
    Outcome("sweep_partial_failure",
            inputs(grid={"alpha": [0.5, 1e-7], "rate": [0.3, 1.5], "policy": ["top_k"]}),
            SWEEP, 3, ["cell alpha=0.5 policy=top_k rate=1.5 failed: " + RATE_RANGE,
                       "cell alpha=1e-07 policy=top_k rate=0.3 failed: " + ALPHA_FLOOR,
                       "cell alpha=1e-07 policy=top_k rate=1.5 failed: " + RATE_RANGE],
            sweep_outputs(1), (sweep_status, ["ok", "failed", "failed", "failed"])),
    *(Outcome(f"sweep_{name}_alpha_cell", inputs(grid={"alpha": [0.5, alpha], "rate": [0.3]}),
              SWEEP, 3, ["cell alpha=inf policy=top_k rate=0.3 failed: " + ALPHA_FINITE],
              sweep_outputs(1), (sweep_status, ["ok", "failed"]))
      for name, alpha in [("infinite", math.inf), ("oversized", BIG)]),
    Outcome("sweep_all_cells_fail", inputs(
        {**CI, "seed": 3, "dataset": dataset(separation=1.0),
         "policy": {"kind": "top_k", "rate": 0.5}}, rounds=1, local_epochs=2, batch_size=8,
        learning_rate=1e150, clients=2, test_fraction=0.25,
        grid={"alpha": [0.5], "rate": [0.5], "policy": ["top_k"]}),
        SWEEP, 2, ["cell alpha=0.5 policy=top_k rate=0.5 failed: client 0: non-finite "
                   "parameters in round 0, epoch 1, batch 0"],
        sweep_outputs(0), (sweep_status, ["failed"])),
    # gen-data spec mistakes
    *(Outcome(f"spec_{name}", {"spec.json": json.dumps(spec)}, GEN, 1, [CONFIG_ERROR + message],
              edit=(None, {"spec": spec}) if owned else ())
      for name, spec, message, owned in SPEC_RULES),
    Outcome("oversized_spec_separation", {"spec.json": json.dumps({"separation": BIG})}, GEN, 1,
            [CONFIG_ERROR + "spec." + SEPARATION_FINITE]),
    Outcome("spec_file_missing", {}, GEN, 1, [CONFIG_ERROR + "spec file not found: spec.json"]),
    *(Outcome(f"spec_{name}", {"spec.json": text}, GEN, 1, [CONFIG_ERROR + message])
      for name, text, message in [
          ("invalid_json", "{not json", "spec.json: " + INVALID_JSON),
          ("in_utf16", json.dumps({"classes": 3}).encode("utf-16"), "spec.json: " + NOT_UTF8),
          ("duplicate_key", '{"classes": 3, "classes": 4}', "spec.json: duplicate key 'classes'"),
          ("not_an_object", "[]", "spec: must be an object")]),
    # command-line mistakes: argparse's usage line, then the error (exit 1)
    Outcome("run_without_config", {}, ["run"], 1,
            [RUN_USAGE, "fedsparse run: error: the following arguments are required: config"]),
    # the program writes no FSU1 file, so it has no dump-update reader for one
    *(Outcome(f"{command}_is_not_a_command", {}, [command, "update.fsu"], 1,
              ["usage: fedsparse [-h] [--version] {run,sweep,gen-data} ...",
               f"fedsparse: error: argument command: invalid choice: '{command}' (choose from "
               f"'run', 'sweep', 'gen-data')"])
      for command in ("frobnicate", "dump-update")),
    *(Outcome(f"jobs_{name}", inputs(grid=ONE_CELL), SWEEP + ["--jobs", jobs], 1,
              [*SWEEP_USAGE, f"fedsparse sweep: error: argument --jobs: {message}"])
      for name, jobs, message in [("zero", "0", "must be >= 1, got 0"),
                                  ("negative", "-2", "must be >= 1, got -2"),
                                  ("not_an_integer", "two", "must be an integer, got 'two'")]),
]


def write_inputs(directory: Path, row: Outcome) -> None:
    directory.mkdir(parents=True)
    for name, content in row.files.items():
        path = directory / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


def left_behind(directory: Path, row: Outcome) -> list:
    """Every path under directory but the row's input files, folders included."""
    paths = (p.relative_to(directory).as_posix() for p in directory.rglob("*"))
    return sorted(path for path in paths if path not in row.files)


def expected_paths(row: Outcome) -> list:
    paths = set(row.outputs)
    for output in row.outputs:
        paths.update(str(parent) for parent in PurePosixPath(output).parents)
    return sorted(paths - {"."})


def stderr_text(row: Outcome) -> str:
    return "".join(line + "\n" for line in row.stderr)


@pytest.mark.parametrize("row", OUTCOMES, ids=[row.id for row in OUTCOMES])
def test_pinned_outcome(row, tmp_path, monkeypatch):
    """The row's outcome in-process under the default warning filter and under
    warnings as errors. A call that leaves no file asks for no process pool."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this width
    requested = TestSweep.record_pool(monkeypatch)
    for action in ("default", "error"):
        directory = tmp_path / action
        write_inputs(directory, row)
        monkeypatch.chdir(directory)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter(action)
            code = main(list(row.argv))
        assert (code, err.getvalue()) == (row.code, stderr_text(row)), action
        assert left_behind(directory, row) == expected_paths(row), action
        if row.check:
            reader, expected = row.check
            assert reader(directory) == expected, action
    if not row.outputs:
        assert requested == []


def section(key: str, value: dict) -> tuple:
    """The type that owns section key of a config (a gen-data spec is the
    section "spec") and its constructor's keyword arguments from the JSON
    object value."""
    if key in ("policy", "model"):
        return {"policy": SparsityPolicy, "model": ModelConfig}[key], value
    cls = CsvDataConfig if value.get("kind") == "csv" else SyntheticDataConfig
    return cls, {name: v for name, v in value.items() if name != "kind"}


def code_built(base: dict, keys: dict):
    """parse_config_dict({**base, **keys}) built in code: dataclasses.replace
    on the parsed base, each section in keys built by its type."""
    sections = {}
    for key, value in keys.items():
        if isinstance(value, dict):
            cls, kwargs = section(key, value)
            sections[key] = cls(**kwargs)
    return replace(parse_config_dict(base), **{**keys, **sections})


def raises(message: str, call, *args, **kwargs) -> None:
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    assert str(info.value) == message


TYPED = [row for row in OUTCOMES if row.edit]


@pytest.mark.parametrize("row", TYPED, ids=[row.id for row in TYPED])
def test_code_built_input_gives_the_row_message(row):
    """The row's edit made in code raises the row's message. A rule of a
    section type comes from its constructor, without the section prefix,
    and from gen_synthetic, retained_count and cell_policy, which check
    through that type; any other rule comes from dataclasses.replace on
    the parsed base."""
    message = row.stderr[0].removeprefix(CONFIG_ERROR)
    base, keys = row.edit
    for key, value in keys.items():
        if not isinstance(value, dict):
            continue
        cls, kwargs = section(key, value)
        try:
            cls(**kwargs)
        except ValueError as exc:
            assert f"{key}.{exc}" == message
            if cls is SyntheticDataConfig:
                raises(str(exc), gen_synthetic, **{**asdict(SyntheticDataConfig()), **kwargs},
                       rng_seed=0)
            param = POLICY_PARAM.get(value.get("kind"))
            if cls is SparsityPolicy and param and set(value) == {"kind", param}:
                raises(message, cell_policy, value["kind"], value[param])
                if param == "rate":
                    raises(str(exc), retained_count, value["rate"], 10)
            return
    with pytest.raises(ConfigError) as info:
        code_built(base, keys)
    assert str(info.value) == message


@pytest.mark.parametrize("keys,class_sizes", [
    # 3 classes of 30,000 rows leave 72,000 training rows, one for each of
    # 65,535 clients, the most the FSU1 client id (a u16) names
    pytest.param({"dataset": dataset(per_class=30_000), "clients": 65535}, None,
                 id="clients_at_the_u16_id"),
    pytest.param({"dataset": dataset(per_class=100), "clients": 240}, None,
                 id="clients_at_240_training_rows"),
    pytest.param({"rounds": 2 ** 32 - 1}, None, id="rounds_at_the_u32_round"),
    pytest.param({"dataset": dataset(per_class=100), "test_fraction": 0.005}, None,
                 id="test_fraction_at_one_test_row"),
    # 4 * ((2**30 - 6) + 1 + 4) + 4 = 2**32 params, largest index 2**32 - 1
    pytest.param({"model": {"hidden": [4]}, "dataset": dataset(input_dim=2 ** 30 - 6, classes=4)},
                 None, id="model_at_the_u32_index"),
    pytest.param({"alpha": MIN_ALPHA}, None, id="alpha_at_the_floor"),
    # a loaded CSV set: one class of two rows gives the test row
    pytest.param({"test_fraction": 0.999}, [1, 1, 2], id="one_class_of_two_rows"),
    pytest.param({"dataset": csv_dataset(2, 2, normalize=True), "clients": 1,
                  "test_fraction": 0.5}, [4], id="normalize_two_training_rows"),
    pytest.param({"dataset": csv_dataset(2, 2), "clients": 1, "test_fraction": 0.5}, [2],
                 id="one_training_row_unnormalized"),
])
def test_boundary_input_passes(keys, class_sizes):
    """The passing side of a rule's boundary: SMOKE with keys replaced parses
    to the config the same edit builds in code, and a loaded dataset of
    class_sizes passes its split check."""
    cfg = parse_config_dict({**SMOKE, **keys})
    assert cfg == code_built(SMOKE, keys)
    if class_sizes:
        cfg.check_split(class_sizes)


REPLAY = """\
import contextlib, io, json, os, sys, traceback
from fedsparse.cli import main
outcomes = []
for directory, argv in json.load(sys.stdin):
    os.chdir(directory)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    outcomes.append([code, err.getvalue()])
json.dump(outcomes, sys.stdout)
"""


def test_pinned_outcomes_replay_in_one_fresh_interpreter(tmp_path):
    """Every row once more, in one interpreter started with
    PYTHONWARNINGS=error, so a warning raised at import or at exit counts
    too: the same exit code, stderr and files, and no traceback."""
    calls = []
    for row in OUTCOMES:
        write_inputs(tmp_path / row.id, row)
        calls.append([str(tmp_path / row.id), row.argv])
    src = os.path.dirname(os.path.dirname(fedsparse.__file__))
    proc = subprocess.run([sys.executable, "-c", REPLAY], input=json.dumps(calls),
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error",
                                   COLUMNS="80"))
    assert (proc.returncode, proc.stderr) == (0, "")
    replayed = dict(zip([row.id for row in OUTCOMES], map(tuple, json.loads(proc.stdout))))
    assert replayed == {row.id: (row.code, stderr_text(row)) for row in OUTCOMES}
    assert {row.id: left_behind(tmp_path / row.id, row) for row in OUTCOMES} == \
        {row.id: expected_paths(row) for row in OUTCOMES}
