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
from dataclasses import dataclass, replace
from pathlib import Path, PurePosixPath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsparse
from fedsparse import cli, federation
from fedsparse.cli import EXIT_OK, EXIT_PARTIAL, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from fedsparse.config import parse_config
from fedsparse.federation import build_dataset, run_experiment
from fedsparse.data import csv_text, gen_synthetic
from fedsparse.partition import MIN_ALPHA
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
}
MISTAKE_GRID = json.dumps({"alpha": [0.3, 0.6], "rate": [0.3], "policy": ["top_k", "random"]})
SPLIT_MISTAKES = {
    "empty_test_split": ({"test_fraction": 1e-3},
                         "test_fraction: must be large enough to leave a test row, but 0.001 "
                         "of every class rounds to none"),
    "more_clients_than_training_rows": (
        {"clients": 49}, "clients: must be <= 48, the training rows the split leaves"),
}
ONE_CELL = {"alpha": [0.5], "rate": [0.3]}
INVALID_JSON = ("invalid JSON: Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)")

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
    Outcome("output_dir_key_run", inputs(output_dir="elsewhere"), RUN, 1,
            [CONFIG_ERROR + "unknown key 'output_dir'"]),
    Outcome("output_dir_key_sweep", inputs(output_dir="elsewhere", grid=ONE_CELL), SWEEP, 1,
            [CONFIG_ERROR + "unknown key 'output_dir'"]),
    Outcome("tiny_alpha", inputs(alpha=1e-300), RUN, 1,
            [CONFIG_ERROR + "alpha: must be >= 1e-05 (smaller can underflow every Dirichlet "
                            "draw)"]),
    Outcome("infinite_alpha", inputs(alpha=math.inf), RUN, 1,
            [CONFIG_ERROR + "alpha: must be finite"]),
    Outcome("infinite_learning_rate", inputs(learning_rate=math.inf), RUN, 1,
            [CONFIG_ERROR + "learning_rate: must be finite"]),
    Outcome("nan_alpha", inputs(alpha=math.nan), RUN, 1, [CONFIG_ERROR + "alpha: must be finite"]),
    Outcome("single_sample_synthetic",
            inputs({**CI, "seed": 3, "dataset": dataset(per_class=1)}, rounds=2, batch_size=8),
            RUN, 1, [CONFIG_ERROR + "dataset.per_class: must be >= 2"]),
    *(Outcome(f"{name}_{kind}", inputs(
        {**CI, "seed": 3, "dataset": dataset() if kind == "synthetic" else csv_dataset(4, 3)},
        rounds=1, **{"test_fraction": 0.2, **override},
        data=synthetic_csv(3, 20, 4, seed=1) if kind == "csv" else None),
        RUN, 1, [CONFIG_ERROR + message])
      for name, (override, message) in SPLIT_MISTAKES.items() for kind in ("synthetic", "csv")),
    Outcome("config_missing_dataset", {"config.json": json.dumps({"seed": 1})}, RUN, 1,
            [CONFIG_ERROR + "dataset: is required"]),
    Outcome("config_file_missing", {}, RUN, 1,
            [CONFIG_ERROR + "config file not found: config.json"]),
    # an integer beyond float range fails as its float spelling (1e400) does
    Outcome("oversized_learning_rate", inputs(learning_rate=BIG), RUN, 1,
            [CONFIG_ERROR + "learning_rate: must be finite"]),
    Outcome("oversized_policy_rate", inputs(policy={"kind": "top_k", "rate": BIG}), RUN, 1,
            [CONFIG_ERROR + "policy.rate: must be in (0, 1]"]),
    Outcome("oversized_separation", inputs(dataset=dataset(separation=BIG)), RUN, 1,
            [CONFIG_ERROR + "dataset.separation: must be finite"]),
    Outcome("oversized_per_class", inputs(dataset=dataset(per_class=BIG)), RUN, 1,
            [CONFIG_ERROR + "dataset.per_class: must be an integer"]),
    Outcome("per_class_past_the_int_digit_limit", {"config.json": json.dumps(SMOKE).replace(
        '"per_class": 20', '"per_class": ' + "9" * 5000)},
            RUN, 1, [CONFIG_ERROR + "dataset.per_class: must be an integer"]),
    Outcome("oversized_spec_separation", {"spec.json": json.dumps({"separation": BIG})}, GEN, 1,
            [CONFIG_ERROR + "spec.separation: must be finite"]),
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
    Outcome("ci_csv_split_run", CI_SPLIT, RUN, 1,
            [CONFIG_ERROR + "clients: must be <= 8, the training rows the split leaves"]),
    Outcome("ci_csv_split_sweep", CI_SPLIT, SWEEP + ["--jobs", "2"], 1,
            [CONFIG_ERROR + "clients: must be <= 8, the training rows the split leaves"]),
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
           "grid: alpha, policy and rate lists must be nonempty")]),
    Outcome("grid_file_missing", inputs(), SWEEP, 1,
            [CONFIG_ERROR + "grid file not found: grid.json"]),
    Outcome("grid_invalid_json", {**inputs(), "grid.json": "{not json"}, SWEEP, 1,
            [CONFIG_ERROR + "grid.json: " + INVALID_JSON]),
    # a cell that fails is a failed row; the others still run
    Outcome("sweep_partial_failure",
            inputs(grid={"alpha": [0.5, 1e-7], "rate": [0.3, 1.5], "policy": ["top_k"]}),
            SWEEP, 3, ["cell alpha=0.5 policy=top_k rate=1.5 failed: policy.rate: must be in "
                       "(0, 1]",
                       "cell alpha=1e-07 policy=top_k rate=0.3 failed: alpha: must be >= 1e-05 "
                       "(smaller can underflow every Dirichlet draw)",
                       "cell alpha=1e-07 policy=top_k rate=1.5 failed: policy.rate: must be in "
                       "(0, 1]"], sweep_outputs(1),
            (sweep_status, ["ok", "failed", "failed", "failed"])),
    Outcome("sweep_infinite_alpha_cell", inputs(grid={"alpha": [0.5, math.inf], "rate": [0.3]}),
            SWEEP, 3, ["cell alpha=inf policy=top_k rate=0.3 failed: alpha: must be finite"],
            sweep_outputs(1), (sweep_status, ["ok", "failed"])),
    Outcome("sweep_oversized_alpha_cell", inputs(grid={"alpha": [0.5, BIG], "rate": [0.3]}),
            SWEEP, 3, ["cell alpha=inf policy=top_k rate=0.3 failed: alpha: must be finite"],
            sweep_outputs(1), (sweep_status, ["ok", "failed"])),
    Outcome("sweep_all_cells_fail", inputs(
        {**CI, "seed": 3, "dataset": dataset(separation=1.0),
         "policy": {"kind": "top_k", "rate": 0.5}}, rounds=1, local_epochs=2, batch_size=8,
        learning_rate=1e150, clients=2, test_fraction=0.25,
        grid={"alpha": [0.5], "rate": [0.5], "policy": ["top_k"]}),
        SWEEP, 2, ["cell alpha=0.5 policy=top_k rate=0.5 failed: client 0: non-finite "
                   "parameters in round 0, epoch 1, batch 0"],
        sweep_outputs(0), (sweep_status, ["failed"])),
    # gen-data spec mistakes
    *(Outcome(f"spec_{name}", {"spec.json": json.dumps(spec)}, GEN, 1,
              [CONFIG_ERROR + message])
      for name, spec, message in [
          ("unknown_key", {"classses": 3}, "unknown key 'classses' in spec"),
          ("classes_a_string", {"classes": "3"}, "spec.classes: must be an integer"),
          ("per_class_a_float", {"per_class": 2.5}, "spec.per_class: must be an integer"),
          ("input_dim_a_bool", {"input_dim": True}, "spec.input_dim: must be an integer"),
          ("negative_seed", {"seed": -1}, "spec.seed: must be >= 0"),
          ("infinite_separation", {"separation": math.inf}, "spec.separation: must be finite"),
          ("one_per_class", {"per_class": 1}, "spec.per_class: must be >= 2")]),
    Outcome("spec_file_missing", {}, GEN, 1, [CONFIG_ERROR + "spec file not found: spec.json"]),
    Outcome("spec_invalid_json", {"spec.json": "{not json"}, GEN, 1,
            [CONFIG_ERROR + "spec.json: " + INVALID_JSON]),
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
