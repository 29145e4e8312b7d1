"""CLI behavior: subcommands, output files, exit codes, determinism."""

import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedsparse
from fedsparse.cli import EXIT_OK, EXIT_PARTIAL, EXIT_RUNTIME, EXIT_USAGE, main
from fedsparse.config import parse_config
from fedsparse.federation import build_dataset, run_experiment
from fedsparse.sparsify import SparseUpdate, encode


@pytest.fixture
def smoke_config(tmp_path):
    doc = {
        "seed": 3,
        "dataset": {"kind": "synthetic", "classes": 3, "per_class": 20,
                    "input_dim": 4, "separation": 2.0},
        "policy": {"kind": "top_k", "rate": 0.3},
        "rounds": 2, "local_epochs": 1, "batch_size": 8,
        "learning_rate": 0.05, "alpha": 0.5,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


class TestRun:
    def test_smoke_outputs(self, smoke_config, capsys):
        path, doc = smoke_config
        assert main(["run", str(path)]) == EXIT_OK
        out_dir = doc["output_dir"]
        metrics = Path(out_dir, "metrics.csv").read_text().splitlines()
        assert metrics[0] == "round,global_loss,top1_accuracy,uplink_bytes,downlink_bytes"
        assert len(metrics) == 3  # header + one row per round
        assert metrics[1].split(",")[0] == "0"

        summary = json.loads(Path(out_dir, "summary.json").read_text())
        assert summary["rounds_completed"] == 2
        assert summary["config"]["seed"] == 3
        assert "wall_time_s" in summary and "version" in summary

        rows = [int(r.split(",")[3])
                for r in metrics[1:]]
        assert summary["total_uplink_bytes"] == sum(rows)

        partitions = Path(out_dir, "partitions.csv").read_text().splitlines()
        assert partitions[0] == "sample_index,client_id"
        assert len(partitions) == 1 + 48  # train split of 60 samples at 0.2

    def test_partitions_csv_lists_every_sample_once(self, smoke_config):
        path, doc = smoke_config
        assert main(["run", str(path), "--quiet"]) == EXIT_OK
        lines = Path(doc["output_dir"], "partitions.csv").read_text().splitlines()
        assert lines[0] == "sample_index,client_id"
        pairs = [tuple(map(int, line.split(","))) for line in lines[1:]]
        assert [i for i, _ in pairs] == list(range(48))  # sorted, each sample once
        parts = run_experiment(parse_config(path)).partitions
        lookup = {int(i): p.client_id for p in parts for i in p.sample_indices}
        assert all(lookup[i] == c for i, c in pairs)

    def test_run_loads_no_process_pool(self, smoke_config):
        """Only `sweep --jobs N` needs multiprocessing; `run` does not import it."""
        path, doc = smoke_config
        script = ("import sys, fedsparse.cli\n"
                  f"assert fedsparse.cli.main(['run', {str(path)!r}, '--quiet']) == 0\n"
                  "print(sorted(m for m in ('multiprocessing', 'concurrent.futures',"
                  " 'socket', 'logging') if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(fedsparse.__file__))
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == "[]"

    def test_rerun_is_byte_identical(self, smoke_config):
        path, doc = smoke_config
        assert main(["run", str(path)]) == EXIT_OK
        first = Path(doc["output_dir"], "metrics.csv").read_bytes()
        assert main(["run", str(path)]) == EXIT_OK
        second = Path(doc["output_dir"], "metrics.csv").read_bytes()
        assert first == second

    def test_stream_rows_include_elapsed(self, smoke_config, capsys):
        path, _ = smoke_config
        assert main(["run", str(path), "--stream", "--quiet"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith(",elapsed_s")
        assert len(lines) == 3

    def test_seed_env_override(self, smoke_config, monkeypatch, capsys):
        path, doc = smoke_config
        monkeypatch.setenv("FEDSPARSE_SEED", "99")
        assert main(["run", str(path)]) == EXIT_OK
        summary = json.loads(Path(doc["output_dir"], "summary.json").read_text())
        assert summary["config"]["seed"] == 99
        monkeypatch.setenv("FEDSPARSE_SEED", "not-an-int")
        assert main(["run", str(path)]) == EXIT_USAGE
        monkeypatch.setenv("FEDSPARSE_SEED", "-1")
        assert main(["run", str(path)]) == EXIT_USAGE
        assert "FEDSPARSE_SEED must be a non-negative integer, got '-1'" \
            in capsys.readouterr().err

    def test_tiny_alpha_fails_fast_naming_alpha(self, smoke_config, capsys):
        """An alpha that can underflow every Dirichlet draw is a config error."""
        path, doc = smoke_config
        path.write_text(json.dumps(dict(doc, alpha=1e-300)))
        assert main(["run", str(path), "--quiet"]) == EXIT_USAGE
        assert "config error: alpha: must be >= 1e-05" in capsys.readouterr().err
        assert not os.path.exists(doc["output_dir"])

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
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--quiet"]) == EXIT_OK
        for name in ("metrics.csv", "summary.json", "partitions.csv"):
            assert (tmp_path / "out" / name).is_file()

        cfg = parse_config(path)
        train, test = build_dataset(cfg)
        raw_train, raw_test = build_dataset(
            replace(cfg, dataset=replace(cfg.dataset, normalize=False)))
        mean, std = raw_train.inputs.mean(axis=0), raw_train.inputs.std(axis=0)
        assert np.array_equal(train.inputs, (raw_train.inputs - mean) / std)
        assert np.array_equal(test.inputs, (raw_test.inputs - mean) / std)
        assert np.array_equal(test.labels, raw_test.labels)
        assert not np.allclose(test.inputs.mean(axis=0), 0.0)  # not its own statistics

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1}))
        assert main(["run", str(bad)]) == EXIT_USAGE
        assert main(["run", str(tmp_path / "missing.json")]) == EXIT_USAGE

    def test_usage_error_exit_code(self):
        assert main(["run"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE


class TestDumpUpdate:
    def test_round_trips_through_json(self, tmp_path, capsys):
        u = SparseUpdate(40, [3, 17, 21], [0.5, -1.25, 2.0], round=6, client_id=2)
        path = tmp_path / "update.fsu"
        path.write_bytes(encode(u))
        assert main(["dump-update", str(path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 40 and doc["round"] == 6 and doc["client_id"] == 2
        assert doc["count"] == 3
        rebuilt = SparseUpdate(doc["dim"],
                               [i for i, _ in doc["entries"]],
                               [v for _, v in doc["entries"]],
                               round=doc["round"], client_id=doc["client_id"])
        assert encode(rebuilt) == path.read_bytes()

    def test_truncated_file_is_runtime_error(self, tmp_path, capsys):
        u = SparseUpdate(10, [1, 2], [1.0, 2.0])
        path = tmp_path / "trunc.fsu"
        path.write_bytes(encode(u)[:-3])
        assert main(["dump-update", str(path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "expected" in err and "got" in err

    def test_missing_file(self, tmp_path):
        assert main(["dump-update", str(tmp_path / "none.fsu")]) == EXIT_RUNTIME


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

    def test_unknown_key_rejected(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"classses": 3}))
        assert main(["gen-data", str(spec), "-o", str(tmp_path / "x.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("spec,message", [
        ({"classes": "3"}, "spec.classes: must be an integer"),
        ({"per_class": 2.5}, "spec.per_class: must be an integer"),
        ({"input_dim": True}, "spec.input_dim: must be an integer"),
        ({"seed": -1}, "spec.seed: must be >= 0"),
    ])
    def test_ill_typed_value_named(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.csv"
        assert main(["gen-data", str(path), "-o", str(out)]) == EXIT_USAGE
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "invalid"])
    def test_unreadable_spec_file(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "x.csv"
        assert main(["gen-data", str(path), "-o", str(out)]) == EXIT_USAGE
        expected = f"spec file not found: {path}" if text is None \
            else f"{path}: invalid JSON: "
        assert f"config error: {expected}" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def write_grid(self, tmp_path, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return path

    def test_full_grid_shape(self, smoke_config, tmp_path, capsys):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.3, 0.6],
                                          "rate": [0.1, 0.2, 0.3, 0.4],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        rows = Path(doc["output_dir"], "sweep.csv").read_text().splitlines()
        assert rows[0] == "alpha,policy,rate,final_accuracy,total_bytes,status"
        assert len(rows) == 9  # header + 2 alphas x 4 rates
        assert all(r.endswith(",ok") for r in rows[1:])
        assert os.path.exists(os.path.join(doc["output_dir"], "sweep.txt"))
        # per-cell artifacts
        assert os.path.exists(os.path.join(doc["output_dir"], "cells",
                                           "cell_000", "metrics.csv"))

    def test_bytes_increase_with_rate_within_group(self, smoke_config, tmp_path):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.3],
                                          "rate": [0.1, 0.2, 0.3, 0.4],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        rows = Path(doc["output_dir"], "sweep.csv").read_text().splitlines()[1:]
        totals = [int(r.split(",")[4]) for r in rows]
        assert totals == sorted(totals)
        assert len(set(totals)) == len(totals)  # strictly increasing

    def test_single_cell_matches_direct_run(self, smoke_config, tmp_path):
        """A 1x1 grid reproduces a plain run with the derived seed."""
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5], "rate": [0.3],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        cell_metrics = Path(doc["output_dir"], "cells", "cell_000", "metrics.csv").read_text()
        # derived seed for cell 0 is base + 0, alpha/policy equal the base config
        assert main(["run", str(path), "--out", str(tmp_path / "direct")]) == EXIT_OK
        direct_metrics = Path(tmp_path, "direct", "metrics.csv").read_text()
        assert cell_metrics == direct_metrics

    def test_partial_failure_exit_code(self, smoke_config, tmp_path, capsys):
        """Bad cells (rate out of range, alpha below the floor) are recorded;
        the rest still run."""
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5, 1e-7], "rate": [0.3, 1.5],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == \
            EXIT_PARTIAL
        rows = Path(doc["output_dir"], "sweep.csv").read_text().splitlines()
        statuses = [r.rsplit(",", 1)[1] for r in rows[1:]]
        assert statuses == ["ok", "failed", "failed", "failed"]
        err = capsys.readouterr().err
        assert "failed: policy.rate: must be in (0, 1]" in err
        assert "alpha=1e-07 policy=top_k rate=0.3 failed: alpha: must be >= 1e-05" in err

    def test_all_cells_failing_is_runtime_error(self, tmp_path):
        doc = {
            "seed": 3,
            "dataset": {"kind": "synthetic", "classes": 2, "per_class": 4,
                        "input_dim": 3, "separation": 1.0},
            "policy": {"kind": "top_k", "rate": 0.5},
            "rounds": 1, "local_epochs": 1, "batch_size": 4,
            "learning_rate": 0.05, "clients": 7, "test_fraction": 0.25,
            "output_dir": str(tmp_path / "sweep_out"),
        }
        # train split has 6 samples, fewer than the 7 clients: every cell fails
        cfg = tmp_path / "cfg_fail.json"
        cfg.write_text(json.dumps(doc))
        grid = self.write_grid(tmp_path, {"alpha": [0.5], "rate": [0.5],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(cfg), "--grid", str(grid), "--quiet"]) == \
            EXIT_RUNTIME

    @pytest.mark.parametrize("grid,message", [
        ({"alpha": 0.5, "rate": [0.3]}, "grid.alpha: must be a list of numbers"),
        ({"alpha": [True], "rate": [0.3]}, "grid.alpha: must be a list of numbers"),
        ({"alpha": [0.5], "rate": [0.3], "policy": "top_k"},
         "grid.policy: must be a list of strings"),
        ({"alpha": [0.5], "rate": ["x"]}, "grid.rate: must be a list of numbers"),
    ])
    def test_ill_typed_grid_value_named(self, smoke_config, tmp_path, capsys,
                                        grid, message):
        path, doc = smoke_config
        grid_path = self.write_grid(tmp_path, grid)
        assert main(["sweep", str(path), "--grid", str(grid_path), "--quiet"]) == \
            EXIT_USAGE
        assert f"config error: {message}" in capsys.readouterr().err
        assert not os.path.exists(doc["output_dir"])

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "invalid"])
    def test_unreadable_grid_file(self, smoke_config, tmp_path, capsys, text):
        path, doc = smoke_config
        grid_path = tmp_path / "grid.json"
        if text is not None:
            grid_path.write_text(text)
        assert main(["sweep", str(path), "--grid", str(grid_path), "--quiet"]) == \
            EXIT_USAGE
        expected = f"grid file not found: {grid_path}" if text is None \
            else f"{grid_path}: invalid JSON: "
        assert f"config error: {expected}" in capsys.readouterr().err
        assert not os.path.exists(doc["output_dir"])

    def test_parallel_jobs_match_serial(self, smoke_config, tmp_path):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4, 0.8], "rate": [0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--out", str(tmp_path / "serial")]) == EXIT_OK
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--jobs", "2", "--out", str(tmp_path / "par")]) == EXIT_OK
        serial = Path(tmp_path, "serial", "sweep.csv").read_text()
        par = Path(tmp_path, "par", "sweep.csv").read_text()
        assert serial == par

    def test_jobs_capped_at_cell_count(self, smoke_config, tmp_path, monkeypatch):
        """--jobs 64 on two cells asks for two workers; the recorder starts none."""
        import concurrent.futures
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        path, _ = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4, 0.8], "rate": [0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--jobs", "64"]) == EXIT_OK
        assert requested == [2]
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3 and all(r.endswith(",ok") for r in rows[1:])

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_is_usage_error(self, smoke_config, tmp_path, capsys, jobs):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4], "rate": [0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--jobs", jobs]) == EXIT_USAGE
        assert "argument --jobs: must be" in capsys.readouterr().err
        assert not os.path.exists(doc["output_dir"])


def test_outputs_get_the_umask_mode(smoke_config, tmp_path):
    """run, sweep and gen-data outputs are created as open(path, "w") creates a file."""
    path, _ = smoke_config
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
