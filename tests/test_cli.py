"""CLI behavior: subcommands, output files, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

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
        cfg = parse_config(path)
        parts = run_experiment(cfg, *build_dataset(cfg)).partitions
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

    @pytest.mark.parametrize("batch", [8, 64], ids=["in_round_0", "after_eval"])
    @pytest.mark.parametrize("site", ["uploaded_delta", "local_gradient"])
    def test_diverging_run_exits_2_under_warnings_as_errors(self, smoke_config, site,
                                                            batch):
        """A batch of 64 takes the whole partition, so each round is one step.
        Round 0's steps leave a huge but finite model, which the codec and the
        average pass quietly; round 1's steps leave one whose loss overflows,
        and that non-finite loss stops the run before any round 2 step."""
        path, doc = smoke_config
        path.write_text(json.dumps({**doc, "sparsify_site": site, "batch_size": batch,
                                    "rounds": 3, "learning_rate": 1e150}))
        src = os.path.dirname(os.path.dirname(fedsparse.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from fedsparse.cli import main; "
             "sys.exit(main())", "run", str(path), "--quiet"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error"))
        assert proc.returncode == EXIT_RUNTIME
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        if batch == 64:
            assert proc.stderr == "fedsparse: error: global loss non-finite in round 1\n"
        else:
            assert re.fullmatch(r"fedsparse: error: client \d+: non-finite "
                                r"(gradient|parameters) in round \d+, epoch \d+, batch \d+\n",
                                proc.stderr)

    @pytest.mark.parametrize("site", ["uploaded_delta", "local_gradient"])
    def test_non_finite_loss_in_the_last_round_exits_2(self, tmp_path, capsys, site):
        """One round of one step at lr 1e160 leaves finite models whose loss
        overflows. No later client step is left to stop the run, so the
        round's loss check does: exit 2 under either warning filter, and no
        metrics.csv with a nan loss."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "seed": 4, "dataset": {"kind": "synthetic", "classes": 3, "per_class": 20,
                                   "input_dim": 4},
            "policy": {"kind": "top_k", "rate": 0.3}, "sparsify_site": site, "rounds": 1,
            "local_epochs": 1, "batch_size": 64, "learning_rate": 1e160}))
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                code = main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])
            assert (code, capsys.readouterr().err) == (
                EXIT_RUNTIME, "fedsparse: error: global loss non-finite in round 0\n")
        assert not (tmp_path / "out").exists()

    def test_finite_but_huge_model_ends_normally(self, tmp_path):
        """Only non-finite values stop a run: one step at lr 1e150 leaves a
        finite model near the float64 limit, which the end-of-call check
        passes and the round evaluates to a huge but finite loss."""
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "seed": 0, "dataset": {"kind": "synthetic", "classes": 3, "per_class": 20,
                                   "input_dim": 4},
            "policy": {"kind": "top_k", "rate": 0.3}, "rounds": 1, "local_epochs": 1,
            "batch_size": 64, "learning_rate": 1e150, "output_dir": str(out)}))
        src = os.path.dirname(os.path.dirname(fedsparse.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from fedsparse.cli import main; "
             "sys.exit(main())", "run", str(path), "--quiet"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error"))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        [row] = (out / "metrics.csv").read_text().splitlines()[1:]
        loss = float(row.split(",")[1])
        assert math.isfinite(loss) and loss > 1e290

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

    @pytest.mark.parametrize("key,value", [
        ("alpha", float("inf")), ("learning_rate", float("inf")), ("alpha", float("nan"))])
    def test_non_finite_number_is_config_error(self, smoke_config, capsys, key, value):
        """json reads Infinity and NaN; a run rejects them before round 0."""
        path, doc = smoke_config
        path.write_text(json.dumps(dict(doc, **{key: value})))  # Infinity / NaN
        assert main(["run", str(path), "--quiet"]) == EXIT_USAGE
        assert f"config error: {key}: must be finite" in capsys.readouterr().err
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

    def test_non_utf8_csv_byte_is_runtime_error_naming_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"1.0,2.0,0\n1.0,2.0\xff,1\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "seed": 3, "policy": {"kind": "dense"}, "output_dir": str(tmp_path / "out"),
            "dataset": {"kind": "csv", "path": str(data), "input_dim": 2, "classes": 2}}))
        assert main(["run", str(path), "--quiet"]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"fedsparse: error: {data}:2: 'utf-8' codec can't decode byte 0xff "
            f"in position 7: invalid start byte\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dataset,code,err", [
        ("rare_class_csv", EXIT_OK, ""),
        ("single_sample_synthetic", EXIT_USAGE,
         "fedsparse: config error: dataset.per_class: must be >= 2\n"),
    ], ids=["rare_class_csv", "single_sample_synthetic"])
    def test_outcome_is_independent_of_the_warning_filter(self, tmp_path, capsys,
                                                          dataset, code, err):
        """A class with one sample stays in train without a warning, so the
        same input gives the same exit code and stderr under either filter.
        A synthetic set of one sample per class is a config error: its test
        split would be empty whatever the test_fraction."""
        if dataset == "rare_class_csv":  # 30 + 30 + 1 rows
            ds = gen_synthetic(3, 30, 4, 2.0, rng_seed=1)
            rows = np.concatenate([np.flatnonzero(ds.labels < 2),
                                   np.flatnonzero(ds.labels == 2)[:1]])
            data = tmp_path / "data.csv"
            data.write_text(csv_text(ds.subset(rows)))
            spec = {"kind": "csv", "path": str(data), "input_dim": 4, "classes": 3,
                    "normalize": True}
        else:  # every class a single sample
            spec = {"kind": "synthetic", "classes": 3, "per_class": 1, "input_dim": 4}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "dataset": spec, "rounds": 2,
                                    "batch_size": 8, "policy": {"kind": "top_k", "rate": 0.3},
                                    "output_dir": str(tmp_path / "out")}))
        outcomes = []
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                outcomes.append((main(["run", str(path), "--quiet"]),
                                 capsys.readouterr().err))
        assert outcomes == [(code, err)] * 2
        if code == EXIT_OK:
            for name in ("metrics.csv", "summary.json", "partitions.csv"):
                assert (tmp_path / "out" / name).is_file()

    @pytest.mark.parametrize("kind", ["synthetic", "csv"])
    @pytest.mark.parametrize("override,err", [
        ({"test_fraction": 1e-3}, "test_fraction: must be large enough to leave a test "
                                  "row, but 0.001 of every class rounds to none"),
        ({"clients": 49}, "clients: must be <= 48, the training rows the split leaves"),
    ], ids=["empty_test_split", "more_clients_than_training_rows"])
    def test_split_mistake_is_a_config_error(self, tmp_path, capsys, kind, override, err):
        """Only the config can fix these, so they exit 1 naming the key: a
        synthetic set when the config is built, a CSV set once loaded. Three
        classes of 20 rows at test_fraction 0.2 leave 48 training rows."""
        spec = {"kind": "synthetic", "classes": 3, "per_class": 20, "input_dim": 4}
        if kind == "csv":
            data = tmp_path / "data.csv"
            data.write_text(csv_text(gen_synthetic(3, 20, 4, 3.0, rng_seed=1)))
            spec = {"kind": "csv", "path": str(data), "input_dim": 4, "classes": 3}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "dataset": spec, "rounds": 1,
                                    "policy": {"kind": "top_k", "rate": 0.3},
                                    "test_fraction": 0.2, **override}))
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                code = main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])
            assert (code, capsys.readouterr().err) == (EXIT_USAGE,
                                                       f"fedsparse: config error: {err}\n")
        assert not (tmp_path / "out").exists()

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

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1}))
        assert main(["run", str(bad)]) == EXIT_USAGE
        assert main(["run", str(tmp_path / "missing.json")]) == EXIT_USAGE

    def test_usage_error_exit_code(self):
        assert main(["run"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE


class TestSurface:
    def test_subcommands_are_run_sweep_and_gen_data(self):
        [sub] = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == ["gen-data", "run", "sweep"]

    def test_dump_update_is_a_usage_error(self, tmp_path, capsys):
        """The program writes no FSU1 file, so it has no reader for one."""
        assert main(["dump-update", str(tmp_path / "update.fsu")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid choice" in err and "dump-update" in err


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
        ({"separation": float("inf")}, "spec.separation: must be finite"),
        ({"per_class": 1}, "spec.per_class: must be >= 2"),
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

    # A grid of 1-2 values per key over a TestRun boundary draw: 1e-7 is an
    # alpha below MIN_ALPHA and 1.5 a rate out of range for top_k and random,
    # so a cell can fail on its own while its neighbours run.
    GRIDS = st.fixed_dictionaries({
        "alpha": st.lists(st.sampled_from([1e-7, 0.3, 1e3]), min_size=1, max_size=2),
        "policy": st.lists(st.sampled_from(["top_k", "random", "threshold", "dense"]),
                           min_size=1, max_size=2),
        "rate": st.lists(st.sampled_from([1e-9, 0.3, 1.5]), min_size=1, max_size=1),
    })

    @given(case=TestRun.BOUNDARY_CASES, grid=GRIDS)
    @example(case={**TestRun.PINNED, "data": ("synthetic", 3, 6, 0)},
             grid={"alpha": [1e-7, 0.3], "policy": ["top_k"], "rate": [0.3]})
    @example(case={**TestRun.PINNED, "data": ("rare_class_csv", 3, 6, 0), "clients": 40},
             grid={"alpha": [0.3], "policy": ["top_k", "dense"], "rate": [0.3]})
    @settings(max_examples=40, deadline=None)
    def test_outcome_contract_under_either_warning_filter(self, case, grid):
        """`sweep` in-process under the default filter and under warnings as
        errors: the same exit code and stderr both times. Exit 1 comes exactly
        when `run` on the drawn config exits 1, with its one config error
        line, and writes nothing; otherwise sweep.csv has one row per cell,
        each failed cell one stderr line, and the exit code is 0 with none
        failed, 2 with all failed and 3 with some."""
        with tempfile.TemporaryDirectory() as tmp:
            config = write_boundary_case(tmp, case)
            grid_path = self.write_grid(Path(tmp), grid)
            outcomes = []
            for action in ("default", "error"):
                out = Path(tmp, action)
                err, run_err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter(action)
                    with contextlib.redirect_stderr(run_err):
                        run_code = main(["run", str(config), "--out", str(Path(tmp, "run")),
                                         "--quiet"])
                    with contextlib.redirect_stderr(err):
                        code = main(["sweep", str(config), "--grid", str(grid_path),
                                     "--out", str(out), "--quiet"])
                outcomes.append((code, err.getvalue()))
                assert (code == EXIT_USAGE) == (run_code == EXIT_USAGE)
                if code == EXIT_USAGE:
                    assert err.getvalue() == run_err.getvalue()
                    assert re.fullmatch(r"fedsparse: config error: [\w.]+: [^\n]+\n",
                                        err.getvalue())
                    assert not out.exists()
                    continue
                status = [row.rsplit(",", 1)[1]
                          for row in (out / "sweep.csv").read_text().splitlines()[1:]]
                assert status and set(status) <= {"ok", "failed"}
                failed = err.getvalue().splitlines()
                assert len(failed) == status.count("failed")
                assert all(re.fullmatch(r"cell alpha=\S+ policy=\w+ rate=\S+ failed: .+", line)
                           for line in failed)
                assert code == (EXIT_OK if not failed else
                                EXIT_RUNTIME if len(failed) == len(status) else EXIT_PARTIAL)
            assert outcomes[0] == outcomes[1]

    def test_full_grid_shape(self, smoke_config, tmp_path, capsys):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.3, 0.6],
                                          "rate": [0.1, 0.2, 0.3, 0.4],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        rows = Path(doc["output_dir"], "sweep.csv").read_text().splitlines()
        assert rows[0] == "alpha,policy,rate,final_accuracy,uplink_bytes,status"
        assert len(rows) == 9  # header + 2 alphas x 4 rates
        assert all(r.endswith(",ok") for r in rows[1:])
        table = Path(doc["output_dir"], "sweep.txt").read_text().splitlines()
        assert table[:2] == ["policy: top_k", "rate      alpha=0.3         alpha=0.6"]
        assert all(line == line.rstrip() for line in table)
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
        """A 1x1 grid reproduces a plain run of the base config."""
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5], "rate": [0.3],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        cell_metrics = Path(doc["output_dir"], "cells", "cell_000", "metrics.csv").read_text()
        # the cell runs on the base seed, and its alpha/policy equal the base config
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

    def test_non_finite_grid_alpha_fails_its_cell(self, smoke_config, tmp_path, capsys):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5, float("inf")], "rate": [0.3]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == \
            EXIT_PARTIAL
        assert "alpha=inf policy=top_k rate=0.3 failed: alpha: must be finite" \
            in capsys.readouterr().err

    def test_dense_cells_share_rate_one(self, smoke_config, tmp_path, capsys):
        """A dense cell ignores the grid rate, so it runs once per alpha with
        rate 1.0 in the CSV, the pivot and a failed cell's message."""
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5, 1e-7], "rate": [0.2, 0.4],
                                          "policy": ["dense"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == \
            EXIT_PARTIAL
        rows = [r.split(",") for r in
                Path(doc["output_dir"], "sweep.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[2], r[5]) for r in rows] == [
            ("0.5", "dense", "1.0", "ok"), ("1e-07", "dense", "1.0", "failed")]
        assert sorted(os.listdir(Path(doc["output_dir"], "cells"))) == ["cell_000"]
        table = Path(doc["output_dir"], "sweep.txt").read_text().splitlines()
        assert [line.split() for line in table] == [
            ["policy:", "dense"], ["rate", "alpha=1e-07", "alpha=0.5"],
            ["1", "-", f"{float(rows[0][3]):.4f}"]]
        assert capsys.readouterr().err.splitlines() == [
            "cell alpha=1e-07 policy=dense rate=1.0 failed: alpha: must be >= 1e-05 "
            "(smaller can underflow every Dirichlet draw)"]

    GRID_G = {"alpha": [0.3, 0.6], "rate": [0.1, 0.2, 0.3, 0.4],
              "policy": ["top_k", "dense"]}

    def test_grid_runs_each_distinct_cell_once(self, smoke_config, tmp_path):
        """2 alphas x (4 top-k rates + dense): 10 cells, not 16."""
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, self.GRID_G)
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        rows = Path(doc["output_dir"], "sweep.csv").read_text().splitlines()[1:]
        assert [tuple(r.split(",")[:3]) for r in rows] == [
            (alpha, kind, rate) for alpha in ("0.3", "0.6")
            for kind, rate in [("top_k", "0.1"), ("top_k", "0.2"), ("top_k", "0.3"),
                               ("top_k", "0.4"), ("dense", "1.0")]]
        assert all(r.endswith(",ok") for r in rows)
        assert sorted(os.listdir(Path(doc["output_dir"], "cells"))) == \
            [f"cell_{i:03d}" for i in range(10)]

    def test_every_cell_is_a_direct_run_on_the_base_seed(self, smoke_config, tmp_path):
        """Each cell's summary.json echoes the base seed, and `fedsparse run`
        on that echoed config writes the cell's metrics.csv byte for byte."""
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, self.GRID_G)
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        cells = sorted(Path(doc["output_dir"], "cells").iterdir())
        assert len(cells) == 10
        for cell in cells:
            echoed = json.loads((cell / "summary.json").read_text())["config"]
            assert echoed["seed"] == doc["seed"]
            config = tmp_path / f"{cell.name}.json"
            config.write_text(json.dumps(echoed))
            direct = tmp_path / "direct" / cell.name
            assert main(["run", str(config), "--out", str(direct), "--quiet"]) == EXIT_OK
            assert (direct / "metrics.csv").read_bytes() == \
                (cell / "metrics.csv").read_bytes()

    def test_seed_env_override_reaches_every_cell(self, smoke_config, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("FEDSPARSE_SEED", "99")
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5], "rate": [0.2, 0.4],
                                          "policy": ["top_k", "dense"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        cells = sorted(Path(doc["output_dir"], "cells").iterdir())
        assert [json.loads((c / "summary.json").read_text())["config"]["seed"]
                for c in cells] == [99, 99, 99]

    def test_repeated_rate_runs_one_cell(self, smoke_config, tmp_path):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5], "rate": [0.2, 0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        rows = Path(doc["output_dir"], "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [["0.5", "top_k", "0.2"]]
        assert os.listdir(Path(doc["output_dir"], "cells")) == ["cell_000"]

    def test_threshold_cell_takes_grid_rate_as_tau(self, smoke_config, tmp_path):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5], "rate": [0.05],
                                          "policy": ["threshold"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == EXIT_OK
        summary = json.loads(Path(doc["output_dir"], "cells", "cell_000",
                                  "summary.json").read_text())
        assert summary["config"]["policy"] == {"kind": "threshold", "tau": 0.05}

    def test_failed_cell_reads_dash_in_pivot(self, smoke_config, tmp_path):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5], "rate": [0.3, 1.5],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == \
            EXIT_PARTIAL
        accuracy = float(Path(doc["output_dir"], "sweep.csv").read_text()
                         .splitlines()[1].split(",")[3])
        table = Path(doc["output_dir"], "sweep.txt").read_text().splitlines()
        assert [line.split() for line in table[2:]] == [
            ["0.3", f"{accuracy:.4f}"], ["1.5", "-"]]

    def test_all_cells_failing_is_runtime_error(self, tmp_path):
        doc = {
            "seed": 3,
            "dataset": {"kind": "synthetic", "classes": 3, "per_class": 20,
                        "input_dim": 4, "separation": 1.0},
            "policy": {"kind": "top_k", "rate": 0.5},
            "rounds": 1, "local_epochs": 2, "batch_size": 8,
            "learning_rate": 1e150, "clients": 2, "test_fraction": 0.25,
            "output_dir": str(tmp_path / "sweep_out"),
        }
        # a valid config whose steps overflow: every cell diverges at run time
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

    def test_unknown_policy_kind_named(self, smoke_config, tmp_path, capsys):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.5], "rate": [0.3],
                                          "policy": ["top_k", "nope"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet"]) == \
            EXIT_USAGE
        assert "config error: grid.policy: unknown kind 'nope'" in \
            capsys.readouterr().err
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

    def test_jobs_1_and_3_write_identical_files(self, smoke_config, tmp_path):
        """The process pool changes no output on a grid with dense cells;
        only summary.json differs, by its wall time."""
        path, _ = smoke_config
        grid = self.write_grid(tmp_path, self.GRID_G)
        for jobs in ("1", "3"):
            assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                         "--jobs", jobs, "--out", str(tmp_path / jobs)]) == EXIT_OK
        files = sorted(p.relative_to(tmp_path / "1")
                       for p in (tmp_path / "1").rglob("*")
                       if p.is_file() and p.name != "summary.json")
        assert len(files) == 2 + 10 * 2
        assert files == sorted(p.relative_to(tmp_path / "3")
                               for p in (tmp_path / "3").rglob("*")
                               if p.is_file() and p.name != "summary.json")
        for name in files:
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "3" / name).read_bytes(), name

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
        path, _ = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4, 0.8], "rate": [0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--jobs", "64"]) == EXIT_OK
        assert requested == [2]
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3 and all(r.endswith(",ok") for r in rows[1:])

    def test_failed_future_fails_only_its_cell(self, smoke_config, tmp_path,
                                               monkeypatch, capsys):
        requested = self.record_pool(monkeypatch, failing_call=1)
        path, _ = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4, 0.8, 1.2], "rate": [0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--jobs", "3"]) == EXIT_PARTIAL
        assert requested == [3]
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["ok", "failed", "ok"]
        assert rows[2] == "0.8,top_k,0.2,,,failed"
        assert "cell alpha=0.8 policy=top_k rate=0.2 failed: worker died" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_is_usage_error(self, smoke_config, tmp_path, capsys, jobs):
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4], "rate": [0.2],
                                          "policy": ["top_k"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--jobs", jobs]) == EXIT_USAGE
        assert "argument --jobs: must be" in capsys.readouterr().err
        assert not os.path.exists(doc["output_dir"])

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
        path, doc = smoke_config
        grid = self.write_grid(tmp_path, {"alpha": [0.4, 0.8], "rate": [0.2],
                                          "policy": ["top_k", "dense"]})
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--jobs", jobs]) == EXIT_OK
        assert len(os.listdir(Path(doc["output_dir"], "cells"))) == 4
        assert [(c.seed, c.alpha, c.policy) for c in builds] == \
            [(doc["seed"], doc["alpha"], parse_config(path).policy)]
        assert requested == ([] if jobs == "1" else [3])

    @staticmethod
    def write_input_mistake(tmp_path, mistake):
        """A config whose input fails before round 0, and the outcome `run`
        gives it: exit code and its one stderr line."""
        dataset = {"kind": "csv", "path": str(tmp_path / "data.csv"), "input_dim": 2,
                   "classes": 2}
        doc = {"seed": 3, "dataset": dataset, "policy": {"kind": "top_k", "rate": 0.3},
               "rounds": 1, "batch_size": 8}
        if mistake == "csv_split":  # 11 training rows for 40 clients
            config = write_boundary_case(str(tmp_path), {
                **TestRun.PINNED, "data": ("rare_class_csv", 3, 6, 0), "clients": 40})
            return config, (EXIT_USAGE, "fedsparse: config error: clients: must be <= 11, "
                                        "the training rows the split leaves\n")
        if mistake == "missing_csv":
            expected = (EXIT_RUNTIME, f"fedsparse: error: [Errno 2] No such file or "
                                      f"directory: {dataset['path']!r}\n")
        elif mistake == "malformed_row":
            Path(dataset["path"]).write_text("0.5,1.0,0\n0.25,1\n1.5,2.0,1\n")
            expected = (EXIT_RUNTIME, f"fedsparse: error: {dataset['path']}:2: expected 3 "
                                      f"columns, got 2\n")
        else:  # normalize by one training row: two rows of class 0, half to test
            Path(dataset["path"]).write_text("0.5,1.0,0\n1.5,2.0,0\n")
            dataset["normalize"] = True
            doc.update(clients=1, test_fraction=0.5)
            expected = (EXIT_USAGE, "fedsparse: config error: dataset.normalize: needs at "
                                    "least two training rows, the split leaves 1\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        return config, expected

    @pytest.mark.parametrize("mistake", ["csv_split", "missing_csv", "malformed_row",
                                         "normalize_one_training_row"])
    def test_input_mistake_ends_a_sweep_as_it_ends_a_run(self, tmp_path, monkeypatch,
                                                         capsys, mistake):
        """The sweep builds its input once, before any cell or pool starts, so
        a mistake in it gives `run`'s exit code and single stderr line under
        either warning filter, and the sweep writes nothing."""
        requested = self.record_pool(monkeypatch)
        config, expected = self.write_input_mistake(tmp_path, mistake)
        grid = self.write_grid(tmp_path, {"alpha": [0.3, 0.6], "rate": [0.3],
                                          "policy": ["top_k", "random"]})
        out = tmp_path / "out"
        for action in ("default", "error"):
            outcomes = []
            for argv in (["run", str(config)],
                         ["sweep", str(config), "--grid", str(grid), "--jobs", "3"]):
                with warnings.catch_warnings():
                    warnings.simplefilter(action)
                    code = main([*argv, "--out", str(out), "--quiet"])
                outcomes.append((code, capsys.readouterr().err))
            assert outcomes == [expected] * 2, action
        assert not out.exists()
        assert requested == []


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
