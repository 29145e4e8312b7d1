#!/usr/bin/env python3
"""fedsparse benchmark: whole `fedsparse run` calls on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

One call runs one workload in this process, through the public entry
`fedsparse.cli.main(["run", <config>, "--out", <dir>, "--quiet"])`, with
fedsparse imported from the checkout's `src/`. The program receives only
the generated config. The loop is closed: each run starts when the last
one returns. Work and scratch files go under `.bench_build/perfbench/`.
Without `--workload`, every workload runs in turn, each in its own child
process.

Every call first makes one untimed warm-up run at the default seed and
checks its `metrics.csv` against the checked-in sha256 in golden.json.
Then it repeats timed runs at `--seed` until `--seconds` have passed and
there are enough round samples for the p90. At the default seed every
timed run is checked against the golden; at another seed every timed run
must equal the first one byte for byte. A run that raises, exits nonzero,
or fails a check counts as failed: the command stops there and exits 1.

With `--trace 0` the end-to-end metrics are printed. Only
`federation.run_round` and `federation.client_local_train` are wrapped,
to time rounds and count training samples; both wrappers run once per
round or client, never per batch. With `--trace 1` untraced and traced
runs alternate, every public layer function in TRACED is wrapped, and the
per-layer metrics, the tracing overhead and all spans (written to
`.bench_build/perfbench/`) come from the traced runs.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 0
# The p90 needs at least ten samples beyond it.
MIN_ROUND_SAMPLES = 100
# Stop starting runs after this long, so the call ends well within 180 s.
HARD_STOP_S = 120.0

# Generated configs, seed excluded. BENCHMARK.json says why each workload exists.
WORKLOADS = {
    "paper": {
        "dataset": {"kind": "synthetic", "classes": 3, "per_class": 150,
                    "input_dim": 10, "separation": 1.5},
        "model": {"hidden": [16], "activation": "relu"},
        "policy": {"kind": "top_k", "rate": 0.2},
        "clients": 3, "alpha": 0.3, "sparsify_site": "uploaded_delta",
        "rounds": 50, "local_epochs": 5, "learning_rate": 0.01,
        "batch_size": 8, "test_fraction": 0.4,
    },
    # separation 6 and lr 0.3 put final accuracy near 0.93, far above
    # chance (0.1), in 20 rounds; at lr 0.05 it stays near 0.18.
    "wide": {
        "dataset": {"kind": "synthetic", "classes": 10, "per_class": 100,
                    "input_dim": 256, "separation": 6.0},
        "model": {"hidden": [256, 64], "activation": "relu"},
        "policy": {"kind": "top_k", "rate": 0.01},
        "clients": 10, "alpha": 0.3, "sparsify_site": "uploaded_delta",
        "rounds": 20, "local_epochs": 1, "learning_rate": 0.3,
        "batch_size": 32, "test_fraction": 0.2,
    },
    "local_grad": {
        "dataset": {"kind": "synthetic", "classes": 5, "per_class": 200,
                    "input_dim": 32, "separation": 4.0},
        "model": {"hidden": [64], "activation": "relu"},
        "policy": {"kind": "top_k", "rate": 0.1},
        "clients": 20, "participation": 0.25, "alpha": 0.3,
        "sparsify_site": "local_gradient",
        "rounds": 80, "local_epochs": 2, "learning_rate": 0.1,
        "batch_size": 16, "test_fraction": 0.2,
    },
}

# (module, attribute) pairs rebound in traced runs; federation imported the
# sparsify and data functions by name, so they are patched there.
TRACED = [
    ("model", "backward"), ("model", "loss"), ("model", "evaluate"),
    ("model", "init_params"),
    ("federation", "sparsify"), ("federation", "densify"), ("federation", "encode"),
    ("federation", "gen_synthetic"), ("federation", "train_test_split"),
    ("federation", "partition_dataset"), ("federation", "client_local_train"),
    ("federation", "aggregate"), ("federation", "global_loss"),
    ("federation", "run_round"),
    ("cli", "parse_config"),
]
# Wrapped in every run: round times, setup end and the training-sample count.
PROBED = [("federation", "run_round"), ("federation", "client_local_train")]


def _count_round(counts, args, result):
    server, train_ds, test_ds = args[0], args[4], args[5]
    counts["dim"] = int(server.global_params.shape[0])
    counts["train_size"] = len(train_ds)
    counts["test_size"] = len(test_ds)


def _count_local_train(counts, args, result):
    client, cfg = args[0], args[2]
    counts["samples"] += len(client.partition.sample_indices) * cfg.local_epochs


def _count_backward(counts, args, result):
    counts["model.backward.rows"] += len(args[2])


def _count_sparsify(counts, args, result):
    counts["sparsify.entries_in"] += len(args[0])
    counts["sparsify.entries_out"] += len(result)


def _count_encode(counts, args, result):
    counts["sparsify.encode.bytes"] += len(result)


COUNTERS = {
    "federation.run_round": _count_round,
    "federation.client_local_train": _count_local_train,
    "model.backward": _count_backward,
    "sparsify.sparsify": _count_sparsify,
    "sparsify.encode": _count_encode,
}


@dataclass
class Run:
    """One `cli.main run` call and what the checks found."""

    traced: bool
    tracer: spans.Tracer
    failure: str | None = None
    sha256: str = ""
    accuracy: float = 0.0
    uplink: int = 0
    downlink: int = 0
    layers: dict = field(default_factory=dict)

    @property
    def root(self) -> spans.Span:
        return self.tracer.spans[0]

    @property
    def run_s(self) -> float:
        return self.root.end - self.root.start

    @property
    def rounds(self) -> list[spans.Span]:
        return [s for s in self.tracer.spans if s.name == "federation.run_round"]

    @property
    def setup_s(self) -> float:
        return self.rounds[0].start - self.root.start


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank.

    Raises when fewer than ten samples lie beyond it.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise ValueError(f"p{q * 100:g} of {len(ordered)} samples has only {beyond} beyond it")
    return ordered[rank - 1], beyond


def load_program(root: Path):
    """Import fedsparse from root/src; exit 2 if the checkout has no program."""
    src = root / "src"
    if not (src / "fedsparse" / "__init__.py").is_file():
        print(f"perfbench: no fedsparse package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    prog = importlib.import_module("fedsparse")
    if Path(prog.__file__).resolve().parent != (src / "fedsparse").resolve():
        print(f"perfbench: imported fedsparse from {prog.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return {name: importlib.import_module(f"fedsparse.{name}")
            for name in ("cli", "federation", "model", "sparsify")}


def read_metrics_csv(path: Path) -> tuple[str, float, int, int]:
    """sha256, last-round accuracy, total uplink and downlink bytes."""
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    if not rows:
        raise ValueError("metrics.csv has no rounds")
    return (hashlib.sha256(data).hexdigest(), float(rows[-1]["top1_accuracy"]),
            sum(int(r["uplink_bytes"]) for r in rows),
            sum(int(r["downlink_bytes"]) for r in rows))


def check_run(run: Run, out_dir: Path, reference: str | None, site: str,
              encoded_size) -> Run:
    """Fill in run's outputs and set run.failure if any check fails.

    reference is the expected metrics.csv sha256, or None to accept it (the
    first run at a non-default seed, which later runs are compared with).
    """
    try:
        run.sha256, run.accuracy, run.uplink, run.downlink = read_metrics_csv(
            out_dir / "metrics.csv")
    except (OSError, ValueError, KeyError) as exc:
        run.failure = f"unreadable metrics.csv: {exc}"
        return run
    if reference is not None and run.sha256 != reference:
        run.failure = f"metrics.csv sha256 {run.sha256} != expected {reference}"
        return run
    counts = run.tracer.counts
    run.layers = spans.layer_totals(run.tracer.spans)
    clients = run.layers.get("federation.client_local_train.calls", 0)
    if site == "local_gradient":
        dense = clients * encoded_size(counts["dim"])
        if run.uplink != dense:
            run.failure = (f"uplink_bytes {run.uplink} != {clients} uploads x "
                           f"encoded_size({counts['dim']}) = {dense}")
    if run.traced:
        if site == "uploaded_delta" and counts["sparsify.encode.bytes"] != run.uplink:
            run.failure = (f"sum of encode bytes {counts['sparsify.encode.bytes']} "
                           f"!= uplink_bytes {run.uplink}")
        if counts["model.backward.rows"] != counts["samples"]:
            run.failure = (f"backward rows {counts['model.backward.rows']} != "
                           f"selected samples x epochs {counts['samples']}")
    return run


class Bench:
    """Runs one workload repeatedly in this process."""

    def __init__(self, prog: dict, workload: str, work_dir: Path):
        self.prog = prog
        self.workload = workload
        self.site = WORKLOADS[workload]["sparsify_site"]
        self.work_dir = work_dir
        self.runs: list[Run] = []
        self.attempted = 0

    def run(self, seed: int, traced: bool, reference: str | None) -> Run:
        index = self.attempted
        self.attempted += 1
        config = self.work_dir / f"config-{seed}.json"
        if not config.exists():
            config.write_text(json.dumps(dict(WORKLOADS[self.workload], seed=seed)))
        out_dir = self.work_dir / f"run-{index}"
        tracer = spans.Tracer(index)
        run = Run(traced, tracer)
        main = tracer.wrap(self.prog["cli"].main)
        targets = [(self.prog[module], attr) for module, attr in (TRACED if traced else PROBED)]
        try:
            with tracer.patch(targets, COUNTERS):
                code = main(["run", str(config), "--out", str(out_dir), "--quiet"])
            if code != 0:
                run.failure = f"fedsparse run exited {code}"
            else:
                check_run(run, out_dir, reference, self.site,
                          self.prog["sparsify"].encoded_size)
        except Exception as exc:  # a failed run is counted, not fatal
            run.failure = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if run.failure:
            print(f"# run {index} failed: {run.failure}", file=sys.stderr)
        self.runs.append(run)
        return run

    def measure(self, seed: int, seconds: float, trace: bool, golden: str) -> list[Run]:
        """Warm-up at the default seed, then timed runs at seed.

        Stops at the first failed run, whose timings would mean nothing.
        """
        if self.run(DEFAULT_SEED, False, golden).failure:
            return []
        reference = golden if seed == DEFAULT_SEED else None
        start = time.perf_counter()
        timed: list[Run] = []
        while True:
            elapsed = time.perf_counter() - start
            rounds = sum(len(r.rounds) for r in timed if not r.traced)
            traced = sum(r.traced for r in timed)
            enough = len(timed) >= 4 if trace else (len(timed) >= 2
                                                   and rounds >= MIN_ROUND_SAMPLES)
            if (elapsed >= seconds and enough) or elapsed >= HARD_STOP_S:
                return timed
            run = self.run(seed, trace and traced < len(timed) - traced, reference)
            timed.append(run)
            if run.failure:
                return timed
            reference = reference or run.sha256

    @property
    def failed(self) -> int:
        return sum(r.failure is not None for r in self.runs)


def end_to_end(timed: list[Run]) -> tuple[dict, dict]:
    """End-to-end metrics from runs that all passed their checks."""
    round_ms = [1e3 * (s.end - s.start) for r in timed for s in r.rounds]
    p90, beyond = percentile(round_ms, 0.9)
    samples = sum(r.tracer.counts["samples"] for r in timed)
    round_s = sum(s.end - s.start for r in timed for s in r.rounds)
    values = {
        "run_s": statistics.median(r.run_s for r in timed),
        "setup_s": statistics.median(r.setup_s for r in timed),
        "round_ms.p50": statistics.median(round_ms),
        "round_ms.p90": p90,
        "samples_per_s": samples / round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_accuracy": timed[-1].accuracy,
        "uplink_bytes": timed[-1].uplink,
        "downlink_bytes": timed[-1].downlink,
    }
    notes = {"round_ms.p90": f"n={len(round_ms)} rounds, {beyond} beyond",
             "run_s": f"n={len(timed)} runs", "setup_s": f"n={len(timed)} runs"}
    return values, notes


def per_layer(timed: list[Run], names: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics from traced runs that all passed their checks."""
    traced = [r for r in timed if r.traced]
    plain = [r for r in timed if not r.traced]

    def per_run(run: Run) -> dict:
        counts = run.tracer.counts
        values = dict(run.layers)
        values["model.backward.rows"] = counts["model.backward.rows"]
        values["sparsify.encode.bytes"] = counts["sparsify.encode.bytes"]
        values["sparsify.retained_ratio"] = (
            counts["sparsify.entries_out"] / counts["sparsify.entries_in"])
        values["trace.run_s"] = run.run_s
        values["trace.covered_share"] = 1 - values["cli.main.self_s"] / run.run_s
        return values

    rows = [per_run(r) for r in traced]
    values = {name: statistics.median_low(row.get(name, 0) for row in rows)
              for name in names if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (values["trace.run_s"]
                                  - statistics.median(r.run_s for r in plain))
    gap = max(abs(sum(v for k, v in row.items() if k.endswith(".self_s")) - row["trace.run_s"])
              for row in rows)
    notes = {"trace.run_s": f"n={len(rows)} traced runs; self times sum to run_s "
                            f"within {gap:.1e} s",
             "trace.overhead_s": f"traced run_s - untraced run_s (n={len(plain)})"}
    return values, notes


def _git_rev(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _blas_threads(np) -> int | None:
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def metadata(workload: str, run: Run) -> dict:
    import numpy as np  # imported only after OPENBLAS_NUM_THREADS is set

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    counts = run.tracer.counts
    return {
        "workload": workload,
        "git_rev": _git_rev(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "params": counts["dim"],
        "train_size": counts["train_size"],
        "test_size": counts["test_size"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: every workload, one child process each")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None:
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, __file__, "--workload", name, *options],
                                  check=False).returncode for name in WORKLOADS)

    # One BLAS thread: the load stays on one core, and a neighbour on the
    # other core cannot stall a threaded matrix product.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    prog = load_program(ROOT)
    os.environ.pop("FEDSPARSE_SEED", None)  # the config alone sets the seed
    golden = json.loads(GOLDEN.read_text())["metrics_csv_sha256"][args.workload]
    bench_dir = ROOT / ".bench_build" / "perfbench"
    work_dir = bench_dir / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(prog, args.workload, work_dir)
        timed = bench.measure(args.seed, args.seconds, bool(args.trace), golden)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("# meta " + json.dumps(metadata(args.workload, bench.runs[0])))
    print(f"# failed_run_ratio {bench.failed / bench.attempted!r} fraction "
          f"({bench.failed} of {bench.attempted} runs, warm-up included)")
    correct = bench.failed == 0
    metrics = {}
    if correct:
        spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
        units = {metric["name"]: metric["unit"] for metric in spec}
        values, notes = per_layer(timed, list(units)) if args.trace else end_to_end(timed)
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{args.workload} {name} {values[name]!r} {unit}{note}")
        if args.trace:
            path = bench_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            spans.write_jsonl([s for r in bench.runs if r.traced for s in r.tracer.spans],
                              path)
            print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
