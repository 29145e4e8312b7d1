"""Command-line front end.

Subcommands:

    run <config.json>                      single experiment
    sweep <config.json> --grid <grid.json> alpha x policy x rate grid
    gen-data <spec.json> -o <out.csv>      write a synthetic dataset

Exit codes: 0 success, 1 usage/config error, 2 runtime error, 3 partial
sweep failure. `run` and `sweep` write into --out (default `out`). Output
files are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .config import (ConfigError, ExperimentConfig, cell_policy, emit_config, parse_config,
                     parse_data_spec, parse_grid)
from .data import csv_text, gen_synthetic
from .federation import RoundMetrics, ServerState, build_dataset, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3

METRICS_HEADER = ",".join(RoundMetrics.CSV_FIELDS)
SWEEP_HEADER = "alpha,policy,rate,final_accuracy,uplink_bytes,status"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # a plain open, so the file gets 0o666 & ~umask like any other output;
    # the pid keeps two processes writing the same path off one temp file
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.path.basename(path)}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _metrics_csv(result: ServerState) -> str:
    lines = [METRICS_HEADER]
    lines.extend(m.csv_row() for m in result.history)
    return "\n".join(lines) + "\n"


def _summary_json(cfg: ExperimentConfig, result: ServerState) -> str:
    summary = {
        "version": __version__,
        "final_accuracy": result.final_accuracy,
        "final_global_loss": result.final_global_loss,
        "rounds_completed": len(result.history),
        "total_uplink_bytes": result.total_uplink_bytes,
        "total_downlink_bytes": result.total_downlink_bytes,
        "wall_time_s": result.wall_time_s,
        "config": emit_config(cfg),
    }
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _partitions_csv(result: ServerState) -> str:
    rows = sorted(
        (int(i), p.client_id) for p in result.partitions for i in p.sample_indices
    )
    lines = ["sample_index,client_id"]
    lines.extend(f"{i},{c}" for i, c in rows)
    return "\n".join(lines) + "\n"


def _write_run_outputs(out_dir: str, cfg: ExperimentConfig,
                       result: ServerState) -> None:
    _atomic_write(os.path.join(out_dir, "metrics.csv"), _metrics_csv(result))
    _atomic_write(os.path.join(out_dir, "summary.json"), _summary_json(cfg, result))
    _atomic_write(os.path.join(out_dir, "partitions.csv"), _partitions_csv(result))


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)

    def stream(metrics):
        if args.stream:
            print(f"{metrics.csv_row()},{metrics.elapsed_s!r}", flush=True)

    if args.stream:
        print(f"{METRICS_HEADER},elapsed_s", flush=True)
    result = run_experiment(cfg, *build_dataset(cfg), on_round=stream)
    _write_run_outputs(args.out, cfg, result)
    if not args.quiet:
        print(f"rounds={len(result.history)} "
              f"final_accuracy={result.final_accuracy:.4f} "
              f"final_loss={result.final_global_loss:.6f} "
              f"uplink={result.total_uplink_bytes} "
              f"downlink={result.total_downlink_bytes} "
              f"wall_time={result.wall_time_s:.2f}s -> {args.out}")
    return EXIT_OK


def _run_cell(base: ExperimentConfig, data: tuple, cell_dir: str,
              alpha: float, kind: str, rate: float):
    """Run one sweep cell on the shared split and write its outputs into
    cell_dir; raises on any invalid cell parameter."""
    cfg = replace(base, alpha=alpha, policy=cell_policy(kind, rate))
    result = run_experiment(cfg, *data)
    _write_run_outputs(cell_dir, cfg, result)
    # the downlink is the same for every policy, so only the uplink is reported
    return result.final_accuracy, result.total_uplink_bytes


def _pivot_table(pivot: dict) -> str:
    """Plain-text accuracy pivot: one block per policy, rate x alpha, from
    {(policy, rate, alpha): accuracy, or None for a failed cell}. Labels are
    printed as sweep.csv prints them (repr), so distinct values never share
    one; a column is 10 (rate) or 18 (alpha) wide, or one more than its
    longest label."""
    alphas = sorted({alpha for _, _, alpha in pivot})
    headers = [f"alpha={a!r}" for a in alphas]
    widths = [max(18, len(header) + 1) for header in headers]
    rate_width = max(10, 1 + max(len(repr(r)) for _, r, _ in pivot))
    out = []
    for kind in sorted({k for k, _, _ in pivot}):
        out.append(f"policy: {kind}")
        out.append(("rate".ljust(rate_width)
                    + "".join(h.ljust(w) for h, w in zip(headers, widths))).rstrip())
        for rate in sorted({r for k, r, _ in pivot if k == kind}):
            cells = [repr(rate).ljust(rate_width)]
            for a, width in zip(alphas, widths):
                accuracy = pivot.get((kind, rate, a))
                cells.append(("-" if accuracy is None else f"{accuracy:.4f}").ljust(width))
            out.append("".join(cells).rstrip())
        out.append("")
    return "\n".join(out)


def _cmd_sweep(args) -> int:
    base = parse_config(args.config)
    cells = parse_grid(args.grid)
    # the build reads no key a cell changes (alpha, policy)
    data = build_dataset(base)
    cell_dirs = [os.path.join(args.out, "cells", f"cell_{i:03d}") for i in range(len(cells))]

    lines = [SWEEP_HEADER]
    pivot = {}  # (policy, rate, alpha) -> accuracy, None for a failed cell
    failures = 0
    # every worker forks at the first submit, so never start more than cells
    workers = min(args.jobs, len(cells))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here so that `run` and serial sweeps load no process pool
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            outcomes = [pool.submit(_run_cell, base, data, cell_dir, *cell).result
                        for cell_dir, cell in zip(cell_dirs, cells)]
        else:
            outcomes = [functools.partial(_run_cell, base, data, cell_dir, *cell)
                        for cell_dir, cell in zip(cell_dirs, cells)]
        for (alpha, kind, rate), outcome in zip(cells, outcomes):
            try:
                accuracy, uplink_bytes = outcome()
                lines.append(f"{alpha!r},{kind},{rate!r},{accuracy!r},{uplink_bytes},ok")
            except Exception as exc:
                failures += 1
                accuracy = None
                lines.append(f"{alpha!r},{kind},{rate!r},,,failed")
                print(f"cell alpha={alpha} policy={kind} rate={rate} "
                      f"failed: {exc}", file=sys.stderr)
            pivot[kind, rate, alpha] = accuracy

    _atomic_write(os.path.join(args.out, "sweep.csv"), "\n".join(lines) + "\n")
    table = _pivot_table(pivot)
    _atomic_write(os.path.join(args.out, "sweep.txt"), table)
    if not args.quiet:
        print(table)

    if failures == len(cells):
        return EXIT_RUNTIME
    if failures:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    data, seed = parse_data_spec(args.spec)
    ds = gen_synthetic(data.classes, data.per_class, data.input_dim, data.separation,
                       rng_seed=seed)
    _atomic_write(args.out, csv_text(ds))
    print(f"wrote {len(ds)} samples ({ds.class_count} classes, "
          f"input_dim={ds.input_dim}) to {args.out}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedsparse", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--stream", action="store_true",
                       help="print per-round CSV rows (with elapsed_s) to stdout")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an alpha x policy x rate grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True, help="grid JSON file")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="parallel cells (at most one worker per cell)")
    p_sweep.add_argument("--out", default="out", help="output directory (default: out)")
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p_gen.add_argument("spec")
    p_gen.add_argument("-o", "--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"fedsparse: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"fedsparse: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
