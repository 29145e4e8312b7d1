"""Command-line front end.

Subcommands:

    run <config.json>                      single experiment
    sweep <config.json> --grid <grid.json> alpha x policy x rate grid
    dump-update <file.fsu>                 print a wire update as JSON
    gen-data <spec.json> -o <out.csv>      write a synthetic dataset

Exit codes: 0 success, 1 usage/config error, 2 runtime error, 3 partial
sweep failure. The FEDSPARSE_SEED environment variable overrides the
config seed. Output files are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .config import (ConfigError, ExperimentConfig, SyntheticDataConfig, _build,
                     _check_keys, _parse_policy, _read_json, _require, _typed,
                     _typed_list, emit_config, parse_config)
from .data import gen_synthetic, save_csv
from .federation import ExperimentResult, RoundMetrics, run_experiment
from .sparsify import POLICY_KINDS, DecodeError, SparsityPolicy, decode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3

METRICS_HEADER = ",".join(RoundMetrics.CSV_FIELDS)
SWEEP_HEADER = "alpha,policy,rate,final_accuracy,total_bytes,status"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    def exit_with(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


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


def _apply_seed_env(cfg: ExperimentConfig) -> ExperimentConfig:
    override = os.environ.get("FEDSPARSE_SEED")
    if override is None:
        return cfg
    try:
        return replace(cfg, seed=int(override))
    except ValueError:  # not an integer, or a seed ExperimentConfig rejects
        raise ConfigError(f"FEDSPARSE_SEED must be a non-negative integer, "
                          f"got {override!r}") from None


def _metrics_csv(result: ExperimentResult) -> str:
    lines = [METRICS_HEADER]
    lines.extend(m.csv_row() for m in result.history)
    return "\n".join(lines) + "\n"


def _summary_json(cfg: ExperimentConfig, result: ExperimentResult) -> str:
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


def _partitions_csv(result: ExperimentResult) -> str:
    rows = sorted(
        (int(i), p.client_id) for p in result.partitions for i in p.sample_indices
    )
    lines = ["sample_index,client_id"]
    lines.extend(f"{i},{c}" for i, c in rows)
    return "\n".join(lines) + "\n"


def _write_run_outputs(out_dir: str, cfg: ExperimentConfig,
                       result: ExperimentResult) -> None:
    _atomic_write(os.path.join(out_dir, "metrics.csv"), _metrics_csv(result))
    _atomic_write(os.path.join(out_dir, "summary.json"), _summary_json(cfg, result))
    _atomic_write(os.path.join(out_dir, "partitions.csv"), _partitions_csv(result))


def _cmd_run(args) -> int:
    cfg = _apply_seed_env(parse_config(args.config))
    out_dir = args.out if args.out else cfg.output_dir

    def stream(metrics):
        if args.stream:
            print(f"{metrics.csv_row()},{metrics.elapsed_s!r}", flush=True)

    if args.stream:
        print(f"{METRICS_HEADER},elapsed_s", flush=True)
    result = run_experiment(cfg, on_round=stream)
    _write_run_outputs(out_dir, cfg, result)
    if not args.quiet:
        print(f"rounds={len(result.history)} "
              f"final_accuracy={result.final_accuracy:.4f} "
              f"final_loss={result.final_global_loss:.6f} "
              f"uplink={result.total_uplink_bytes} "
              f"downlink={result.total_downlink_bytes} "
              f"wall_time={result.wall_time_s:.2f}s -> {out_dir}")
    return EXIT_OK


def _policy_for_cell(kind: str, rate: float) -> SparsityPolicy:
    """The cell's policy, checked as a config's would be; a threshold cell
    takes the grid rate as tau, a dense cell ignores it."""
    params = {"dense": {}, "threshold": {"tau": rate}}.get(kind, {"rate": rate})
    return _parse_policy({"kind": kind, **params})


def _load_grid(path) -> tuple[list[float], list[str], list[float]]:
    obj = _read_json(path, "grid")
    _require(isinstance(obj, dict), "grid", "must be a JSON object")
    _check_keys(obj, {"alpha", "policy", "rate"}, "grid")
    alphas = _typed_list(obj.get("alpha", []), float, "grid.alpha")
    policies = _typed_list(obj.get("policy", ["top_k"]), str, "grid.policy")
    rates = _typed_list(obj.get("rate", []), float, "grid.rate")
    if not alphas or not rates or not policies:
        raise ConfigError("grid: alpha, policy and rate lists must be nonempty")
    for kind in policies:
        if kind not in POLICY_KINDS:
            raise ConfigError(f"grid.policy: unknown kind {kind!r}")
    return alphas, policies, rates


def _run_cell(base: ExperimentConfig, out_root: str, index: int,
              alpha: float, kind: str, rate: float):
    """Build and run one sweep cell; raises on any invalid cell parameter."""
    cfg = replace(
        base,
        seed=base.seed + index,  # derived per-cell seed
        alpha=alpha,
        policy=_policy_for_cell(kind, rate),
        output_dir=os.path.join(out_root, "cells", f"cell_{index:03d}"),
    )
    result = run_experiment(cfg)
    _write_run_outputs(cfg.output_dir, cfg, result)
    return (result.final_accuracy,
            result.total_uplink_bytes + result.total_downlink_bytes)


def _pivot_table(rows) -> str:
    """Plain-text accuracy pivot: one block per policy, rate x alpha."""
    alphas = sorted({r["alpha"] for r in rows})
    out = []
    for kind in sorted({r["policy"] for r in rows}):
        out.append(f"policy: {kind}")
        header = "rate".ljust(10) + "".join(f"alpha={a:<12g}" for a in alphas)
        out.append(header)
        for rate in sorted({r["rate"] for r in rows if r["policy"] == kind}):
            cells = [f"{rate:<10g}"]
            for a in alphas:
                match = [r for r in rows
                         if r["policy"] == kind and r["rate"] == rate and r["alpha"] == a]
                if match and match[0]["status"] == "ok":
                    cells.append(f"{match[0]['final_accuracy']:<18.4f}")
                else:
                    cells.append(f"{'-':<18}")
            out.append("".join(cells).rstrip())
        out.append("")
    return "\n".join(out)


def _cmd_sweep(args) -> int:
    base = _apply_seed_env(parse_config(args.config))
    alphas, policies, rates = _load_grid(args.grid)
    out_root = args.out if args.out else base.output_dir
    cells = list(enumerate(itertools.product(alphas, policies, rates)))

    outcomes: list[object] = []
    # every worker forks at the first submit, so never start more than cells
    workers = min(args.jobs, len(cells))
    if workers > 1:
        # imported here so that `run` and serial sweeps load no process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, base, out_root, i, alpha, kind, rate)
                       for i, (alpha, kind, rate) in cells]
            for fut in futures:
                try:
                    outcomes.append(fut.result())
                except Exception as exc:
                    outcomes.append(exc)
    else:
        for i, (alpha, kind, rate) in cells:
            try:
                outcomes.append(_run_cell(base, out_root, i, alpha, kind, rate))
            except Exception as exc:
                outcomes.append(exc)

    rows = []
    failures = 0
    for (_, (alpha, kind, rate)), outcome in zip(cells, outcomes):
        column_rate = 1.0 if kind == "dense" else rate
        row = {"alpha": alpha, "policy": kind, "rate": column_rate}
        if isinstance(outcome, Exception):
            failures += 1
            row.update(final_accuracy=None, total_bytes=None, status="failed")
            print(f"cell alpha={alpha} policy={kind} rate={rate} "
                  f"failed: {outcome}", file=sys.stderr)
        else:
            accuracy, total_bytes = outcome
            row.update(final_accuracy=accuracy, total_bytes=total_bytes, status="ok")
        rows.append(row)

    lines = [SWEEP_HEADER]
    for r in rows:
        acc = "" if r["final_accuracy"] is None else repr(r["final_accuracy"])
        total = "" if r["total_bytes"] is None else str(r["total_bytes"])
        lines.append(f"{r['alpha']!r},{r['policy']},{r['rate']!r},{acc},{total},{r['status']}")
    _atomic_write(os.path.join(out_root, "sweep.csv"), "\n".join(lines) + "\n")
    table = _pivot_table(rows)
    _atomic_write(os.path.join(out_root, "sweep.txt"), table)
    if not args.quiet:
        print(table)

    if failures == len(rows):
        return EXIT_RUNTIME
    if failures:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_dump_update(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    update = decode(data)
    doc = {
        "dim": update.dim,
        "round": update.round,
        "client_id": update.client_id,
        "count": len(update),
        "entries": [[int(i), float(v)] for i, v in zip(update.indices, update.values)],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    obj = _read_json(args.spec, "spec")
    data = _build(SyntheticDataConfig, obj, "spec", extra={"seed"})
    seed = _typed(obj.get("seed", 0), int, "spec.seed")
    _require(seed >= 0, "spec.seed", "must be >= 0")
    ds = gen_synthetic(data.classes, data.per_class, data.input_dim, data.separation,
                       rng_seed=seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_csv(ds, args.out)
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
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--stream", action="store_true",
                       help="print per-round CSV rows (with elapsed_s) to stdout")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an alpha x policy x rate grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True, help="grid JSON file")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="parallel cells (at most one worker per cell)")
    p_sweep.add_argument("--out", default=None, help="output directory override")
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dump = sub.add_parser("dump-update", help="print an FSU1 file as JSON")
    p_dump.add_argument("file")
    p_dump.set_defaults(func=_cmd_dump_update)

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
    except (DecodeError, OSError, ValueError, RuntimeError) as exc:
        print(f"fedsparse: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
