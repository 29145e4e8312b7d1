#!/usr/bin/env python3
"""Accuracy versus retained fraction under two heterogeneity levels.

One `fedsparse sweep` of the synthetic 3-class task (227 params) at seed
0 and --rounds rounds (default 50): alpha in {0.3, 0.6}, log-spaced top-k
rates {0.003, 0.01, 0.03, 0.1, 0.3} across the knee and one dense
reference per alpha. It prints the accuracy pivot table (sweep.txt).
Every cell runs on the base config's seed, so the cells of one alpha
share data, partition, init and batch order and differ only in policy.
Results land in results/rate_alpha/ (sweep.csv, sweep.txt, per-cell
outputs).
"""

import argparse
import json
import sys
from pathlib import Path

from fedsparse.cli import main as fedsparse_main

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "seed": 0,
    "dataset": {"kind": "synthetic", "classes": 3, "per_class": 150,
                "input_dim": 10, "separation": 1.5},
    "model": {"hidden": [16], "activation": "relu"},
    "policy": {"kind": "top_k", "rate": 0.2},
    "clients": 3, "alpha": 0.3,
    "rounds": 50, "local_epochs": 5, "learning_rate": 0.01,
    "batch_size": 8, "test_fraction": 0.4,
}

GRID = {"alpha": [0.3, 0.6], "rate": [0.003, 0.01, 0.03, 0.1, 0.3],
        "policy": ["top_k", "dense"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(ROOT / "results" / "rate_alpha"))
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = dict(BASE_CONFIG, rounds=args.rounds)
    config_path = out / "base_config.json"
    config_path.write_text(json.dumps(config, indent=2))
    grid_path = out / "grid.json"
    grid_path.write_text(json.dumps(GRID, indent=2))

    return fedsparse_main(["sweep", str(config_path), "--grid", str(grid_path),
                           "--out", str(out), "--jobs", str(args.jobs)])


if __name__ == "__main__":
    sys.exit(main())
