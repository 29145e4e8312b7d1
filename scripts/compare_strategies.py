#!/usr/bin/env python3
"""Head-to-head of the three sparsification strategies at strong skew.

Runs top-k, threshold, and random sparsification across parameter values
{0.1, 0.2, 0.3, 0.4} on the task of sweep_rate_alpha.py at its alpha of 0.3
(the value doubles as the retained fraction for top-k/random and as tau for
threshold), averaged over a few seeds, and prints one accuracy table per
strategy. Each seed is one `fedsparse sweep` call into a temporary
directory; the seeds are 0..N-1.
"""

import argparse
import csv
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from statistics import mean

from fedsparse.cli import main as fedsparse_main

# the sibling script, found on the path Python gives this script's directory
from sweep_rate_alpha import BASE_CONFIG

STRATEGIES = ("top_k", "threshold", "random")
VALUES = (0.1, 0.2, 0.3, 0.4)


def sweep_rows(seed, rounds):
    """sweep.csv rows of one seed's sweep over the strategies and values."""
    with tempfile.TemporaryDirectory() as tmp:
        config, grid = Path(tmp, "config.json"), Path(tmp, "grid.json")
        config.write_text(json.dumps(dict(BASE_CONFIG, seed=seed, rounds=rounds)))
        grid.write_text(json.dumps({"alpha": [BASE_CONFIG["alpha"]],
                                    "policy": list(STRATEGIES), "rate": list(VALUES)}))
        code = fedsparse_main(["sweep", str(config), "--grid", str(grid),
                               "--out", str(Path(tmp, "out")), "--quiet"])
        if code:
            raise SystemExit(code)
        with open(Path(tmp, "out", "sweep.csv"), newline="") as fh:
            return list(csv.DictReader(fh))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    runs = defaultdict(list)  # (policy, value) -> one sweep.csv row per seed
    for seed in range(args.seeds):
        for row in sweep_rows(seed, args.rounds):
            runs[row["policy"], float(row["rate"])].append(row)
    print(f"synthetic 3-class task, alpha={BASE_CONFIG['alpha']}, {args.rounds} rounds, "
          f"{args.seeds} seeds\n")
    print(f"{'strategy':<12}" + "".join(f"{v:>10}" for v in VALUES) + f"{'bytes@0.2':>14}")
    for kind in STRATEGIES:
        accs = [mean(float(r["final_accuracy"]) for r in runs[kind, v]) for v in VALUES]
        bytes_at_02 = int(mean(int(r["uplink_bytes"]) for r in runs[kind, 0.2]))
        print(f"{kind:<12}" + "".join(f"{a:>10.4f}" for a in accs)
              + f"{bytes_at_02:>14,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
