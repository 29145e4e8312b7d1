#!/usr/bin/env python3
"""Head-to-head of the three sparsification strategies at strong skew.

Runs top-k, threshold, and random sparsification across parameter values
{0.1, 0.2, 0.3, 0.4} at alpha = 0.3 (the value doubles as the retained
fraction for top-k/random and as tau for threshold), averaged over a few
seeds, and prints one accuracy table per strategy.
"""

import argparse
import sys
from statistics import mean

import numpy as np

from fedsparse.config import parse_config_dict
from fedsparse.federation import run_experiment
from fedsparse.sparsify import POLICY_PARAM

STRATEGIES = ("top_k", "threshold", "random")
VALUES = (0.1, 0.2, 0.3, 0.4)


def build_config(seed, kind, value, rounds):
    return parse_config_dict({
        "seed": seed,
        "dataset": {"kind": "synthetic", "classes": 3, "per_class": 150,
                    "input_dim": 10, "separation": 1.5},
        "model": {"hidden": [16], "activation": "relu"},
        "policy": {"kind": kind, POLICY_PARAM[kind]: value},
        "clients": 3, "alpha": 0.3,
        "rounds": rounds, "local_epochs": 5, "learning_rate": 0.01,
        "batch_size": 8, "test_fraction": 0.4,
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    seeds = list(range(args.seeds))
    print(f"synthetic 3-class task, alpha=0.3, {args.rounds} rounds, "
          f"{len(seeds)} seeds\n")
    print(f"{'strategy':<12}" + "".join(f"{v:>10}" for v in VALUES) + f"{'bytes@0.2':>14}")
    for kind in STRATEGIES:
        accs = []
        bytes_at_02 = None
        for value in VALUES:
            runs = [run_experiment(build_config(s, kind, value, args.rounds))
                    for s in seeds]
            accs.append(mean(r.final_accuracy for r in runs))
            if value == 0.2:
                bytes_at_02 = int(np.mean([r.total_uplink_bytes for r in runs]))
        print(f"{kind:<12}" + "".join(f"{a:>10.4f}" for a in accs)
              + f"{bytes_at_02:>14,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
