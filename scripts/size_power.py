#!/usr/bin/env python3
"""Count how often a suite FAILs on true models over many seeds (its size).

For each of PRESETS and each path count in PATHS, runs
``suites.SUITE_RUNNERS[--suite]`` in this process at seeds 1..K
(``workers`` 1, every other config key at its default) and counts the runs
that FAIL.  A refusal (ConditionError) is counted apart, not as a FAIL.
Each count gets a Wilson interval (``stats.binomial_ci`` at LEVEL) on the
FAIL rate, and the table names the failing seeds.  The presets are true models, so every FAIL is a false
one: the count measures the suite's size, the chance that a correct
model fails, at that path count.  No gate is changed or read here but the
suite's own.

``gouflow`` is imported from ``PYTHONPATH``, so the same script measures
another checkout:

    PYTHONPATH=src python3 scripts/size_power.py --suite duality --seeds 200
    PYTHONPATH=<other checkout>/src python3 scripts/size_power.py --suite duality --seeds 200

The last line is the table as one JSON object.
"""

import argparse
import json
import time

from gouflow.config import ExperimentConfig
from gouflow.levy import ConditionError
from gouflow.stats import binomial_ci
from gouflow.suites import SUITE_RUNNERS

PRESETS = ("drift-ou", "cramer-paulsen")
PATHS = (2000, 10_000)
LEVEL = 0.95


def size(suite, preset, n_paths, seeds):
    """FAIL count, refusals and Wilson interval of ``suite`` on ``preset``."""
    failed, refused = [], []
    start = time.perf_counter()
    for seed in seeds:
        cfg = ExperimentConfig(seed=seed, suite=suite, preset=preset, n_paths=n_paths)
        try:
            result = SUITE_RUNNERS[suite](cfg)
        except ConditionError:
            refused.append(seed)
            continue
        if not result.passed:
            failed.append(seed)
    runs = len(seeds) - len(refused)
    lo, hi = binomial_ci(len(failed), runs, LEVEL) if runs else (float("nan"),) * 2
    return {
        "suite": suite,
        "preset": preset,
        "n_paths": n_paths,
        "seeds": [seeds[0], seeds[-1]],
        "runs": runs,
        "fails": len(failed),
        "rate": len(failed) / runs if runs else float("nan"),
        "wilson": [round(lo, 5), round(hi, 5)],
        "level": LEVEL,
        "failed_seeds": failed,
        "refused_seeds": refused,
        "seconds": round(time.perf_counter() - start, 1),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITE_RUNNERS), default="duality")
    parser.add_argument("--seeds", type=int, default=200, help="seeds 1..K")
    args = parser.parse_args()

    seeds = list(range(1, args.seeds + 1))
    rows = []
    print(f"{'preset':16} {'paths':>6} {'fails':>9} {'rate':>7} {'Wilson':>17}  failing seeds")
    for preset in PRESETS:
        for n_paths in PATHS:
            row = size(args.suite, preset, n_paths, seeds)
            rows.append(row)
            lo, hi = row["wilson"]
            print(f"{preset:16} {n_paths:6d} {row['fails']:4d}/{row['runs']:<4d} "
                  f"{row['rate']:7.4f} [{lo:.4f}, {hi:.4f}]  {row['failed_seeds']}")
    print(json.dumps({"suite": args.suite, "rows": rows}))


if __name__ == "__main__":
    main()
