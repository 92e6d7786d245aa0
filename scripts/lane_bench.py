#!/usr/bin/env python3
"""Time the Monte Carlo lanes per 4096-row block.

For each pure-jump preset at its long horizon (the recommended horizon,
else the 20 that the ruin and stationary suites use) this runs the jump
lane (``mc.terminal_samples``), the ruin scan (``mc.ruin_samples``, three
x probes) and their jump draw alone (``paths.draw_jumps``, the same
stream as the jump lane) over --blocks blocks.  It then runs the grid
lane over two blocks on ``dufresne`` at T = 10 (U-only noise,
10 000 steps of the default grid) and on the correlated two-dimensional
Gaussian model of the verdict benchmark at T = 5 (the Cholesky branch),
and adds microseconds per step of a block.  Every case runs with workers
1 and 2 and prints wall milliseconds and minor page faults per block.
Faults are read with ``resource.getrusage(RUSAGE_SELF)``: this process
and its threads only.  One untimed run per case comes first; the table
shows the median of --repeats timed runs.  The last line is the table as
one JSON object.

Usage: PYTHONPATH=src python3 scripts/lane_bench.py [--blocks N] [--repeats R] [--seed S]
"""

import argparse
import json
import math
import resource
import statistics
import time

from gouflow import mc
from gouflow.levy import LevyModel2
from gouflow.paths import draw_jumps
from gouflow.presets import PRESETS
from gouflow.rng import BLOCK_SIZE

LANES = {
    # the lanes' whole-block jump draw alone, the bound of both lanes
    "draw": lambda m, h, n, seed, w: mc.run_blocks(
        n, lambda rng, size: {"k": draw_jumps(m, h, rng, size)[3]}, seed, "terminal", w
    ),
    "jump": lambda m, h, n, seed, w: mc.terminal_samples(m, h, n, seed, workers=w),
    "ruin": lambda m, h, n, seed, w: mc.ruin_samples(m, h, n, seed, [0.5, 1.0, 2.0], workers=w),
}


GRID = {
    "dufresne": (PRESETS["dufresne"].model, 10.0),
    "correlated-gauss": (
        LevyModel2(drift=(-1.0, 0.5), gaussian_cov=((1.0, 0.3), (0.3, 0.5))), 5.0
    ),
}
GRID_DT = 1e-3  # the config default
GRID_BLOCKS = 2  # so that workers 2 runs two blocks at once


def measure(fn, blocks):
    """(ms per block, minor faults per block) of one call of ``fn``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e3 * wall / blocks, faults / blocks


def timed(fn, blocks, repeats):
    """Median (ms per block, minor faults per block) after one untimed run."""
    fn()
    runs = [measure(fn, blocks) for _ in range(repeats)]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rows = []

    def report(name, horizon, lane, workers, ms, faults, steps=None):
        row = {"preset": name, "horizon": horizon, "lane": lane, "workers": workers,
               "ms_per_block": round(ms, 2), "faults_per_block": round(faults)}
        per_step = ""
        if steps is not None:
            row["us_per_step"] = round(1e3 * ms / steps, 2)
            per_step = f"{row['us_per_step']:9.2f}"
        rows.append(row)
        print(f"{name:16} {horizon:5g} {lane:5} {workers:7d} {ms:9.2f} {faults:13.0f} {per_step}")

    print(f"{'preset':16} {'T':>5} {'lane':5} {'workers':>7} {'ms/block':>9} "
          f"{'faults/block':>13} {'us/step':>9}")
    n = args.blocks * BLOCK_SIZE
    for name, preset in sorted(PRESETS.items()):
        model = preset.model
        if model.has_gaussian:
            continue
        horizon = float(preset.recommended.get("horizon", 20.0))
        for lane, run in LANES.items():
            for workers in (1, 2):
                fn = lambda: run(model, horizon, n, args.seed, workers)
                report(name, horizon, lane, workers, *timed(fn, args.blocks, args.repeats))
    n = GRID_BLOCKS * BLOCK_SIZE
    for name, (model, horizon) in GRID.items():
        steps = max(1, math.ceil(horizon / GRID_DT))
        for workers in (1, 2):
            fn = lambda: mc.terminal_samples(model, horizon, n, args.seed, GRID_DT, workers)
            ms, faults = timed(fn, GRID_BLOCKS, args.repeats)
            report(name, horizon, "grid", workers, ms, faults, steps)
    print(json.dumps({"blocks": args.blocks, "grid_blocks": GRID_BLOCKS,
                      "repeats": args.repeats, "rows": rows}))


if __name__ == "__main__":
    main()
