#!/usr/bin/env python3
"""Time the set-up and the Monte Carlo lanes per 4096-row block.

The set-up row imports ``gouflow.cli`` in --repeats fresh interpreters
and shows the median seconds of the import, the number of modules loaded
and ``ru_maxrss`` afterwards (what every ``gouflow run`` pays before its
first verdict).  For each pure-jump preset at its long horizon (the
recommended horizon, else the 20 that the ruin and stationary suites
use) this runs the jump lane (``mc.terminal_samples``), the ruin scan
(``mc.ruin_samples``, three x probes; only on presets with condition
(B), since the scan refuses the others) and their jump draw alone
(``paths.draw_jumps``: Poisson counts, times and marks, flat, the same
stream as the jump lane and its stream floor) over --blocks blocks.  The
jump lane runs for all three terminal keys (``jump``) and, at workers 1,
for the keys its callers ask for: ``jump:ei`` (e and i: the duality,
monotonicity and noncausal samples) and ``jump:ec`` (e and c: the causal
samples).  A ``pad`` row at workers 1 times the padding alone: every row
tile of those draws (made beforehand) laid out on the block's K slots,
as the jump lane lays them out.  The draw and pad rows give the real
jumps and the padded slots per block (each tile pads its rows to the
block's largest jump count K; padded slots exist per tile only), and the
jump and ruin rows the traced (``tracemalloc``) peak MiB of one block at
workers 1.  A jump-lane ``pair`` row runs two blocks as two single-block
calls of ``mc.run_together``, the way a suite's paired samples run, with
the traced peak MiB of both at once.  It then runs the grid lane over
two blocks on ``dufresne`` at T = 10 (U-only noise, 10 000 steps of the
default grid), on the correlated two-dimensional Gaussian model of the
verdict benchmark at T = 5 (the Cholesky branch) and on its
jump-diffusion model at T = 10
(U-only noise plus about ten jumps a path, applied at step ends), and
adds wall microseconds per step of a block; ``grid:ei`` and ``grid:ec`` rows
at workers 1 ask for those keys only.  The other jump and grid rows run
with workers 1 and 2.  Every row prints wall milliseconds and minor page
faults per block.  Each grid case adds two rows at workers 1: ``floor``,
its count of normals drawn alone, in the lane's chunks, from a fresh
Philox stream per block, and ``pair``, its two blocks as two
single-block calls of ``mc.run_together``, the way a suite's paired
samples run.  These name
the grid lane's bound: a block draws and steps on one thread, so a
single block takes its draw floor plus the step arithmetic, and a pair
(or two blocks at workers 2) cannot beat 2 blocks x (draw + step CPU)
/ 2 CPUs.
Every row also prints the CPU milliseconds per block that this process
spent (``time.process_time``: all its threads), so a pair's wait for the
GIL shows as wall time above CPU / 2, and its handoffs as CPU above the
single block's.
Faults are read with ``resource.getrusage(RUSAGE_SELF)``: this process
and its threads only.  Every case runs once untimed, then --repeats
rounds each run every case once, in table order, so that host drift
between rounds does not read as a difference between rows; the table
shows each case's median.  The last line is the table (and the set-up
row) as one JSON object.

Usage: PYTHONPATH=src python3 scripts/lane_bench.py [--blocks N] [--repeats R] [--seed S]
"""

import argparse
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from gouflow import mc
from gouflow.levy import JumpLaw2, LevyModel2
from gouflow.paths import GRID_DT, draw_jumps
from gouflow.presets import PRESETS
from gouflow.rng import BLOCK_SIZE, stream


def _draw_block(model, horizon, rng, size):
    draw = draw_jumps(model, horizon, rng, size)
    return {"k": draw.counts, "slots": np.full(size, draw.kmax)}


def _draws(model, horizon, n, seed):
    """The jump lane's draws of ``n`` paths, one per block (its streams)."""
    return [draw_jumps(model, horizon, stream(seed, "terminal", b), BLOCK_SIZE)
            for b in range(n // BLOCK_SIZE)]


def _pad_tiles(draws):
    """Pad every row tile of each draw as the jump lane does."""
    for draw in draws:
        rows = max(1, mc._CHUNK_ELEMENTS // (2 * draw.kmax + 1))
        for s in range(0, BLOCK_SIZE, rows):
            draw.pad(s, s + rows)


LANES = {
    # the lanes' jump draw alone (counts, times, marks; no padding), the
    # jump lane's stream floor
    "draw": lambda m, h, n, seed, w: mc.run_blocks(
        n, lambda rng, size: _draw_block(m, h, rng, size), seed, "terminal", w
    ),
    "jump": lambda m, h, n, seed, w, keys=mc.KEYS: mc.terminal_samples(
        m, h, n, seed, workers=w, keys=keys
    ),
    "ruin": lambda m, h, n, seed, w: mc.ruin_samples(m, h, n, seed, [0.5, 1.0, 2.0], workers=w),
}


def traced_peak_mib(fn):
    """Peak traced (``tracemalloc``) MiB above the start of one call of ``fn``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


GRID = {
    "dufresne": (PRESETS["dufresne"].model, 10.0),
    "correlated-gauss": (
        LevyModel2(drift=(-1.0, 0.5), gaussian_cov=((1.0, 0.3), (0.3, 0.5))), 5.0
    ),
    "jump-diffusion": (
        LevyModel2(
            drift=(-1.0, 1.0),
            gaussian_cov=((0.5, 0.0), (0.0, 0.0)),
            jump_intensity=1.0,
            jump_law=JumpLaw2.point_mass([((0.5, 0.5), 0.5), ((-0.3, 0.2), 0.5)]),
        ),
        10.0,
    ),
}
PAIR_BLOCKS = 2  # grid rows and pairs: workers 2 or a pair runs two blocks at once

# the terminal keys the lanes' callers ask for, beside all three
KEY_SUBSETS = {"ei": ("e", "i"), "ec": ("e", "c")}


def _normal_floor(model, horizon, n, seed):
    """The grid lane's normals for ``n`` paths drawn alone: per block, one
    fresh Philox stream fills the lane's chunks of steps in turn."""
    steps = max(1, math.ceil(horizon / GRID_DT))
    u_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
    shape = (BLOCK_SIZE,) if u_only else (BLOCK_SIZE, 2)
    k = max(1, mc._CHUNK_ELEMENTS // math.prod(shape))
    buf = np.empty((k, *shape))
    for b in range(n // BLOCK_SIZE):
        rng = stream(seed, "floor", b)
        for start in range(0, steps, k):
            rng.standard_normal(out=buf[: min(k, steps - start)])


def _pair(model, horizon, n, seed):
    """The ``n // BLOCK_SIZE`` blocks as single-block lane calls run at once."""
    calls = [
        lambda b=b: mc.terminal_samples(model, horizon, BLOCK_SIZE, seed, GRID_DT, 1, f"pair{b}")
        for b in range(n // BLOCK_SIZE)
    ]
    mc.run_together(*calls)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SETUP_CODE = f"""\
import json, resource, sys, time
sys.path.insert(0, {SRC!r})
start = time.perf_counter()
import gouflow.cli
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([seconds, len(sys.modules), rss]))
"""


def setup_cost(repeats):
    """Median (import seconds, modules loaded, max RSS MB) of importing
    ``gouflow.cli`` in ``repeats`` fresh interpreters."""
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                                  capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]
    return tuple(statistics.median(r[i] for r in runs) for i in range(3))


def measure(fn, blocks):
    """(wall ms, process CPU ms, minor faults) per block of one call of ``fn``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cpu = time.process_time()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e3 * wall / blocks, 1e3 * cpu / blocks, faults / blocks


def timed_rounds(cases, repeats):
    """Median (wall ms, CPU ms, minor faults) per block of each ``(fn,
    blocks)`` case: one untimed run of every case, then ``repeats`` rounds
    that each run every case once, in order.  Host drift then spreads over
    all rows instead of reading as a difference between them."""
    for fn, _ in cases:
        fn()
    runs = [[] for _ in cases]
    for _ in range(repeats):
        for run, (fn, blocks) in zip(runs, cases):
            run.append(measure(fn, blocks))
    return [tuple(statistics.median(r[i] for r in run) for i in range(3)) for run in runs]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    seconds, modules, rss = setup_cost(args.repeats)
    setup = {"import_s": round(seconds, 3), "modules": modules, "max_rss_mb": round(rss, 1)}
    print(f"set-up: import gouflow.cli {seconds:.3f} s, {modules:.0f} modules, "
          f"max RSS {rss:.1f} MB (fresh interpreter, median of {args.repeats})")

    # (row without its timings, fn, blocks), in table order
    cases = []

    def case(name, horizon, lane, workers, fn, blocks, steps=None, slots=None, peak=None):
        row = {"preset": name, "horizon": horizon, "lane": lane, "workers": workers}
        if steps is not None:
            row["steps"] = steps
        if slots is not None:
            row["jumps_per_block"], row["padded_per_block"] = slots
        if peak is not None:
            row["peak_mib"] = round(peak, 1)
        cases.append((row, fn, blocks))

    n = args.blocks * BLOCK_SIZE
    for name, preset in sorted(PRESETS.items()):
        model = preset.model
        if model.has_gaussian:
            continue
        horizon = float(preset.recommended.get("horizon", 20.0))
        drawn = LANES["draw"](model, horizon, n, args.seed, 1)
        jumps = drawn["k"].sum() / args.blocks
        slots = (jumps, drawn["slots"].sum() / args.blocks - jumps)
        for lane, run in LANES.items():
            if lane == "ruin" and not model.condition_b:
                continue
            peak = None
            if lane != "draw":
                peak = traced_peak_mib(lambda: run(model, horizon, BLOCK_SIZE, args.seed, 1))
            for workers in (1, 2):
                fn = functools.partial(run, model, horizon, n, args.seed, workers)
                case(name, horizon, lane, workers, fn, args.blocks,
                     slots=slots if lane == "draw" else None, peak=peak)
            if lane == "jump":
                for tag, keys in KEY_SUBSETS.items():
                    fn = functools.partial(run, model, horizon, n, args.seed, 1, keys)
                    case(name, horizon, f"jump:{tag}", 1, fn, args.blocks)
                pair = functools.partial(_pair, model, horizon, PAIR_BLOCKS * BLOCK_SIZE, args.seed)
                case(name, horizon, "pair", 1, pair, PAIR_BLOCKS, peak=traced_peak_mib(pair))
            if lane == "draw":
                draws = _draws(model, horizon, n, args.seed)
                case(name, horizon, "pad", 1, functools.partial(_pad_tiles, draws), args.blocks,
                     slots=slots)
    n = PAIR_BLOCKS * BLOCK_SIZE
    for name, (model, horizon) in GRID.items():
        steps = max(1, math.ceil(horizon / GRID_DT))
        for workers in (1, 2):
            fn = functools.partial(mc.terminal_samples, model, horizon, n, args.seed, GRID_DT,
                                   workers)
            case(name, horizon, "grid", workers, fn, PAIR_BLOCKS, steps)
        for tag, keys in KEY_SUBSETS.items():
            fn = functools.partial(mc.terminal_samples, model, horizon, n, args.seed, GRID_DT, 1,
                                   keys=keys)
            case(name, horizon, f"grid:{tag}", 1, fn, PAIR_BLOCKS, steps)
        for lane, run in (("floor", _normal_floor), ("pair", _pair)):
            fn = functools.partial(run, model, horizon, n, args.seed)
            case(name, horizon, lane, 1, fn, PAIR_BLOCKS, steps)

    print(f"{'preset':16} {'T':>5} {'lane':7} {'workers':>7} {'ms/block':>9} {'cpu ms':>9} "
          f"{'faults/block':>13} {'us/step':>9} {'jumps/block':>12} {'padded/block':>12} "
          f"{'peak MiB':>11}")
    rows = []
    timings = timed_rounds([(fn, blocks) for _, fn, blocks in cases], args.repeats)
    for (row, _, _), (ms, cpu_ms, faults) in zip(cases, timings):
        row.update(ms_per_block=round(ms, 2), cpu_ms_per_block=round(cpu_ms, 2),
                   faults_per_block=round(faults))
        per_step = f"{'':9}"
        steps = row.pop("steps", None)
        if steps is not None:
            row["us_per_step"] = round(1e3 * ms / steps, 2)
            per_step = f"{row['us_per_step']:9.2f}"
        per_slot = f"{'':26}"
        if "jumps_per_block" in row:
            per_slot = f" {row['jumps_per_block']:12.0f} {row['padded_per_block']:12.0f}"
        traced = f" {row['peak_mib']:11.1f}" if "peak_mib" in row else ""
        rows.append(row)
        print(f"{row['preset']:16} {row['horizon']:5g} {row['lane']:7} {row['workers']:7d} "
              f"{ms:9.2f} {cpu_ms:9.2f} {faults:13.0f} {per_step}{per_slot}{traced}".rstrip())
    print(json.dumps({"blocks": args.blocks, "pair_blocks": PAIR_BLOCKS,
                      "repeats": args.repeats, "setup": setup, "rows": rows}))


if __name__ == "__main__":
    main()
