#!/usr/bin/env python3
"""Time the set-up and the Monte Carlo lanes per 4096-row block.

The set-up row imports ``gouflow.cli`` in --repeats fresh interpreters
and shows the median seconds of the import, the number of modules loaded
and ``ru_maxrss`` afterwards (what every ``gouflow run`` pays before its
first verdict).  With --against, each round imports from both checkouts
in turn (this one first in even rounds), and the set-up ratio line gives
this side's median import seconds over the other's.  For each pure-jump
preset at its long horizon (the recommended horizon, else the 20 that
the ruin and stationary suites use) this runs the jump lane
(``mc.terminal_samples``), the ruin scan (``mc.ruin_samples``, three x
probes; only on presets with condition (B), since the scan refuses the
others) and their jump draw alone
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
A ``duality`` row per model with condition (B) runs one duality grid
(``duality.duality_grid`` at the default t_grid 0.5, 1 and 2, one x and
one y, workers 1): its forward and dual samples, nearly all of its time
lane work (pure-jump presets on --blocks blocks, grid models on two).
A ``stationary`` row per pure-jump preset and for ``dufresne`` and the
correlated Gaussian model (the models whose stationary verdict the
benchmark runs) runs one stationary verdict (``suites.stationary_suite``
at the row's long horizon and t = 2, the default horizon, workers 1, the
preset's stationary kind) on the row's paths (--blocks blocks, grid
models two): its samples, drawn as the suite draws them, and its KS rows.
An ``invflow`` row per pure-jump preset runs the inverse-flow suite's
exact check (``inverse_flow.verify_tile_identity`` on each batch's padded
``draw_jumps`` tile) over 1000 paths at the suite's default horizon 2, in
its batches of 128 rows and their streams, and an ``invflow:path`` row
the same paths through the ``Path`` route (``paths.exact_paths`` and
``inverse_flow.verify_pathwise_identity``); each reads ms per 1000 paths
in its ms/block column, and a line per preset gives the tile route's
median over the Path route's.  A checkout without the tile check runs its
Path route in both rows.
Every row also prints the CPU milliseconds per block that this process
spent (``time.process_time``: all its threads), so a pair's wait for the
GIL shows as wall time above CPU / 2, and its handoffs as CPU above the
single block's.
Faults are read with ``resource.getrusage(RUSAGE_SELF)``: this process
and its threads only.  Every case runs once untimed, then --repeats
rounds each run every case once, in table order, so that host drift
between rounds does not read as a difference between rows; the table
shows each case's median.  Each round ends with a ``control`` row: two
sha256 passes over a 20 MB buffer (C work that releases the GIL), timed
in turn and on two threads at once; their ratio, in-turn wall over
together wall, reads near 2.0 when a second CPU was free for this
process in that round and near 1.0 when it was busy.  Pairs and
workers-2 rows gain only in rounds with a free second CPU.  The last
line is the table (with the set-up rows and the control ratios) as one
JSON object.

``--against DIR`` imports the checkout at DIR's ``gouflow`` beside this
one (as the package ``gouflow_against``) and builds every case from each.
Each round then runs every case on both sides back to back, in turns
(this checkout first in even rounds), so that host drift reads the same
on both; each row adds the other side's medians and ``ratio``, this
side's wall ms over the other's.  Two checkouts timed in separate runs
minutes apart can differ by several percent on identical code.  The JSON
names the sides ``this`` and ``against`` and gives each one's ``git
describe --always --dirty`` (null outside a git checkout), not its path.

Usage: PYTHONPATH=src python3 scripts/lane_bench.py [--blocks N] [--repeats R] [--seed S]
           [--against DIR]
"""

import argparse
import functools
import hashlib
import importlib
import importlib.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np

MODULES = (
    "mc", "levy", "paths", "presets", "rng", "duality", "config", "suites", "inverse_flow"
)


def load(root=None):
    """gouflow's modules, from this checkout (``PYTHONPATH=src``) or from
    the checkout at ``root``, imported as the package ``gouflow_against``
    so that both live in one process."""
    name = "gouflow"
    if root is not None:
        name = "gouflow_against"
        pkg = os.path.join(os.path.abspath(root), "src", "gouflow")
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
        )
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"{name}.{m}") for m in MODULES}
    )


def _draw_block(lib, model, horizon, rng, size):
    draw = lib.paths.draw_jumps(model, horizon, rng, size)
    return {"k": draw.counts, "slots": np.full(size, draw.kmax)}


def _draws(lib, model, horizon, n, seed):
    """The jump lane's draws of ``n`` paths, one per block (its streams)."""
    size = lib.rng.BLOCK_SIZE
    return [lib.paths.draw_jumps(model, horizon, lib.rng.stream(seed, "terminal", b), size)
            for b in range(n // size)]


def _pad_tiles(lib, draws):
    """Pad every row tile of each draw as the jump lane does."""
    for draw in draws:
        rows = max(1, lib.mc._CHUNK_ELEMENTS // (2 * draw.kmax + 1))
        for s in range(0, lib.rng.BLOCK_SIZE, rows):
            draw.pad(s, s + rows)


def lanes(lib):
    """The jump-lane rows' calls ``(model, horizon, n, seed, workers)``."""
    return {
        # the lanes' jump draw alone (counts, times, marks; no padding), the
        # jump lane's stream floor
        "draw": lambda m, h, n, seed, w: lib.mc.run_blocks(
            n, lambda rng, size: _draw_block(lib, m, h, rng, size), seed, "terminal", w
        ),
        "jump": lambda m, h, n, seed, w, keys=lib.mc.KEYS: lib.mc.terminal_samples(
            m, h, n, seed, workers=w, keys=keys
        ),
        "ruin": lambda m, h, n, seed, w: lib.mc.ruin_samples(
            m, h, n, seed, [0.5, 1.0, 2.0], workers=w
        ),
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


def grid_models(lib):
    """The grid cases: (model, horizon) by name."""
    LevyModel2, JumpLaw2 = lib.levy.LevyModel2, lib.levy.JumpLaw2
    return {
        "dufresne": (lib.presets.PRESETS["dufresne"].model, 10.0),
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
T_GRID = (0.5, 1.0, 2.0)  # the default t_grid of the duality rows
STATIONARY_GRID = ("dufresne", "correlated-gauss")  # the grid models with a stationary verdict

# the terminal keys the lanes' callers ask for, beside all three
KEY_SUBSETS = {"ei": ("e", "i"), "ec": ("e", "c")}


def _normal_floor(lib, model, horizon, n, seed):
    """The grid lane's normals for ``n`` paths drawn alone: per block, one
    fresh Philox stream fills the lane's chunks of steps in turn."""
    size = lib.rng.BLOCK_SIZE
    steps = max(1, math.ceil(horizon / lib.paths.GRID_DT))
    u_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
    shape = (size,) if u_only else (size, 2)
    k = max(1, lib.mc._CHUNK_ELEMENTS // math.prod(shape))
    buf = np.empty((k, *shape))
    for b in range(n // size):
        rng = lib.rng.stream(seed, "floor", b)
        for start in range(0, steps, k):
            rng.standard_normal(out=buf[: min(k, steps - start)])


def _pair(lib, model, horizon, n, seed):
    """The ``n // BLOCK_SIZE`` blocks as single-block lane calls run at once."""
    size, dt = lib.rng.BLOCK_SIZE, lib.paths.GRID_DT
    calls = [
        lambda b=b: lib.mc.terminal_samples(model, horizon, size, seed, dt, 1, f"pair{b}")
        for b in range(n // size)
    ]
    lib.mc.run_together(*calls)


def _duality(lib, model, n, seed):
    """One duality grid at the default t_grid, one x and one y."""
    lib.duality.duality_grid(model, T_GRID, [1.0], [1.0], n, seed, lib.paths.GRID_DT, 1)


def _stationary(lib, name, model, horizon, n, seed):
    """One stationary verdict (``suites.stationary_suite``, workers 1) at
    the long horizon: its samples, drawn as the suite draws them, and its
    KS rows; a preset keeps its stationary kind."""
    preset = {"preset": name} if name in lib.presets.PRESETS else {"model": model}
    cfg = lib.config.ExperimentConfig(seed=seed, suite="stationary", n_paths=n,
                                      stationary_horizon=horizon, **preset)
    lib.suites.stationary_suite(cfg)


INVFLOW_PATHS, INVFLOW_HORIZON = 1000, 2.0  # the inverse-flow suite's exact paths and horizon


def _invflow(lib, model, seed, route):
    """The inverse-flow suite's exact check of ``INVFLOW_PATHS`` paths, in
    its batches and streams, by the ``tile`` or the ``path`` route."""
    tile_check = getattr(lib.inverse_flow, "verify_tile_identity", None)
    rows, h = lib.suites._STACK_ROWS, INVFLOW_HORIZON
    for b, lo in enumerate(range(0, INVFLOW_PATHS, rows)):
        rng, size = lib.rng.stream(seed, "invflow", b), min(rows, INVFLOW_PATHS - lo)
        if route == "tile" and tile_check is not None:
            tile_check(lib.paths.draw_jumps(model, h, rng, size).pad(), h, model, 1.0)
        else:
            batch = lib.paths.exact_paths(model, h, rng, size)
            lib.inverse_flow.verify_pathwise_identity(batch, model, 1.0)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SETUP_CODE = """\
import json, resource, sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import gouflow.cli
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([seconds, len(sys.modules), rss]))
"""


def revision(root):
    """``git describe --always --dirty`` of the checkout at ``root``, or
    None where git cannot tell."""
    try:
        out = subprocess.run(["git", "-C", root, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def turns(sides, r):
    """The order in which round ``r`` runs ``sides`` sides: rotated by one
    each round, so that each side goes first in turn."""
    return [(side + r) % sides for side in range(sides)]


def setup_costs(srcs, repeats):
    """Median (import seconds, modules loaded, max RSS MB) of importing
    ``gouflow.cli`` in ``repeats`` fresh interpreters, per source tree of
    ``srcs``: each round imports from every tree, in ``turns``."""
    runs = [[] for _ in srcs]
    for r in range(repeats):
        for side in turns(len(srcs), r):
            code = SETUP_CODE.format(src=srcs[side])
            runs[side].append(json.loads(subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True, text=True
            ).stdout))
    return [tuple(statistics.median(x[i] for x in run) for i in range(3)) for run in runs]


CONTROL_BYTES = 20 * 2**20  # per sha256 pass: about 20 ms on a host with SHA instructions


def control_ratio():
    """Wall time of two sha256 passes over a 20 MB buffer run in turn,
    over that of the same two passes on two threads at once.  hashlib
    releases the GIL for the pass, so the ratio reads near 2.0 when a
    second CPU is free for this process and near 1.0 when it is busy."""
    buf = bytes(CONTROL_BYTES)
    start = time.perf_counter()
    for _ in range(2):
        hashlib.sha256(buf).digest()
    in_turn = time.perf_counter() - start
    threads = [threading.Thread(target=hashlib.sha256, args=(buf,)) for _ in range(2)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return in_turn / (time.perf_counter() - start)


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


def timed_rounds(sides, repeats):
    """Median (wall ms, CPU ms, minor faults) per block of each ``(fn,
    blocks)`` case of each side (a list of cases per checkout, the same
    rows in the same order), and each round's ``control_ratio``: one
    untimed run of every case, then ``repeats`` rounds that each run every
    case once, in order, on every side back to back, the sides in
    ``turns``, and then the control.  Host drift then spreads over all
    rows and sides instead of reading as a difference between them."""
    for cases in sides:
        for fn, _ in cases:
            fn()
    runs = [[[] for _ in cases] for cases in sides]
    controls = []
    for r in range(repeats):
        order = turns(len(sides), r)
        for k in range(len(sides[0])):
            for side in order:
                fn, blocks = sides[side][k]
                runs[side][k].append(measure(fn, blocks))
        controls.append(control_ratio())
    medians = [
        [tuple(statistics.median(r[i] for r in run) for i in range(3)) for run in side]
        for side in runs
    ]
    return medians, controls


CASE_KEYS = ("preset", "horizon", "lane", "workers")  # what names a case


def build_cases(lib, args):
    """(row without its timings, fn, blocks) of every case, in table order,
    from the modules ``lib`` (``load``)."""
    BLOCK_SIZE, GRID_DT = lib.rng.BLOCK_SIZE, lib.paths.GRID_DT
    LANES = lanes(lib)
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
    for name, preset in sorted(lib.presets.PRESETS.items()):
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
                pair = functools.partial(_pair, lib, model, horizon, PAIR_BLOCKS * BLOCK_SIZE,
                                         args.seed)
                case(name, horizon, "pair", 1, pair, PAIR_BLOCKS, peak=traced_peak_mib(pair))
            if lane == "draw":
                draws = _draws(lib, model, horizon, n, args.seed)
                case(name, horizon, "pad", 1, functools.partial(_pad_tiles, lib, draws),
                     args.blocks, slots=slots)
        if model.condition_b:
            fn = functools.partial(_duality, lib, model, n, args.seed)
            case(name, max(T_GRID), "duality", 1, fn, args.blocks)
        fn = functools.partial(_stationary, lib, name, model, horizon, n, args.seed)
        case(name, horizon, "stationary", 1, fn, args.blocks)
        for route, lane in (("tile", "invflow"), ("path", "invflow:path")):
            fn = functools.partial(_invflow, lib, model, args.seed, route)
            case(name, INVFLOW_HORIZON, lane, 1, fn, 1)
    n = PAIR_BLOCKS * BLOCK_SIZE
    for name, (model, horizon) in grid_models(lib).items():
        steps = max(1, math.ceil(horizon / GRID_DT))
        for workers in (1, 2):
            fn = functools.partial(lib.mc.terminal_samples, model, horizon, n, args.seed,
                                   GRID_DT, workers)
            case(name, horizon, "grid", workers, fn, PAIR_BLOCKS, steps)
        for tag, keys in KEY_SUBSETS.items():
            fn = functools.partial(lib.mc.terminal_samples, model, horizon, n, args.seed,
                                   GRID_DT, 1, keys=keys)
            case(name, horizon, f"grid:{tag}", 1, fn, PAIR_BLOCKS, steps)
        for lane, run in (("floor", _normal_floor), ("pair", _pair)):
            fn = functools.partial(run, lib, model, horizon, n, args.seed)
            case(name, horizon, lane, 1, fn, PAIR_BLOCKS, steps)
        fn = functools.partial(_duality, lib, model, n, args.seed)
        case(name, max(T_GRID), "duality", 1, fn, PAIR_BLOCKS)
        if name in STATIONARY_GRID:
            fn = functools.partial(_stationary, lib, name, model, horizon, n, args.seed)
            case(name, horizon, "stationary", 1, fn, PAIR_BLOCKS)
    return cases


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", metavar="DIR", default=None,
                        help="a second checkout whose lanes run in the same rounds")
    args = parser.parse_args()

    roots = {"this": os.path.dirname(SRC)}
    if args.against:
        roots["against"] = os.path.abspath(args.against)
    setup = []
    srcs = [os.path.join(root, "src") for root in roots.values()]
    for (side, root), src, (seconds, modules, rss) in zip(
        roots.items(), srcs, setup_costs(srcs, args.repeats)
    ):
        setup.append({"side": side, "revision": revision(root), "import_s": round(seconds, 3),
                      "modules": modules, "max_rss_mb": round(rss, 1)})
        print(f"set-up: import gouflow.cli from {src} {seconds:.3f} s, {modules:.0f} modules, "
              f"max RSS {rss:.1f} MB (fresh interpreter, median of {args.repeats})")
    setup_ratio = None
    if args.against:
        setup_ratio = round(setup[0]["import_s"] / setup[1]["import_s"], 3)
        print(f"set-up ratio: this import over against import {setup_ratio:.3f} "
              f"(the two sides alternate within each round)")

    sides = [build_cases(load(), args)]
    if args.against:
        sides.append(build_cases(load(args.against), args))
        names = [[tuple(row[k] for k in CASE_KEYS) for row, _, _ in side] for side in sides]
        if names[0] != names[1]:
            raise SystemExit("the two checkouts build different cases; compare like with like")
    cases = sides[0]

    print(f"{'preset':16} {'T':>5} {'lane':12} {'workers':>7} {'ms/block':>9} {'cpu ms':>9} "
          f"{'faults/block':>13} {'us/step':>9} {'jumps/block':>12} {'padded/block':>12} "
          f"{'peak MiB':>11}" + (f" {'against':>9} {'ratio':>6}" if args.against else ""))
    rows = []
    timings, controls = timed_rounds([[(fn, blocks) for _, fn, blocks in side] for side in sides],
                           args.repeats)
    for k, ((row, _, _), (ms, cpu_ms, faults)) in enumerate(zip(cases, timings[0])):
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
        traced = f" {row['peak_mib']:11.1f}" if "peak_mib" in row else f"{'':12}"
        against = ""
        if args.against:
            other_row, _, _ = sides[1][k]
            a_ms, a_cpu, a_faults = timings[1][k]
            row.update(against_ms_per_block=round(a_ms, 2),
                       against_cpu_ms_per_block=round(a_cpu, 2),
                       against_faults_per_block=round(a_faults), ratio=round(ms / a_ms, 3))
            if "peak_mib" in other_row:
                row["against_peak_mib"] = other_row["peak_mib"]
            against = f" {a_ms:9.2f} {ms / a_ms:6.3f}"
        rows.append(row)
        print(f"{row['preset']:16} {row['horizon']:5g} {row['lane']:12} {row['workers']:7d} "
              f"{ms:9.2f} {cpu_ms:9.2f} {faults:13.0f} {per_step}{per_slot}{traced}{against}"
              .rstrip())
    invflow = {}
    for row in rows:
        if row["lane"].startswith("invflow"):
            invflow.setdefault(row["preset"], []).append(row["ms_per_block"])
    invflow = {name: round(tile / path, 3) for name, (tile, path) in invflow.items()}
    for name, ratio in invflow.items():
        print(f"inverse-flow {name}: tile route over Path route {ratio:.3f} (ms per 1000 paths)")
    print(f"{'control':16} {'':5} {'sha256':12} {2:7d}  in turn / together per round: "
          + " ".join(f"{c:.2f}" for c in controls)
          + " (near 2.0: a second CPU was free; near 1.0: it was busy)")
    print(json.dumps({"blocks": args.blocks, "pair_blocks": PAIR_BLOCKS,
                      "repeats": args.repeats, "setup": setup, "setup_ratio": setup_ratio,
                      "control_ratios": [round(c, 3) for c in controls],
                      "invflow_tile_over_path": invflow, "rows": rows}))


if __name__ == "__main__":
    main()
