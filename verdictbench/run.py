#!/usr/bin/env python3
"""Verdict benchmark for gouflow.

Run from the repository root:

    python3 verdictbench/run.py --workload jump-lane --seed 1 --seconds 10 --trace 0

A workload is a fixed list of verdicts (preset or inline model x suite)
defined, with the exit code each one should give, in
``verdictbench/workloads.json``.  The benchmark writes one config per
verdict, feeds it to ``gouflow.cli.main`` in this process (``workers: 1``,
the CLI default) and checks every outcome.

With ``--trace 0`` it measures what a user of ``gouflow run`` waits for:

* ``setup_s``: import of ``gouflow.cli`` plus the lazy imports that first
  calls trigger (``stats.binomial_ci`` imports ``scipy.stats``).  Set up
  once in this process and four more times in fresh interpreters; the
  median is reported.  This time is not part of ``wall_s``.
* ``wall_s``: seconds to produce every verdict of the workload once.  The
  verdict list is run at least three times and until ``--seconds`` have passed;
  each verdict's median time over these passes is summed.
* ``peak_rss_mb``: ``ru_maxrss`` of this process, which ran only this
  workload.

Both times are given at a reference host speed.  On a shared host the CPU
speed a process gets moves by tens of percent, within a second and over
minutes (process CPU time moves with wall time, so it is not descheduling),
and the minute-long phases no number of passes inside one run averages
out.  So the benchmark times a short calibration kernel, which does not
touch ``gouflow``, before the first verdict and after every verdict, and
scales each verdict's time by the kernel's reference time over the mean
of the two kernel timings around it.  The kernel matches the kind of work
the workload does (``kernel`` in ``workloads.json``): the speed of Python
loops and of numpy on large arrays move apart on this kind of host.  Each
set-up is scaled the same way by a pure-Python kernel timed in the same
process just before and after it.  A change to the program moves the scaled
times as it moves the measured ones; the measured times are printed too.

With ``--trace 1`` it runs each verdict once untraced and once with the
public functions of every ``gouflow`` module wrapped (see ``tracing.py``),
back to back; it reports the per-layer metrics of the traced runs and the
tracing overhead (traced minus untraced wall time).

Both modes check every verdict: an item fails when it crashes, when its
exit code differs from the expected one, or when its ``summary.json``
digest differs between passes of the same seed.  ``jump-lane`` also
checks that one reduced item gives a byte-identical ``summary.json`` at
``workers`` 1 and 2.  Failed verdicts are counted in ``failed`` and in the
printed ``verdict_fail_share``; ``correct`` is false when a verdict
crashed, changed between passes or depended on the worker count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

SETUP_REPEATS = 5  # one in this process, the rest in fresh interpreters
SETUP_KERNELS = 4  # kernel timings before and after each set-up
MIN_PASSES = 3  # the digest check needs two; a median of three drops one outlier
PASS_BUDGET_S = 120.0  # start no pass that would end later than this
CHILD_TIMEOUT_S = 60.0


def _set_up() -> tuple[float, float, list[float]]:
    """Import the CLI and trigger the lazy imports of first calls.  Returns
    the seconds of both and the ``python`` kernel's timings just before and
    after them (that kernel imports nothing)."""
    timings = [_time_kernel("python") for _ in range(SETUP_KERNELS)]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import gouflow.cli  # noqa: F401

    t1 = time.perf_counter()
    from gouflow import stats

    stats.binomial_ci(1, 2)  # first call imports scipy.stats
    t2 = time.perf_counter()
    timings += [_time_kernel("python") for _ in range(SETUP_KERNELS)]
    return t1 - t0, t2 - t1, timings


# Calibration kernels.  The numpy ones import numpy on first use, which
# comes after set-up was timed: the numpy import is part of set-up.


def _python_kernel() -> float:
    """Python loops over floats, tuples, a list and a dict."""
    acc, pairs = 0.0, []
    for i in range(25_000):
        acc = acc * 0.999 + math.exp(-i * 1e-4)
        pairs.append((i, acc))
    last = {}
    for i, a in pairs:
        last[i & 1023] = a
    return acc


def _interpreter_kernel() -> None:
    """Python loops, and numpy calls on tiny arrays, as in the per-path walks."""
    import numpy as np

    acc = _python_kernel()
    grid = np.linspace(0.0, 1.0, 16)
    for i in range(1_500):
        step = np.exp(-grid * (i % 7))
        acc += float(np.sum(step[1:] - step[:-1]))


def _vector_kernel() -> None:
    """numpy on large arrays, as in the lanes: normal draws, sort, cumsum, exp."""
    import numpy as np

    draws = np.random.Generator(np.random.Philox(7)).standard_normal(300_000)
    draws.sort()
    np.cumsum(draws)
    np.exp(draws)


# each kernel with its median seconds on the reference host (Intel Xeon,
# 2 vCPUs of a shared VM, CPython 3.11, numpy); only ratios to it matter
KERNELS = {
    "python": (_python_kernel, 0.007),
    "interpreter": (_interpreter_kernel, 0.016),
    "vector": (_vector_kernel, 0.011),
}


def _time_kernel(name: str) -> float:
    """Seconds of one kernel run, with the cyclic garbage collector off so
    that the time does not depend on how many objects the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        KERNELS[name][0]()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _scaled(seconds: float, name: str, timings: list[float]) -> float:
    """``seconds`` at the reference host speed, from the median of the kernel
    timings taken just before and just after them."""
    return seconds * KERNELS[name][1] / statistics.median(timings)


def _set_up_in_child() -> tuple[float, float, list[float]]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def _load_workload(name: str) -> tuple[dict, list[dict]]:
    with open(os.path.join(BENCH_DIR, "workloads.json")) as fh:
        spec = json.load(fh)
    if name not in spec["workloads"]:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {', '.join(spec['workloads'])}"
        )
    workload = spec["workloads"][name]
    for item in workload["items"]:
        cfg = item["config"]
        if isinstance(cfg.get("model"), str):
            cfg["model"] = spec["models"][cfg["model"]]
    return workload, workload["items"]


def _write_config(path: str, seed: int, config: dict, workers: int = 1) -> None:
    cfg = {"schema_version": 1, "seed": seed, "workers": workers, **config}
    with open(path, "w") as fh:
        json.dump(cfg, fh)  # YAML is a superset of JSON


class Outcome(NamedTuple):
    code: int | None
    seconds: float
    digest: str | None
    crash: str | None


def _run_verdict(cli, cfg_path: str, out_dir: str) -> Outcome:
    """One ``gouflow run``; only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", cfg_path, "--out", out_dir])
    except Exception:  # a crash is a verdict outcome, recorded and counted
        code = None
        crash = traceback.format_exc(limit=-3).strip().splitlines()[-1]
    seconds = time.perf_counter() - t0
    summary = os.path.join(out_dir, "summary.json")
    if code in (0, 1) and os.path.exists(summary):
        with open(summary, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    elif code == 3:
        # a refusal writes no summary; its message is the output (numpy
        # warnings before it print only once per process, so they are cut)
        text = err.getvalue()
        digest = hashlib.sha256(text[max(text.find("refusing"), 0):].encode()).hexdigest()
    else:
        digest = None
    if code not in (0, 1, 3) and crash is None:
        crash = f"exit {code}: {err.getvalue().strip()[-200:]}"
    return Outcome(code, seconds, digest, crash)


def _run_item(cli, config: dict, seed: int, out_dir: str, workers: int = 1) -> Outcome:
    os.makedirs(out_dir)
    cfg_path = os.path.join(out_dir, "config.yaml")
    _write_config(cfg_path, seed, config, workers)
    return _run_verdict(cli, cfg_path, out_dir)


def _timed_passes(cli, items: list[dict], seed: int, seconds: float, work: str,
                  kernel: str):
    """The verdict list MIN_PASSES times, then again until ``seconds`` pass.
    ``kernel`` is timed before the first verdict and after every verdict;
    returns the outcomes per pass and each verdict's scaled seconds."""
    passes, scaled = [], []
    before = _time_kernel(kernel)
    start = time.perf_counter()
    while True:
        pass_dir = os.path.join(work, f"pass{len(passes)}")
        outcomes, seconds_at_reference = [], []
        for k, item in enumerate(items):
            outcome = _run_item(cli, item["config"], seed, os.path.join(pass_dir, str(k)))
            after = _time_kernel(kernel)
            outcomes.append(outcome)
            seconds_at_reference.append(_scaled(outcome.seconds, kernel, [before, after]))
            before = after
        passes.append(outcomes)
        scaled.append(seconds_at_reference)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and (
            elapsed >= seconds or elapsed * (len(passes) + 1) / len(passes) > PASS_BUDGET_S
        ):
            return passes, scaled


def _traced_passes(cli, items: list[dict], seed: int, work: str, tracing_on):
    """Each verdict untraced and inside ``tracing_on()``, back to back, so
    that the difference between the two passes is the tracing overhead.
    The order alternates, so neither side always runs on warmer caches."""
    untraced, traced = [], []
    for k, item in enumerate(items):
        for with_tracing in (False, True) if k % 2 == 0 else (True, False):
            out_dir = os.path.join(work, "traced" if with_tracing else "untraced", str(k))
            with tracing_on() if with_tracing else contextlib.nullcontext():
                outcome = _run_item(cli, item["config"], seed, out_dir)
            (traced if with_tracing else untraced).append(outcome)
    return [untraced, traced]


def _worker_invariance(cli, workload: dict, items: list[dict], seed: int, work: str):
    """Byte-compare summary.json of one reduced item at workers 1 and 2;
    None when the workload names no such item."""
    spec = workload.get("worker_invariance")
    if spec is None:
        return None
    item = next(it for it in items if it["name"] == spec["item"])
    config = {**item["config"], **spec["config"]}
    blobs = []
    for workers in (1, 2):
        out_dir = os.path.join(work, f"invariance-w{workers}")
        outcome = _run_item(cli, config, seed, out_dir, workers)
        summary = os.path.join(out_dir, "summary.json")
        if outcome.crash is None and os.path.exists(summary):
            with open(summary, "rb") as fh:
                blobs.append(fh.read())
        else:
            blobs.append(None)
    return spec["item"], blobs[0] is not None and blobs[0] == blobs[1]


def _judge(items, passes, invariance) -> tuple[bool, list[str], list[str]]:
    """Return (correct, lines, names of failed items)."""
    correct = True
    lines, failed = [], []
    for k, item in enumerate(items):
        runs = [p[k] for p in passes]
        codes = [r.code for r in runs]
        problems = []
        crashes = [r.crash for r in runs if r.crash]
        if crashes:
            correct = False
            problems.append(f"crashed: {crashes[0]}")
        if len({r.digest for r in runs}) > 1:
            correct = False
            problems.append("summary digest changed between passes of the same seed")
        if invariance is not None and invariance[0] == item["name"] and not invariance[1]:
            correct = False
            problems.append("summary.json differs between workers 1 and 2")
        if not crashes and codes[0] != item["expect"]:
            problems.append(f"exit {codes[0]}, expected {item['expect']}")
            base = item.get("baseline")
            if base is not None and base["exit"] == codes[0]:
                problems.append(f"known baseline failure: {base['reason']}")
        times = ", ".join(f"{r.seconds:.3f}" for r in runs)
        status = "FAILED: " + "; ".join(problems) if problems else "ok"
        lines.append(f"verdict {item['name']}: exit {codes[0]} (expect {item['expect']}) "
                     f"[{times} s] {status}")
        if problems:
            failed.append(item["name"])
    return correct, lines, failed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _imported_cli():
    """``gouflow.cli`` after set-up, or None when it came from elsewhere."""
    import gouflow.cli

    if os.path.dirname(os.path.abspath(gouflow.cli.__file__)) != os.path.join(SRC, "gouflow"):
        print(f"imported gouflow from {gouflow.cli.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return gouflow.cli


def _timed_run(workload: dict, items: list[dict], seed: int, seconds: float, work: str):
    """End-to-end metrics from set-ups and timed passes, then the
    worker-invariance check."""
    runs = [_set_up()]
    cli = _imported_cli()
    if cli is None:
        return None
    runs += [_set_up_in_child() for _ in range(SETUP_REPEATS - 1)]
    setups = [import_s + lazy_s for import_s, lazy_s, _ in runs]
    setups_scaled = [
        _scaled(import_s + lazy_s, "python", timings) for import_s, lazy_s, timings in runs
    ]
    passes, scaled = _timed_passes(cli, items, seed, seconds, work, workload["kernel"])
    # a high-water mark: read it before the invariance check runs two threads
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    invariance = _worker_invariance(cli, workload, items, seed, work)

    # each verdict's median over the passes, summed over verdicts
    wall = sum(statistics.median(times) for times in zip(*scaled))
    measured_wall = sum(statistics.median(o.seconds for o in runs) for runs in zip(*passes))
    metrics = {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(statistics.median(setups_scaled), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    walls = [sum(o.seconds for o in outcomes) for outcomes in passes]
    report = [
        f"passes: {', '.join(f'{w:.3f}' for w in walls)} s; "
        f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s (measured)",
        f"measured wall {measured_wall:.3f} s, {wall:.3f} s at reference speed "
        f"({workload['kernel']} kernel); measured set-up {statistics.median(setups):.3f} s, "
        f"{statistics.median(setups_scaled):.3f} s at reference speed (python kernel)",
    ]
    return metrics, passes, invariance, report


def _traced_run(name: str, workload: dict, items: list[dict], seed: int, work: str):
    """Per-layer metrics from a traced pass beside an untraced one."""
    import_s, lazy_s, _ = _set_up()
    cli = _imported_cli()
    if cli is None:
        return None
    import tracing

    tracer = tracing.Tracer()
    passes = _traced_passes(cli, items, seed, work, functools.partial(tracing.installed, tracer))
    invariance = _worker_invariance(cli, workload, items, seed, work)
    tracer.dump(os.path.join(WORK_DIR, f"trace-{name}.npz"))
    metrics = tracing.layer_metrics(tracer)
    untraced, traced = (sum(o.seconds for o in outcomes) for outcomes in passes)
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    metrics["setup.import_s"] = _metric(import_s, "s")
    metrics["setup.lazy_import_s"] = _metric(lazy_s, "s")
    report = [f"untraced pass: {untraced:.3f} s; traced pass: {traced:.3f} s"]
    return metrics, passes, invariance, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gouflow", "cli.py")):
        print(f"no gouflow sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    workload, items = _load_workload(args.workload)

    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            result = _traced_run(args.workload, workload, items, args.seed, work)
        else:
            result = _timed_run(workload, items, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 2
    metrics, passes, invariance, report = result

    correct, lines, failed = _judge(items, passes, invariance)
    for line in lines:
        print(line)
    if invariance is not None:
        print(f"worker invariance ({invariance[0]}, workers 1 vs 2): "
              f"{'byte-identical' if invariance[1] else 'DIFFERENT'}")
    for line in report:
        print(line)
    computed = ()
    if args.trace:
        import tracing  # already imported by the traced run

        computed = tracing.COMPUTED
    for name, m in metrics.items():
        note = " (computed)" if name in computed else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"verdict_fail_share = {len(failed)}/{len(items)} = "
          f"{len(failed) / len(items):.4g} share")
    print(json.dumps({
        "correct": correct,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup-probe"]:
        print(json.dumps(_set_up()))
        sys.exit(0)
    sys.exit(main())
