"""Spans and counters around gouflow's public functions, installed from
outside the package.

``installed`` replaces each traced function with a wrapper wherever a
``gouflow`` module binds it (modules import names directly, so
``inverse_flow`` and ``duality`` hold their own ``solve_forward``), and
methods on their class.  Each call records a span (name, parent, start,
end) in flat in-memory arrays; the blocks that ``mc.run_blocks`` runs are
spans whose parent is captured when the block function is wrapped, so
they stay attached when a pool thread runs them.  ``layer_metrics``
derives per-layer times, self times and counts from the spans at the end.

The metrics in ``COMPUTED`` are derived from call arguments, not observed
inside the lanes, and are labelled so in the report.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

from gouflow import calculus, cli, config, duality, gou, inverse_flow, levy, mc, paths, rng
from gouflow import stats, suites

# (span name, owner, attribute); methods are patched on their class
TRACED = [
    ("cli.main", cli, "main"),
    ("config.load_config", config, "load_config"),
    ("suites.write_csv", suites, "write_csv"),
    *[(f"suites.{name}", suites, fn.__name__) for name, fn in suites.SUITE_RUNNERS.items()],
    ("mc.run_blocks", mc, "run_blocks"),
    ("mc.terminal_samples", mc, "terminal_samples"),
    ("mc.exp_functional_samples", mc, "exp_functional_samples"),
    ("mc.ruin_samples", mc, "ruin_samples"),
    ("rng.stream", rng, "stream"),
    ("levy.jump_sample", levy.JumpLaw2, "sample"),
    ("paths.sample_path", paths, "sample_path"),
    ("paths.eta_path", paths, "eta_path"),
    ("paths.reverse_path", paths, "reverse_path"),
    ("paths.t_path", paths, "t_path"),
    ("paths.w_path", paths, "w_path"),
    ("paths.xi_path", paths, "xi_path"),
    ("inverse_flow.eta_tilde_path", inverse_flow, "eta_tilde_path"),
    ("duality.dual_path", duality, "dual_path"),
    ("calculus.exponential_with_integral", calculus, "exponential_with_integral"),
    ("calculus.at", calculus.AlignedSeries, "at"),
    ("gou.solve_forward", gou, "solve_forward"),
    ("gou.causal_integral", gou, "causal_integral"),
    ("gou.stationary_sampler", gou, "stationary_sampler"),
    ("inverse_flow.verify", inverse_flow, "verify_pathwise_identity"),
    ("duality.duality_grid", duality, "duality_grid"),
    ("duality.verify_ruin_identity", duality, "verify_ruin_identity"),
    ("duality.ruin_probability", duality, "ruin_probability"),
    ("duality.monotonicity_probe", duality, "monotonicity_probe"),
    ("stats.empirical", stats.EmpiricalDistribution, "__post_init__"),
    ("stats.export", stats.EmpiricalDistribution, "export"),
    ("stats.ks_two_sample", stats, "ks_two_sample"),
    ("stats.binomial_ci", stats, "binomial_ci"),
]

DERIVED_PATHS = (
    "paths.eta_path",
    "paths.reverse_path",
    "paths.t_path",
    "paths.w_path",
    "paths.xi_path",
    "inverse_flow.eta_tilde_path",
    "duality.dual_path",
)

NORMAL_PROBE_SIZE = 4096  # one diffusion-lane block draws this many per step
NORMAL_PROBE_DRAWS = 256
NORMAL_PROBE_REPEATS = 5

# derived from call arguments (n * ceil(T/dt)), not observed inside the lanes
COMPUTED = {
    "mc.diffusion.path_steps",
    "mc.diffusion.path_steps_per_s",
    "mc.diffusion.normals",
    "mc.diffusion.normal_share",
    "mc.event.path_steps",
    "mc.event.path_steps_per_s",
}


def _unit(name: str) -> str:
    """Metric units follow the name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_share"):
        return "share"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class Tracer:
    """Flat span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.normal_ns = math.nan
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        with self._lock:
            sid = len(self.t0)
            self.parent.append(parent)
            self.name.append(nid)
            self.t1.append(math.nan)
            self.t0.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        self.t1[sid] = t1 = time.perf_counter()
        self._stack().pop()
        return t1 - self.t0[sid]

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return self.names[self.name[stack[-1]]] if stack else None

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self, path: str) -> None:
        """Write every span and counter (one compressed npz file)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
            counter_names=np.array(list(self.counts)),
            counter_values=np.array(list(self.counts.values()), dtype=float),
        )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _lane(model) -> str:
    """The mc lane ``terminal_samples`` dispatches this model to."""
    if not model.has_gaussian:
        return "jump"
    return "event" if model.has_jumps else "diffusion"


def _span_wrapper(tracer: Tracer, name: str, fn, after=None):
    """Record a span per call; ``after(args, kwargs, result, seconds)`` counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = tracer.close(sid)
        if after is not None:
            after(args, kwargs, result, seconds)
        return result

    return traced


def _after_hooks(tracer: Tracer, originals: dict) -> dict:
    def bound(name, args, kwargs):
        b = inspect.signature(originals[name]).bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    def terminal_samples(args, kwargs, result, seconds):
        a = bound("mc.terminal_samples", args, kwargs)
        model, n = a["model"], a["n"]
        lane = _lane(model)
        tracer.count(f"mc.{lane}.s", seconds)
        tracer.count(f"mc.{lane}.paths", n)
        if lane != "jump":
            steps = n * max(1, math.ceil(a["horizon"] / a["grid_dt"]))
            tracer.count(f"mc.{lane}.path_steps", steps)
            if lane == "diffusion":
                u_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
                tracer.count("mc.diffusion.normals", steps * (1 if u_only else 2))

    def ruin_samples(args, kwargs, result, seconds):
        a = bound("mc.ruin_samples", args, kwargs)
        tracer.count("mc.ruin_samples.s", seconds)
        tracer.count("mc.jump.s", seconds)
        tracer.count("mc.jump.paths", a["n"])

    def jump_sample(args, kwargs, result, seconds):
        if tracer.current() == "levy.jump_sample":
            return  # a dual law samples through its base law
        tracer.count("levy.jump_sample.draws", args[2] if len(args) > 2 else kwargs["size"])

    def sample_path(args, kwargs, result, seconds):
        tracer.count("paths.sample_path.events", len(result.events))

    def verify(args, kwargs, result, seconds):
        tracer.count("inverse_flow.verify.events", result["n_points"])

    def empirical(args, kwargs, result, seconds):
        tracer.count("stats.empirical.values", args[0].values.size)

    def export(args, kwargs, result, seconds):
        a = bound("stats.export", args, kwargs)
        for p in (a["csv_path"], a["sidecar_path"]):
            if p is not None:
                tracer.count("stats.export.bytes", os.path.getsize(p))

    def suite(args, kwargs, result, seconds):
        if not result.passed:
            tracer.count("suites.failed", 1)

    hooks = {
        "mc.terminal_samples": terminal_samples,
        "mc.ruin_samples": ruin_samples,
        "levy.jump_sample": jump_sample,
        "paths.sample_path": sample_path,
        "inverse_flow.verify": verify,
        "stats.empirical": empirical,
        "stats.export": export,
    }
    hooks.update({f"suites.{name}": suite for name in suites.SUITE_RUNNERS})
    return hooks


def _run_blocks_wrapper(tracer: Tracer, fn):
    """Span around run_blocks, one child span per block, non-finite count."""

    @functools.wraps(fn)
    def traced(n, block_fn, *args, **kwargs):
        sid = tracer.open("mc.run_blocks")

        def block(rng_, size):
            bid = tracer.open("mc.block", parent=sid)
            try:
                return block_fn(rng_, size)
            finally:
                tracer.close(bid)

        try:
            result = fn(n, block, *args, **kwargs)
        finally:
            tracer.close(sid)
        bad = sum(
            int(np.count_nonzero(~np.isfinite(v)))
            for v in result.values()
            if v.dtype.kind == "f"
        )
        tracer.count("mc.nonfinite", bad)
        return result

    return traced


def _suite_wrapper(tracer: Tracer, traced_fn):
    """Count refusals (ConditionError) raised out of a suite."""

    @functools.wraps(traced_fn)
    def traced(*args, **kwargs):
        try:
            return traced_fn(*args, **kwargs)
        except levy.ConditionError:
            tracer.count("suites.refused", 1)
            raise

    return traced


def _rebind(original, replacement) -> None:
    """Replace ``original`` wherever a gouflow module or suite table binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gouflow" and not mod_name.startswith("gouflow."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
    for key, value in suites.SUITE_RUNNERS.items():
        if value is original:
            suites.SUITE_RUNNERS[key] = replacement


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every function in ``TRACED`` for the duration of the block."""
    originals = {name: getattr(owner, attr) for name, owner, attr in TRACED}
    hooks = _after_hooks(tracer, originals)
    undo = []
    for name, owner, attr in TRACED:
        fn = originals[name]
        if name == "mc.run_blocks":
            wrapper = _run_blocks_wrapper(tracer, fn)
        else:
            wrapper = _span_wrapper(tracer, name, fn, hooks.get(name))
        if name.startswith("suites.") and name != "suites.write_csv":
            wrapper = _suite_wrapper(tracer, wrapper)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            undo.append(lambda owner=owner, attr=attr, fn=fn: setattr(owner, attr, fn))
        else:
            _rebind(fn, wrapper)
            undo.append(lambda fn=fn, wrapper=wrapper: _rebind(wrapper, fn))
    if math.isnan(tracer.normal_ns):
        tracer.normal_ns = _normal_ns(originals["rng.stream"])
    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def _normal_ns(stream) -> float:
    """Median ns per standard normal over fixed-count Philox draws."""
    gen = stream(0, "normal-probe", 0)
    per_normal = []
    for _ in range(NORMAL_PROBE_REPEATS):
        t0 = time.perf_counter()
        for _ in range(NORMAL_PROBE_DRAWS):
            gen.standard_normal(NORMAL_PROBE_SIZE)
        elapsed = time.perf_counter() - t0
        per_normal.append(elapsed / (NORMAL_PROBE_DRAWS * NORMAL_PROBE_SIZE) * 1e9)
    return float(np.median(per_normal))


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------


def _self_times(tracer: Tracer, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the part of it that child spans cover."""
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    t0 = np.frombuffer(tracer.t0)
    t1 = np.frombuffer(tracer.t1)
    covered = np.zeros(dur.size)
    children = defaultdict(list)
    for sid in np.flatnonzero(parent >= 0):
        children[int(parent[sid])].append(int(sid))
    for pid, kids in children.items():
        # children on one thread never overlap; pool threads may, so merge
        spans = sorted((t0[k], t1[k]) for k in kids)
        total, end = 0.0, -math.inf
        for a, b in spans:
            if b <= end:
                continue
            total += b - max(a, end)
            end = b
        covered[pid] = total
    return dur - covered


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans and counters, as {name: {value, unit}}."""
    names = np.array(tracer.names)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.t1) - np.frombuffer(tracer.t0)
    self_s = _self_times(tracer, dur)
    span_name = names[name]

    parent_name = np.where(parent >= 0, span_name[np.maximum(parent, 0)], "<none>")

    def mask(n):
        return span_name == n

    def total(n):
        # outermost spans only: a dual jump law samples through its base law
        return float(dur[mask(n) & (parent_name != n)].sum())

    def calls(n):
        return int(np.count_nonzero(mask(n)))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    c = tracer.counts
    derived = np.isin(span_name, DERIVED_PATHS)
    parent_derived = np.isin(parent_name, DERIVED_PATHS)

    values = {
        "mc.jump.s": c["mc.jump.s"],
        "mc.jump.paths": c["mc.jump.paths"],
        "mc.jump.paths_per_s": rate(c["mc.jump.paths"], c["mc.jump.s"]),
        "mc.ruin_samples.s": c["mc.ruin_samples.s"],
        "mc.diffusion.s": c["mc.diffusion.s"],
        "mc.diffusion.path_steps": c["mc.diffusion.path_steps"],
        "mc.diffusion.path_steps_per_s": rate(c["mc.diffusion.path_steps"], c["mc.diffusion.s"]),
        "mc.diffusion.normals": c["mc.diffusion.normals"],
        "mc.diffusion.normal_share": rate(
            c["mc.diffusion.normals"] * tracer.normal_ns * 1e-9, c["mc.diffusion.s"]
        ),
        "mc.event.s": c["mc.event.s"],
        "mc.event.paths": c["mc.event.paths"],
        "mc.event.path_steps": c["mc.event.path_steps"],
        "mc.event.path_steps_per_s": rate(c["mc.event.path_steps"], c["mc.event.s"]),
        "mc.run_blocks.blocks": calls("mc.block"),
        "mc.run_blocks.busy_s": total("mc.block"),
        "mc.nonfinite": c["mc.nonfinite"],
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.s": total("rng.stream"),
        "rng.normal_ns": tracer.normal_ns,
        "levy.jump_sample.s": total("levy.jump_sample"),
        "levy.jump_sample.draws": c["levy.jump_sample.draws"],
        "paths.sample_path.calls": calls("paths.sample_path"),
        "paths.sample_path.events": c["paths.sample_path.events"],
        "paths.sample_path.s": total("paths.sample_path"),
        "paths.derived.s": float(dur[derived & ~parent_derived].sum()),
        "calculus.exponential_with_integral.calls": calls("calculus.exponential_with_integral"),
        "calculus.exponential_with_integral.s": total("calculus.exponential_with_integral"),
        "calculus.at.calls": calls("calculus.at"),
        "calculus.at.s": total("calculus.at"),
        "gou.solve_forward.calls": calls("gou.solve_forward"),
        "gou.solve_forward.self_s": float(self_s[mask("gou.solve_forward")].sum()),
        "gou.causal_integral.s": total("gou.causal_integral"),
        "gou.stationary_sampler.s": total("gou.stationary_sampler"),
        "inverse_flow.verify.calls": calls("inverse_flow.verify"),
        "inverse_flow.verify.events": c["inverse_flow.verify.events"],
        "inverse_flow.verify.s": total("inverse_flow.verify"),
        "inverse_flow.verify.self_s": float(self_s[mask("inverse_flow.verify")].sum()),
        "inverse_flow.verify.events_per_s": rate(
            c["inverse_flow.verify.events"], total("inverse_flow.verify")
        ),
        "duality.duality_grid.self_s": float(self_s[mask("duality.duality_grid")].sum()),
        "duality.verify_ruin_identity.self_s": float(
            self_s[mask("duality.verify_ruin_identity")].sum()
        ),
        "duality.ruin_probability.s": total("duality.ruin_probability"),
        "duality.monotonicity_probe.s": total("duality.monotonicity_probe"),
        "stats.empirical.s": total("stats.empirical"),
        "stats.empirical.values": c["stats.empirical.values"],
        "stats.ks_two_sample.s": total("stats.ks_two_sample"),
        "stats.export.s": total("stats.export"),
        "stats.export.bytes": c["stats.export.bytes"],
        "stats.binomial_ci.s": total("stats.binomial_ci"),
        **{f"suites.{n}.s": total(f"suites.{n}") for n in suites.SUITE_RUNNERS},
        "suites.refused": c["suites.refused"],
        "suites.failed": c["suites.failed"],
        "suites.write_csv.s": total("suites.write_csv"),
        "config.load_config.s": total("config.load_config"),
        "cli.main.self_s": float(self_s[mask("cli.main")].sum()),
        "trace.spans": int(dur.size),
    }
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
