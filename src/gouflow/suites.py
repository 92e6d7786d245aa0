"""Verification suites: each one exercises a family of identities on a
configured model and reduces to a pass/fail verdict plus plot-ready rows.
A suite is a pure function of the config and writes no file; ``cli``
writes a run's files, the stationary suite's ``SuiteResult.sample`` too."""

from __future__ import annotations

import math
import csv
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .config import ExperimentConfig
from .duality import (
    duality_grid,
    monotonicity_probe,
    ruin_probability,
    verify_ruin_identity,
)
from .gou import finite_samples, stationary_law
from .inverse_flow import verify_pathwise_identity, verify_tile_identity
from .levy import LevyModel2, dual_model
from .paths import draw_jumps, euler_paths
from .presets import get_preset
from .rng import stream
from .stats import EmpiricalDistribution, decide, ecdf, ks_two_sample, verdict

__all__ = ["SuiteResult", "run_selected", "write_csv", "SUITE_RUNNERS"]

# Inverse-flow batches are bounded in paths: the exact check takes one
# padded jump tile of 128 rows per stream.  Euler batches are bounded in
# paths x grid steps too, since the Path check makes about fifteen
# temporaries of a batch's size (4 paths per batch at horizon 2 on the
# 1e-3 grid)
_STACK_ROWS = 128
_STACK_ELEMENTS = 1 << 13


@dataclass
class SuiteResult:
    passed: bool
    metrics: dict
    rows: list = field(default_factory=list)
    columns: tuple = ()
    worst: dict | None = None  # decide()'s worst verdict row; not in summary.json
    sample: EmpiricalDistribution | None = None  # a law the CLI exports


def write_csv(path, result: SuiteResult) -> None:
    with open(path, "w", newline="") as fh:
        rows = [[row.get(c, "") for c in result.columns] for row in result.rows]
        csv.writer(fh).writerows([result.columns, *rows])


def _recommended(cfg: ExperimentConfig, key: str, default):
    if cfg.preset is not None:
        return get_preset(cfg.preset).recommended.get(key, default)
    return default


def _long_horizon(cfg: ExperimentConfig) -> float:
    if cfg.stationary_horizon is not None:
        return cfg.stationary_horizon
    return float(_recommended(cfg, "horizon", max(cfg.horizon, 20.0)))


def _finite_z(z: float) -> float:
    """A z-score for summary.json, which holds no inf: an infinite z
    (a difference with zero standard error) reads 1e18."""
    return min(z, 1e18)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def duality_suite(cfg: ExperimentConfig) -> SuiteResult:
    model = cfg.resolved_model()
    rows = duality_grid(
        model,
        cfg.t_grid,
        cfg.x_grid,
        cfg.y_grid,
        cfg.n_paths,
        cfg.seed,
        cfg.grid_dt,
        cfg.workers,
    )
    return SuiteResult(
        **decide(rows),
        metrics={
            "n_probes": len(rows),
            "n_paths": cfg.n_paths,
            "max_z": _finite_z(max((max(row["z"], row["z_sym"]) for row in rows), default=0.0)),
            "failed": sum(1 for row in rows if not row["pass"]),
        },
        rows=rows,
        columns=("t", "x", "y", "p_V", "se_V", "p_R", "se_R", "z", "z_sym", "pass"),
    )


def inverse_flow_suite(cfg: ExperimentConfig) -> SuiteResult:
    model = cfg.resolved_model()
    x = 1.0
    if model.has_gaussian:
        backend, n, dts = "euler", min(cfg.n_paths, 60), (4e-3, 2e-3, 1e-3)
        steps = math.ceil(cfg.horizon / min(dts))
        per_batch = max(1, min(_STACK_ROWS, _STACK_ELEMENTS // steps))
        check = lambda rng, size: [
            verify_pathwise_identity(batch, model, x)["max_error"]
            for batch in euler_paths(model, cfg.horizon, rng, size, dts)
        ]
    else:
        backend, n, dts = "exact", min(cfg.n_paths, 1000), ("",)
        per_batch = _STACK_ROWS
        check = lambda rng, size: [
            verify_tile_identity(
                draw_jumps(model, cfg.horizon, rng, size).pad(), cfg.horizon, model, x
            )
        ]
    # paths are drawn and checked in batches of bounded size, one stream
    # per batch; on a grid, one draw gives every grid step the same paths
    errs = [[] for _ in dts]
    for b, lo in enumerate(range(0, n, per_batch)):
        batches = check(stream(cfg.seed, "invflow", b), min(per_batch, n - lo))
        for e, max_error in zip(errs, batches):
            e.extend(max_error.tolist())
    rows = [
        {"seed": j, "t": cfg.horizon, "x": x, "max_error": err, "backend": backend, "grid_dt": dt}
        for dt, e in zip(dts, errs)
        for j, err in enumerate(e)
    ]
    top = max(rows, key=lambda row: row["max_error"])
    probe = f"path {top['seed']} (grid_dt {top['grid_dt'] or 'exact'})"
    if backend == "euler":
        medians = [float(np.median(e)) for e in errs]
        metrics = {"backend": "euler", "grid_dts": dts, "median_errors": medians}
        probe += f" max_error {top['max_error']:.3e}; median errors per grid_dt " + ", ".join(
            f"{dt:g}: {med:.3e}" for dt, med in zip(dts, medians)
        )
        steps = list(zip(medians, medians[1:]))
        row = verdict("inverse-flow-euler", probe, min(a - b for a, b in steps), *steps)
    else:
        worst = float(np.max(errs[0]))
        metrics = {"backend": "exact", "n_paths": n, "max_error": worst}
        row = verdict("inverse-flow-exact", probe, worst, (worst,))
    return SuiteResult(
        **decide([row]),
        metrics=metrics,
        rows=rows,
        columns=("seed", "t", "x", "max_error", "backend", "grid_dt"),
    )


def ruin_suite(cfg: ExperimentConfig) -> SuiteResult:
    model = cfg.resolved_model()
    common = (_long_horizon(cfg), cfg.n_paths, cfg.seed, cfg.stationary_n)
    if model.l_subordinator:
        # dual-side first passage against the forward causal tail
        rows, metrics = ruin_probability(
            model, cfg.y_grid, *common, grid_dt=cfg.grid_dt, workers=cfg.workers
        )
    else:
        rows, metrics = verify_ruin_identity(model, cfg.x_grid, *common, workers=cfg.workers)
    return SuiteResult(
        **decide(rows),
        metrics=metrics,
        rows=rows,
        columns=("probe", "lhs", "rhs", "bound", "pass"),
    )


def _gamma_q(a: float, z):
    """Regularized upper incomplete gamma Q(a, z) for a > 0 and z >= 0.

    The series for P = 1 - Q below z = a + 1 and Lentz's continued
    fraction for Q above (Press et al., Numerical Recipes, sect. 6.2).
    Each value leaves its loop once its term is below float eps.
    Q(a, 0) = 1, Q(a, inf) = 0 and NaN stays NaN.
    """
    z = np.asarray(z, dtype=float)
    out = np.where(z == 0.0, 1.0, np.where(z == np.inf, 0.0, np.nan))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny

    def prefactor(x):  # z^a e^-z / Gamma(a)
        return np.exp(a * np.log(x) - x - math.lgamma(a))

    idx = np.flatnonzero((z > 0.0) & (z < a + 1.0))
    x = z[idx]
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    n = a
    while idx.size:
        n += 1.0
        term *= x / n
        total += term
        done = np.abs(term) < np.abs(total) * eps
        out[idx[done]] = 1.0 - total[done] * prefactor(x[done])
        idx, x, term, total = (v[~done] for v in (idx, x, term, total))

    idx = np.flatnonzero((z >= a + 1.0) & (z < np.inf))
    x = z[idx]
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while idx.size:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < eps
        out[idx[done]] = h[done] * prefactor(x[done])
        idx, x, b, c, d, h = (v[~done] for v in (idx, x, b, c, d, h))
    return out


def _inverse_gamma_cdf(x, shape: float, scale: float):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = _gamma_q(shape, scale / x[pos])
    return out


def _dufresne_oracle(model: LevyModel2):
    """Closed-form stationary CDF when -log E(U) is Brownian with drift.

    With -log E(U)_s = mu s + sigma B_s and unit L-drift, the perpetuity
    int_0^inf E(U)_s ds is inverse-gamma with shape 2 mu / sigma^2 and
    scale 2 / sigma^2 (a Brownian time-change reduces it to the classical
    reciprocal-gamma identity).
    """
    if model.has_jumps or model.sigma_u_sq <= 0 or model.drift[1] != 1.0:
        return None
    if model.sigma_l_sq != 0.0 or model.sigma_ul != 0.0:
        return None
    sig2 = model.sigma_u_sq
    mu = -model.drift[0] + 0.5 * sig2
    if mu <= 0:
        return None
    shape = 2.0 * mu / sig2
    scale = 2.0 / sig2
    return lambda x: _inverse_gamma_cdf(x, shape, scale)


def _ks_row(check: str, a, b) -> dict:
    """A stationary-suite row: two-sample KS of empirical laws a and b."""
    ks = ks_two_sample(a, b)
    return {
        "check": check,
        "statistic": ks.statistic,
        "pvalue": ks.pvalue,
        **verdict("ks", check, ks.pvalue, (ks.pvalue,)),
    }


def stationary_suite(cfg: ExperimentConfig) -> SuiteResult:
    """The stationary law and the lemma E_t I_t =d C_t at t = ``horizon``,
    from three samples drawn at once: the stationary sample, whose draw
    also gives one side of the lemma at t (C_t causal, E_t I_t noncausal,
    ``mc.exp_functional_samples``' ``at``), the dual's noncausal sample
    (causal kind under condition (B)) and a short sample at t for the
    lemma's other side.  The finiteness checks run after the draws, in
    the order a draw in turn would refuse: the lemma's two sides, the
    stationary sample, the dual's.
    """
    model = cfg.resolved_model()
    horizon = _long_horizon(cfg)
    n = cfg.stationary_n or cfg.n_paths
    kind = _recommended(cfg, "stationary_kind", "causal")
    metrics = {"horizon": horizon, "n": n}
    t = cfg.horizon
    short = ("statA", ("e", "i")) if kind == "causal" else ("statB", ("c",))
    calls = [
        lambda: mc.exp_functional_samples(
            model, kind, n, horizon, cfg.seed, cfg.grid_dt, cfg.workers, at=t
        )
    ]
    dual = model.condition_b and kind == "causal"
    if dual:
        # stationarity transfer: causal law of V vs noncausal law of the dual
        calls.append(
            lambda: mc.exp_functional_samples(
                dual_model(model), "noncausal", n, horizon, cfg.seed + 1, cfg.grid_dt,
                cfg.workers, "stationary-dual",
            )
        )
    calls.append(
        lambda: mc.terminal_samples(model, t, n, cfg.seed, cfg.grid_dt, cfg.workers, *short)
    )
    (values, diags, at_t), *other, drawn = mc.run_together(*calls)
    solution, causal = (drawn, at_t) if kind == "causal" else (at_t, drawn)
    rows = [
        _ks_row(
            "solution-vs-causal-integral",
            ecdf(finite_samples(solution["e"] * solution["i"], "solution", t)),
            ecdf(finite_samples(causal["c"], "causal-integral", t)),
        )
    ]
    dist = stationary_law(values, diags, kind, horizon, cfg.seed)
    metrics["kind"] = kind
    metrics["diagnostic_fail_fraction"] = dist.metadata["diagnostic_fail_fraction"]
    metrics["flagged"] = dist.metadata["flagged"]
    if dual:
        other = stationary_law(*other[0], "noncausal", horizon, cfg.seed + 1)
        rows.append(_ks_row("causal-vs-dual-noncausal", dist, other))

    oracle = _dufresne_oracle(model) if kind == "causal" else None
    if oracle is not None:
        cdf = oracle(dist.values)
        d = float(np.max(np.abs(cdf - (np.arange(1, dist.n + 1) / dist.n))))
        d = max(d, float(np.max(np.abs(cdf - np.arange(dist.n) / dist.n))))
        rows.append(
            {
                "check": "inverse-gamma-oracle",
                "statistic": d,
                "pvalue": "",
                **verdict("oracle", "inverse-gamma-oracle", d, (d,)),
            }
        )
        metrics["oracle_ks"] = d

    return SuiteResult(
        **decide(rows),
        metrics=metrics,
        rows=rows,
        columns=("check", "statistic", "pvalue", "pass"),
        sample=dist,
    )


def monotonicity_suite(cfg: ExperimentConfig) -> SuiteResult:
    model = cfg.resolved_model()
    t = float(cfg.t_grid[min(1, len(cfg.t_grid) - 1)])
    y = 0.5
    report = monotonicity_probe(
        model, t, y, cfg.x_grid, cfg.n_paths, cfg.seed, cfg.grid_dt, cfg.workers
    )
    if model.condition_b:  # one x gives no pair: NaN, which fails
        violations = (p["violations"] for p in report["pairs"])
        rule, value = "monotone", max(violations, default=math.nan)
        wanted = "monotone as required under condition (B)"
    else:
        rule, value = "nonmonotone", report["max_z"]
        wanted = "nonmonotonicity detected as required"
    return SuiteResult(
        **decide([verdict(rule, "max over x pairs", value, (value,))]),
        metrics={
            "condition_b": model.condition_b,
            "verdict": wanted,
            "probs": report["probs"],
            "max_z": _finite_z(report["max_z"]),
            "t": t,
            "y": y,
        },
        rows=report["pairs"],
        columns=("x_lo", "x_hi", "violations", "z"),
    )


SUITE_RUNNERS = {
    "duality": duality_suite,
    "inverse-flow": inverse_flow_suite,
    "ruin": ruin_suite,
    "stationary": stationary_suite,
    "monotonicity": monotonicity_suite,
}


def run_selected(cfg: ExperimentConfig) -> dict[str, SuiteResult]:
    """The selected suites' results by name, in ``SUITE_RUNNERS`` order."""
    names = list(SUITE_RUNNERS) if cfg.suite == "all" else [cfg.suite]
    return {name: SUITE_RUNNERS[name](cfg) for name in names}
