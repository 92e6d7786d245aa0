"""Verification suites: each one exercises a family of identities on a
configured model and reduces to a pass/fail verdict plus plot-ready rows."""

from __future__ import annotations

import math
import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

from . import mc
from .config import ExperimentConfig
from .duality import (
    duality_grid,
    monotonicity_probe,
    ruin_probability,
    verify_ruin_identity,
)
from .gou import finite_samples, stationary_sampler
from .inverse_flow import verify_pathwise_identity
from .levy import ConditionError, LevyModel2, dual_model
from .paths import exact_paths, sample_path
from .presets import get_preset
from .rng import stream
from .stats import ecdf, ks_two_sample

__all__ = ["SuiteResult", "run_suite", "run_selected", "write_csv", "SUITE_RUNNERS"]

_STACK_ROWS = 128  # paths per stacked inverse-flow batch; bounds its memory


@dataclass
class SuiteResult:
    name: str
    passed: bool
    metrics: dict
    rows: list = field(default_factory=list)
    columns: tuple = ()
    detail: str = ""  # printed on stderr when the suite fails; not in summary.json

    @property
    def csv_name(self) -> str:
        return f"{self.name}.csv"


def write_csv(path, result: SuiteResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(result.columns))
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)


def _recommended(cfg: ExperimentConfig, key: str, default):
    if cfg.preset is not None:
        return get_preset(cfg.preset).recommended.get(key, default)
    return default


def _long_horizon(cfg: ExperimentConfig) -> float:
    if cfg.stationary_horizon is not None:
        return cfg.stationary_horizon
    return float(_recommended(cfg, "horizon", max(cfg.horizon, 20.0)))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def duality_suite(cfg: ExperimentConfig) -> SuiteResult:
    model = cfg.resolved_model()
    probes = duality_grid(
        model,
        cfg.t_grid,
        cfg.x_grid,
        cfg.y_grid,
        cfg.n_paths,
        cfg.seed,
        cfg.grid_dt,
        cfg.workers,
    )
    rows = [
        {
            "t": p.t,
            "x": p.x,
            "y": p.y,
            "p_V": p.p_v,
            "se_V": p.se_v,
            "p_R": p.p_r,
            "se_R": p.se_r,
            "z": p.z,
            "pass": p.passed,
        }
        for p in probes
    ]
    passed = all(p.passed and p.passed_sym for p in probes)
    finite = [p.z for p in probes if math.isfinite(p.z)]
    return SuiteResult(
        name="duality",
        passed=passed,
        metrics={
            "n_probes": len(probes),
            "n_paths": cfg.n_paths,
            "max_z": max(finite) if finite else 0.0,
            "failed": sum(1 for p in probes if not (p.passed and p.passed_sym)),
        },
        rows=rows,
        columns=("t", "x", "y", "p_V", "se_V", "p_R", "se_R", "z", "pass"),
    )


def inverse_flow_suite(cfg: ExperimentConfig) -> SuiteResult:
    model = cfg.resolved_model()
    x = 1.0
    rows = []
    if model.has_gaussian:
        n = min(cfg.n_paths, 60)
        dts = (4e-3, 2e-3, 1e-3)
        medians = []
        for dt in dts:
            errs = []
            for j in range(n):
                path = sample_path(
                    model, cfg.horizon, stream(cfg.seed, f"invflow:{dt}", j), dt
                )
                rep = verify_pathwise_identity(path, model, x)
                errs.append(rep["max_error"])
                rows.append(
                    {
                        "seed": j,
                        "t": cfg.horizon,
                        "x": x,
                        "max_error": rep["max_error"],
                        "backend": "euler",
                        "grid_dt": dt,
                    }
                )
            medians.append(float(np.median(errs)))
        passed = all(b < a for a, b in zip(medians, medians[1:]))
        metrics = {"backend": "euler", "grid_dts": dts, "median_errors": medians}
        detail = "median errors per grid_dt " + ", ".join(
            f"{dt:g}: {med:.3e}" for dt, med in zip(dts, medians)
        )
    else:
        n = min(cfg.n_paths, 1000)
        # exact paths are drawn and checked in batches of bounded size,
        # one stream per batch
        errs = []
        for b, lo in enumerate(range(0, n, _STACK_ROWS)):
            rng = stream(cfg.seed, "invflow", b)
            batch = exact_paths(model, cfg.horizon, rng, min(_STACK_ROWS, n - lo))
            errs.extend(verify_pathwise_identity(batch, model, x)["max_error"].tolist())
        for j, err in enumerate(errs):
            rows.append(
                {
                    "seed": j,
                    "t": cfg.horizon,
                    "x": x,
                    "max_error": err,
                    "backend": "exact",
                    "grid_dt": "",
                }
            )
        worst = float(np.max(errs))
        passed = worst <= 1e-9
        metrics = {"backend": "exact", "n_paths": n, "max_error": worst}
        detail = "gate max_error <= 1e-9"
    top = max(rows, key=lambda row: row["max_error"])
    detail = (
        f"inverse-flow: worst path {top['seed']} (grid_dt {top['grid_dt'] or 'exact'}) "
        f"max_error {top['max_error']:.3e}; {detail}"
    )
    return SuiteResult(
        name="inverse-flow",
        passed=passed,
        metrics=metrics,
        rows=rows,
        columns=("seed", "t", "x", "max_error", "backend", "grid_dt"),
        detail=detail,
    )


def ruin_suite(cfg: ExperimentConfig) -> SuiteResult:
    model = cfg.resolved_model()
    if not model.condition_b:
        raise ConditionError(
            "ruin suite needs condition (B): first-passage bookkeeping and "
            "the dual identities assume all jumps dU > -1"
        )
    horizon = _long_horizon(cfg)
    rows = []
    if model.l_subordinator:
        # compare dual-side first passage with the forward stationary tail
        dual = dual_model(model)
        levels = [y for y in cfg.y_grid if y > 0] or [0.5, 1.0, 2.0]
        passed = True
        for y in levels:
            res = ruin_probability(
                dual,
                y,
                horizon,
                cfg.n_paths,
                cfg.seed,
                grid_dt=cfg.grid_dt,
                workers=cfg.workers,
                stationary_horizon=horizon,
                stationary_n=cfg.stationary_n or cfg.n_paths,
            )
            se_hit = math.sqrt(res.hit_prob * (1 - res.hit_prob) / res.n)
            comp = res.companion_tail
            se_comp = math.sqrt(comp * (1 - comp) / (cfg.stationary_n or cfg.n_paths))
            bound = 3.0 * math.sqrt(se_hit**2 + se_comp**2) + 0.005
            ok = abs(res.hit_prob - comp) <= bound
            passed = passed and ok
            rows.append(
                {
                    "probe": y,
                    "lhs": res.hit_prob,
                    "rhs": comp,
                    "bound": bound,
                    "pass": ok,
                }
            )
        metrics = {"mode": "subordinator", "horizon": horizon, "n_paths": cfg.n_paths}
    else:
        xs = [x for x in cfg.x_grid if x > 0] or [0.5, 1.0]
        report = verify_ruin_identity(
            model,
            xs,
            horizon,
            cfg.n_paths,
            cfg.seed,
            stationary_horizon=horizon,
            stationary_n=cfg.stationary_n or 10_000,
            workers=cfg.workers,
        )
        passed = report["pass"]
        for p in report["probes"]:
            rows.append(
                {
                    "probe": p["x"],
                    "lhs": p["lhs"],
                    "rhs": p["rhs"],
                    "bound": "",
                    "pass": p["pass"],
                }
            )
        metrics = {
            "mode": "first-passage-identity",
            "horizon": horizon,
            "n_paths": cfg.n_paths,
            "h_diagnostic_fail": report["diagnostic_fail_fraction"],
        }
    return SuiteResult(
        name="ruin",
        passed=passed,
        metrics=metrics,
        rows=rows,
        columns=("probe", "lhs", "rhs", "bound", "pass"),
    )


def _inverse_gamma_cdf(x, shape: float, scale: float):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = gammaincc(shape, scale / x[pos])
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


def stationary_suite(cfg: ExperimentConfig, out_dir=None) -> SuiteResult:
    model = cfg.resolved_model()
    horizon = _long_horizon(cfg)
    n = cfg.stationary_n or cfg.n_paths
    metrics = {"horizon": horizon, "n": n}
    rows = []
    passed = True

    # Lemma-style distributional identity: E_t (x=0 solution) vs the
    # causal integral at the same t, independent samples.
    t = cfg.horizon
    a = mc.terminal_samples(model, t, n, cfg.seed, cfg.grid_dt, cfg.workers, "statA")
    b = mc.terminal_samples(model, t, n, cfg.seed, cfg.grid_dt, cfg.workers, "statB")
    ks_ident = ks_two_sample(
        ecdf(finite_samples(a["e"] * a["i"], "solution", t)),
        ecdf(finite_samples(b["c"], "causal-integral", t)),
    )
    rows.append(
        {
            "check": "solution-vs-causal-integral",
            "statistic": ks_ident.statistic,
            "pvalue": ks_ident.pvalue,
            "pass": not ks_ident.rejects(),
        }
    )
    passed = passed and not ks_ident.rejects()

    kind = _recommended(cfg, "stationary_kind", "causal")
    dist = stationary_sampler(
        model, kind, n, horizon, cfg.seed, grid_dt=cfg.grid_dt, workers=cfg.workers
    )
    metrics["kind"] = kind
    metrics["diagnostic_fail_fraction"] = dist.metadata["diagnostic_fail_fraction"]
    metrics["flagged"] = dist.metadata["flagged"]

    if model.condition_b and kind == "causal":
        # stationarity transfer: causal law of V vs noncausal law of the dual
        other = stationary_sampler(
            dual_model(model),
            "noncausal",
            n,
            horizon,
            cfg.seed + 1,
            grid_dt=cfg.grid_dt,
            workers=cfg.workers,
            label="stationary-dual",
        )
        ks_trans = ks_two_sample(dist, other)
        rows.append(
            {
                "check": "causal-vs-dual-noncausal",
                "statistic": ks_trans.statistic,
                "pvalue": ks_trans.pvalue,
                "pass": not ks_trans.rejects(),
            }
        )
        passed = passed and not ks_trans.rejects()

    oracle = _dufresne_oracle(model) if kind == "causal" else None
    if oracle is not None:
        d = float(np.max(np.abs(oracle(dist.values) - (np.arange(1, dist.n + 1) / dist.n))))
        d = max(d, float(np.max(np.abs(oracle(dist.values) - np.arange(dist.n) / dist.n))))
        rows.append(
            {
                "check": "inverse-gamma-oracle",
                "statistic": d,
                "pvalue": "",
                "pass": d <= 0.02,
            }
        )
        metrics["oracle_ks"] = d
        passed = passed and d <= 0.02

    if out_dir is not None:
        import os

        dist.export(
            os.path.join(out_dir, "stationary_sample.csv"),
            os.path.join(out_dir, "stationary_sample.json"),
        )
    return SuiteResult(
        name="stationary",
        passed=passed,
        metrics=metrics,
        rows=rows,
        columns=("check", "statistic", "pvalue", "pass"),
    )


def monotonicity_suite(cfg: ExperimentConfig) -> SuiteResult:
    model = cfg.resolved_model()
    t = float(_recommended(cfg, "probe_t", cfg.t_grid[min(1, len(cfg.t_grid) - 1)]))
    y = float(_recommended(cfg, "probe_y", 0.5))
    xs = _recommended(cfg, "probe_xs", cfg.x_grid)
    report = monotonicity_probe(
        model, t, y, xs, cfg.n_paths, cfg.seed, cfg.grid_dt, cfg.workers
    )
    if model.condition_b:
        passed = report["monotone"]
        verdict = "monotone as required under condition (B)"
    else:
        passed = report["max_z"] > 4.0
        verdict = "nonmonotonicity detected as required"
    rows = [
        {
            "x_lo": p["x_lo"],
            "x_hi": p["x_hi"],
            "violations": p["violations"],
            "z": p["z"],
        }
        for p in report["pairs"]
    ]
    return SuiteResult(
        name="monotonicity",
        passed=passed,
        metrics={
            "condition_b": model.condition_b,
            "verdict": verdict,
            "probs": report["probs"],
            "max_z": report["max_z"] if math.isfinite(report["max_z"]) else 1e18,
            "t": t,
            "y": y,
        },
        rows=rows,
        columns=("x_lo", "x_hi", "violations", "z"),
    )


SUITE_RUNNERS = {
    "duality": duality_suite,
    "inverse-flow": inverse_flow_suite,
    "ruin": ruin_suite,
    "stationary": stationary_suite,
    "monotonicity": monotonicity_suite,
}


def run_suite(name: str, cfg: ExperimentConfig, out_dir=None) -> SuiteResult:
    runner = SUITE_RUNNERS[name]
    if name == "stationary":
        return runner(cfg, out_dir=out_dir)
    return runner(cfg)


def run_selected(cfg: ExperimentConfig, out_dir=None) -> list[SuiteResult]:
    names = list(SUITE_RUNNERS) if cfg.suite == "all" else [cfg.suite]
    return [run_suite(name, cfg, out_dir) for name in names]
