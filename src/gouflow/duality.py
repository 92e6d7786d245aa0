"""Siegmund duals of GOU processes, hitting times and ruin identities.

The dual of the process driven by (U, L) is the GOU process driven by
(W, K), where W drives the reciprocal stochastic exponential and K is
the negated integrator process.  Both a pathwise construction (transform
the (U, L) path) and a distributional one (transform the model and
sample fresh paths) are provided; verification suites use the latter so
that the two sides of each identity come from independent randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .calculus import AlignedSeries
from .gou import GouTrajectory, causal_integral, solve_forward, stationary_sampler
from .levy import ConditionError, LevyModel2, detect_degeneracy, dual_model
from .paths import Path, _replace, sample_path
from .rng import stream
from .stats import binomial_ci, ecdf

__all__ = [
    "DualPair",
    "make_dual_pair",
    "dual_path",
    "dual_solve",
    "killed_dual",
    "HittingRecord",
    "HittingResult",
    "hitting_time",
    "ruin_probability",
    "verify_ruin_identity",
    "monotonicity_probe",
    "DualityProbe",
    "duality_grid",
]


# ---------------------------------------------------------------------------
# the dual pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualPair:
    """Forward driving law, its Siegmund-dual law, and the hypothesis flags
    the corollaries need."""

    forward: LevyModel2
    dual: LevyModel2
    l_subordinator: bool
    neg_l_subordinator: bool
    degenerate_k: float | None


def make_dual_pair(model: LevyModel2) -> DualPair:
    return DualPair(
        forward=model,
        dual=dual_model(model),
        l_subordinator=model.l_subordinator,
        neg_l_subordinator=model.neg_l_subordinator,
        degenerate_k=detect_degeneracy(model),
    )


def dual_path(path: Path, model: LevyModel2) -> Path:
    """Pathwise (W, K) from a realized (U, L) path.

    Jumps (dU, dL) -> (-dU/(1+dU), -dL/(1+dU)); continuous parts
    dW = -dU + sigma_U^2 dt and dK = -dL + sigma_UL dt.  The Gaussian
    covariance is unchanged (W and K negate the Brownian parts).
    """
    j = path.is_jump
    if (path.du[j] <= -1.0).any():
        raise ConditionError("dual path requires all jumps dU > -1")
    dt = path.dt
    dw = -path.du + model.sigma_u_sq * dt
    dk = -path.dl + model.sigma_ul * dt
    dw[j] = -path.du[j] / (1.0 + path.du[j])
    dk[j] = -path.dl[j] / (1.0 + path.du[j])
    return _replace(path, du=dw, dl=dk, cov=model.gaussian_cov, label="W,K")


def dual_solve(
    path: Path, model: LevyModel2, y: float, check_tol: float = 1e-10
) -> GouTrajectory:
    """Solve dR = R_- dW + dK along the dual of the given (U, L) path.

    Route one transforms the path and model and runs the forward solver;
    route two uses R_t = (y - int E(U)_{s-} dL_s) / E(U)_t, which needs
    only forward-path quantities.  On the exact backend the two must
    agree to ``check_tol``; with a Gaussian part both routes share the
    same discretization so they still agree to float precision.
    """
    if not model.condition_b:
        raise ConditionError("dual process does not exist: jumps dU <= -1 possible")
    pair = make_dual_pair(model)
    traj = solve_forward(dual_path(path, model), pair.dual, y)
    fwd = solve_forward(path, model, 0.0)
    c = causal_integral(path, model)
    direct_vals = (y - c.values) / fwd.exponential.values
    direct_lefts = (y - c.lefts) / fwd.exponential.lefts
    err = np.max(
        np.abs(traj.values.values - direct_vals)
        / (1.0 + np.maximum(np.abs(traj.values.values), np.abs(direct_vals)))
    )
    err = max(
        err,
        float(
            np.max(
                np.abs(traj.values.lefts - direct_lefts)
                / (1.0 + np.maximum(np.abs(traj.values.lefts), np.abs(direct_lefts)))
            )
        ),
    )
    if err > check_tol:
        raise ArithmeticError(
            f"dual solve routes disagree (max relative error {err:.3e})"
        )
    return traj


def killed_dual(traj_r: GouTrajectory, pair: DualPair) -> AlignedSeries:
    """The half-line dual: R clipped at zero.

    Requires the forward L to be a subordinator and a nonnegative start;
    then killing at the first passage below 0 and clipping coincide,
    which is asserted here at every event boundary.
    """
    if not pair.l_subordinator:
        raise ConditionError(
            "half-line dual requires the forward L to be a subordinator"
        )
    if not pair.forward.condition_b:
        raise ConditionError("half-line dual requires all jumps dU > -1")
    if traj_r.x < 0:
        raise ValueError("half-line dual needs a nonnegative starting level")
    vals = traj_r.values.values
    lefts = traj_r.values.lefts
    clipped = AlignedSeries(
        traj_r.values.times, np.maximum(lefts, 0.0), np.maximum(vals, 0.0)
    )
    # killed version: zero from the first boundary where R <= 0 onwards
    below = vals <= 0.0
    if below.any():
        k = int(np.argmax(below))
        killed = vals.copy()
        killed[k:] = np.where(vals[k:] > 0.0, 0.0, np.maximum(vals[k:], 0.0))
        # once R hits (-inf, 0] it stays there when L is a subordinator,
        # so killed and clipped must agree everywhere
        if not np.allclose(killed, clipped.values, atol=1e-12):
            raise ArithmeticError("killed and clipped dual trajectories differ")
    return clipped


# ---------------------------------------------------------------------------
# hitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HittingRecord:
    hit: bool
    time: float
    value: float  # V at the hitting time (the overshoot when jumping past)


@dataclass(frozen=True)
class HittingResult:
    horizon: float
    x: float
    n: int
    hits: int
    hit_prob: float
    ci: tuple[float, float]
    companion_tail: float | None = None
    companion_ci: tuple[float, float] | None = None
    discrepancy: float | None = None
    warnings: tuple[str, ...] = ()


def _segment_crossing(v0: float, du: float, dl: float, level: float) -> float | None:
    """Fraction theta in (0, 1] where the within-segment solution
    v(theta) = (v0 + c/a) e^{a theta} - c/a first reaches ``level``.

    du, dl are the segment's total driver/integrator increments; the
    within-gap solution is monotone, so at most one crossing exists.
    """
    a, c = du, dl
    if a == 0.0:
        if c == 0.0:
            return None
        theta = (level - v0) / c
    else:
        r = c / a
        denom = v0 + r
        if denom == 0.0:
            return None
        ratio = (level + r) / denom
        if ratio <= 0.0:
            return None
        theta = math.log(ratio) / a
    if 0.0 < theta <= 1.0 + 1e-12:
        return min(theta, 1.0)
    return None


def hitting_time(traj: GouTrajectory, level: float = 0.0) -> HittingRecord:
    """First time V_s <= level along one trajectory.

    Jump passages are read off the event boundaries; on the exact backend
    a continuous crossing inside a drift segment is located in closed
    form, on the euler backend the first grid boundary at or below the
    level is reported.
    """
    vals = traj.values.values
    if vals[0] <= level:
        return HittingRecord(True, 0.0, float(vals[0]))
    below = np.flatnonzero(vals[1:] <= level)
    if below.size == 0:
        return HittingRecord(False, math.nan, math.nan)
    k = int(below[0]) + 1  # first boundary at or below the level
    times = traj.values.times
    path = traj.path
    if not path.is_jump[k - 1] and traj.backend == "exact":
        du, dl = float(path.du[k - 1]), float(path.dl[k - 1])
        theta = _segment_crossing(float(vals[k - 1]), du, dl, level)
        if theta is None:
            theta = 1.0  # endpoint crossing despite roundoff
        dt = times[k] - times[k - 1]
        return HittingRecord(True, float(times[k - 1] + theta * dt), level)
    return HittingRecord(True, float(times[k]), float(vals[k]))


def ruin_probability(
    model: LevyModel2,
    x: float,
    horizon: float,
    n: int,
    seed: int,
    grid_dt: float = 1e-3,
    workers: int = 1,
    stationary_horizon: float | None = None,
    stationary_n: int | None = None,
) -> HittingResult:
    """MC estimate of P(first passage of V^x below 0 happens by T).

    The companion number is the duality prediction for the T -> infinity
    limit: the causal stationary tail of the Siegmund-dual model at x.
    Warnings record every hypothesis that had to be assumed rather than
    checked.
    """
    warnings = []
    if model.condition_b:
        res = mc.terminal_samples(model, horizon, n, seed, grid_dt, workers, "ruin")
        hits = int(np.count_nonzero(x + res["i_min"] <= 0.0))
    else:
        warnings.append(
            "condition (B) fails: per-path scan instead of vectorized barrier check"
        )
        hits = 0
        for j in range(n):
            path = sample_path(model, horizon, stream(seed, "ruin-path", j), grid_dt)
            if hitting_time(solve_forward(path, model, x)).hit:
                hits += 1
    lo, hi = binomial_ci(hits, n)

    companion = companion_ci = discrepancy = None
    if model.condition_b:
        fwd = dual_model(model)  # the process this one is dual to
        if not fwd.l_subordinator:
            warnings.append(
                "companion tail assumes the dual-side L is a subordinator; flag is off"
            )
        dist = stationary_sampler(
            fwd,
            "causal",
            stationary_n or max(n // 10, 1000),
            stationary_horizon or horizon,
            seed + 1,
            grid_dt=grid_dt,
            workers=workers,
            label="ruin-companion",
        )
        if dist.metadata.get("flagged"):
            warnings.append(
                "stationary truncation diagnostic failed on >5% of companion paths"
            )
        companion = float(dist.sf(x))
        k = int(round(companion * dist.n))
        companion_ci = binomial_ci(k, dist.n)
        discrepancy = abs(hits / n - companion)
    else:
        warnings.append("no companion: dual model does not exist under (B) failure")

    return HittingResult(
        horizon=horizon,
        x=x,
        n=n,
        hits=hits,
        hit_prob=hits / n,
        ci=(lo, hi),
        companion_tail=companion,
        companion_ci=companion_ci,
        discrepancy=discrepancy,
        warnings=tuple(warnings),
    )


def verify_ruin_identity(
    model: LevyModel2,
    xs,
    horizon: float,
    n: int,
    seed: int,
    stationary_horizon: float | None = None,
    stationary_n: int = 10_000,
    n_boot: int = 200,
    workers: int = 1,
) -> dict:
    """Check P(tau(x) < inf) E[H(-V_tau) | tau < inf] = H(-x).

    H is the distribution function of the limiting integral
    int_0^inf E(U)_{s-}^{-1} d eta_s, estimated by the noncausal
    stationary sampler.  The left side is the per-path average of
    H(-V_tau) over hitting paths; both sides carry bootstrap CIs (the
    plug-in H is shared by both, so the comparison is conservative about
    H-noise only through the right side's resampling).
    """
    xs = [float(v) for v in xs]
    k = detect_degeneracy(model)
    if k is not None:
        raise ConditionError(
            f"degenerate driving pair ({k} * U = -L): the limiting integral "
            "is the constant -k and the first-passage identity degenerates"
        )
    dist = stationary_sampler(
        model,
        "noncausal",
        stationary_n,
        stationary_horizon or horizon,
        seed + 1,
        workers=workers,
        label="ruin-H",
    )
    if dist.metadata["flagged"]:
        raise ConditionError(
            "the limiting integral int E^{-1} d eta does not resolve at this "
            "horizon (truncation diagnostic failed on "
            f"{dist.metadata['diagnostic_fail_fraction']:.0%} of paths); the "
            "first-passage identity needs the non-causal regime E^{-1} -> 0"
        )
    h_sample = np.sort(-dist.values)  # law of +int E^{-1} d eta
    if h_sample[-1] - h_sample[0] < 1e-12:
        raise ConditionError(
            "empirical H is a point mass; the identity assumes a "
            "non-degenerate limit (degenerate pair?)"
        )
    h = ecdf(h_sample)

    res = mc.ruin_samples(model, horizon, n, seed, xs, h_cdf=h.cdf, workers=workers)
    boot_rng = np.random.default_rng(seed + 2)
    report = {
        "xs": xs,
        "n": n,
        "h_n": stationary_n,
        "diagnostic_fail_fraction": dist.metadata["diagnostic_fail_fraction"],
        "probes": [],
    }
    for j, x in enumerate(xs):
        lhs = float(res["h_weighted"][j])
        rhs = float(h.cdf(-x))
        # bootstrap the left side over paths and the right side over H draws
        weights = res[f"weights_{j}"]
        lhs_boot = np.array(
            [weights[boot_rng.integers(0, n, size=n)].mean() for _ in range(n_boot)]
        )
        hb = h_sample[boot_rng.integers(0, h_sample.size, size=(n_boot, h_sample.size))]
        rhs_boot = (hb <= -x).mean(axis=1)
        lhs_ci = (float(np.quantile(lhs_boot, 0.005)), float(np.quantile(lhs_boot, 0.995)))
        rhs_ci = (float(np.quantile(rhs_boot, 0.005)), float(np.quantile(rhs_boot, 0.995)))
        overlap = lhs_ci[0] <= rhs_ci[1] and rhs_ci[0] <= lhs_ci[1]
        report["probes"].append(
            {
                "x": x,
                "hit_prob": float(res["hit_prob"][j]),
                "lhs": lhs,
                "rhs": rhs,
                "lhs_ci": lhs_ci,
                "rhs_ci": rhs_ci,
                "pass": bool(overlap),
            }
        )
    report["pass"] = all(p["pass"] for p in report["probes"])
    return report


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


def monotonicity_probe(
    model: LevyModel2,
    t: float,
    y: float,
    xs,
    n: int,
    seed: int,
    grid_dt: float = 1e-3,
    workers: int = 1,
) -> dict:
    """Common-random-numbers probe of stochastic monotonicity.

    All starting points share the driving paths, so under condition (B)
    the indicator 1{V_t^x >= y} is pathwise nondecreasing in x and the
    probe cannot produce a single coupled violation.  With mass at or
    below dU = -1 the flow's slope changes sign on some paths and
    violations appear with a quantifiable z-score.
    """
    xs = sorted(float(v) for v in xs)
    res = mc.terminal_samples(model, t, n, seed, grid_dt, workers, "monotone")
    e, i = res["e"], res["i"]
    indicators = [(e * (x + i)) >= y for x in xs]
    probs = [float(ind.mean()) for ind in indicators]
    pairs = []
    for a in range(len(xs) - 1):
        d = indicators[a].astype(np.int8) - indicators[a + 1].astype(np.int8)
        violations = int(np.count_nonzero(d > 0))
        mean_d = float(d.mean())
        se_d = float(d.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        z = mean_d / se_d if se_d > 0 else (math.inf if mean_d > 0 else 0.0)
        pairs.append(
            {
                "x_lo": xs[a],
                "x_hi": xs[a + 1],
                "violations": violations,
                "z": z,
            }
        )
    return {
        "t": t,
        "y": y,
        "xs": xs,
        "probs": probs,
        "pairs": pairs,
        "monotone": all(p["violations"] == 0 for p in pairs),
        "max_z": max((p["z"] for p in pairs), default=0.0),
        "condition_b": model.condition_b,
    }


# ---------------------------------------------------------------------------
# duality grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityProbe:
    t: float
    x: float
    y: float
    p_v: float
    se_v: float
    p_r: float
    se_r: float
    z: float
    passed: bool
    # symmetric direction: P(R >= x) vs P(V <= y)
    p_r_ge: float
    p_v_le: float
    z_sym: float
    passed_sym: bool


def _two_sided(p_a: float, p_b: float, n: int) -> tuple[float, bool]:
    se = math.sqrt(p_a * (1 - p_a) / n + p_b * (1 - p_b) / n)
    diff = abs(p_a - p_b)
    if se == 0.0:
        return (0.0 if diff == 0.0 else math.inf), diff == 0.0
    return diff / se, diff <= 3.29 * se


def duality_grid(
    model: LevyModel2,
    ts,
    xs,
    ys,
    n: int,
    seed: int,
    grid_dt: float = 1e-3,
    workers: int = 1,
) -> list[DualityProbe]:
    """Independent two-sample check of P(V_t^x >= y) = P(R_t^y <= x).

    One batch of forward paths and one independent batch of dual paths
    per t; all (x, y) probes reuse them through the affine form of the
    explicit solution.
    """
    if not model.condition_b:
        raise ConditionError(
            "duality grid requires condition (B): the dual process exists "
            "only when all jumps dU > -1"
        )
    dual = dual_model(model)
    probes = []
    for t in ts:
        fv = mc.terminal_samples(model, t, n, seed, grid_dt, workers, f"dual-V@{t}")
        fr = mc.terminal_samples(dual, t, n, seed, grid_dt, workers, f"dual-R@{t}")
        for x in xs:
            v = fv["e"] * (x + fv["i"])
            for y in ys:
                r = fr["e"] * (y + fr["i"])
                p_v = float(np.mean(v >= y))
                p_r = float(np.mean(r <= x))
                z, ok = _two_sided(p_v, p_r, n)
                p_r_ge = float(np.mean(r >= x))
                p_v_le = float(np.mean(v <= y))
                z_s, ok_s = _two_sided(p_r_ge, p_v_le, n)
                probes.append(
                    DualityProbe(
                        t=float(t),
                        x=float(x),
                        y=float(y),
                        p_v=p_v,
                        se_v=math.sqrt(p_v * (1 - p_v) / n),
                        p_r=p_r,
                        se_r=math.sqrt(p_r * (1 - p_r) / n),
                        z=z,
                        passed=ok,
                        p_r_ge=p_r_ge,
                        p_v_le=p_v_le,
                        z_sym=z_s,
                        passed_sym=ok_s,
                    )
                )
    return probes
