"""Siegmund duals of GOU processes, hit probabilities and ruin identities.

The dual of the process driven by (U, L) is the GOU process driven by
(W, K), where W drives the reciprocal stochastic exponential and K is
the negated integrator process.  The verdicts transform the model
(``levy.dual_model``) and sample fresh dual paths, so that the two sides
of each identity come from independent randomness; ``dual_path``
transforms one realized (U, L) path instead.  The first-passage identity
weights each hit of the ruin scan with H, the law of int E^{-1} d eta.
The scan (``mc.ruin_samples``, starts x > 0) reads I under condition (B),
E only at the hitting jump, and returns the hits and V at first passage.

Each verdict returns the rows its suite writes: ``duality_grid`` the
``duality.csv`` rows, and the two ruin modes (``ruin_probability`` for an
L-subordinator model, ``verify_ruin_identity`` otherwise) ``(rows,
metrics)`` with the ``ruin.csv`` rows.  Each picks its own probes; its
rows carry their ``stats.verdict`` keys.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import mc
from .gou import finite_samples, stationary_sampler
from .levy import ConditionError, LevyModel2, detect_degeneracy, dual_model
from .paths import GRID_DT, Path, eta_path, w_path
from .stats import RULES, ecdf, verdict

__all__ = [
    "dual_path",
    "ruin_probability",
    "verify_ruin_identity",
    "monotonicity_probe",
    "duality_grid",
]

_N_BOOT = 200  # bootstrap resamples per side of each first-passage probe


# ---------------------------------------------------------------------------
# the dual path
# ---------------------------------------------------------------------------


def dual_path(path: Path, model: LevyModel2) -> Path:
    """Pathwise (W, K) from a realized (U, L) path: W drives 1/E(U)
    (``w_path``) and K = -eta.  The Gaussian covariance is unchanged (W
    and K negate the Brownian parts).
    """
    if (path.du[path.is_jump] <= -1.0).any():
        raise ConditionError("dual path requires all jumps dU > -1")
    dw = w_path(path, model.sigma_u_sq).du
    dk = -eta_path(path, model).du
    return replace(path, du=dw, dl=dk, cov=model.gaussian_cov)


# ---------------------------------------------------------------------------
# first passage
# ---------------------------------------------------------------------------


def ruin_probability(
    model: LevyModel2,
    ys,
    horizon: float,
    n: int,
    seed: int,
    stationary_n: int | None = None,
    grid_dt: float = GRID_DT,
    workers: int = 1,
) -> tuple[list[dict], dict]:
    """Subordinator-mode ruin rows: at each level y > 0 of ``ys`` (0.5, 1
    and 2 when there is none), the dual R^y hits 0 by T against the causal
    tail P(C_T >= y).

    ``(rows, metrics)``: ``ruin.csv`` rows (``probe`` y, ``lhs`` the hit
    frequency over ``n`` dual paths, ``rhs`` the tail, ``pass`` when they
    differ by at most ``bound``, see ``stats.RULES``) and ``metrics`` with
    ``companion_diagnostic_fail``, the fraction of companion paths whose
    truncation diagnostic failed.  A model without condition (B) (no
    ``dual_model``) or without L nondecreasing refuses before anything is
    sampled.  With L nondecreasing every increment of the dual's I is <= 0
    (no Brownian part, drift -b_L, jumps of sign -dL), so R^y hits 0 by T
    iff y + min(I_T, 0) <= 0, from one dual sample for every level.
    The tail comes from one causal sample (C_T = int_(0,T] E_{s-} dL_s) of
    ``stationary_n`` paths (default ``n``).  So subordinator mode checks
    P(R_T^y <= 0) = P(C_T >= y) = P(V_T^0 >= y), the finite-T duality at
    x = 0: a stationary tail P(V_inf >= y) only when the companion's
    diagnostic passes.
    """
    dual = dual_model(model)
    if not model.l_subordinator:
        raise ConditionError(
            "subordinator-mode ruin needs L nondecreasing (b_L >= 0, dL >= 0, no "
            "Gaussian L part), so that the dual's I is nonincreasing and its hit "
            "of 0 by T is read off I_T"
        )
    levels = np.array([y for y in ys if y > 0] or [0.5, 1.0, 2.0], dtype=float)
    stationary_n = stationary_n or n

    def dual_i():
        res = mc.terminal_samples(dual, horizon, n, seed, grid_dt, workers, "ruin", keys=("i",))
        return finite_samples(res["i"], "R-side I", horizon)

    i_end, dist = mc.run_together(
        dual_i,
        lambda: stationary_sampler(
            model,
            "causal",
            stationary_n,
            horizon,
            seed + 1,
            grid_dt=grid_dt,
            workers=workers,
            label="ruin-companion",
        ),
    )
    hits = np.count_nonzero(levels + np.minimum(i_end, 0.0)[:, None] <= 0.0, axis=0)
    rows = []
    for y, p_hit, tail in zip(levels.tolist(), (hits / n).tolist(), dist.sf(levels).tolist()):
        se_hit = math.sqrt(p_hit * (1 - p_hit) / n)
        se_tail = math.sqrt(tail * (1 - tail) / stationary_n)
        bound = 3.0 * math.sqrt(se_hit**2 + se_tail**2) + RULES["ruin-subordinator"].level
        v = verdict("ruin-subordinator", y, abs(p_hit - tail), (bound, abs(p_hit - tail)))
        rows.append({"lhs": p_hit, "rhs": tail, "bound": bound, **v})
    metrics = {"mode": "subordinator", "horizon": horizon, "n_paths": n}
    metrics["companion_diagnostic_fail"] = dist.metadata["diagnostic_fail_fraction"]
    return rows, metrics


def verify_ruin_identity(
    model: LevyModel2,
    xs,
    horizon: float,
    n: int,
    seed: int,
    stationary_n: int | None = None,
    workers: int = 1,
) -> tuple[list[dict], dict]:
    """Check P(tau(x) < inf) E[H(-V_tau) | tau < inf] = H(-x) at each
    start x > 0 of ``xs`` (0.5 and 1 when there is none).

    H is the distribution function of the limiting integral
    int_0^inf E(U)_{s-}^{-1} d eta_s, estimated by the noncausal
    stationary sampler (``stationary_n`` paths, default 10 000).  The
    left side is the per-path average of H(-V_tau) over hitting paths,
    with the first passage and V_tau read off the ruin scan
    (``mc.ruin_samples``); both sides carry bootstrap CIs (the plug-in H
    is shared by both, so the comparison is conservative about H-noise
    only through the right side's resampling), each from ``_N_BOOT``
    resamples.  A resample of the H sample holds Binomial(h_n, rhs) values
    at or below -x, so the right side's resamples are one binomial draw.
    ``(rows, metrics)``: ``ruin.csv`` rows (``probe`` x, the two sides, an
    empty ``bound`` and ``pass`` when the CIs overlap) and ``metrics``
    with ``h_diagnostic_fail``.  The model must pass
    ``mc.check_ruin_scan`` (condition (B), so that E(U) > 0 and H(-V_tau)
    is the identity's weight, and no Gaussian part) before anything is
    sampled.
    """
    xs = [float(x) for x in xs if x > 0] or [0.5, 1.0]
    k = detect_degeneracy(model)
    if k is not None:
        raise ConditionError(
            f"degenerate driving pair ({k} * U = -L): the limiting integral "
            "is the constant -k and the first-passage identity degenerates"
        )
    mc.check_ruin_scan(model)
    dist = stationary_sampler(
        model,
        "noncausal",
        stationary_n or 10_000,
        horizon,
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
    h = ecdf(-dist.values)  # law of +int E^{-1} d eta
    if h.values[-1] - h.values[0] < 1e-12:
        raise ConditionError(
            "empirical H is a point mass; the identity assumes a "
            "non-degenerate limit (degenerate pair?)"
        )

    res = mc.ruin_samples(model, horizon, n, seed, xs, workers=workers)
    boot_rng = np.random.default_rng(seed + 2)
    q = RULES["ruin-identity"].level
    rows = []
    for j, x in enumerate(xs):
        weights = np.where(res["hit"][:, j], h.cdf(-res["v_tau"][:, j]), 0.0)
        lhs = float(weights.sum() / n)
        rhs = float(h.cdf(-x))
        # bootstrap the left side over paths and the right side by its binomial law
        lhs_boot = np.array(
            [weights[boot_rng.integers(0, n, size=n)].mean() for _ in range(_N_BOOT)]
        )
        rhs_boot = boot_rng.binomial(h.n, rhs, size=_N_BOOT) / h.n
        l_lo, l_hi = np.quantile(lhs_boot, (q, 1 - q)).tolist()
        r_lo, r_hi = np.quantile(rhs_boot, (q, 1 - q)).tolist()
        v = verdict("ruin-identity", x, abs(lhs - rhs), (l_lo, r_hi), (r_lo, l_hi))
        rows.append({"lhs": lhs, "rhs": rhs, "bound": "", **v})
    metrics = {"mode": "first-passage-identity", "horizon": horizon, "n_paths": n}
    metrics["h_diagnostic_fail"] = dist.metadata["diagnostic_fail_fraction"]
    return rows, metrics


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
    grid_dt: float = GRID_DT,
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
    res = mc.terminal_samples(model, t, n, seed, grid_dt, workers, "monotone", keys=("e", "i"))
    e = finite_samples(res["e"], "V-side E", t)
    i = finite_samples(res["i"], "V-side I", t)
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
        "probs": probs,
        "pairs": pairs,
        "max_z": max((p["z"] for p in pairs), default=0.0),
    }


# ---------------------------------------------------------------------------
# duality grid
# ---------------------------------------------------------------------------


def _two_sided(p_a: float, p_b: float, n: int) -> tuple[float, tuple[float, float]]:
    se = math.sqrt(p_a * (1 - p_a) / n + p_b * (1 - p_b) / n)
    diff = abs(p_a - p_b)
    z = diff / se if se != 0.0 else (0.0 if diff == 0.0 else math.inf)
    return z, (se, diff)


def duality_grid(
    model: LevyModel2,
    ts,
    xs,
    ys,
    n: int,
    seed: int,
    grid_dt: float = GRID_DT,
    workers: int = 1,
) -> list[dict]:
    """Independent two-sample check of P(V_t^x >= y) = P(R_t^y <= x).

    One batch of forward paths and one independent batch of dual paths,
    each run once to the largest t and read at every other t as a
    checkpoint (``mc.terminal_samples``); all (x, y) probes reuse them
    through the affine form of the explicit solution.  So the rows at
    different t share paths: each row's z-test keeps its level, but the
    rows are not independent across t.  ``ts`` may come in any order and
    repeat a t (a repeat reads the same checkpoint); the rows keep its
    order.  The largest t's samples are those of a run to it alone (on a
    grid lane, where ``grid_dt`` divides every interval between the t, as
    the default grid does the default t_grid).
    Returns one row per probe: t, x, y, ``p_V`` and ``p_R`` with their
    standard errors, the z-score ``z``, ``z_sym`` of the symmetric
    direction P(R_t^y >= x) = P(V_t^x <= y), and the ``stats.verdict``
    keys of both directions.
    """
    dual = dual_model(model)
    *before, last = times = sorted(set(ts))
    checkpoints = tuple(before) or None

    def sample(m, side):
        res = mc.terminal_samples(
            m, last, n, seed, grid_dt, workers, f"dual-{side}@{max(ts)}", ("e", "i"), checkpoints
        )
        return {k: v.reshape(n, -1) for k, v in res.items()}  # column j at times[j]

    fv, fr = mc.run_together(lambda: sample(model, "V"), lambda: sample(dual, "R"))
    rows = []
    for t in ts:
        j = times.index(t)
        v_e = finite_samples(fv["e"][:, j], "V-side E", t)
        v_i = finite_samples(fv["i"][:, j], "V-side I", t)
        r_e = finite_samples(fr["e"][:, j], "R-side E", t)
        r_i = finite_samples(fr["i"][:, j], "R-side I", t)
        rs = [r_e * (y + r_i) for y in ys]
        for x in xs:
            v = v_e * (x + v_i)
            for y, r in zip(ys, rs):
                p_v = float(np.mean(v >= y))
                p_r = float(np.mean(r <= x))
                z, fwd = _two_sided(p_v, p_r, n)
                z_sym, sym = _two_sided(float(np.mean(r >= x)), float(np.mean(v <= y)), n)
                rows.append(
                    {
                        "t": float(t),
                        "x": float(x),
                        "y": float(y),
                        "p_V": p_v,
                        "se_V": math.sqrt(p_v * (1 - p_v) / n),
                        "p_R": p_r,
                        "se_R": math.sqrt(p_r * (1 - p_r) / n),
                        "z": z,
                        "z_sym": z_sym,
                        **verdict("duality", f"t={t:g} x={x:g} y={y:g}", max(z, z_sym), fwd, sym),
                    }
                )
    return rows
