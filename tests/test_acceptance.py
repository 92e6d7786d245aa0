"""Acceptance gate: the eleven headline criteria at their stated budgets.

Each test records one PASS/FAIL line; the conftest terminal-summary hook
prints them at the end of the run.  Tolerances and sample sizes are the
contract, not tunables.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.special import gammaincc

from gouflow import mc
from gouflow.calculus import stochastic_exponential
from gouflow.duality import dual_path, duality_grid, monotonicity_probe, verify_ruin_identity
from gouflow.gou import causal_integral, solve_forward, stationary_sampler
from gouflow.inverse_flow import verify_pathwise_identity
from gouflow.levy import JumpLaw2, LevyModel2, dual_model
from gouflow.paths import eta_path, sample_path, w_path
from gouflow.presets import get_preset
from gouflow.rng import stream
from gouflow.stats import ecdf, ks_two_sample, verdict

from conftest import terminal_ul

RESULTS = []

SEED = 20260823


def record(num, desc, passed, detail=""):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if passed else 'FAIL'} — {desc}"
    if detail:
        line += f" ({detail})"
    RESULTS.append(line)
    assert passed, line


def _u_only(path):
    from dataclasses import replace

    return replace(path, dl=np.zeros_like(path.dl))


MIXED_A = LevyModel2(
    drift=(0.2, -0.1),
    jump_intensity=2.0,
    jump_law=JumpLaw2.point_mass(
        [((-2.0, 1.0), 0.3), ((0.5, -0.5), 0.4), ((-0.5, 2.0), 0.3)]
    ),
)

MIXED_B = LevyModel2(
    drift=(-0.5, 0.3),
    jump_intensity=3.0,
    jump_law=JumpLaw2.point_mass(
        [((0.5, -1.0), 0.25), ((-0.25, 0.75), 0.25), ((1.0, 0.5), 0.5)]
    ),
)


def test_criterion_1_reciprocal_exponential():
    worst = 0.0
    for j, model in enumerate((MIXED_A, MIXED_B)):
        for i in range(500):
            p = sample_path(model, 2.0, stream(SEED, f"c1-{j}", i))
            e = stochastic_exponential(_u_only(p))
            ew = stochastic_exponential(_u_only(w_path(p, 0.0)))
            worst = max(worst, float(np.max(np.abs(e.values * ew.values - 1.0))))
    record(
        1,
        "reciprocal stochastic exponential E(U)E(W) = 1 on 1e3 paths",
        worst <= 1e-10,
        f"max |E*E(W)-1| = {worst:.2e}",
    )


def test_criterion_2_inverse_flow_identity():
    worst = 0.0
    for j, model in enumerate((MIXED_A, MIXED_B)):
        for i in range(500):
            p = sample_path(model, 2.0, stream(SEED, f"c2-{j}", i))
            worst = max(worst, verify_pathwise_identity(p, model, 1.0)["max_error"])
    exact_ok = worst <= 1e-9

    duf = get_preset("dufresne").model
    medians = []
    for dt in (4e-3, 2e-3, 1e-3):
        errs = [
            verify_pathwise_identity(
                sample_path(duf, 1.0, stream(SEED, f"c2e-{dt}", i), dt), duf, 1.0
            )["max_error"]
            for i in range(60)
        ]
        medians.append(float(np.median(errs)))
    euler_ok = medians[0] > medians[1] > medians[2]
    record(
        2,
        "inverse-flow pathwise identity (exact <= 1e-9; euler medians decrease)",
        exact_ok and euler_ok,
        f"max exact = {worst:.2e}; euler medians = {[f'{m:.1e}' for m in medians]}",
    )


def test_criterion_3_siegmund_duality_grid():
    failed = []
    max_z = 0.0
    for offset, name in enumerate(("drift-ou", "cramer-paulsen", "degenerate-k")):
        m = get_preset(name).model
        rows = duality_grid(
            m, [1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 100_000,
            seed=SEED + 100 + offset,
        )
        assert len(rows) == 9
        for r in rows:
            if math.isfinite(r["z"]):
                max_z = max(max_z, r["z"], r["z_sym"])
            if not r["pass"]:
                failed.append((name, r["t"], r["x"], r["y"], r["z"], r["z_sym"]))
    record(
        3,
        "Siegmund duality on 3 presets x 9-point grid, n=1e5 per side",
        not failed,
        f"max |z| = {max_z:.2f}" + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_4_dual_involution_and_eta_negation():
    exact = True
    for name in ("drift-ou", "cramer-paulsen", "degenerate-k"):
        m = get_preset(name).model
        dd = dual_model(dual_model(m))
        exact &= dd.drift == m.drift and dd.jump_law.atoms == m.jump_law.atoms

    worst = 0.0
    m = MIXED_B
    dm = dual_model(m)
    for i in range(100):
        p = sample_path(m, 2.0, stream(SEED, "c4", i))
        eta_wk = eta_path(dual_path(p, m), dm)
        for ev, ee in zip(p.events, eta_wk.events):
            ref = -ev.dl
            worst = max(worst, abs(ee.du - ref) / (1.0 + abs(ref)))
    record(
        4,
        "dual involution field-exact; eta of (W,K) path equals -L eventwise",
        exact and worst <= 1e-12,
        f"max eta error = {worst:.2e}",
    )


def test_criterion_5_monotonicity_dichotomy():
    ok = monotonicity_probe(
        get_preset("drift-ou").model, 1.0, 0.5, [-1.0, 0.0, 1.0], 10_000, SEED
    )
    bad = monotonicity_probe(
        get_preset("nonmonotone").model, 1.0, 0.5, [-1.0, 0.0, 1.0], 10_000, SEED + 1
    )
    violations = sum(p["violations"] for p in ok["pairs"])
    record(
        5,
        "monotone under (B) with zero coupled violations; nonmonotone z > 4",
        violations == 0 and bad["max_z"] > 4.0,
        f"violations = {violations}, nonmonotone max z = {bad['max_z']:.1f}",
    )


def test_criterion_6_degenerate_constant_solution():
    m = get_preset("degenerate-k").model
    k = 2.0
    worst_v = worst_c = 0.0
    for i in range(100):
        p = sample_path(m, 2.0, stream(SEED, "c6", i))
        traj = solve_forward(p, m, k)
        worst_v = max(worst_v, float(np.max(np.abs(traj.values.values - k))))
        c = causal_integral(p, m)
        ref = k * (1.0 - traj.exponential.values)
        worst_c = max(worst_c, float(np.max(np.abs(c.values - ref))))
    record(
        6,
        "degenerate pair: V = k and causal integral = k(1 - E) pathwise",
        worst_v <= 1e-10 and worst_c <= 1e-10,
        f"max |V-k| = {worst_v:.2e}, max integral error = {worst_c:.2e}",
    )


def _inverse_gamma_cdf(x, shape, scale):
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = gammaincc(shape, scale / x[pos])
    return out


def _one_sample_ks(values, cdf):
    v = np.sort(values)
    n = v.size
    f = cdf(v)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


def test_criterion_7_dufresne_stationary_oracle():
    m = get_preset("dufresne").model
    dist = stationary_sampler(m, "causal", 10_000, 15.0, SEED, grid_dt=1e-3)
    # -log E = 3s + sqrt(2) B_s and unit income drift: the perpetuity is
    # inverse-gamma with shape 2*3/2 = 3 and scale 2/sigma^2 = 1
    d = _one_sample_ks(dist.values, lambda x: _inverse_gamma_cdf(x, 3.0, 1.0))
    diag_ok = dist.metadata["diagnostic_fail_fraction"] < 0.01
    record(
        7,
        "Dufresne causal stationary law vs inverse-gamma oracle, KS <= 0.02",
        d <= 0.02 and diag_ok,
        f"KS = {d:.4f}, diag fail = {dist.metadata['diagnostic_fail_fraction']:.3f}",
    )


def test_criterion_8_subordinator_ruin():
    m = get_preset("dufresne").model
    horizon = 15.0
    n = 100_000
    dual = dual_model(m)
    # two independent samples (own seeds and labels), run as a pair
    res, (v_inf, _) = mc.run_together(
        lambda: mc.terminal_samples(dual, horizon, n, SEED + 8, 1e-3, 1, "c8-dual"),
        lambda: mc.exp_functional_samples(m, "causal", n, horizon, SEED + 9, label="c8-v"),
    )
    details = []
    ok = True
    for y in (0.5, 1.0, 2.0):
        p_hit = float(np.mean(y + np.minimum(res["i"], 0.0) <= 0.0))
        p_tail = float(np.mean(v_inf >= y))
        se = math.sqrt(
            p_hit * (1 - p_hit) / n + p_tail * (1 - p_tail) / n
        )
        bound = 3.0 * se + 0.005
        ok &= abs(p_hit - p_tail) <= bound
        details.append(f"y={y}: |{p_hit:.4f}-{p_tail:.4f}| vs {bound:.4f}")
    record(
        8,
        "subordinator ruin: P(tau_R(y) <= T) matches P(V_inf >= y)",
        ok,
        "; ".join(details),
    )


def test_criterion_9_first_passage_identity():
    m = get_preset("cramer-paulsen").model
    rows, _ = verify_ruin_identity(
        m, [0.5, 1.0], horizon=40.0, n=100_000, seed=SEED + 20, stationary_n=10_000
    )
    details = "; ".join(
        f"x={row['probe']}: lhs={row['lhs']:.4f} rhs={row['rhs']:.4f}" for row in rows
    )
    record(
        9,
        "first-passage identity P(tau<inf) E[H(-V_tau)] = H(-x) via bootstrap CIs",
        all(row["pass"] for row in rows),
        details,
    )


def _ks_rejects(a, b) -> bool:
    """The stationary suite's ``ks`` rule fails the two samples."""
    p = ks_two_sample(ecdf(a), ecdf(b)).pvalue
    return not verdict("ks", "ks", p, (p,))["pass"]


def test_criterion_10_distributional_identities():
    m = get_preset("drift-ou").model
    n = 10_000
    t = 1.0
    reps = 200

    rej_lemma = 0
    for r in range(reps):
        a = mc.terminal_samples(m, t, n, SEED + 30, label=f"c10a-{r}")
        b = mc.terminal_samples(m, t, n, SEED + 30, label=f"c10b-{r}")
        if _ks_rejects(a["e"] * a["i"], b["c"]):
            rej_lemma += 1

    # reversed-path law: (U~, L~) at time s along paths run to t has the
    # law of (-U_s, -L_s); the pathwise reduction to increments over
    # (t-s, t] is unit-tested in test_paths
    lam = m.jump_intensity
    b_u, b_l = m.drift
    s = 0.4
    rej_rev = 0
    for r in range(reps):
        rng = stream(SEED + 31, "c10-rev", r)
        counts = rng.poisson(lam * t, size=n)
        kmax = int(counts.max())
        times = rng.uniform(0, t, size=(n, kmax))
        du, dl = m.jump_law.sample(rng, n * kmax)
        keep = (np.arange(kmax)[None, :] < counts[:, None]) & (times >= t - s)
        u_rev = -(b_u * s + np.where(keep, du.reshape(n, kmax), 0.0).sum(axis=1))
        l_rev = -(b_l * s + np.where(keep, dl.reshape(n, kmax), 0.0).sum(axis=1))
        fresh = terminal_ul(m, s, n, SEED + 32, label=f"c10f-{r}")
        if (
            _ks_rejects(u_rev, -fresh["u"])
            or _ks_rejects(l_rev, -fresh["l"])
        ):
            rej_rev += 1

    record(
        10,
        "distributional identity and reversed-path law: <= 1% KS rejections",
        rej_lemma <= 2 and rej_rev <= 2,
        f"rejections: identity {rej_lemma}/200, reversal {rej_rev}/200",
    )


def test_criterion_11_worker_determinism(tmp_path):
    from gouflow.cli import main

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "schema_version: 1\nseed: 404\npreset: drift-ou\nsuite: duality\n"
        "n_paths: 20000\n"
    )
    outs = []
    for w in (1, 4):
        out = str(tmp_path / f"w{w}")
        assert main(["run", "--config", str(cfg), "--out", out, "--workers", str(w)]) == 0
        outs.append(out)
    same = all(
        open(os.path.join(outs[0], f), "rb").read()
        == open(os.path.join(outs[1], f), "rb").read()
        for f in ("summary.json", "duality.csv")
    )
    record(
        11,
        "identical config+seed with different worker counts: byte-identical outputs",
        same,
    )
