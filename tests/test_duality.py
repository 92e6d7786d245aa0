import inspect
import math

import numpy as np
import pytest

from gouflow import duality, gou, mc
from gouflow.duality import (
    dual_path,
    duality_grid,
    monotonicity_probe,
    ruin_probability,
    verify_ruin_identity,
)
from gouflow.gou import solve_forward
from gouflow.levy import ConditionError, JumpLaw2, LevyModel2, dual_model
from gouflow.paths import Segment, eta_path, sample_path
from gouflow.presets import get_preset
from gouflow.stats import ecdf, ks_two_sample, verdict

from conftest import make_stream
from oracles import dual_solve, killed_dual, path_jumps


# ---------------------------------------------------------------------------
# dual construction
# ---------------------------------------------------------------------------


def test_dual_solve_two_routes_agree(mixed_jump_model):
    """dual_solve raises internally if the transformed-path route and the
    (y - C)/E route disagree beyond 1e-10; run it broadly."""
    for i in range(100):
        p = sample_path(mixed_jump_model, 2.0, make_stream("ds", i))
        dual_solve(p, mixed_jump_model, y=0.8)


def test_dual_path_eta_is_negated_integrator(mixed_jump_model):
    """eta of the (W, K) path equals -L event by event."""
    m = mixed_jump_model
    dm = dual_model(m)
    for i in range(100):
        p = sample_path(m, 2.0, make_stream("eta-neg", i))
        dp = dual_path(p, m)
        eta_wk = eta_path(dp, dm)
        for ev, ee in zip(p.events, eta_wk.events):
            if isinstance(ev, Segment):
                assert ee.du == pytest.approx(-ev.dl, rel=1e-14, abs=1e-14)
            else:
                assert ee.du == pytest.approx(-ev.dl, rel=1e-12, abs=1e-14)


def test_dual_path_requires_condition_b(sign_flip_model):
    for i in range(50):
        p = sample_path(sign_flip_model, 2.0, make_stream("dp-b", i))
        if any(ev.du <= -1.0 for ev in path_jumps(p)):
            with pytest.raises(ConditionError):
                dual_path(p, sign_flip_model)
            return
    pytest.fail("no sign-flipping path sampled")


def test_killed_dual_equals_clipped(subordinator_model):
    dual = dual_model(subordinator_model)
    hit_zero = 0
    for i in range(100):
        p = sample_path(dual, 3.0, make_stream("kd", i))
        traj = dual_solve_from_own_path(p, dual, 0.5)
        clipped = killed_dual(traj, subordinator_model)
        assert np.all(clipped.values >= 0.0)
        if (traj.values.values <= 0).any():
            hit_zero += 1
    assert hit_zero > 0  # the check inside killed_dual actually exercised


def dual_solve_from_own_path(path, model, y):
    return solve_forward(path, model, y)


def test_killed_dual_requires_subordinator(mixed_jump_model):
    dual = dual_model(mixed_jump_model)  # L has negative jumps
    p = sample_path(dual, 1.0, make_stream("kd-bad", 0))
    traj = solve_forward(p, dual, 0.5)
    with pytest.raises(ConditionError):
        killed_dual(traj, mixed_jump_model)


# ---------------------------------------------------------------------------
# hit probabilities
# ---------------------------------------------------------------------------


def test_ruin_probability_matches_vectorized_barrier(subordinator_model):
    """Each level's hit frequency must equal the barrier criterion y +
    min(I_T, 0) <= 0 on the dual's lane, from the same streams; each
    row's tail is the companion sample's and its gate is 3 se + 0.005."""
    from gouflow import mc

    m = subordinator_model
    ys = [0.1, 0.4, 1.0]
    rows, metrics = ruin_probability(m, ys, horizon=3.0, n=400, seed=21, stationary_n=1000)
    data = mc.terminal_samples(dual_model(m), 3.0, 400, 21, 1e-3, 1, "ruin")
    tail = gou.stationary_sampler(m, "causal", 1000, 3.0, 22, label="ruin-companion").sf(ys)
    assert [row["probe"] for row in rows] == ys
    for y, row, p_tail in zip(ys, rows, tail.tolist()):
        assert row["lhs"] == np.count_nonzero(y + np.minimum(data["i"], 0.0) <= 0) / 400
        assert row["rhs"] == p_tail
        p_hit = row["lhs"]
        se = math.sqrt(p_hit * (1 - p_hit) / 400 + p_tail * (1 - p_tail) / 1000)
        assert row["bound"] == 3.0 * se + 0.005
        assert row["pass"] == (abs(p_hit - p_tail) <= row["bound"])
    assert 0 < rows[1]["lhs"] < 1
    assert metrics["mode"] == "subordinator"
    assert 0.0 <= metrics["companion_diagnostic_fail"] <= 1.0


def test_ruin_probability_subordinator_never_hits_from_above():
    """A subordinator L that never moves: the dual's I stays 0, so no level
    above 0 is hit."""
    law = JumpLaw2.point_mass([((0.5, 0.0), 0.5), ((-0.3, 0.0), 0.5)])
    m = LevyModel2(drift=(-1.0, 0.0), jump_intensity=2.0, jump_law=law)
    assert m.l_subordinator
    rows, _ = ruin_probability(m, [1e-9, 0.4], horizon=3.0, n=400, seed=22, stationary_n=500)
    assert [row["lhs"] for row in rows] == [0.0, 0.0]


def test_ruin_suite_draws_one_sample_per_side_for_all_levels(monkeypatch):
    """The subordinator-mode ruin suite draws one lane sample and one
    companion stationary sample, however many levels it probes.  The two
    run at once on a grid-lane model, so their order is not fixed."""
    from gouflow import gou, mc
    from gouflow.config import parse_config
    from gouflow.suites import ruin_suite

    lane = mc.terminal_samples
    labels = []  # one per lane sample, the companion's included
    sampler_calls = []

    def terminal_samples(*args, **kwargs):
        labels.append(inspect.signature(lane).bind(*args, **kwargs).arguments["label"])
        return lane(*args, **kwargs)

    def stationary_sampler(*args, **kwargs):
        sampler_calls.append(args)
        return gou.stationary_sampler(*args, **kwargs)

    monkeypatch.setattr(mc, "terminal_samples", terminal_samples)
    monkeypatch.setattr(duality, "stationary_sampler", stationary_sampler)
    cfg = parse_config(
        "schema_version: 1\nseed: 1\npreset: dufresne\nsuite: ruin\nn_paths: 256\n"
        "stationary_horizon: 2\ngrid_dt: 0.01\ny_grid: [0.5, 1.0, 2.0]\n"
    )
    result = ruin_suite(cfg)
    assert result.columns["probe"] == [0.5, 1.0, 2.0]
    assert sorted(labels) == ["ruin", "ruin-companion"]
    assert len(sampler_calls) == 1


@pytest.mark.parametrize(
    "mode, config",
    [
        ("ruin_probability", "preset: dufresne\nstationary_horizon: 2\ngrid_dt: 0.01\n"),
        ("verify_ruin_identity", "preset: cramer-paulsen\nstationary_n: 500\n"),
    ],
)
def test_ruin_suite_rows_are_the_verdict_rows(monkeypatch, mode, config):
    """The ruin suite picks the mode and passes on what its verdict
    returns: the same rows and metrics, and PASS when every row passes."""
    from gouflow import suites
    from gouflow.config import parse_config

    verdict = getattr(suites, mode)
    returned = []

    def recorded(*args, **kwargs):
        returned.append(verdict(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(suites, mode, recorded)
    cfg = parse_config(
        f"schema_version: 1\nseed: 1\nsuite: ruin\nn_paths: 500\n{config}"
    )
    result = suites.ruin_suite(cfg)
    ((rows, metrics),) = returned
    names = ("probe", "lhs", "rhs", "bound", "pass")
    assert result.columns == {name: [row.get(name, "") for row in rows] for name in names}
    assert tuple(result.columns) == names and result.metrics is metrics
    assert result.passed == all(row["pass"] for row in rows)


def test_ruin_probability_refuses_non_finite_running_minimum():
    """The dual's E = e^{-T} underflows to 0 at T = 800, so its I_T, which
    gives the running minimum, is NaN on every path.  Compared as it is,
    no path would hit; the call refuses and names the count."""
    law = JumpLaw2.point_mass([((0.0, 1.0), 1.0)])
    m = LevyModel2(drift=(1.0, 0.0), jump_intensity=1.0, jump_law=law)
    assert m.l_subordinator  # its dual runs on drift (-1, 0) and dL = -1
    with pytest.raises(ConditionError, match="4096 of 4096 R-side I samples"):
        ruin_probability(m, [1.0], horizon=800.0, n=4096, seed=1, stationary_n=1000)
    # at a horizon the lane resolves, almost every path hits
    (row,), _ = ruin_probability(m, [1.0], horizon=20.0, n=4096, seed=1, stationary_n=1000)
    assert row["lhs"] > 4000 / 4096


def test_ruin_probability_refuses_without_condition_b(monkeypatch, sign_flip_model):
    """Without (B) there is no dual: pure-jump and Gaussian models alike
    refuse before anything is sampled."""
    _no_sampling(monkeypatch)
    law = JumpLaw2.point_mass([((-2.0, 0.0), 1.0)])
    gaussian = LevyModel2(
        drift=(0.0, 0.0), gaussian_cov=((0.1, 0.0), (0.0, 0.0)), jump_intensity=1.0, jump_law=law
    )
    for m in (sign_flip_model, gaussian):
        assert not m.condition_b
        with pytest.raises(ConditionError, match="dual process does not exist"):
            ruin_probability(m, [1.0], horizon=1.0, n=10, seed=1, stationary_n=10)


def test_ruin_probability_refuses_non_subordinator(monkeypatch, mixed_jump_model):
    """With L able to fall, the dual's I can rise and I_T does not give its
    running minimum: models with (B) but without a subordinator L, pure-jump
    or with L noise through sigma_UL alone, refuse before anything is
    sampled."""
    _no_sampling(monkeypatch)
    correlated = LevyModel2(drift=(-1.0, 0.0), gaussian_cov=((0.5, 5e-6), (5e-6, 0.0)))
    for m in (mixed_jump_model, correlated):
        assert m.condition_b and not m.l_subordinator
        with pytest.raises(ConditionError, match="needs L nondecreasing"):
            ruin_probability(m, [1.0], horizon=1.0, n=10, seed=1, stationary_n=10)


# ---------------------------------------------------------------------------
# paired samples (mc.run_together)
# ---------------------------------------------------------------------------

_PAIRED_MODELS = {
    "dufresne": "preset: dufresne\n",
    "correlated-gauss": "model: {drift: [-1.0, 0.5], gaussian_cov: [[1.0, 0.3], [0.3, 0.5]]}\n",
    "pure-jump": (
        "model: {drift: [-1.0, 0.2], jump_intensity: 2.0, jump_law: {kind: point_mass, "
        "atoms: [[[0.5, 1.0], 0.5], [[-0.3, 0.25], 0.5]]}}\n"
    ),
}


def _run_suite(tmp_path, capsys, model, suite, out):
    """Exit code, output files and refusal text of one small ``gouflow run``."""
    from gouflow.cli import main

    cfg = tmp_path / f"{model}-{suite}.yaml"
    cfg.write_text(
        f"schema_version: 1\nseed: 3\nsuite: {suite}\n{_PAIRED_MODELS[model]}"
        "n_paths: 256\nhorizon: 1.0\nt_grid: [0.5, 1.0]\nstationary_horizon: 2.0\n"
        "grid_dt: 0.01\n"
    )
    capsys.readouterr()
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, files, err[err.find("refusing"):] if "refusing" in err else ""


def _count_pairs(monkeypatch):
    """The number of calls of each ``mc.run_together``, appended as it runs."""
    from gouflow import mc

    pairs = []
    together = mc.run_together

    def counted(*calls):
        pairs.append(len(calls))
        return together(*calls)

    monkeypatch.setattr(mc, "run_together", counted)
    return pairs


@pytest.mark.parametrize("suite", ["duality", "ruin", "stationary"])
@pytest.mark.parametrize("model", ["dufresne", "correlated-gauss", "pure-jump"])
def test_paired_grid_lane_samples_give_the_bytes_of_serial_calls(
    tmp_path, capsys, monkeypatch, model, suite
):
    """The duality, ruin and stationary suites run their paired samples at
    once (the stationary suite its three: the stationary sample, the dual's
    and the lemma's short one), in the grid lane and in the jump lane
    (``pure-jump``); run in turn instead, every CSV, summary.json and
    refusal is the same byte for byte."""
    from gouflow import mc

    pairs = _count_pairs(monkeypatch)
    at_once = _run_suite(tmp_path, capsys, model, suite, tmp_path / "at-once")
    monkeypatch.setattr(mc, "run_together", lambda *calls: [c() for c in calls])
    in_turn = _run_suite(tmp_path, capsys, model, suite, tmp_path / "in-turn")
    assert at_once == in_turn
    assert at_once[1] or at_once[2]  # outputs or a refusal to compare
    # correlated-gauss has L noise, so its ruin suite refuses before sampling;
    # the duality grid runs one pair for both of its t
    refused_early = (model, suite) == ("correlated-gauss", "ruin")
    assert pairs == ([] if refused_early else [3 if suite == "stationary" else 2])


def test_ruin_probability_pair_raises_the_dual_sides_refusal_first():
    """Both sides of this grid-lane model overflow at T = 1: the dual's
    I and the companion's causal integral.  The pair runs at once and
    raises the dual side's refusal, which the serial order raised first."""
    m = LevyModel2(drift=(2000.0, 0.5), gaussian_cov=((1.0, 0.0), (0.0, 0.0)))
    assert m.l_subordinator and m.has_gaussian
    with np.errstate(all="ignore"):
        with pytest.raises(ConditionError, match="32 of 32 causal stationary"):
            gou.stationary_sampler(m, "causal", 32, 1.0, 2, grid_dt=0.01, label="ruin-companion")
        with pytest.raises(ConditionError, match="64 of 64 R-side I samples"):
            ruin_probability(m, [1.0], 1.0, 64, 1, stationary_n=32, grid_dt=0.01)


# ---------------------------------------------------------------------------
# statistical identities (moderate n; acceptance runs the full budgets)
# ---------------------------------------------------------------------------


def test_duality_grid_passes_on_drift_ou():
    m = get_preset("drift-ou").model
    rows = duality_grid(m, [1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 20_000, seed=31)
    assert len(rows) == 9
    assert all(row["pass"] for row in rows)


def test_duality_grid_pass_covers_both_directions(monkeypatch):
    """A probe that passes P(V >= y) = P(R <= x) (se 0, diff 0: margin 0)
    but fails the symmetric direction (se 0, diff 1: margin -1) is a failed
    row; its z is the first direction's, and it carries the least margin."""
    verdicts = iter([(0.0, (0.0, 0.0)), (9.0, (0.0, 1.0))])
    monkeypatch.setattr(duality, "_two_sided", lambda p_a, p_b, n: next(verdicts))
    (row,) = duality_grid(get_preset("drift-ou").model, [1.0], [0.0], [0.0], 100, seed=1)
    assert (row["z"], row["z_sym"], row["pass"]) == (0.0, 9.0, False)
    assert (row["margin"], row["value"], row["rule"]) == (-1.0, 9.0, "duality")


def test_duality_suite_reports_infinite_z(monkeypatch):
    """On ``zero`` V stays at x, and a wrong dual (R drifts up at 0.5) is
    deterministic too: every p is 0 or 1 and every se is 0, so a failing
    probe has z = inf, which ``max_z`` reports as 1e18, not dropped."""
    from gouflow.config import parse_config
    from gouflow.suites import duality_suite

    monkeypatch.setattr(duality, "dual_model", lambda model: LevyModel2(drift=(0.0, 0.5)))
    cfg = parse_config("schema_version: 1\nseed: 1\npreset: zero\nsuite: duality\nn_paths: 256\n")
    result = duality_suite(cfg)
    table = result.columns
    zs = zip(table["z"], table["z_sym"], table["pass"])
    failed = [(z, z_sym) for z, z_sym, ok in zs if not ok]
    assert failed and all(math.inf in zs for zs in failed)
    # every finite z is 0, so dropping the infinite ones reads 0.0
    assert set(table["z"]) == {0.0, math.inf}
    assert result.metrics["failed"] == len(failed)
    assert result.metrics["max_z"] == 1e18


def test_duality_fail_shows_its_margin_in_both_directions(monkeypatch, tmp_path):
    """On ``zero`` with a dual whose K drift is shifted by -0.5, the probes
    pass P(V >= y) = P(R <= x) (z = 0) and fail only the symmetric
    direction, with infinite z_sym.  ``max_z`` is taken over both
    directions and duality.csv carries z_sym, so the FAIL shows its margin."""
    from dataclasses import replace

    from gouflow.config import parse_config
    from gouflow.suites import duality_suite, write_csv

    true_dual = duality.dual_model

    def shifted(model):
        dual = true_dual(model)
        return replace(dual, drift=(dual.drift[0], dual.drift[1] - 0.5))

    monkeypatch.setattr(duality, "dual_model", shifted)
    cfg = parse_config(
        "schema_version: 1\nseed: 1\npreset: zero\nsuite: duality\nn_paths: 256\n"
        "t_grid: [0.5]\n"
    )
    result = duality_suite(cfg)
    table = result.columns
    zs = zip(table["z"], table["z_sym"], table["pass"])
    failed = [(z, z_sym) for z, z_sym, ok in zs if not ok]
    assert result.metrics["failed"] == len(failed) == 3
    assert all(zs == (0.0, math.inf) for zs in failed)
    assert result.metrics["max_z"] == 1e18
    write_csv(tmp_path / "duality.csv", result)
    header, *lines = (tmp_path / "duality.csv").read_text().splitlines()
    assert header == "t,x,y,p_V,se_V,p_R,se_R,z,z_sym,pass"
    assert sum(line.endswith(",0.0,inf,False") for line in lines) == 3


def _rows_at(rows, t):
    return [row for row in rows if row["t"] == t]


@pytest.mark.parametrize("name", ["drift-ou", "dufresne"])
def test_duality_grid_runs_one_pair_for_every_t(monkeypatch, name):
    """One ``mc.run_together`` pair serves every t; its largest t gives
    the rows of a grid at that t alone, and the smaller t differ from it."""
    model, probes = get_preset(name).model, ([0.0, 1.0], [0.5, 1.0])
    pairs = _count_pairs(monkeypatch)
    rows = duality_grid(model, [0.5, 1.0, 2.0], *probes, 300, seed=4, grid_dt=0.01)
    assert pairs == [2]
    assert [row["t"] for row in rows] == [0.5] * 4 + [1.0] * 4 + [2.0] * 4
    alone = duality_grid(model, [2.0], *probes, 300, seed=4, grid_dt=0.01)
    assert _rows_at(rows, 2.0) == alone
    assert _rows_at(rows, 0.5) != [{**row, "t": 0.5} for row in _rows_at(rows, 2.0)]


@pytest.mark.parametrize("name", ["cramer-paulsen", "dufresne"])
def test_duality_grid_takes_t_in_any_order_and_repeated(name):
    """``ts`` in any order and with a repeat: the rows keep its order, and
    a repeated t reads the same checkpoint, so its rows repeat."""
    model, probes = get_preset(name).model, ([0.0, 1.0], [0.5])
    sorted_rows = duality_grid(model, [0.5, 1.0, 2.0], *probes, 200, seed=6, grid_dt=0.01)
    rows = duality_grid(model, [2.0, 0.5, 2.0, 1.0], *probes, 200, seed=6, grid_dt=0.01)
    assert [row["t"] for row in rows] == [2.0, 2.0, 0.5, 0.5, 2.0, 2.0, 1.0, 1.0]
    assert rows[:2] == rows[4:6] == _rows_at(sorted_rows, 2.0)
    assert rows[2:4] == _rows_at(sorted_rows, 0.5)
    assert rows[6:] == _rows_at(sorted_rows, 1.0)


def test_duality_grid_requires_condition_b():
    with pytest.raises(ConditionError, match=r"condition \(B\).*dU > -1"):
        duality_grid(get_preset("nonmonotone").model, [1.0], [0.0], [0.0], 10, 1)


def test_monotonicity_dichotomy():
    m = get_preset("drift-ou").model
    ok = monotonicity_probe(m, 1.0, 0.5, [-1.0, 0.0, 1.0], 10_000, seed=41)
    assert all(p["violations"] == 0 for p in ok["pairs"]) and m.condition_b
    m = get_preset("nonmonotone").model
    bad = monotonicity_probe(m, 1.0, 0.5, [-1.0, 0.0, 1.0], 10_000, seed=42)
    assert not m.condition_b
    assert bad["max_z"] > 4.0


def test_verify_ruin_identity_smoke():
    m = get_preset("cramer-paulsen").model
    rows, metrics = verify_ruin_identity(
        m, [0.5, 1.0], horizon=40.0, n=20_000, seed=51, stationary_n=4000
    )
    assert all(row["pass"] for row in rows), rows
    for row in rows:
        assert 0.0 <= row["lhs"] <= 1.0
        assert 0.0 <= row["rhs"] <= 1.0
    assert metrics["mode"] == "first-passage-identity"


def test_verify_ruin_identity_margins_from_binomial_h_draw():
    """Each row's margin is the CI overlap of the path resamples and one
    Binomial(h_n, rhs) draw of the H side, both on the seed + 2 stream."""
    m = get_preset("cramer-paulsen").model
    xs, n, seed, h_n = [0.5, 1.0], 2000, 4, 1001
    rows, _ = verify_ruin_identity(m, xs, 40.0, n, seed, stationary_n=h_n)
    dist = gou.stationary_sampler(m, "noncausal", h_n, 40.0, seed + 1, label="ruin-H")
    h = ecdf(-dist.values)
    res = mc.ruin_samples(m, 40.0, n, seed, xs)
    boot_rng = np.random.default_rng(seed + 2)
    for j, (x, row) in enumerate(zip(xs, rows)):
        weights = np.where(res["hit"][:, j], h.cdf(-res["v_tau"][:, j]), 0.0)
        lhs_boot = [weights[boot_rng.integers(0, n, size=n)].mean() for _ in range(duality._N_BOOT)]
        rhs_boot = boot_rng.binomial(h_n, h.cdf(-x), size=duality._N_BOOT) / h_n
        l_lo, l_hi = (float(np.quantile(lhs_boot, q)) for q in (0.005, 0.995))
        r_lo, r_hi = (float(np.quantile(rhs_boot, q)) for q in (0.005, 0.995))
        assert 0.0 < h.cdf(-x) < 1.0 and row["rhs"] == h.cdf(-x)
        assert row["margin"] == min(r_hi - l_lo, l_hi - r_lo)


def test_binomial_count_has_the_law_of_an_index_resample_count():
    """The count of H <= -x in a resample of h_n values, of which ``below``
    are <= -x, is Binomial(h_n, below / h_n): a two-sample KS test of
    binomial counts against index-resample counts passes at the ks level."""
    h_n, below, k = 1001, 287, 4000
    rng = np.random.default_rng(17)
    counts = np.count_nonzero(rng.integers(0, h_n, size=(k, h_n)) < below, axis=1)
    binom = rng.binomial(h_n, below / h_n, size=k)
    ks = ks_two_sample(ecdf(counts), ecdf(binom))
    assert verdict("ks", "binomial vs resample", ks.pvalue, (ks.pvalue,))["pass"], ks


def test_verify_ruin_identity_rejects_degenerate():
    m = get_preset("degenerate-k").model
    with pytest.raises(ConditionError):
        verify_ruin_identity(m, [1.0], 10.0, 100, 1, stationary_n=200)


def _no_sampling(monkeypatch):
    """Make every sampler the ruin verdicts call raise."""

    def sampled(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(duality, "stationary_sampler", sampled)
    monkeypatch.setattr(duality.mc, "ruin_samples", sampled)
    monkeypatch.setattr(duality.mc, "terminal_samples", sampled)


def test_verify_ruin_identity_requires_condition_b(monkeypatch, sign_flip_model):
    """H(-V_tau) is the identity's weight only while E(U) > 0."""
    _no_sampling(monkeypatch)
    with pytest.raises(ConditionError, match="dU > -1"):
        verify_ruin_identity(sign_flip_model, [1.0], 10.0, 100, 1, stationary_n=200)


def test_verify_ruin_identity_refuses_gaussian_part(monkeypatch):
    """V_tau comes from the ruin scan of event boundaries, which has no
    grid-lane form: a Gaussian model refuses before anything is sampled."""
    _no_sampling(monkeypatch)
    m = LevyModel2(drift=(1.0, 0.5), gaussian_cov=((0.5, 0.0), (0.0, 0.5)))
    with pytest.raises(ConditionError, match="without a Gaussian part"):
        verify_ruin_identity(m, [1.0], 40.0, 2000, 1, stationary_n=2000)


@pytest.mark.parametrize("kind", ["sign-flip", "gaussian"])
def test_ruin_scan_and_identity_refuse_with_one_message(monkeypatch, sign_flip_model, kind):
    """The ruin scan and the first-passage identity decide the scan's
    hypotheses in one place: both refuse with the same text."""
    gaussian = LevyModel2(drift=(1.0, 0.5), gaussian_cov=((0.5, 0.0), (0.0, 0.5)))
    m = sign_flip_model if kind == "sign-flip" else gaussian
    with pytest.raises(ConditionError) as scan:
        mc.ruin_samples(m, 10.0, 100, 1, [1.0])
    _no_sampling(monkeypatch)
    with pytest.raises(ConditionError) as identity:
        verify_ruin_identity(m, [1.0], 10.0, 100, 1, stationary_n=200)
    assert str(identity.value) == str(scan.value)
    assert ("condition (B)" if kind == "sign-flip" else "Gaussian part") in str(scan.value)
