import math

import numpy as np
import pytest

from gouflow import (
    ConditionError,
    dual_model,
    dual_path,
    dual_solve,
    duality_grid,
    killed_dual,
    make_dual_pair,
    monotonicity_probe,
    ruin_probability,
    solve_forward,
    verify_ruin_identity,
)
from gouflow.levy import JumpLaw2, LevyModel2
from gouflow.paths import Jump, Path, Segment, eta_path, path_values, sample_path
from gouflow.presets import get_preset

from conftest import make_stream


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
        if any(ev.du <= -1.0 for ev in p.jumps()):
            with pytest.raises(ConditionError):
                dual_path(p, sign_flip_model)
            return
    pytest.fail("no sign-flipping path sampled")


def test_make_dual_pair_flags(subordinator_model):
    pair = make_dual_pair(subordinator_model)
    assert pair.l_subordinator
    assert not pair.neg_l_subordinator
    assert pair.degenerate_k is None


def test_killed_dual_equals_clipped(subordinator_model):
    pair = make_dual_pair(subordinator_model)
    hit_zero = 0
    for i in range(100):
        p = sample_path(pair.dual, 3.0, make_stream("kd", i))
        traj = dual_solve_from_own_path(p, pair.dual, 0.5)
        clipped = killed_dual(traj, pair)
        assert np.all(clipped.values >= 0.0)
        if (traj.values.values <= 0).any():
            hit_zero += 1
    assert hit_zero > 0  # the check inside killed_dual actually exercised


def dual_solve_from_own_path(path, model, y):
    return solve_forward(path, model, y)


def test_killed_dual_requires_subordinator(mixed_jump_model):
    pair = make_dual_pair(mixed_jump_model)  # L has negative jumps
    p = sample_path(pair.dual, 1.0, make_stream("kd-bad", 0))
    traj = solve_forward(p, pair.dual, 0.5)
    with pytest.raises(ConditionError):
        killed_dual(traj, pair)


# ---------------------------------------------------------------------------
# hit probabilities
# ---------------------------------------------------------------------------


def test_ruin_probability_matches_vectorized_barrier(mixed_jump_model):
    """The hit count must equal the i_min barrier criterion on the same
    streams."""
    from gouflow import mc
    from gouflow.rng import stream

    m = mixed_jump_model
    res = ruin_probability(m, 0.4, horizon=3.0, n=400, seed=21, stationary_n=1000)
    data = mc.terminal_samples(m, 3.0, 400, 21, 1e-3, 1, "ruin")
    assert res.hits == int(np.count_nonzero(0.4 + data["i_min"] <= 0))
    assert 0 < res.hits < 400
    assert res.ci[0] <= res.hit_prob <= res.ci[1]
    assert res.companion_tail is not None


def test_ruin_probability_subordinator_never_hits_from_above(subordinator_model):
    res = ruin_probability(
        subordinator_model, 0.4, horizon=3.0, n=400, seed=22, stationary_n=500
    )
    assert res.hits == 0
    assert res.ci[0] == 0.0


def test_ruin_probability_boundary_hits_without_condition_b():
    """nonmonotone at x = 1: L = 0, so V = E(U) first drops below 0 at the
    first dU = -2 jump, which arrives at rate 0.75: P(tau <= T) = 1 - e^{-0.75 T}."""
    res = ruin_probability(get_preset("nonmonotone").model, 1.0, horizon=1.0, n=2000, seed=7)
    exact = -math.expm1(-0.75)
    assert abs(res.hit_prob - exact) < 4 * math.sqrt(exact * (1 - exact) / res.n)
    assert res.companion_tail is None
    assert any("condition (B) fails" in w for w in res.warnings)


def test_ruin_probability_refuses_gaussian_part_without_condition_b():
    law = JumpLaw2.point_mass([((-2.0, 0.0), 1.0)])
    m = LevyModel2(
        drift=(0.0, 0.0), gaussian_cov=((0.1, 0.0), (0.0, 0.0)), jump_intensity=1.0, jump_law=law
    )
    assert not m.condition_b
    with pytest.raises(ConditionError):
        ruin_probability(m, 1.0, horizon=1.0, n=10, seed=1)


# ---------------------------------------------------------------------------
# statistical identities (moderate n; acceptance runs the full budgets)
# ---------------------------------------------------------------------------


def test_duality_grid_passes_on_drift_ou():
    m = get_preset("drift-ou").model
    probes = duality_grid(m, [1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 20_000, seed=31)
    assert len(probes) == 9
    assert all(p.passed and p.passed_sym for p in probes)


def test_duality_grid_requires_condition_b():
    with pytest.raises(ConditionError):
        duality_grid(get_preset("nonmonotone").model, [1.0], [0.0], [0.0], 10, 1)


def test_monotonicity_dichotomy():
    ok = monotonicity_probe(
        get_preset("drift-ou").model, 1.0, 0.5, [-1.0, 0.0, 1.0], 10_000, seed=41
    )
    assert ok["monotone"] and ok["condition_b"]
    bad = monotonicity_probe(
        get_preset("nonmonotone").model, 1.0, 0.5, [-1.0, 0.0, 1.0], 10_000, seed=42
    )
    assert not bad["condition_b"]
    assert bad["max_z"] > 4.0


def test_verify_ruin_identity_smoke():
    m = get_preset("cramer-paulsen").model
    rep = verify_ruin_identity(
        m, [0.5, 1.0], horizon=40.0, n=20_000, seed=51,
        stationary_horizon=40.0, stationary_n=4000,
    )
    assert rep["pass"], rep
    for probe in rep["probes"]:
        assert 0.0 <= probe["lhs"] <= 1.0
        assert 0.0 <= probe["rhs"] <= 1.0


def test_verify_ruin_identity_rejects_degenerate():
    m = get_preset("degenerate-k").model
    with pytest.raises(ConditionError):
        verify_ruin_identity(m, [1.0], 10.0, 100, 1, stationary_n=200)
