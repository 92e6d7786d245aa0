import math

import numpy as np
import pytest

from gouflow import mc
from gouflow.gou import causal_integral, solve_forward, stationary_sampler
from gouflow.levy import ConditionError
from gouflow.paths import Jump, Segment, sample_path
from gouflow.presets import get_preset

from conftest import make_stream
from oracles import euler_on_path, path_from_events, path_jumps, solve_sde_euler


def test_zero_model_keeps_start():
    m = get_preset("zero").model
    p = sample_path(m, 2.0, make_stream("zero", 0))
    traj = solve_forward(p, m, 1.7)
    assert np.all(traj.values.values == 1.7)


def test_explicit_solution_matches_direct_stepping(mixed_jump_model):
    """[DERIVED] oracle: the explicit formula vs stepping the SDE event by
    event with closed-form drift segments — two independent routes."""
    for i in range(200):
        p = sample_path(mixed_jump_model, 2.0, make_stream("fwd", i))
        for x in (-1.0, 0.0, 2.5):
            traj = solve_forward(p, mixed_jump_model, x)
            direct = euler_on_path(p, mixed_jump_model, x)
            scale = 1.0 + np.maximum(np.abs(traj.values.values), np.abs(direct.values))
            assert np.max(np.abs(traj.values.values - direct.values) / scale) < 1e-10


def test_solution_under_sign_flips(sign_flip_model):
    """Condition (A) only: the solver must survive negative exponentials."""
    for i in range(50):
        p = sample_path(sign_flip_model, 2.0, make_stream("flip", i))
        traj = solve_forward(p, sign_flip_model, 1.0)
        direct = euler_on_path(p, sign_flip_model, 1.0)
        scale = 1.0 + np.maximum(np.abs(traj.values.values), np.abs(direct.values))
        assert np.max(np.abs(traj.values.values - direct.values) / scale) < 1e-10


def test_affine_dependence_on_start(mixed_jump_model):
    p = sample_path(mixed_jump_model, 1.5, make_stream("affine", 0))
    t0 = solve_forward(p, mixed_jump_model, 0.0)
    t1 = solve_forward(p, mixed_jump_model, 1.0)
    t5 = solve_forward(p, mixed_jump_model, 5.0)
    # V^x = E * x + V^0, so V^5 = 5 (V^1 - V^0) + V^0
    lhs = t5.values.values
    rhs = 5.0 * (t1.values.values - t0.values.values) + t0.values.values
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_jump_update_identity(mixed_jump_model):
    """(1 + dU)(V + d_eta) == V(1 + dU) + dL at every jump."""
    p = sample_path(mixed_jump_model, 2.0, make_stream("jumps", 1))
    traj = solve_forward(p, mixed_jump_model, 0.7)
    k = 0
    for idx, ev in enumerate(p.events, start=1):
        if isinstance(ev, Jump):
            v_left = traj.values.values[idx - 1]
            v_right = traj.values.values[idx]
            assert v_right == pytest.approx(
                v_left * (1.0 + ev.du) + ev.dl, rel=1e-12, abs=1e-12
            )
            k += 1
    assert k == len(path_jumps(p))


def test_solve_forward_rejects_minus_one():
    p = path_from_events(
        horizon=1.0,
        events=(Segment(1.0, 0.0, 0.0), Jump(1.0, -1.0, 0.5)),
        backend="exact",
    )
    m = get_preset("zero").model
    with pytest.raises(ConditionError):
        solve_forward(p, m, 0.0)


def test_euler_scheme_converges_to_explicit(dufresne_model):
    """The independent grid discretization approaches the explicit-formula
    solution on the same driving increments as the grid refines."""
    errs = []
    for dt in (4e-3, 1e-3):
        diffs = []
        for i in range(30):
            path, traj = solve_sde_euler(
                dufresne_model, 1.0, 1.0, dt, make_stream(f"euler{dt}", i)
            )
            ref = solve_forward(path, dufresne_model, 1.0)
            diffs.append(abs(traj.values.values[-1] - ref.values.values[-1]))
        errs.append(np.median(diffs))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-2


def test_causal_integral_via_integration_by_parts(mixed_jump_model):
    """[DERIVED] oracle: C_T = int E_{s-} dL_s satisfies
    V_T^0 = E_T * I_T and also V_T^0 from the (y - C)/E dual route:
    E_T * I_T == direct recursion on (E, C) checked through solve_pair."""
    for i in range(50):
        p = sample_path(mixed_jump_model, 2.0, make_stream("causal", i))
        c = causal_integral(p, mixed_jump_model)
        # independent route: step C directly event by event
        e = 1.0
        acc = 0.0
        b_u, b_l = mixed_jump_model.drift
        for ev in p.events:
            if isinstance(ev, Segment):
                a, cc = ev.du, ev.dl
                if a == 0.0:
                    acc += cc * e
                else:
                    acc += cc / a * e * math.expm1(a)
                e *= math.exp(a)
            else:
                acc += e * ev.dl
                e *= 1.0 + ev.du
        assert c.values[-1] == pytest.approx(acc, rel=1e-11, abs=1e-12)


def test_exp_functional_diagnostics(dufresne_model):
    vals, diags = mc.exp_functional_samples(dufresne_model, "causal", 1, 15.0, seed=999)
    val, diag = vals[0], diags[0]
    assert val > 0  # unit income stream discounted positively
    assert diag < 1e-6  # contracting regime: E_T tiny
    with pytest.raises(ValueError):
        mc.exp_functional_samples(dufresne_model, "bogus", 1, 1.0, seed=999)


def test_stationary_sampler_flags_divergence():
    # expanding exponential: the causal functional diverges, diagnostics fire
    m = get_preset("cramer-paulsen").model
    dist = stationary_sampler(m, "causal", 500, 40.0, seed=5)
    assert dist.metadata["flagged"]
    # the noncausal one converges for the same model
    dist2 = stationary_sampler(m, "noncausal", 500, 40.0, seed=5)
    assert not dist2.metadata["flagged"]


def test_stationary_sampler_converging_case():
    m = get_preset("drift-ou").model
    dist = stationary_sampler(m, "causal", 1000, 30.0, seed=6)
    assert not dist.metadata["flagged"]
    assert dist.n == 1000


def test_degenerate_model_constant_solution():
    m = get_preset("degenerate-k").model
    for i in range(20):
        p = sample_path(m, 2.0, make_stream("deg", i))
        traj = solve_forward(p, m, 2.0)
        assert np.max(np.abs(traj.values.values - 2.0)) < 1e-10
