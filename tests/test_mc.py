import math

import numpy as np
import pytest

from gouflow import mc
from gouflow.levy import ConditionError, JumpLaw2, LevyModel2
from gouflow.paths import Jump, Path, Segment, sample_path
from gouflow.gou import causal_integral, solve_forward
from gouflow.presets import get_preset
from gouflow.stats import ecdf, ks_two_sample


# ---------------------------------------------------------------------------
# blocked driver
# ---------------------------------------------------------------------------


def test_run_blocks_worker_independence():
    def fn(rng, size):
        return {"x": rng.standard_normal(size)}

    a = mc.run_blocks(10_000, fn, seed=1, label="w", workers=1)
    b = mc.run_blocks(10_000, fn, seed=1, label="w", workers=4)
    assert np.array_equal(a["x"], b["x"])


def test_run_blocks_label_isolation():
    def fn(rng, size):
        return {"x": rng.standard_normal(size)}

    a = mc.run_blocks(1000, fn, seed=1, label="a")
    b = mc.run_blocks(1000, fn, seed=1, label="b")
    assert not np.array_equal(a["x"], b["x"])


def test_run_blocks_prefix_stability():
    """The first k samples do not depend on the total count."""

    def fn(rng, size):
        return {"x": rng.standard_normal(size)}

    small = mc.run_blocks(5000, fn, seed=2, label="p")
    big = mc.run_blocks(9000, fn, seed=2, label="p")
    assert np.array_equal(small["x"], big["x"][:5000])


# ---------------------------------------------------------------------------
# jump lane, grid lane and the per-path event-list route
# ---------------------------------------------------------------------------


def _path_from_arrays(model, horizon, jt, ju, jl):
    events = []
    t = 0.0
    b_u, b_l = model.drift
    for time, du, dl in zip(jt, ju, jl):
        if time - t > 1e-12:
            events.append(Segment(time - t, b_u * (time - t), b_l * (time - t)))
        events.append(Jump(float(time), float(du), float(dl)))
        t = float(time)
    if horizon - t > 1e-12:
        events.append(Segment(horizon - t, b_u * (horizon - t), b_l * (horizon - t)))
    return Path.from_events(horizon=horizon, events=events, backend="exact")


def test_jump_boundary_arrays_match_event_route(mixed_jump_model):
    """[DERIVED] cross-validation: the padded-array closed forms must equal
    the per-path event-list solver on identical jump data."""
    m = mixed_jump_model
    rng = np.random.default_rng(77)
    horizon = 2.0
    n, kmax = 40, 6
    counts = rng.integers(0, kmax + 1, size=n)
    times = rng.uniform(0, horizon, size=(n, kmax))
    du, dl = m.jump_law.sample(rng, n * kmax)
    du = du.reshape(n, kmax)
    dl = dl.reshape(n, kmax)
    pad = np.arange(kmax)[None, :] >= counts[:, None]
    times[pad] = horizon
    du[pad] = 0.0
    dl[pad] = 0.0
    order = np.argsort(times, axis=1)
    times = np.take_along_axis(times, order, axis=1)
    du = np.take_along_axis(du, order, axis=1)
    dl = np.take_along_axis(dl, order, axis=1)

    e_bnd, i_bnd, c_final = mc._jump_boundary_arrays(
        times, du, dl, counts, m.drift[0], m.drift[1], m.drift[1], horizon
    )
    for row in range(n):
        k = counts[row]
        p = _path_from_arrays(m, horizon, times[row, :k], du[row, :k], dl[row, :k])
        traj = solve_forward(p, m, 0.0)
        c = causal_integral(p, m)
        assert e_bnd[row, -1] == pytest.approx(traj.exponential.final(), rel=1e-11)
        assert i_bnd[row, -1] == pytest.approx(traj.integral.final(), rel=1e-11, abs=1e-12)
        assert c_final[row] == pytest.approx(c.final(), rel=1e-11, abs=1e-12)
        # running minimum over boundaries matches too
        ref_min = min(
            0.0, float(traj.integral.values.min()), float(traj.integral.lefts.min())
        )
        assert min(0.0, i_bnd[row].min()) == pytest.approx(ref_min, abs=1e-11)


def _per_path_reference(model, horizon, n, seed, grid_dt):
    """Independent route: sample, solve and reduce one event-list path at a
    time with the closed-form kernel (jumps at their exact times)."""
    rng = np.random.default_rng(seed)
    out = {k: np.empty(n) for k in ("e", "i", "c", "i_min", "u", "l")}
    for j in range(n):
        path = sample_path(model, horizon, rng, grid_dt)
        traj = solve_forward(path, model, 0.0)
        out["e"][j] = traj.exponential.final()
        out["i"][j] = traj.integral.final()
        out["c"][j] = causal_integral(path, model).final()
        out["i_min"][j] = min(
            0.0, float(traj.integral.values.min()), float(traj.integral.lefts.min())
        )
        out["u"][j] = path.du.sum()
        out["l"][j] = path.dl.sum()
    return out


def test_terminal_samples_jump_vs_grid_lane_same_law(mixed_jump_model):
    """The closed-form jump lane and the grid lane (jumps applied at step
    ends) draw differently but must agree in distribution."""
    m = mixed_jump_model
    a = mc.terminal_samples(m, 1.5, 4000, seed=9, label="lane-a")
    # the grid lane, called directly on the same pure-jump model
    grid = lambda rng, size: mc._diffusion_block(m, 1.5, rng, size, 1e-3)
    b = mc.run_blocks(4000, grid, seed=10, label="lane-b")
    # E(U)_T is atomic for a pure-jump model with point-mass jumps: the
    # lanes reach its atoms by different float routes
    a["e"], b["e"] = np.round(a["e"], 9), np.round(b["e"], 9)
    for key in ("e", "i", "c", "i_min"):
        ks = ks_two_sample(ecdf(a[key]), ecdf(b[key]))
        assert not ks.rejects(), (key, ks.statistic, ks.pvalue)


def test_grid_lane_matches_per_path_reference_with_jumps():
    """Gaussian noise in both components, correlated, plus compound-Poisson
    jumps: the grid lane must agree in law with the per-path event route."""
    law = JumpLaw2.point_mass([((0.5, -0.5), 0.5), ((-0.3, 0.4), 0.5)])
    m = LevyModel2(
        drift=(-0.5, 0.3),
        gaussian_cov=((0.4, 0.15), (0.15, 0.3)),
        jump_intensity=2.0,
        jump_law=law,
    )
    a = mc.terminal_samples(m, 1.0, 2000, seed=14, grid_dt=1e-2)
    b = _per_path_reference(m, 1.0, 2000, seed=15, grid_dt=1e-2)
    for key in ("e", "i", "c", "i_min", "u", "l"):
        ks = ks_two_sample(ecdf(a[key]), ecdf(b[key]))
        assert not ks.rejects(), (key, ks.statistic, ks.pvalue)


# ---------------------------------------------------------------------------
# diffusion lane
# ---------------------------------------------------------------------------


def test_diffusion_lane_exponential_moments(dufresne_model):
    """E(U)_t is lognormal with E[E_t] = e^{b_u t}; the lane must hit both
    the mean of log E and E's median."""
    t = 1.0
    res = mc.terminal_samples(dufresne_model, t, 40_000, seed=11, grid_dt=1e-3)
    log_e = np.log(res["e"])
    mu = (dufresne_model.drift[0] - 0.5 * dufresne_model.sigma_u_sq) * t
    sd = math.sqrt(dufresne_model.sigma_u_sq * t)
    assert abs(log_e.mean() - mu) < 4 * sd / math.sqrt(40_000)
    assert abs(log_e.std() - sd) < 0.02


def test_diffusion_lane_unit_income_integral(dufresne_model):
    """c = int_0^t E_s ds for unit L drift; its mean has the closed form
    (e^{b_u t} - 1)/b_u."""
    t = 1.0
    res = mc.terminal_samples(dufresne_model, t, 40_000, seed=12, grid_dt=1e-3)
    b = dufresne_model.drift[0]
    exact_mean = math.expm1(b * t) / b
    assert abs(res["c"].mean() - exact_mean) < 4 * res["c"].std() / 200 + 2e-3


def test_diffusion_lane_i_min_bounds(dufresne_model):
    res = mc.terminal_samples(dufresne_model, 1.0, 5000, seed=13)
    assert np.all(res["i_min"] <= 0.0)
    assert np.all(res["i_min"] <= np.minimum(res["i"], 0.0) + 1e-12)
    # unit positive L drift: I is increasing, so i_min must be exactly 0
    assert np.all(res["i_min"] == 0.0)


# ---------------------------------------------------------------------------
# ruin lane
# ---------------------------------------------------------------------------


def test_ruin_samples_deterministic_drift_crossing():
    """Pure drift: V^x = e^{-t}(x - int_0^t e^s ds) crosses 0 exactly when
    x > started above and the deterministic integral exceeds x."""
    m = LevyModel2(drift=(-1.0, -1.0))
    # I_t = -int e^{s} ds = 1 - e^{t}; crossing iff x + 1 - e^T <= 0
    res = mc.ruin_samples(m, horizon=1.0, n=16, seed=3, x_probes=[0.5, e_m1 := math.e - 1 + 0.01, -0.2])
    assert res["hit_prob"][0] == 1.0   # x = 0.5 < e - 1
    assert res["hit_prob"][1] == 0.0   # just above the reachable range
    assert res["hit_prob"][2] == 1.0   # starts below zero


def test_ruin_samples_weights_match_h_at_barrier():
    m = LevyModel2(drift=(-1.0, -1.0))
    h = lambda v: np.clip(np.asarray(v, float) * 0.1 + 0.5, 0.0, 1.0)
    res = mc.ruin_samples(m, 1.0, 8, seed=4, x_probes=[-0.3], h_cdf=h)
    # tau = 0, V_tau = x: every weight is H(0.3)
    assert np.allclose(res["weights_0"], h(0.3))


def test_ruin_samples_continuous_crossing_sets_zero_overshoot(subordinator_model):
    """With negative L drift... use a drifting-down model: continuous
    crossings must record V_tau = 0, jump crossings the overshoot."""
    law = JumpLaw2.point_mass([((0.0, -1.0), 1.0)])
    m = LevyModel2(drift=(0.0, 0.5), jump_intensity=1.0, jump_law=law)
    h = lambda v: np.clip(np.asarray(v, float), 0.0, 1.0)  # H(-V_tau) = -V_tau clipped
    res = mc.ruin_samples(m, 5.0, 2000, seed=5, x_probes=[0.25], h_cdf=h)
    w = res["weights_0"]
    hit = w > 0
    # overshoots live in (0, 1): V_tau in (-0.75-, 0] after a unit down-jump
    assert np.all(w[hit] <= 1.0)
    # some crossings overshoot strictly (jump-driven), none exceed jump size
    assert (w[hit] > 0.01).any()


def test_ruin_samples_rejects_unsupported_models(dufresne_model, sign_flip_model):
    with pytest.raises(NotImplementedError):
        mc.ruin_samples(dufresne_model, 1.0, 10, 1, [1.0])
    with pytest.raises(ConditionError):
        mc.ruin_samples(sign_flip_model, 1.0, 10, 1, [1.0])


def test_exp_functional_samples_signs(subordinator_model):
    vals, diags = mc.exp_functional_samples(
        subordinator_model, "causal", 2000, 30.0, seed=6
    )
    assert np.all(vals >= 0.0)  # subordinator input, positive exponential
    assert np.all(diags >= 0.0)
    with pytest.raises(ValueError):
        mc.exp_functional_samples(subordinator_model, "nope", 10, 1.0, 1)
