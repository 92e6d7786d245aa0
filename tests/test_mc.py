import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouflow import mc
from gouflow.levy import ConditionError, JumpLaw2, LevyModel2, Marginal
from gouflow.paths import draw_jumps, exact_paths, sample_path
from gouflow.gou import causal_integral, solve_forward
from gouflow.presets import get_preset
from gouflow.rng import BLOCK_SIZE, stream
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


def _row(batch, i):
    """Row i of a stacked batch as a path of its own."""
    cols = dict(is_jump=batch.is_jump[i], t=batch.t[i], du=batch.du[i], dl=batch.dl[i])
    return replace(batch, **cols)


def test_jump_boundary_arrays_match_event_route(mixed_jump_model):
    """[DERIVED] cross-validation: the padded-array closed forms must equal
    the per-path solver on the same rows of ``exact_paths`` (one draw from
    an identical stream)."""
    m = mixed_jump_model
    horizon, n = 2.0, 40
    times, du, dl, counts = draw_jumps(m, horizon, stream(77, "boundary"), n)
    batch = exact_paths(m, horizon, stream(77, "boundary"), n)
    assert counts.min() < counts.max()  # rows carry padding

    e_bnd, i_bnd, c_final = mc._jump_boundary_arrays(
        times, du, dl, m.drift[0], m.drift[1], m.drift[1], horizon
    )
    for row in range(n):
        p = _row(batch, row)
        assert np.count_nonzero(p.is_jump) == counts[row]
        traj = solve_forward(p, m, 0.0)
        c = causal_integral(p, m)
        assert e_bnd[row, -1] == pytest.approx(traj.exponential.final(), rel=1e-11)
        assert i_bnd[row, -1] == pytest.approx(traj.integral.final(), rel=1e-11, abs=1e-12)
        assert c_final[row] == pytest.approx(c.final(), rel=1e-11, abs=1e-12)
        # every boundary, and the running minimum over them, match too
        np.testing.assert_allclose(e_bnd[row], traj.exponential.values[1:], rtol=1e-11)
        np.testing.assert_allclose(i_bnd[row], traj.integral.values[1:], rtol=1e-11, atol=1e-12)
        ref_min = min(
            0.0, float(traj.integral.values.min()), float(traj.integral.lefts.min())
        )
        assert min(0.0, i_bnd[row].min()) == pytest.approx(ref_min, abs=1e-11)


# The jump lane before row tiles: one kernel call on the whole block and
# six exp calls.  The tiled lane must reproduce it bit for bit.


def _untiled_interval_integrals(a, t0, t1, sign):
    z = sign * a
    if z == 0.0:
        return t1 - t0
    return (np.exp(z * t1) - np.exp(z * t0)) / z


def _untiled_boundary_arrays(times, du, dl, a, c_eta, c_l, horizon):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n, kmax = times.shape
        prod1 = 1.0 + du
        p = np.cumprod(prod1, axis=1)
        p_ext = np.concatenate([np.ones((n, 1)), p], axis=1)
        t_ext = np.concatenate([np.zeros((n, 1)), times, np.full((n, 1), horizon)], axis=1)
        t0, t1 = t_ext[:, :-1], t_ext[:, 1:]
        gap_i = c_eta * _untiled_interval_integrals(a, t0, t1, -1) / p_ext
        gap_c = c_l * _untiled_interval_integrals(a, t0, t1, +1) * p_ext
        e_left_at_jump = np.exp(a * times) * p_ext[:, :-1]
        jump_i = (dl / prod1) / e_left_at_jump
        jump_c = dl * e_left_at_jump
        inc_i = np.empty((n, 2 * kmax + 1))
        inc_i[:, 0::2] = gap_i
        inc_i[:, 1::2] = jump_i
        i_bnd = np.cumsum(inc_i, axis=1)
        e_bnd = np.empty((n, 2 * kmax + 1))
        e_bnd[:, 0::2] = np.exp(a * t1) * p_ext
        e_bnd[:, 1::2] = e_left_at_jump * prod1
        c_final = gap_c.sum(axis=1) + jump_c.sum(axis=1)
    return e_bnd, i_bnd, c_final


def _untiled_jump_block(model, horizon, rng, size):
    times, du, dl, _ = draw_jumps(model, horizon, rng, size)
    b_u, b_l = model.drift
    e_bnd, i_bnd, c_final = _untiled_boundary_arrays(times, du, dl, b_u, b_l, b_l, horizon)
    return {
        "e": e_bnd[:, -1],
        "i": i_bnd[:, -1],
        "c": c_final,
        "i_min": np.minimum(i_bnd.min(axis=1), 0.0),
        "u": b_u * horizon + du.sum(axis=1),
        "l": b_l * horizon + dl.sum(axis=1),
    }


def _untiled_ruin(model, horizon, rng, size, xs, h_cdf):
    """Per-probe hit flags and H-weights of one untiled ruin block."""
    times, du, dl, _ = draw_jumps(model, horizon, rng, size)
    b_u, b_l = model.drift
    e_bnd, i_bnd, _ = _untiled_boundary_arrays(times, du, dl, b_u, b_l, b_l, horizon)
    hits, weights = [], []
    for x in xs:
        if x <= 0.0:
            hits.append(np.ones(size, dtype=bool))
            if h_cdf is not None:
                weights.append(np.full(size, float(np.asarray(h_cdf(-x)))))
            continue
        v_bnd = e_bnd * (x + i_bnd)
        below = v_bnd <= 0.0
        hit = below.any(axis=1)
        hits.append(hit)
        if h_cdf is None:
            continue
        first = below.argmax(axis=1)
        rows = np.arange(size)
        v_tau = v_bnd[rows, first]
        if b_l != 0.0:
            prev_pos = (first % 2 == 0) & (first > 0)
            prev_pos &= v_bnd[rows, np.maximum(first - 1, 0)] > 0.0
            v_tau = np.where(prev_pos, 0.0, v_tau)
        weights.append(np.where(hit, h_cdf(np.where(hit, -v_tau, 0.0)), 0.0))
    return hits, weights


def _assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _h_cdf(v):
    return np.clip(0.5 + 0.2 * np.asarray(v, float), 0.0, 1.0)


def _check_tiled_lane_bitwise(model, horizon, size, seed):
    tiled = mc._jump_block(model, horizon, stream(seed, "tiles", 0), size)
    ref = _untiled_jump_block(model, horizon, stream(seed, "tiles", 0), size)
    for key in ("e", "i", "c", "i_min", "u", "l"):
        _assert_bitwise(tiled[key], ref[key])

    xs = [-0.5, 0.0, 0.25, 1.0, 3.0]
    h_cdf = _h_cdf if model.condition_b else None
    res = mc.ruin_samples(model, horizon, size, seed, xs, h_cdf=h_cdf, label="tiles")
    hits, weights = _untiled_ruin(model, horizon, stream(seed, "tiles", 0), size, xs, h_cdf)
    assert res["hits"].tolist() == [int(h.sum()) for h in hits]
    for j, w in enumerate(weights):
        _assert_bitwise(res[f"weights_{j}"], w)


@pytest.mark.parametrize("size", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize(
    "name", ["zero", "drift-ou", "cramer-paulsen", "degenerate-k", "nonmonotone"]
)
def test_tiled_jump_lane_is_bitwise_untiled(name, size):
    """Row tiles and the shared e^{+-a t} per boundary change no bit of the
    lane's samples, hit counts or H-weights, on either side of a tile
    boundary."""
    preset = get_preset(name)
    horizon = preset.recommended.get("horizon", 20.0)
    _check_tiled_lane_bitwise(preset.model, horizon, size, seed=21)


_point_mass_laws = st.lists(
    st.tuples(
        st.floats(-3.0, 2.0).filter(lambda u: abs(u + 1.0) > 1e-3),
        st.floats(-2.0, 2.0),
    ),
    min_size=1,
    max_size=3,
).map(lambda atoms: JumpLaw2.point_mass([(a, 1.0 / len(atoms)) for a in atoms]))
_exponential_laws = st.builds(
    JumpLaw2.independent,
    st.builds(Marginal.exponential, st.floats(0.5, 4.0), st.sampled_from([-1, 1])),
    st.builds(Marginal.exponential, st.floats(0.5, 4.0), st.sampled_from([-1, 1])),
)


@given(
    law=st.one_of(_point_mass_laws, _exponential_laws),
    b_u=st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
    b_l=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    intensity=st.floats(0.5, 3.0),
    horizon=st.floats(0.5, 6.0),
    size=st.sampled_from([1, 255, 256, 257, 600]),
)
@settings(max_examples=30, deadline=None)
def test_tiled_jump_lane_is_bitwise_untiled_random_laws(law, b_u, b_l, intensity, horizon, size):
    model = LevyModel2(drift=(b_u, b_l), jump_intensity=intensity, jump_law=law)
    _check_tiled_lane_bitwise(model, horizon, size, seed=22)


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


# The grid lane before its normals were drawn ahead: one draw per step on
# the calling thread.  The lane must reproduce it bit for bit.


def _serial_diffusion_block(model, horizon, rng, size, grid_dt):
    b_u, b_l = model.drift
    suu = model.sigma_u_sq
    drift_eta = b_l - model.sigma_ul
    nsteps = max(1, math.ceil(horizon / grid_dt))
    dt = horizon / nsteps
    chol = mc._cov_sqrt(model.gaussian_cov) * math.sqrt(dt)
    u_noise_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
    e = np.ones(size)
    i = np.zeros(size)
    c = np.zeros(size)
    i_min = np.zeros(size)
    u = np.zeros(size)
    l = np.zeros(size)
    for _ in range(nsteps):
        if u_noise_only:
            zu = rng.standard_normal(size) * math.sqrt(suu * dt)
            zl = 0.0
        else:
            z = rng.standard_normal((size, 2)) @ chol.T
            zu, zl = z[:, 0], z[:, 1]
        e_new = e * np.exp(b_u * dt + zu - 0.5 * suu * dt)
        inv_e = 1.0 / e
        i += drift_eta * dt * 0.5 * (inv_e + 1.0 / e_new) + inv_e * zl
        c += b_l * dt * 0.5 * (e + e_new) + e * zl
        u += b_u * dt + zu
        l += b_l * dt + zl
        e = e_new
        np.minimum(i_min, i, out=i_min)
        if model.has_jumps:
            counts = rng.poisson(model.jump_intensity * dt, size)
            for r in range(counts.max()):
                rows = np.flatnonzero(counts > r)
                du, dl = model.jump_law.sample(rng, rows.size)
                e_left = e[rows]
                i[rows] += dl / ((1.0 + du) * e_left)
                c[rows] += e_left * dl
                e[rows] = e_left * (1.0 + du)
                u[rows] += du
                l[rows] += dl
                i_min[rows] = np.minimum(i_min[rows], i[rows])
    return {"e": e, "i": i, "c": c, "i_min": i_min, "u": u, "l": l}


_GRID_MODELS = {
    "dufresne": get_preset("dufresne").model,
    "correlated-gauss": LevyModel2(drift=(-1.0, 0.5), gaussian_cov=((1.0, 0.3), (0.3, 0.5))),
    "l-only": LevyModel2(drift=(-0.5, 0.2), gaussian_cov=((0.0, 0.0), (0.0, 0.7))),
    "jump-diffusion": LevyModel2(
        drift=(-1.0, 1.0),
        gaussian_cov=((0.5, 0.0), (0.0, 0.0)),
        jump_intensity=1.0,
        jump_law=JumpLaw2.point_mass([((0.5, 0.5), 0.5), ((-0.3, 0.2), 0.5)]),
    ),
}


def _chunk_steps(model, size):
    """Steps per chunk of normals drawn ahead for this model and block size."""
    u_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
    return max(1, mc._CHUNK_ELEMENTS // (size * (1 if u_only else 2)))


def _check_grid_lane_bitwise(model, nsteps, size, dt=1e-3, seed=31):
    ahead = mc._diffusion_block(model, nsteps * dt, stream(seed, "grid", size), size, dt)
    ref = _serial_diffusion_block(model, nsteps * dt, stream(seed, "grid", size), size, dt)
    for key in ("e", "i", "c", "i_min", "u", "l"):
        _assert_bitwise(ahead[key], ref[key])
    return ahead


@pytest.mark.parametrize("offset", ["one", -1, 0, 1])
@pytest.mark.parametrize("size", [1, 7, 4096])
@pytest.mark.parametrize("name", list(_GRID_MODELS))
def test_grid_lane_is_bitwise_serial(name, size, offset):
    """Normals drawn a chunk ahead on a helper thread change no bit of the
    lane's samples: one step, and k - 1, k and k + 1 steps around the
    chunk length k.  The jump-diffusion model draws on the calling thread."""
    model = _GRID_MODELS[name]
    nsteps = 1 if offset == "one" else _chunk_steps(model, size) + offset
    _check_grid_lane_bitwise(model, nsteps, size)


def test_grid_lane_is_bitwise_serial_when_e_overflows():
    """E(U) overflows within the third chunk: the inf and NaN positions and
    every finite bit still match the serial lane."""
    model = LevyModel2(drift=(2000.0, 0.5), gaussian_cov=((1.0, 0.3), (0.3, 0.5)))
    nsteps = 2 * _chunk_steps(model, 4096) + 3
    with np.errstate(all="ignore"):
        out = _check_grid_lane_bitwise(model, nsteps, 4096, dt=0.05)
    assert np.isinf(out["e"]).all() and np.isnan(out["c"]).any()


def test_terminal_samples_two_blocks_worker_independent(dufresne_model):
    """Two blocks, each with its own draw-ahead thread, give the same bytes
    at workers 1 and 2, and the serial lane's."""
    n, horizon = 2 * BLOCK_SIZE, 0.05
    one = mc.terminal_samples(dufresne_model, horizon, n, seed=17, workers=1)
    two = mc.terminal_samples(dufresne_model, horizon, n, seed=17, workers=2)
    serial = mc.run_blocks(
        n, lambda rng, size: _serial_diffusion_block(dufresne_model, horizon, rng, size, 1e-3),
        seed=17, label="terminal",
    )
    for key in ("e", "i", "c", "i_min", "u", "l"):
        assert one[key].tobytes() == two[key].tobytes() == serial[key].tobytes()


class _DrawError(Exception):
    pass


class _CountingStream:
    """A stream stand-in that records the thread of every normal draw and
    raises on fill ``fail_at`` (counted from 1)."""

    def __init__(self, seed, fail_at=None):
        self._rng = stream(seed, "counting")
        self.fail_at = fail_at
        self.error = _DrawError("draw failed")
        self.threads = []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        if len(self.threads) == self.fail_at:
            raise self.error
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_grid_lane_draws_ahead_only_without_jumps(dufresne_model):
    """A normals-only stream is filled on one helper thread; a model with
    jumps keeps every draw on the calling thread."""
    size = 64
    k = _chunk_steps(dufresne_model, size)
    rng = _CountingStream(1)
    mc._diffusion_block(dufresne_model, (2 * k + 1) * 1e-3, rng, size, 1e-3)
    assert len(rng.threads) == 3
    assert len(set(rng.threads)) == 1 and rng.threads[0] != threading.get_ident()

    rng = _CountingStream(1)
    mc._diffusion_block(_GRID_MODELS["jump-diffusion"], 5e-3, rng, size, 1e-3)
    assert rng.threads == [threading.get_ident()] * 5


def test_helper_draw_error_reaches_caller_and_threads_end(dufresne_model):
    baseline = threading.active_count()
    size = 64
    k = _chunk_steps(dufresne_model, size)
    mc._diffusion_block(dufresne_model, (2 * k + 1) * 1e-3, _CountingStream(1), size, 1e-3)
    assert threading.active_count() == baseline

    rng = _CountingStream(1, fail_at=3)
    with pytest.raises(_DrawError) as info:
        mc._diffusion_block(dufresne_model, 3 * k * 1e-3, rng, size, 1e-3)
    assert info.value is rng.error
    assert threading.active_count() == baseline


def test_step_error_ends_helper_thread():
    """An error in the step arithmetic, raised while the next chunk may
    still be drawing, leaves no thread behind."""
    model = LevyModel2(drift=(2000.0, 0.5), gaussian_cov=((1.0, 0.0), (0.0, 0.0)))
    baseline = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        mc._diffusion_block(model, 1.0, stream(2, "overflow"), 4096, 0.01)
    assert threading.active_count() == baseline


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
    # the H-weights of the first-passage identity need E(U) > 0
    with pytest.raises(ConditionError):
        mc.ruin_samples(sign_flip_model, 1.0, 10, 1, [1.0], h_cdf=lambda v: v)


def test_ruin_samples_refuse_non_finite_boundary_values():
    """E = e^{-T} underflows to 0 at T = 800, so I = int E^{-1} d eta is
    inf and V = E (x + I) would be NaN: the scan refuses with the count of
    non-finite E/I boundary values instead of counting no hit."""
    m = LevyModel2(drift=(-1.0, -1.0))
    with pytest.raises(ConditionError, match="16 of 32 ruin-scan E/I boundary samples"):
        mc.ruin_samples(m, 800.0, 16, seed=3, x_probes=[0.5])
    # probes at or below the barrier read no boundary value
    assert mc.ruin_samples(m, 800.0, 16, seed=3, x_probes=[-0.5])["hits"][0] == 16


@pytest.mark.parametrize("name", ["sign-flip", "nonmonotone"])
def test_ruin_samples_without_condition_b_match_per_path_solver(sign_flip_model, name):
    """E(U) changes sign at jumps below -1: the lane's boundary hit count
    equals the rows of the same block's ``exact_paths`` whose solved V
    reaches <= 0."""
    m = sign_flip_model if name == "sign-flip" else get_preset("nonmonotone").model
    assert not m.condition_b
    n, horizon, xs = 1000, 2.0, [0.25, 1.0, 3.0]
    res = mc.ruin_samples(m, horizon, n, seed=8, x_probes=xs)
    batch = exact_paths(m, horizon, stream(8, "ruin", 0), n)
    for j, x in enumerate(xs):
        v = solve_forward(batch, m, x).values.values
        hits = int(np.count_nonzero((v <= 0.0).any(axis=1)))
        assert res["hits"][j] == hits, (x, res["hits"][j], hits)
        assert 0 < hits < n


def test_exp_functional_samples_signs(subordinator_model):
    vals, diags = mc.exp_functional_samples(
        subordinator_model, "causal", 2000, 30.0, seed=6
    )
    assert np.all(vals >= 0.0)  # subordinator input, positive exponential
    assert np.all(diags >= 0.0)
    with pytest.raises(ValueError):
        mc.exp_functional_samples(subordinator_model, "nope", 10, 1.0, 1)
