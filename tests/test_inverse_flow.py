import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouflow import inverse_flow, mc, suites
from gouflow.config import ExperimentConfig
from gouflow.gou import solve_forward
from gouflow.inverse_flow import (
    inverse_flow_solve,
    verify_pathwise_identity,
    verify_tile_identity,
)
from gouflow.levy import ConditionError, JumpLaw2, LevyModel2, Marginal
from gouflow.paths import (
    Jump,
    Segment,
    draw_jumps,
    euler_paths,
    exact_paths,
    reverse_path,
    sample_path,
    t_path,
)
from gouflow.presets import PRESETS, get_preset
from gouflow.rng import stream
from gouflow.suites import inverse_flow_suite

from conftest import make_stream
from oracles import (
    FlowMap,
    flow_inverse_check,
    flow_map,
    path_from_events,
    path_jumps,
    validate_path,
)


def test_flow_map_algebra():
    f = FlowMap(u=0.0, t=1.0, slope=2.0, intercept=1.0)
    g = FlowMap(u=1.0, t=2.0, slope=0.5, intercept=-1.0)
    assert f.apply(3.0) == 7.0
    assert f.invert(f.apply(3.0)) == pytest.approx(3.0)
    assert g.invert(g.apply(3.0)) == pytest.approx(3.0)
    with pytest.raises(ZeroDivisionError):
        FlowMap(0.0, 1.0, 0.0, 0.0).invert(1.0)


def test_flow_map_transports_solutions(mixed_jump_model):
    """flow_map read off V^0 must map V_u^x to V_t^x for every x."""
    m = mixed_jump_model
    p = sample_path(m, 2.0, make_stream("fmap", 0))
    base = solve_forward(p, m, 0.0)
    # pick two event-boundary times
    times = base.values.times
    u, t = float(times[len(times) // 3]), float(times[-1])
    fmap = flow_map(base, u, t)
    for x in (-2.0, 0.5, 3.0):
        traj = solve_forward(p, m, x)
        assert fmap.apply(traj.values.at(u)) == pytest.approx(
            traj.values.at(t), rel=1e-10, abs=1e-12
        )


def test_pathwise_identity_exact_backend(mixed_jump_model):
    for i in range(100):
        p = sample_path(mixed_jump_model, 2.0, make_stream("pw", i))
        rep = verify_pathwise_identity(p, mixed_jump_model, x=1.0)
        assert rep["max_error"] <= 1e-9, (i, rep)


def test_pathwise_identity_under_sign_flips(sign_flip_model):
    """Condition (A) only: the inverse flow still inverts pathwise."""
    for i in range(50):
        p = sample_path(sign_flip_model, 2.0, make_stream("pw-flip", i))
        rep = verify_pathwise_identity(p, sign_flip_model, x=0.5)
        assert rep["max_error"] <= 1e-9, (i, rep)


def test_pathwise_identity_interior_time(mixed_jump_model):
    """The identity at a time t inside [0, 2] reads the path on [0, t]
    only, so it is checked at the horizon of paths sampled on [0, t]."""
    for i, t in enumerate((0.3, 1.1, 1.9)):
        p = sample_path(mixed_jump_model, t, make_stream("pw-int", i))
        rep = verify_pathwise_identity(p, mixed_jump_model, x=1.0)
        assert rep["max_error"] <= 1e-9, (t, rep)


def test_pathwise_identity_euler_convergence(dufresne_model):
    medians = []
    for dt in (4e-3, 1e-3):
        errs = []
        for i in range(20):
            p = sample_path(dufresne_model, 1.0, make_stream(f"pw-e{dt}", i), dt)
            errs.append(verify_pathwise_identity(p, dufresne_model, 1.0)["max_error"])
        medians.append(float(np.median(errs)))
    assert medians[1] < medians[0]


def test_inverse_flow_solve_checks_eta_routes(mixed_jump_model):
    p = sample_path(mixed_jump_model, 1.5, make_stream("ifs", 0))
    traj = inverse_flow_solve(p, mixed_jump_model, y=0.3)
    assert traj.values.values[0] == pytest.approx(0.3)
    assert traj.values.times[-1] == pytest.approx(1.5, abs=1e-12)


def test_flow_inverse_check_agrees(mixed_jump_model):
    p = sample_path(mixed_jump_model, 2.0, make_stream("fic", 0))
    base = solve_forward(p, mixed_jump_model, 0.0)
    times = base.values.times
    rep = flow_inverse_check(p, mixed_jump_model, float(times[2]), y=0.7)
    assert rep["error"] <= 1e-9, rep


def test_flow_inverse_check_requires_condition_b(sign_flip_model):
    p = sample_path(sign_flip_model, 1.0, make_stream("fic-b", 0))
    with pytest.raises(ConditionError):
        flow_inverse_check(p, sign_flip_model, 0.0, 0.5)


def test_degenerate_inverse_flow_keeps_constant():
    m = get_preset("degenerate-k").model
    for i in range(20):
        p = sample_path(m, 2.0, make_stream("deg-if", i))
        r = inverse_flow_solve(p, m, y=2.0)
        assert np.max(np.abs(r.values.values - 2.0)) < 1e-10


# ---------------------------------------------------------------------------
# the index-aligned check against a lookup oracle
# ---------------------------------------------------------------------------

JUMP_DIFFUSION = LevyModel2(
    drift=(-1.0, 1.0),
    gaussian_cov=((0.5, 0.0), (0.0, 0.0)),
    jump_intensity=1.0,
    jump_law=JumpLaw2.point_mass([((0.5, 0.5), 0.5), ((-0.3, 0.2), 0.5)]),
)


def _mixed(a, b):
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def lookup_identity_error(path, model, x):
    """Reference route: pair each reversed boundary s with the forward
    solution at time t - s, t the horizon, by ``AlignedSeries.at`` lookups
    instead of by index.  The first of two reversed boundaries sharing a
    time is the pre-jump state and is compared through the next
    boundary's left limit.
    """
    t = path.horizon
    traj = solve_forward(path, model, x)
    v_t = traj.values.at(t, left=True)
    rtraj = inverse_flow_solve(path, model, v_t)
    max_err = 0.0
    times = rtraj.values.times
    for k in range(times.size):
        s = times[k]
        if k + 1 < times.size and times[k + 1] == s:
            continue
        lhs = traj.values.at(t - s, left=True) if s > 0 else v_t
        max_err = max(max_err, _mixed(lhs, float(rtraj.values.values[k])))
        if s > 0:
            # R_{s-} = V_{t-s}
            lhs_l = traj.values.at(t - s) if s < t else traj.values.values[0]
            max_err = max(max_err, _mixed(float(lhs_l), rtraj.values.at(s, left=True)))
    return max_err


# hand-built paths keyed by their horizon: ending with a jump exactly at
# the horizon (2.0, 1.25, 0.5) or inside a segment (1.0, 1.7)
HAND_BUILT = {
    2.0: (
        Segment(0.5, -0.25, 0.5),
        Jump(0.5, 0.5, -1.0),
        Segment(0.75, 0.375, -0.25),
        Jump(1.25, -0.5, 2.0),
        Segment(0.75, -0.125, 0.75),
        Jump(2.0, 1.0, 0.5),
    ),
    1.25: (
        Segment(0.5, -0.25, 0.5),
        Jump(0.5, 0.5, -1.0),
        Segment(0.75, 0.375, -0.25),
        Jump(1.25, -0.5, 2.0),
    ),
    0.5: (Segment(0.5, -0.25, 0.5), Jump(0.5, 0.5, -1.0)),
    1.0: (Segment(0.5, -0.25, 0.5), Jump(0.5, 0.5, -1.0), Segment(0.5, 0.25, -0.125)),
    1.7: (
        Segment(0.5, -0.25, 0.5),
        Jump(0.5, 0.5, -1.0),
        Segment(0.75, 0.375, -0.25),
        Jump(1.25, -0.5, 2.0),
        Segment(0.45, -0.075, 0.45),
    ),
}


@pytest.mark.parametrize("t", [2.0, 1.25, 0.5, 1.0, 1.7])
def test_aligned_check_matches_lookup_on_hand_built_path(mixed_jump_model, t):
    """Reversal at a horizon that is a jump time (the jump is not part of
    the reversed path) and at one inside a segment."""
    path = path_from_events(horizon=t, events=HAND_BUILT[t], backend="exact")
    validate_path(path)
    rep = verify_pathwise_identity(path, mixed_jump_model, 0.75)
    ref = lookup_identity_error(path, mixed_jump_model, 0.75)
    assert abs(rep["max_error"] - ref) <= 1e-12
    assert rep["max_error"] <= 1e-9


def test_aligned_check_matches_lookup_under_truncation(mixed_jump_model):
    """Paths on [0, t] for t inside the usual horizon 2."""
    for i in range(30):
        for t in (0.3, 1.1, 1.9):
            p = sample_path(mixed_jump_model, t, make_stream(f"trunc-oracle-{t}", i))
            rep = verify_pathwise_identity(p, mixed_jump_model, 1.0)
            ref = lookup_identity_error(p, mixed_jump_model, 1.0)
            assert abs(rep["max_error"] - ref) <= 1e-12, (i, t)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_aligned_check_matches_lookup_on_every_preset(name):
    m = get_preset(name).model
    n = 5 if m.has_gaussian else 40
    for i in range(n):
        p = sample_path(m, 2.0, make_stream(f"oracle-{name}", i), 4e-3)
        rep = verify_pathwise_identity(p, m, 1.0)
        ref = lookup_identity_error(p, m, 1.0)
        assert abs(rep["max_error"] - ref) <= 1e-12, (i, rep["max_error"], ref)


def _unpadded_row(batch, i):
    """Row i of a stacked batch without its null segments."""
    keep = batch.is_jump[i] | (batch.dt[i] > 0.0)
    t = np.concatenate(([0.0], batch.t[i, 1:][keep]))
    du, dl = batch.du[i, keep], batch.dl[i, keep]
    return replace(batch, is_jump=batch.is_jump[i, keep], t=t, du=du, dl=dl)


def test_stacked_batch_matches_single_paths(mixed_jump_model):
    """One ``exact_paths`` batch verified at once gives each row the
    ``max_error`` of that row verified alone."""
    batch = exact_paths(mixed_jump_model, 2.0, make_stream("stack"), 25)
    rep = verify_pathwise_identity(batch, mixed_jump_model, 1.0)
    rows = [_unpadded_row(batch, i) for i in range(25)]
    assert len({p.du.size for p in rows}) > 1  # some rows are padded
    single = [verify_pathwise_identity(p, mixed_jump_model, 1.0)["max_error"] for p in rows]
    assert np.array_equal(rep["max_error"], single)
    assert rep["n_points"] == sum(p.du.size + 1 for p in rows)


def _unnegated_jumps(path):
    """Mutant reversal: jumps keep their sign."""
    r = reverse_path(path)
    j = r.is_jump
    return replace(r, du=np.where(j, -r.du, r.du), dl=np.where(j, -r.dl, r.dl))


U_JUMPS_ONLY = LevyModel2(
    drift=(-0.5, 0.3),
    jump_intensity=3.0,
    jump_law=JumpLaw2.point_mass([((0.5, 0.0), 0.5), ((-0.25, 0.0), 0.5)]),
)
L_JUMPS_ONLY = get_preset("drift-ou").model
BOTH_JUMPS = LevyModel2(
    drift=(-0.5, 0.3),
    jump_intensity=3.0,
    jump_law=JumpLaw2.point_mass([((0.5, -1.0), 0.5), ((-0.25, 0.75), 0.5)]),
)


@pytest.mark.parametrize("m", [U_JUMPS_ONLY, L_JUMPS_ONLY], ids=["U-jumps", "L-jumps"])
def test_unnegated_reversal_is_detected(monkeypatch, m):
    """Power: reversing with unnegated jumps breaks the identity far above
    float precision.  With jumps in one component only, the eta~ route
    check cannot catch the mutant first."""
    monkeypatch.setattr(inverse_flow, "reverse_path", _unnegated_jumps)
    worst = max(
        verify_pathwise_identity(sample_path(m, 2.0, make_stream("power", i)), m, 1.0)[
            "max_error"
        ]
        for i in range(20)
    )
    assert worst > 1e-3


def test_unnegated_reversal_trips_eta_route_check(monkeypatch):
    monkeypatch.setattr(inverse_flow, "reverse_path", _unnegated_jumps)
    p = sample_path(BOTH_JUMPS, 2.0, make_stream("power-mixed", 0))
    assert len(path_jumps(p)) > 0
    with pytest.raises(ArithmeticError):
        verify_pathwise_identity(p, BOTH_JUMPS, 1.0)


def test_jump_diffusion_euler_identity_regression():
    """Gaussian part plus jumps: each reversed jump is paired with the right
    one-sided limit.  Pairing by bitwise-equal boundary times put the error
    of this path at 0.333 (dT = -1/3 for dU = 0.5) at every grid step."""
    p = sample_path(JUMP_DIFFUSION, 1.0, stream(1, "jump-diffusion-regression", 0), 1e-3)
    assert any(j.time < 1.0 for j in path_jumps(p))
    rep = verify_pathwise_identity(p, JUMP_DIFFUSION, 1.0)
    assert rep["max_error"] < 0.05


def test_jump_diffusion_inverse_flow_suite_passes_seed_1():
    cfg = ExperimentConfig(
        seed=1, suite="inverse-flow", model=JUMP_DIFFUSION, n_paths=30, horizon=1.0
    )
    res = inverse_flow_suite(cfg)
    medians = res.metrics["median_errors"]
    assert res.passed, medians
    assert medians[-1] < 0.05


@pytest.mark.parametrize(
    "kw",
    [{"preset": "dufresne", "horizon": 2.0}, {"model": JUMP_DIFFUSION, "horizon": 1.0}],
    ids=["dufresne", "jump-diffusion"],
)
def test_euler_inverse_flow_suite_passes_seeds_1_to_10(kw):
    """One draw serves the three grid steps, so their medians differ by the
    grid alone.  With a fresh path set per grid step, ``dufresne`` failed
    at seeds 3 and 6."""
    for seed in range(1, 11):
        cfg = ExperimentConfig(seed=seed, suite="inverse-flow", n_paths=30, **kw)
        res = inverse_flow_suite(cfg)
        assert res.passed, (seed, res.metrics["median_errors"])


def test_euler_inverse_flow_batches_bounded_at_long_horizon(monkeypatch):
    """At a long horizon the suite draws fewer paths per batch, one stream
    per batch, so that paths x grid steps stay within the budget; the
    batches concatenate to every path on every grid step."""
    sizes = []

    def recording(model, horizon, rng, size, grid_dts):
        sizes.append(size)
        return euler_paths(model, horizon, rng, size, grid_dts)

    budget, horizon = 100_000, 50.0
    monkeypatch.setattr(suites, "euler_paths", recording)
    monkeypatch.setattr(suites, "_STACK_ELEMENTS", budget)
    cfg = ExperimentConfig(
        seed=1, suite="inverse-flow", model=JUMP_DIFFUSION, n_paths=5, horizon=horizon
    )
    res = inverse_flow_suite(cfg)
    assert sizes == [2, 2, 1]
    assert max(sizes) * math.ceil(horizon / 1e-3) <= budget
    for dt in res.metrics["grid_dts"]:
        assert [r["seed"] for r in res.rows if r["grid_dt"] == dt] == list(range(5))


# ---------------------------------------------------------------------------
# the tile check against the Path route
# ---------------------------------------------------------------------------

PURE_JUMP = [name for name in sorted(PRESETS) if not PRESETS[name].model.has_gaussian]
TILE_HORIZON, TILE_ROWS = 2.0, 128


def _tile_and_batch(m, label):
    """One padded tile and the ``exact_paths`` batch of the same rows (two
    draws from identical streams)."""
    tile = draw_jumps(m, TILE_HORIZON, stream(5, label), TILE_ROWS).pad()
    return tile, exact_paths(m, TILE_HORIZON, stream(5, label), TILE_ROWS)


def _path_flows(batch, m, x):
    """V^x and R (started at V_T) at every boundary by the per-path solver,
    reversed boundary j against forward boundary m - j."""
    v = solve_forward(batch, m, x).values.values
    rtraj = inverse_flow_solve(batch, m, 0.0)
    return v, rtraj.exponential.values * (v[:, -1:] + rtraj.integral.values)


# Hypothesis laws: marks of each sign, exact zeros included, and no mark
# or link coefficient so small that a mutant's change sits below float
# precision.  R = E_W (V_T + I) cancels terms of size up to the range of
# E over a path, so dU stays in about (-0.3, 1) and drift and rate stay
# moderate: both routes then agree, and invert, to 1e-12
_du_atom = st.sampled_from([-0.25, 0.0, 0.25, 0.5, 1.0])
_dl_atom = st.sampled_from([-1.5, -0.4, 0.0, 0.6, 2.0])
_u_marginal = st.one_of(
    st.builds(Marginal.uniform, st.floats(-0.3, 0.2), st.floats(0.4, 1.0)),
    st.builds(Marginal.exponential, st.floats(2.0, 4.0)),
)
_l_marginal = st.one_of(
    st.builds(Marginal.uniform, st.floats(-2.0, 0.0), st.floats(0.1, 2.0)),
    st.builds(Marginal.exponential, st.floats(0.5, 4.0), st.sampled_from([-1, 1])),
)
_laws = st.one_of(
    st.lists(st.tuples(_du_atom, _dl_atom), min_size=1, max_size=3, unique=True).map(
        lambda pairs: JumpLaw2.point_mass([(pair, 1.0 / len(pairs)) for pair in pairs])
    ),
    st.builds(JumpLaw2.independent, _u_marginal, _l_marginal),
    st.builds(
        JumpLaw2.linked,
        _u_marginal,
        st.sampled_from([-1.0, 0.0, 0.5]),
        st.sampled_from([-2.0, -0.5, 0.0, 0.75, 1.5]),
    ),
)
_models = st.builds(
    lambda b_u, b_l, rate, law: LevyModel2(
        drift=(b_u, b_l), jump_intensity=rate, jump_law=law
    ),
    st.sampled_from([-0.5, 0.0, 0.5]),
    st.sampled_from([-0.5, 0.0, 0.8]),
    st.floats(0.5, 2.0),
    _laws,
)


def _check_tile_against_paths(m, label):
    x = 1.0
    tile, batch = _tile_and_batch(m, label)
    v, r = inverse_flow._tile_flows(tile, TILE_HORIZON, m, x)
    v_ref, r_ref = _path_flows(batch, m, x)
    assert v.shape == v_ref.shape
    assert inverse_flow._mixed_error(v, v_ref).max() <= 1e-12
    assert inverse_flow._mixed_error(r, r_ref).max() <= 1e-12
    tile_err = verify_tile_identity(tile, TILE_HORIZON, m, x)
    path_err = verify_pathwise_identity(batch, m, x)["max_error"]
    assert tile_err.max() <= 1e-12 and path_err.max() <= 1e-12
    # eta~ and T built once from the reversed tile, against the Path route's
    # transforms of the reversed path (gaps carry -b_L dt and -b_U dt)
    times, d_t, d_eta = inverse_flow._inverse_drivers(tile, TILE_HORIZON)
    rev = reverse_path(batch)
    widths = np.diff(times, axis=1, prepend=0.0, append=TILE_HORIZON)
    b_u, b_l = m.drift
    eta_ref = inverse_flow.eta_tilde_path(rev, m).du
    t_ref = t_path(rev, m.sigma_u_sq).du
    assert np.array_equal(d_eta, eta_ref[:, 1::2])
    assert np.array_equal(d_t, t_ref[:, 1::2])
    np.testing.assert_allclose(eta_ref[:, 0::2], -b_l * widths, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t_ref[:, 0::2], -b_u * widths, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", PURE_JUMP)
def test_tile_check_matches_path_route_on_presets(name):
    """V and R at every boundary, both routes' max_error and the reversed
    drivers, on the same rows; ``nonmonotone`` has no dual and still
    inverts (condition (A))."""
    _check_tile_against_paths(get_preset(name).model, f"tile-{name}")


@given(_models)
@settings(max_examples=40, deadline=None)
def test_tile_check_matches_path_route_on_random_laws(m):
    _check_tile_against_paths(m, "tile-random")


def _undivided_dk(du, dl):
    """Mutant mark map: dK without the factor 1/(1+dU)."""
    return -du / (1.0 + du), -dl


def _unreversed_marks(times, du, dl, horizon):
    """Mutant reversal: times reflected and reversed, marks left in place."""
    return horizon - times[:, ::-1], du, dl


MUTANTS = {
    "undivided-dK": (inverse_flow, "dual_jump", _undivided_dk),
    "unreversed-marks": (mc, "_reverse_tile", _unreversed_marks),
}


def _check_mutant(m, label, mutant):
    """The mutant fails the check (max_error above the 1e-9 level) if it
    changes the reversed tile's drivers, and reads the true errors if not."""
    tile, _ = _tile_and_batch(m, label)
    truth = inverse_flow._inverse_drivers(tile, TILE_HORIZON)
    errs = verify_tile_identity(tile, TILE_HORIZON, m, 1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(*MUTANTS[mutant])
        drivers = inverse_flow._inverse_drivers(tile, TILE_HORIZON)
        mutated = verify_tile_identity(tile, TILE_HORIZON, m, 1.0)
    if any(not np.array_equal(a, b) for a, b in zip(drivers, truth)):
        assert mutated.max() > 1e-9, mutant
    else:
        assert np.array_equal(mutated, errs), mutant


@pytest.mark.parametrize("mutant", list(MUTANTS))
@pytest.mark.parametrize(
    "m",
    [get_preset(name).model for name in PURE_JUMP] + [BOTH_JUMPS, U_JUMPS_ONLY],
    ids=[*PURE_JUMP, "both-jumps", "U-jumps"],
)
def test_tile_check_mutants_fail_where_they_change_the_path(mutant, m):
    """The undivided dK changes the path where a jump moves both U and L
    (``degenerate-k``, both-jumps), the unreversed marks wherever a row
    has jumps (every jump model here)."""
    _check_mutant(m, "tile-mutant", mutant)


@given(_models)
@settings(max_examples=40, deadline=None)
def test_tile_check_mutants_fail_on_random_laws(m):
    for mutant in MUTANTS:
        _check_mutant(m, "tile-mutant-random", mutant)
