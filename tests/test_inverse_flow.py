import math
from dataclasses import replace

import numpy as np
import pytest

from gouflow import (
    ConditionError,
    FlowMap,
    JumpLaw2,
    LevyModel2,
    flow_inverse_check,
    flow_map,
    inverse_flow_solve,
    solve_forward,
    verify_pathwise_identity,
)
from gouflow import inverse_flow
from gouflow.config import ExperimentConfig
from gouflow.paths import (
    Jump,
    Path,
    Segment,
    exact_paths,
    reverse_path,
    sample_path,
    truncate_path,
)
from gouflow.presets import PRESETS, get_preset
from gouflow.rng import stream
from gouflow.suites import inverse_flow_suite

from conftest import make_stream


def test_flow_map_algebra():
    f = FlowMap(u=0.0, t=1.0, slope=2.0, intercept=1.0)
    g = FlowMap(u=1.0, t=2.0, slope=0.5, intercept=-1.0)
    assert f.apply(3.0) == 7.0
    assert f.invert(f.apply(3.0)) == pytest.approx(3.0)
    h = f.compose(g)
    assert h.u == 0.0 and h.t == 2.0
    assert h.apply(3.0) == pytest.approx(g.apply(f.apply(3.0)))
    with pytest.raises(ValueError):
        g.compose(f)
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
    p = sample_path(mixed_jump_model, 2.0, make_stream("pw-int", 0))
    # reverse at an event-boundary interior time
    traj = solve_forward(p, mixed_jump_model, 1.0)
    t = float(traj.values.times[len(traj.values.times) // 2])
    if t > 0:
        rep = verify_pathwise_identity(p, mixed_jump_model, x=1.0, t=t)
        assert rep["max_error"] <= 1e-9


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
    traj = inverse_flow_solve(p, mixed_jump_model, 1.5, y=0.3)
    assert traj.values.values[0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        inverse_flow_solve(p, mixed_jump_model, 99.0, y=0.3)


def test_flow_inverse_check_agrees(mixed_jump_model):
    p = sample_path(mixed_jump_model, 2.0, make_stream("fic", 0))
    base = solve_forward(p, mixed_jump_model, 0.0)
    times = base.values.times
    u, t = float(times[2]), float(times[-1])
    rep = flow_inverse_check(p, mixed_jump_model, u, t, y=0.7)
    assert rep["error"] <= 1e-9, rep


def test_flow_inverse_check_requires_condition_b(sign_flip_model):
    p = sample_path(sign_flip_model, 1.0, make_stream("fic-b", 0))
    with pytest.raises(ConditionError):
        flow_inverse_check(p, sign_flip_model, 0.0, 1.0, 0.5)


def test_degenerate_inverse_flow_keeps_constant():
    m = get_preset("degenerate-k").model
    for i in range(20):
        p = sample_path(m, 2.0, make_stream("deg-if", i))
        r = inverse_flow_solve(p, m, 2.0, y=2.0)
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


def lookup_identity_error(path, model, x, t=None):
    """Reference route: pair each reversed boundary s with the forward
    solution at time t - s by ``AlignedSeries.at`` lookups instead of by
    index.  The first of two reversed boundaries sharing a time is the
    pre-jump state and is compared through the next boundary's left limit.
    """
    t = path.horizon if t is None else float(t)
    fwd = truncate_path(path, t) if t < path.horizon - 1e-12 else path
    traj = solve_forward(fwd, model, x)
    v_t = traj.values.at(t, left=True)
    rtraj = inverse_flow_solve(path, model, t, v_t)
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
            max_err = max(max_err, _mixed(float(lhs_l), float(rtraj.values.lefts[k])))
    return max_err


HAND_BUILT = Path.from_events(
    horizon=2.0,
    events=(
        Segment(0.5, -0.25, 0.5),
        Jump(0.5, 0.5, -1.0),
        Segment(0.75, 0.375, -0.25),
        Jump(1.25, -0.5, 2.0),
        Segment(0.75, -0.125, 0.75),
        Jump(2.0, 1.0, 0.5),  # exactly at the reversal time
    ),
    backend="exact",
)


@pytest.mark.parametrize("t", [2.0, 1.25, 0.5, 1.0, 1.7])
def test_aligned_check_matches_lookup_on_hand_built_path(mixed_jump_model, t):
    """Reversal at the horizon and at jump times (a jump exactly at the
    reversal time), and inside segments."""
    HAND_BUILT.validate()
    rep = verify_pathwise_identity(HAND_BUILT, mixed_jump_model, 0.75, t=t)
    ref = lookup_identity_error(HAND_BUILT, mixed_jump_model, 0.75, t=t)
    assert abs(rep["max_error"] - ref) <= 1e-12
    assert rep["max_error"] <= 1e-9


def test_aligned_check_matches_lookup_under_truncation(mixed_jump_model):
    for i in range(30):
        p = sample_path(mixed_jump_model, 2.0, make_stream("trunc-oracle", i))
        for t in (0.3, 1.1, 1.9):
            rep = verify_pathwise_identity(p, mixed_jump_model, 1.0, t=t)
            ref = lookup_identity_error(p, mixed_jump_model, 1.0, t=t)
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


def _unnegated_jumps(path, at=None):
    """Mutant reversal: jumps keep their sign."""
    r = reverse_path(path, at)
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
    assert len(p.jumps()) > 0
    with pytest.raises(ArithmeticError):
        verify_pathwise_identity(p, BOTH_JUMPS, 1.0)


def test_jump_diffusion_euler_identity_regression():
    """Gaussian part plus jumps: each reversed jump is paired with the right
    one-sided limit.  Pairing by bitwise-equal boundary times put the error
    of this path at 0.333 (dT = -1/3 for dU = 0.5) at every grid step."""
    p = sample_path(JUMP_DIFFUSION, 1.0, stream(1, "invflow:0.001", 1), 1e-3)
    assert len(p.jumps()) > 0
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
