import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouflow.calculus import AlignedSeries, exponential_with_integral, stochastic_exponential
from gouflow.levy import ConditionError
from gouflow.paths import Jump, Segment, sample_path

from conftest import make_stream
from oracles import path_from_events, phi, validate_path


def _path(events, horizon, backend="exact"):
    p = path_from_events(horizon=horizon, events=events, backend=backend)
    validate_path(p)
    return p


# ---------------------------------------------------------------------------
# stochastic exponential
# ---------------------------------------------------------------------------


def test_exponential_pure_drift():
    p = _path([Segment(2.0, -1.0)], 2.0)
    e = stochastic_exponential(p)
    assert e.values[-1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_exponential_with_jumps_product_formula():
    p = _path(
        [Segment(1.0, 0.3), Jump(1.0, 0.5), Segment(1.0, 0.3), Jump(2.0, -0.25)],
        2.0,
    )
    e = stochastic_exponential(p)
    assert e.values[-1] == pytest.approx(math.exp(0.6) * 1.5 * 0.75, rel=1e-14)
    # left limit at the first jump excludes the factor
    assert e.at(1.0, left=True) == pytest.approx(math.exp(0.3), rel=1e-14)
    assert e.at(1.0) == pytest.approx(math.exp(0.3) * 1.5, rel=1e-14)


def test_exponential_sign_change_below_minus_one():
    p = _path([Segment(1.0, 0.0), Jump(1.0, -2.0), Segment(1.0, 0.0)], 2.0)
    e = stochastic_exponential(p)
    assert e.values[-1] == pytest.approx(-1.0)


def test_exponential_rejects_minus_one_jump():
    p = path_from_events(1.0, (Segment(1.0, 0.0), Jump(1.0, -1.0)), backend="exact")
    with pytest.raises(ConditionError):
        stochastic_exponential(p)


def test_exponential_ito_correction_on_euler_backend():
    """On the euler backend E carries the -var/2 dt correction so that its
    log increments have the exact mean."""
    p = path_from_events(
        horizon=1.0,
        events=(Segment(1.0, 0.5),),
        backend="euler",
        cov=((0.4, 0.0), (0.0, 0.0)),
    )
    e = stochastic_exponential(p)
    assert e.values[-1] == pytest.approx(math.exp(0.5 - 0.2), rel=1e-14)


# ---------------------------------------------------------------------------
# exponential with integral
# ---------------------------------------------------------------------------


def brute_force_integral(driver, integrator, power, nsub=20_000):
    """Riemann-sum oracle: subdivide drift segments finely and left-sum."""
    e = 1.0
    acc = 0.0
    for ed, ei in zip(driver.events, integrator.events):
        if isinstance(ed, Segment):
            a = ed.du / ed.dt
            c = ei.du / ed.dt
            h = ed.dt / nsub
            for k in range(nsub):
                acc += c * h * (e ** power if power == 1 else 1.0 / e)
                e *= math.exp(a * h)
        else:
            acc += ei.du * (e if power == 1 else 1.0 / e)
            e *= 1.0 + ed.du
    return e, acc


@pytest.mark.parametrize("power", [-1, 1])
def test_exponential_with_integral_matches_riemann_oracle(power):
    driver = _path(
        [Segment(0.7, -0.4), Jump(0.7, 0.8), Segment(0.9, 0.5), Jump(1.6, -0.5),
         Segment(0.4, -0.1)],
        2.0,
    )
    integrator = _path(
        [Segment(0.7, 0.3), Jump(0.7, -1.2), Segment(0.9, -0.5), Jump(1.6, 2.0),
         Segment(0.4, 0.2)],
        2.0,
    )
    e, i = exponential_with_integral(driver, integrator, power=power)
    e_ref, i_ref = brute_force_integral(driver, integrator, power)
    assert e.values[-1] == pytest.approx(e_ref, rel=1e-10)
    assert i.values[-1] == pytest.approx(i_ref, rel=2e-4)  # O(h) Riemann error


def test_integral_of_constant_exponential_is_integrator():
    """Zero driver: E = 1 and the integral reduces to the integrator."""
    driver = _path([Segment(1.0, 0.0), Jump(1.0, 0.0), Segment(1.0, 0.0)], 2.0)
    integrator = _path([Segment(1.0, 0.5), Jump(1.0, 2.0), Segment(1.0, 0.5)], 2.0)
    _, i = exponential_with_integral(driver, integrator, power=-1)
    assert i.values[-1] == pytest.approx(3.0, rel=1e-14)


def test_phi_continuity_at_zero():
    assert phi(0.0) == 1.0
    assert phi(1e-12) == pytest.approx(1.0, abs=1e-9)
    assert phi(0.5) == pytest.approx(math.expm1(0.5) / 0.5, rel=1e-15)


@given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(0.1, 2.0))
@settings(max_examples=50, deadline=None)
def test_single_segment_closed_form(a, c, dt):
    """int_0^dt c/dt * e^{-a s/dt * ...}: compare against scipy quadrature."""
    from scipy.integrate import quad

    driver = _path([Segment(dt, a)], dt)
    integrator = _path([Segment(dt, c)], dt)
    _, i = exponential_with_integral(driver, integrator, power=-1)
    val, err = quad(lambda s: (c / dt) * math.exp(-a * s / dt), 0.0, dt)
    assert i.values[-1] == pytest.approx(val, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# grid variance
# ---------------------------------------------------------------------------


def test_realized_covariation_converges_to_bracket(dufresne_model):
    """Grid covariation of a Brownian driver approaches sigma^2 t."""
    totals = []
    for dt in (4e-3, 1e-3):
        vals = []
        for i in range(40):
            p = sample_path(dufresne_model, 1.0, make_stream(f"qv{dt}", i), dt)
            vals.append(np.sum(p.du * p.du))
        totals.append(np.mean(vals))
    sigma_sq = dufresne_model.sigma_u_sq
    assert abs(totals[-1] - sigma_sq * 1.0) < 0.15
    assert abs(totals[-1] - sigma_sq) <= abs(totals[0] - sigma_sq) + 0.05


def test_aligned_series_at_lookup():
    s = AlignedSeries(np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0, 6.0]))
    assert s.at(1.0) == 4.0
    assert s.at(1.0, left=True) == 1.0  # the first boundary at a jump time
    assert s.at(1.5) == 4.0
    assert s.at(1.5, left=True) == 4.0  # off the boundaries: the last one before
    assert s.at(2.0) == s.at(2.0, left=True) == 6.0
    assert s.values[-1] == 6.0
    for left in (False, True):
        with pytest.raises(IndexError):
            s.at(-1.0, left=left)


def loop_exponential_with_integral(driver, integrator, power):
    """Reference: the kernel as a per-event recurrence over the columns."""
    var = driver.var_du
    exact = driver.backend == "exact"
    m = driver.du.size
    e_vals = np.empty(m + 1)
    i_vals = np.empty(m + 1)
    e_vals[0], i_vals[0] = 1.0, 0.0
    e, acc = 1.0, 0.0
    for k in range(m):
        a, c, dt = driver.du[k], integrator.du[k], driver.t[k + 1] - driver.t[k]
        weight = e if power == 1 else 1.0 / e
        if driver.is_jump[k]:
            acc += c * weight
            e *= 1.0 + a
        elif exact:
            acc += c * weight * phi(power * a)
            e *= math.exp(a)
        else:
            acc += c * weight
            e *= math.exp(a - 0.5 * var * dt)
        e_vals[k + 1], i_vals[k + 1] = e, acc
    return e_vals, i_vals


@pytest.mark.parametrize("power", [-1, 1])
@pytest.mark.parametrize("name", ["mixed", "sign-flip", "dufresne", "jump-diffusion"])
def test_kernel_matches_loop_reference(name, power, mixed_jump_model, sign_flip_model,
                                       dufresne_model):
    """cumprod/cumsum keep the loop's operation order; only exp/expm1 may
    round differently, so a few ulps per event bound the difference."""
    from dataclasses import replace

    from gouflow.levy import JumpLaw2, LevyModel2

    models = {
        "mixed": mixed_jump_model,
        "sign-flip": sign_flip_model,
        "dufresne": dufresne_model,
        "jump-diffusion": LevyModel2(
            drift=(-1.0, 1.0),
            gaussian_cov=((0.5, 0.0), (0.0, 0.0)),
            jump_intensity=1.0,
            jump_law=JumpLaw2.point_mass([((0.5, 0.5), 0.5), ((-0.3, 0.2), 0.5)]),
        ),
    }
    m = models[name]
    for i in range(10):
        p = sample_path(m, 2.0, make_stream(f"kernel-{name}", i), 2e-3)
        driver = replace(p, cov=((m.sigma_u_sq, 0.0), (0.0, 0.0)))
        integrator = replace(p, du=p.dl)
        e, integral = exponential_with_integral(driver, integrator, power=power)
        e_ref, i_ref = loop_exponential_with_integral(driver, integrator, power)
        scale = 1e-12 * (1.0 + np.abs(e_ref))
        assert np.all(np.abs(e.values - e_ref) <= scale)
        scale = 1e-12 * (1.0 + np.maximum.accumulate(np.abs(i_ref)))
        assert np.all(np.abs(integral.values - i_ref) <= scale)
