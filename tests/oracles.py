"""Independent cross-check routes that the tests hold verdict code against.

None of these feeds a verdict: each is a second, slower or more literal
route to a quantity that ``gouflow`` computes one way, kept next to the
tests that compare the two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from gouflow.calculus import AlignedSeries, stochastic_exponential
from gouflow.duality import dual_path
from gouflow.gou import GouTrajectory, _u_part, causal_integral, solve_forward
from gouflow.inverse_flow import _mixed_error, inverse_flow_solve
from gouflow.levy import ConditionError, LevyModel2, dual_model
from gouflow.paths import _NO_COV, _TIME_TOL, Jump, Path, sample_path


# ---------------------------------------------------------------------------
# paths written and read by hand
# ---------------------------------------------------------------------------


def path_from_events(
    horizon: float,
    events,
    backend: str,
    cov: tuple = _NO_COV,
) -> Path:
    """Build a path from ``Segment``/``Jump`` records in time order."""
    events = tuple(events)
    times = [0.0]
    for ev in events:
        times.append(ev.time if isinstance(ev, Jump) else times[-1] + ev.dt)
    return Path(
        horizon=float(horizon),
        is_jump=np.array([isinstance(ev, Jump) for ev in events], dtype=bool),
        t=np.array(times),
        du=np.array([ev.du for ev in events], dtype=float),
        dl=np.array([ev.dl for ev in events], dtype=float),
        backend=backend,
        cov=cov,
    )


def validate_path(path: Path) -> None:
    """Raise ValueError unless the columns form a path on [0, horizon]."""
    m = path.du.size
    if not (path.is_jump.size == path.dl.size == m and path.t.size == m + 1):
        raise ValueError("path columns have inconsistent lengths")
    if path.t[0] != 0.0:
        raise ValueError("paths start at time 0")
    step = path.dt
    if np.any(step[~path.is_jump] <= 0):
        raise ValueError("segment duration must be positive")
    late = np.abs(step[path.is_jump]) > _TIME_TOL
    if late.any():
        # jump events must sit at the running clock position
        raise ValueError(f"jump at {path.t[1:][path.is_jump][late][0]} out of order")
    if np.any(path.du[path.is_jump] == -1.0):
        raise ValueError("jump with dU = -1")
    if abs(path.t[-1] - path.horizon) > 1e-9 * max(1.0, path.horizon):
        raise ValueError(
            f"segment durations sum to {path.t[-1]}, horizon is {path.horizon}"
        )
    if path.backend == "exact" and any(v != 0.0 for row in path.cov for v in row):
        raise ValueError("exact backend requires zero Gaussian covariance")


def path_jumps(path: Path) -> list:
    """The path's jumps as ``Jump`` records."""
    j = path.is_jump
    return [
        Jump(*v)
        for v in zip(path.t[1:][j].tolist(), path.du[j].tolist(), path.dl[j].tolist())
    ]


def path_values(path: Path):
    """Cumulative values at event boundaries.

    Returns (times, u, l); index 0 is t=0.  At a jump the time repeats:
    the first boundary holds the left limit, the second the value after.
    """
    return (
        path.t,
        np.concatenate(([0.0], np.cumsum(path.du))),
        np.concatenate(([0.0], np.cumsum(path.dl))),
    )


# ---------------------------------------------------------------------------
# stepping the SDE directly
# ---------------------------------------------------------------------------


def phi(z: float) -> float:
    """(e^z - 1)/z, continuous at 0."""
    if abs(z) < 1e-8:
        return 1.0 + 0.5 * z
    return math.expm1(z) / z


def euler_on_path(path: Path, model: LevyModel2, x: float) -> AlignedSeries:
    """Step the SDE directly along an existing path, event by event.

    At jumps V <- V (1 + dU) + dL.  Exact-backend segments carry pure
    drift and are integrated in closed form (linear ODE over the gap), so
    the scheme reproduces solve_forward to float precision there.  Euler-
    backend segments use the first-order update V <- V(1+dU) + dL per
    grid step, which is the independent discretized route.
    """
    exact = path.backend == "exact"
    values = np.empty(path.du.size + 1)
    values[0] = v = float(x)
    steps = zip(path.is_jump.tolist(), path.du.tolist(), path.dl.tolist())
    for k, (jump, du, dl) in enumerate(steps, start=1):
        if jump:
            v = v * (1.0 + du) + dl
        else:
            v = v * math.exp(du) + dl * phi(du) if exact else v * (1.0 + du) + dl
        values[k] = v
    return AlignedSeries(path.t, values)


def solve_sde_euler(
    model: LevyModel2,
    x: float,
    horizon: float,
    grid_dt: float,
    rng: np.random.Generator,
) -> tuple[Path, GouTrajectory]:
    """Sample a path and step the SDE along it (cross-check route).

    Returns the path with the trajectory, so that solve_forward can be run
    on the same increments.
    """
    path = sample_path(model, horizon, rng, grid_dt)
    series = euler_on_path(path, model, x)
    e = stochastic_exponential(_u_part(path, model))
    integral = AlignedSeries(series.times, series.values / e.values - x)
    return path, GouTrajectory(x=float(x), exponential=e, integral=integral, values=series)


# ---------------------------------------------------------------------------
# the affine flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowMap:
    """The affine transport map x = V_u -> V_t along one frozen path."""

    u: float
    t: float
    slope: float
    intercept: float

    def apply(self, x: float) -> float:
        return self.slope * x + self.intercept

    def invert(self, v: float) -> float:
        if self.slope == 0.0:
            raise ZeroDivisionError("flow map is not invertible (zero slope)")
        return (v - self.intercept) / self.slope


def flow_map(traj: GouTrajectory, u: float, t: float) -> FlowMap:
    """Read the affine map V_u -> V_t off a solved trajectory.

    slope = E(U)_t / E(U)_u and intercept = E(U)_t (I_t - I_u), where I
    is the running integral of the explicit solution; both u and t must
    be event-boundary times.
    """
    e_u = traj.exponential.at(u)
    e_t = traj.exponential.at(t)
    i_u = traj.integral.at(u)
    i_t = traj.integral.at(t)
    return FlowMap(u=float(u), t=float(t), slope=e_t / e_u, intercept=e_t * (i_t - i_u))


def flow_inverse_check(path: Path, model: LevyModel2, u: float, y: float) -> dict:
    """Compare the inverted affine flow map with the inverse-flow path.

    The map transporting V_u to V_t, t the path's horizon, is inverted
    algebraically and must match the inverse-flow trajectory's left limit
    at s = t - u.
    """
    if not model.condition_b:
        raise ConditionError(
            "flow inversion as a monotone bijection needs condition (B)"
        )
    t = path.horizon
    traj = solve_forward(path, model, 0.0)
    fmap = flow_map(traj, u, t)
    x_direct = fmap.invert(y)
    rtraj = inverse_flow_solve(path, model, y)
    s = t - u
    if s <= 0:
        r_left = y
    else:
        r_left = rtraj.values.at(s, left=True)
    return {
        "u": float(u),
        "t": float(t),
        "y": float(y),
        "x_from_map": float(x_direct),
        "r_left": float(r_left),
        "error": float(_mixed_error(float(x_direct), float(r_left))),
        "slope": fmap.slope,
        "intercept": fmap.intercept,
    }


# ---------------------------------------------------------------------------
# the dual along one path
# ---------------------------------------------------------------------------


def dual_solve(
    path: Path, model: LevyModel2, y: float, check_tol: float = 1e-10
) -> GouTrajectory:
    """Solve dR = R_- dW + dK along the dual of the given (U, L) path.

    Route one transforms the path and model and runs the forward solver;
    route two uses R_t = (y - int E(U)_{s-} dL_s) / E(U)_t, which needs
    only forward-path quantities.  On the exact backend the two must
    agree to ``check_tol``; with a Gaussian part both routes share the
    same discretization so they still agree to float precision.
    """
    if not model.condition_b:
        raise ConditionError("dual process does not exist: jumps dU <= -1 possible")
    traj = solve_forward(dual_path(path, model), dual_model(model), y)
    fwd = solve_forward(path, model, 0.0)
    c = causal_integral(path, model)
    direct_vals = (y - c.values) / fwd.exponential.values
    err = float(np.max(_mixed_error(traj.values.values, direct_vals)))
    if err > check_tol:
        raise ArithmeticError(
            f"dual solve routes disagree (max relative error {err:.3e})"
        )
    return traj


def killed_dual(traj_r: GouTrajectory, model: LevyModel2) -> AlignedSeries:
    """The half-line dual of ``model``: R clipped at zero.

    Requires the forward L to be a subordinator and a nonnegative start;
    then killing at the first passage below 0 and clipping coincide,
    which is asserted here at every event boundary.
    """
    if not model.l_subordinator:
        raise ConditionError(
            "half-line dual requires the forward L to be a subordinator"
        )
    if not model.condition_b:
        raise ConditionError("half-line dual requires all jumps dU > -1")
    if traj_r.x < 0:
        raise ValueError("half-line dual needs a nonnegative starting level")
    vals = traj_r.values.values
    clipped = AlignedSeries(traj_r.values.times, np.maximum(vals, 0.0))
    # killed version: zero from the first boundary where R <= 0 onwards
    below = vals <= 0.0
    if below.any():
        k = int(np.argmax(below))
        killed = vals.copy()
        killed[k:] = np.where(vals[k:] > 0.0, 0.0, np.maximum(vals[k:], 0.0))
        # once R hits (-inf, 0] it stays there when L is a subordinator,
        # so killed and clipped must agree everywhere
        if not np.allclose(killed, clipped.values, atol=1e-12):
            raise ArithmeticError("killed and clipped dual trajectories differ")
    return clipped


# ---------------------------------------------------------------------------
# characteristic functions and triplet locations
# ---------------------------------------------------------------------------


def marginal_cf(marg, t: float) -> complex:
    """E exp(i t X) for a points, exponential or uniform marginal."""
    if marg.kind == "points":
        return sum(p * cmath.exp(1j * t * v) for v, p in marg.params)
    if marg.kind == "exponential":
        rate, sign = marg.params
        return rate / (rate - 1j * sign * t)
    if marg.kind == "uniform":
        a, b = marg.params
        if t == 0:
            return 1.0 + 0j
        return (cmath.exp(1j * t * b) - cmath.exp(1j * t * a)) / (1j * t * (b - a))
    raise NotImplementedError(f"no closed-form cf for {marg.kind} marginals")


def marginal_mean(marg) -> float:
    if marg.kind == "points":
        return sum(v * p for v, p in marg.params)
    if marg.kind == "exponential":
        rate, sign = marg.params
        return sign / rate
    if marg.kind == "uniform":
        a, b = marg.params
        return 0.5 * (a + b)
    mu, sigma, lower = marg.params
    from scipy.stats import truncnorm

    return float(truncnorm.mean((lower - mu) / sigma, np.inf, loc=mu, scale=sigma))


def characteristic_exponent(model: LevyModel2, theta) -> complex:
    """psi(theta) with E exp(i theta . (U_t, L_t)) = exp(t psi(theta)).

    With genuine drift the jump term is simply
    intensity * (E exp(i theta . dZ) - 1); no compensator appears.
    Point-mass jump laws only.
    """
    t1, t2 = float(theta[0]), float(theta[1])
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ValueError("theta must be finite")
    b_u, b_l = model.drift
    (suu, sul), (_, sll) = model.gaussian_cov
    psi = 1j * (t1 * b_u + t2 * b_l)
    psi -= 0.5 * (t1 * t1 * suu + 2 * t1 * t2 * sul + t2 * t2 * sll)
    if model.has_jumps:
        cf = atom_sum(model.jump_law, lambda u, l: cmath.exp(1j * (t1 * u + t2 * l)))
        psi += model.jump_intensity * (cf - 1.0)
    return psi


def atom_sum(law, f):
    """Exact E f(dU, dL) for a point-mass jump law."""
    return sum(p * f(u, l) for (u, l), p in law.atoms)


def gamma_w_cutoff_form(model_ul: LevyModel2) -> float:
    """Triplet location of W computed with the z >= -1/2 cutoff form.

    gamma_W = -gamma_U + sigma_U^2
              + int (z 1_{|z|<=1} - z/(1+z) 1_{z >= -1/2}) nu_U(dz).
    The cutoff region {z >= -1/2} is exactly {|F(z)| <= 1}, so this agrees
    with the standard |z| <= 1 truncation of nu_W; both forms are tested
    against each other.  Point-mass laws only (marginal nu_U uses the
    scalar |z| <= 1 truncation).
    """
    if model_ul.has_jumps and model_ul.jump_law.kind != "point_mass":
        raise NotImplementedError("cutoff form implemented for point-mass laws")
    gamma_u = model_ul.drift[0]
    corr = 0.0
    if model_ul.has_jumps:
        gamma_u += model_ul.jump_intensity * atom_sum(
            model_ul.jump_law, lambda u, l: u * (abs(u) <= 1.0)
        )
        corr = model_ul.jump_intensity * atom_sum(
            model_ul.jump_law,
            lambda u, l: u * (abs(u) <= 1.0) - (u / (1.0 + u)) * (u >= -0.5),
        )
    return -gamma_u + model_ul.sigma_u_sq + corr


def gamma_w_direct_form(model_ul: LevyModel2) -> float:
    """Triplet location of W from the dual model's genuine drift."""
    dm = dual_model(model_ul)
    if not dm.has_jumps:
        return dm.drift[0]
    return dm.drift[0] + dm.jump_intensity * atom_sum(
        dm.jump_law, lambda w, k: w * (abs(w) <= 1.0)
    )
