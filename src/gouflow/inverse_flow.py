"""Inverse stochastic flows of the driven linear SDE.

Freezing a realized (U, L) path on [0, t], the map x -> V_t^x is affine
with slope E(U)_t.  Reversing time turns its inverse into another GOU
process: with the time-reversed pair (U~, L~) and

    T_s = U~_s + sigma_U^2 s + sum (dU~)^2 / (1 - dU~),

the process R_s = E(T)_s (y + int_(0,s] E(T)_{u-}^{-1} dL~_u) satisfies
the pathwise identity V_{(t-s)-} = R_s when started at y = V_t.  The
checks here are almost-sure statements, so the exact backend verifies
them to float precision rather than statistically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gou import GouTrajectory, solve_forward, solve_pair
from .levy import ConditionError, LevyModel2
from .paths import (
    Path,
    _eventwise,
    _null_jumps_at,
    _scalar,
    eta_path,
    reverse_path,
    t_path,
    truncate_path,
)

__all__ = [
    "FlowMap",
    "flow_map",
    "eta_tilde_path",
    "inverse_flow_solve",
    "verify_pathwise_identity",
    "flow_inverse_check",
]


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

    def compose(self, later: "FlowMap") -> "FlowMap":
        """Transport over [self.u, later.t] via the intermediate time."""
        if abs(later.u - self.t) > 1e-12:
            raise ValueError("flow maps do not chain at a common time")
        return FlowMap(
            u=self.u,
            t=later.t,
            slope=later.slope * self.slope,
            intercept=later.slope * self.intercept + later.intercept,
        )


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


# ---------------------------------------------------------------------------
# the reversed drivers
# ---------------------------------------------------------------------------


def eta_tilde_path(reversed_ul: Path, model: LevyModel2) -> Path:
    """The integrator driving the inverse-flow SDE, from (U~, L~).

    Jumps d eta~ = dL~ / (1 - dU~); continuous part dL~ + sigma_UL dt.
    Equivalently (tested): the time reversal of the forward eta path.
    """
    du = _eventwise(
        reversed_ul,
        reversed_ul.dl + model.sigma_ul * reversed_ul.dt,
        lambda du, dl: dl / (1.0 - du),
        lambda du: du == 1.0,
        "eta~ undefined: reversed jump of size 1",
    )
    return _scalar(reversed_ul, du, model.sigma_l_sq, "eta~")


def inverse_flow_solve(
    path: Path, model: LevyModel2, t: float, y: float, check_tol: float = 1e-10
) -> GouTrajectory:
    """Run the inverse flow on [0, t] from level y.

    The driver is T, built from the reversed pair, and the integrator is
    L~.  Internally also builds eta~ both from the reversed pair and by
    reversing the forward eta path; on the exact backend the two must
    agree eventwise (the euler backend shares increments, so they agree
    there too).
    """
    if t > path.horizon + 1e-12:
        raise ValueError("t beyond the path horizon")
    rev = reverse_path(path, t)
    eta_a = eta_tilde_path(rev, model)
    eta_b = reverse_path(eta_path(path, model), t)
    err = float(np.max(np.abs(eta_a.du - eta_b.du), initial=0.0))
    if err > check_tol:
        raise ArithmeticError(
            f"eta~ construction routes disagree (max increment error {err:.3e})"
        )
    tp = t_path(rev, model.sigma_u_sq)
    driver = _scalar(tp, tp.du, model.sigma_u_sq, "T")
    return solve_pair(driver, _scalar(tp, tp.dl, model.sigma_l_sq, "L~"), y)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _mixed_error(a, b):
    return np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))


def verify_pathwise_identity(
    path: Path, model: LevyModel2, x: float, t: float | None = None
) -> dict:
    """Max deviation in V_{(t-s)-} = R_s over all event boundaries.

    R is the inverse flow started at y = V_{t-}^x.  Reversed boundary j
    is forward boundary m - j, so the two sides are compared as aligned
    arrays.  At a reversed jump at s the boundary after it holds R_s and
    meets V_{(t-s)-}, the one before it holds R_{s-} and meets the other
    one-sided limit V_{t-s}; the left limits of R repeat these values.
    The error metric is |lhs - rhs| / (1 + max(|lhs|, |rhs|)); on the
    exact backend it should sit at float-precision level, on the euler
    backend it shrinks with the grid step and is reported for convergence
    studies.  A stacked batch (``exact_paths``, t at the horizon) gets one
    ``max_error`` per row.
    """
    t = path.horizon if t is None else float(t)
    fwd = truncate_path(path, t) if t < path.horizon - 1e-12 else path
    # a jump exactly at the reversal time is not part of the reversed path
    # (V_{(t-s)-} never involves it either)
    fwd = _null_jumps_at(fwd, t)
    v = solve_forward(fwd, model, x).values.values
    rtraj = inverse_flow_solve(fwd, model, t, 0.0)
    # R^y = E(T) (y + I) for every start y, here y = V_{t-}
    r = rtraj.exponential.values * (v[..., -1:] + rtraj.integral.values)
    max_err = _mixed_error(v[..., ::-1], r).max(axis=-1)
    real = fwd.is_jump | (fwd.dt > 0.0)  # not the null segments padding a batch
    return {
        "max_error": float(max_err) if max_err.ndim == 0 else max_err,
        "n_points": int(real.sum()) + v.size // v.shape[-1],
        "t": t,
        "x": float(x),
        "backend": path.backend,
        "grid_dt": path.grid_dt,
    }


def flow_inverse_check(
    path: Path, model: LevyModel2, u: float, t: float, y: float
) -> dict:
    """Compare the inverted affine flow map with the inverse-flow path.

    The map transporting V_u to V_t is inverted algebraically and must
    match the inverse-flow trajectory's left limit at s = t - u.
    """
    if not model.condition_b:
        raise ConditionError(
            "flow inversion as a monotone bijection needs condition (B)"
        )
    traj = solve_forward(path, model, 0.0)
    fmap = flow_map(traj, u, t)
    x_direct = fmap.invert(y)
    rtraj = inverse_flow_solve(path, model, t, y)
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
