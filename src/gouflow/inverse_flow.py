"""Inverse stochastic flows of the driven linear SDE.

Freezing a realized (U, L) path on [0, t], the map x -> V_t^x is affine
with slope E(U)_t.  Reversing time turns its inverse into another GOU
process: with the time-reversed pair (U~, L~) and

    T_s = U~_s + sigma_U^2 s + sum (dU~)^2 / (1 - dU~),

the process R_s = E(T)_s (y + int_(0,s] E(T)_{u-}^{-1} dL~_u) satisfies
the pathwise identity V_{(t-s)-} = R_s when started at y = V_t.  The
checks here are almost-sure statements, so the exact backend verifies
them to float precision rather than statistically.

The suite checks it on arrays.  ``verify_tile_identity`` runs on a
padded jump tile of a model without a Gaussian part (``JumpDraw.pad``):
the jump lane's kernel (``mc._jump_increments``) gives V at every
boundary, and the same kernel on the reversed tile (``mc._reverse_tile``),
with drift (-b_U, -b_L) and marks mapped by ``levy.dual_jump``, gives R.
The map needs condition (A) only, so it covers models that have no dual.
``verify_grid_identity`` runs the Euler check of a model with a Gaussian
part on the grid arrays of an ``euler_draw``: each grid's steps with the
jump slots interleaved, in the arithmetic of the ``Path`` route.
``verify_pathwise_identity`` runs on ``Path`` batches through the
per-path solver; no suite calls it, and it stays as the tests' oracle for
both routes.
"""

from __future__ import annotations

import numpy as np

from . import mc
from .gou import GouTrajectory, solve_forward, solve_pair
from .levy import ConditionError, LevyModel2, dual_jump
from .paths import (
    _TIME_TOL,
    EulerDraw,
    Path,
    _eventwise,
    _null_jumps_at,
    _scalar,
    eta_path,
    reverse_path,
    t_path,
)

__all__ = [
    "eta_tilde_path",
    "inverse_flow_solve",
    "verify_grid_identity",
    "verify_pathwise_identity",
    "verify_tile_identity",
]

_ETA_ROUTE_TOL = 1e-10  # largest increment gap between the two eta~ routes


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
    return _scalar(reversed_ul, du, model.sigma_l_sq)


def _check_eta_routes(err: float) -> None:
    """ArithmeticError if the two eta~ routes differ by more than
    ``_ETA_ROUTE_TOL`` in some increment."""
    if err > _ETA_ROUTE_TOL:
        raise ArithmeticError(
            f"eta~ construction routes disagree (max increment error {err:.3e})"
        )


def inverse_flow_solve(path: Path, model: LevyModel2, y: float) -> GouTrajectory:
    """Run the inverse flow on [0, T] from level y, T the path's horizon.

    The driver is T, built from the reversed pair, and the integrator is
    L~.  Internally also builds eta~ both from the reversed pair and by
    reversing the forward eta path; on the exact backend the two must
    agree eventwise to ``_ETA_ROUTE_TOL`` (the euler backend shares
    increments, so they agree there too).
    """
    rev = reverse_path(path)
    eta_a = eta_tilde_path(rev, model)
    eta_b = reverse_path(eta_path(path, model))
    _check_eta_routes(float(np.max(np.abs(eta_a.du - eta_b.du), initial=0.0)))
    tp = t_path(rev, model.sigma_u_sq)
    driver = _scalar(tp, tp.du, model.sigma_u_sq)
    return solve_pair(driver, _scalar(tp, tp.dl, model.sigma_l_sq), y)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _mixed_error(a, b):
    return np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))


def verify_pathwise_identity(path: Path, model: LevyModel2, x: float) -> dict:
    """Max deviation in V_{(t-s)-} = R_s over all event boundaries, t the
    path's horizon.

    R is the inverse flow started at y = V_{t-}^x.  Reversed boundary j
    is forward boundary m - j, so the two sides are compared as aligned
    arrays.  At a reversed jump at s the boundary after it holds R_s and
    meets V_{(t-s)-}, the one before it holds R_{s-} and meets the other
    one-sided limit V_{t-s}.  The identity reads the path on [0, t] only,
    so a check at the horizon of a path sampled on [0, t] covers any t.
    The error metric is |lhs - rhs| / (1 + max(|lhs|, |rhs|)); on the
    exact backend it should sit at float-precision level, on the euler
    backend it shrinks with the grid step and is reported for convergence
    studies.  A stacked batch (``exact_paths``) gets one ``max_error`` per
    row.
    """
    # a jump exactly at the horizon is not part of the reversed path
    # (V_{(t-s)-} never involves it either)
    fwd = _null_jumps_at(path, path.horizon)
    v = solve_forward(fwd, model, x).values.values
    rtraj = inverse_flow_solve(fwd, model, 0.0)
    # R^y = E(T) (y + I) for every start y, here y = V_{t-}
    r = rtraj.exponential.values * (v[..., -1:] + rtraj.integral.values)
    max_err = _mixed_error(v[..., ::-1], r).max(axis=-1)
    real = fwd.is_jump | (fwd.dt > 0.0)  # not the null segments padding a batch
    return {
        "max_error": float(max_err) if max_err.ndim == 0 else max_err,
        "n_points": int(real.sum()) + v.size // v.shape[-1],
    }


def _inverse_drivers(tile, horizon: float):
    """The reversal of a padded jump tile (times, du, dl) on [0, horizon]
    (``mc._reverse_tile``) with the inverse flow's marks: T jumps by
    dU~/(1 - dU~) = -dU/(1+dU) and eta~ by -dL/(1+dU) (``dual_jump``)."""
    times, du, dl = mc._reverse_tile(*tile, horizon)
    return (times, *dual_jump(du, dl))


def _tile_flows(tile, horizon: float, model: LevyModel2, x: float):
    """V^x at the 2K + 2 boundaries of a padded jump tile (times, du, dl)
    on [0, horizon] (``mc._jump_boundaries``), and the inverse flow R at
    the boundaries of its reversal, started at y = V_T.

    R runs the kernel on ``_inverse_drivers`` with drift -b (T and eta~
    without a Gaussian part); the kernel's integrator eta~/(1 + dT) then
    jumps by -dL, which is L~, as in ``inverse_flow_solve``.
    """
    a, b_l = model.drift
    parts = mc._jump_increments(*tile, a, b_l, horizon, ("i",))
    e, i = mc._jump_boundaries(parts)
    parts = mc._jump_increments(*_inverse_drivers(tile, horizon), -a, -b_l, horizon, ("i",))
    e_t, i_t = mc._jump_boundaries(parts)
    with np.errstate(over="ignore", invalid="ignore"):
        v = e * (x + i)
        return v, e_t * (v[:, -1:] + i_t)


def verify_tile_identity(tile, horizon: float, model: LevyModel2, x: float) -> np.ndarray:
    """Per-row max deviation in V_{(t-s)-} = R_s over every boundary of a
    padded jump tile (times, du, dl), t the horizon: the error metric of
    ``verify_pathwise_identity``, reversed boundary j against forward
    boundary 2K + 1 - j.  du must be an array (``JumpDraw.pad`` with its
    dU tile).
    """
    v, r = _tile_flows(tile, horizon, model, x)
    with np.errstate(invalid="ignore"):
        return _mixed_error(v[:, ::-1], r).max(axis=1)


def _solve(factors, integrand):
    """E (one cumprod of the per-event factors) and int E_-^{-1} dI (one
    cumsum) at every boundary, as ``calculus.exponential_with_integral``
    computes them on the euler backend."""
    e = np.empty((factors.shape[0], factors.shape[1] + 1))
    e[:, 0] = 1.0
    np.cumprod(factors, axis=1, out=e[:, 1:])
    acc = np.empty(e.shape)
    acc[:, 0] = 0.0
    np.cumsum(integrand * (1.0 / e[:, :-1]), axis=1, out=acc[:, 1:])
    return e, acc


def _interleave(steps, jumps, at, is_step):
    """(rows, steps + K) events: each row's steps in order, with its K jump
    slots at the flat positions ``at`` (``is_step`` is False there)."""
    out = np.empty(is_step.size)
    out[is_step] = steps.ravel()
    out[at] = jumps.ravel()
    return out.reshape(steps.shape[0], -1)


def verify_grid_identity(draw: EulerDraw, model: LevyModel2, x: float) -> list[np.ndarray]:
    """Per-row max deviation in V_{(t-s)-} = R_s over every boundary, one
    array per grid of an ``euler_draw``, t its horizon: bit for bit the
    ``max_error`` of ``verify_pathwise_identity`` on the ``euler_paths``
    batch of each grid, with no ``Path``.

    Each grid's events are its steps with the K jump slots of a row
    interleaved (``EulerDraw.slots``).  A step's factors and increments
    are computed on (rows, steps) arrays, with its duration and that of
    its reversal read off one time vector per grid by the subtractions of
    ``Path.dt`` and ``reverse_path``; a jump's on (rows, K) arrays, once
    per draw.  V = E(U)(x + int E(U)_-^{-1} d eta) takes the steps'
    factors exp(dU - sigma_U^2 dt / 2) and eta increments
    dL - sigma_UL dt, and a jump's 1 + dU and dL/(1 + dU).  R runs on the
    reversal: T steps by -dU + sigma_U^2 dt~, T jumps by
    dU~/(1 - dU~), and the integrator is L~.  A jump at the horizon is
    nulled first; a dU = -1 jump is a ConditionError, and the two eta~
    routes must agree to ``_ETA_ROUTE_TOL`` (ArithmeticError), as in
    ``inverse_flow_solve``.
    """
    h = draw.horizon
    ju, jl = draw.marks
    kmax = ju.shape[-1]
    t_zero = False
    if kmax:
        # a jump exactly at the horizon is not part of the reversed path
        hit = np.abs(draw.jump_times - h) <= _TIME_TOL
        ju, jl = np.where(hit, 0.0, ju), np.where(hit, 0.0, jl)
        if (ju == -1.0).any():
            raise ConditionError("path has a jump with dU = -1; no solution")
        du_rev = -ju
        d_t = du_rev / (1.0 - du_rev)
        t_zero = (d_t == -1.0).any()  # by rounding only, at dU of about 2^53 or more
        jumps = (1.0 + ju, jl / (1.0 + ju), 1.0 + d_t, jl)
    s2, s_ul = model.sigma_u_sq, model.sigma_ul
    c = 0.5 * s2
    errs = []
    for k, (du, dl) in zip(draw.ks, draw.sums):
        b = np.concatenate(([0.0], draw.ends(k)))
        dt = b[1:] - b[:-1]
        back = h - b
        dt_rev = back[:-1] - back[1:]  # step i's duration in the reversal
        eta = dl - s_ul * dt
        if s_ul:  # without sigma_UL both eta~ routes read -dL
            # eta~ from the reversed pair, -dL + sigma_UL dt~, against the
            # reversed eta path, -eta; at a jump both are one quotient
            _check_eta_routes(float(np.abs((s_ul * dt_rev - dl) + eta).max(initial=0.0)))
        if t_zero:
            raise ConditionError("stochastic exponential hits zero: jump of size -1")
        steps = (np.exp(du - c * dt), eta, np.exp((s2 * dt_rev - du) - c * dt_rev), dl)
        if kmax:
            rows, n = du.shape
            at = (draw.slots(k) + (n + kmax) * np.arange(rows)[:, None]).ravel()
            is_step = np.ones(rows * (n + kmax), dtype=bool)
            is_step[at] = False
            steps = [_interleave(a, j, at, is_step) for a, j in zip(steps, jumps)]
        f, eta, f_t, dl = steps
        e, i = _solve(f, eta)
        v = e * (x + i)
        e_t, i_t = _solve(f_t[:, ::-1], -dl[:, ::-1])
        r = e_t * (v[:, -1:] + i_t)
        errs.append(_mixed_error(v[:, ::-1], r).max(axis=1))
    return errs
