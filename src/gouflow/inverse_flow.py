"""Inverse stochastic flows of the driven linear SDE.

Freezing a realized (U, L) path on [0, t], the map x -> V_t^x is affine
with slope E(U)_t.  Reversing time turns its inverse into another GOU
process: with the time-reversed pair (U~, L~) and

    T_s = U~_s + sigma_U^2 s + sum (dU~)^2 / (1 - dU~),

the process R_s = E(T)_s (y + int_(0,s] E(T)_{u-}^{-1} dL~_u) satisfies
the pathwise identity V_{(t-s)-} = R_s when started at y = V_t.  The
checks here are almost-sure statements, so the exact backend verifies
them to float precision rather than statistically.

Two routes check it.  ``verify_tile_identity`` runs on a padded jump tile
of a model without a Gaussian part (``JumpDraw.pad``): the jump lane's
kernel (``mc._jump_increments``) gives V at every boundary, and the same
kernel on the reversed tile (``mc._reverse_tile``), with drift
(-b_U, -b_L) and marks mapped by ``levy.dual_jump``, gives R.  The map
needs condition (A) only, so it covers models that have no dual.
``verify_pathwise_identity`` runs on ``Path`` batches through the
per-path solver: the Euler check of models with a Gaussian part, and the
tests' independent route for the tile check.
"""

from __future__ import annotations

import numpy as np

from . import mc
from .gou import GouTrajectory, solve_forward, solve_pair
from .levy import LevyModel2, dual_jump
from .paths import (
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
    err = float(np.max(np.abs(eta_a.du - eta_b.du), initial=0.0))
    if err > _ETA_ROUTE_TOL:
        raise ArithmeticError(
            f"eta~ construction routes disagree (max increment error {err:.3e})"
        )
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
