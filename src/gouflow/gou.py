"""Forward solutions of the driven linear SDE dV = V_- dU + dL, exponential
functionals and stationary sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .calculus import AlignedSeries, _phi, exponential_with_integral, stochastic_exponential
from .levy import ConditionError, LevyModel2
from .paths import Path, _scalar, eta_path, sample_path
from .stats import EmpiricalDistribution

__all__ = [
    "GouTrajectory",
    "solve_forward",
    "solve_pair",
    "solve_sde_euler",
    "euler_on_path",
    "causal_integral",
    "finite_samples",
    "stationary_sampler",
]

DIAG_THRESHOLD = 1e-8  # default truncation diagnostic on |E(U)_T| or its inverse


@dataclass(frozen=True)
class GouTrajectory:
    """One solved trajectory: the stochastic exponential, the running
    integral of the explicit formula, and V itself."""

    path: Path
    model: LevyModel2 | None
    x: float
    exponential: AlignedSeries
    integral: AlignedSeries
    values: AlignedSeries
    backend: str

    @property
    def times(self) -> np.ndarray:
        return self.values.times

    def final(self) -> float:
        return self.values.final()


def solve_pair(driver: Path, integrator: Path, x: float) -> GouTrajectory:
    """Explicit solution V_s = E(D)_s (x + int E(D)_{r-}^{-1} dI_r).

    ``integrator`` is used as-is; jumps of V follow
    V -> (1 + dD)(V_- + dI), which for the (U, eta) pairing is exactly
    the SDE jump V -> V_-(1 + dU) + dL.
    """
    e, i = exponential_with_integral(driver, integrator, power=-1)
    vx = float(x)
    v_lefts = e.lefts * (vx + i.lefts)
    v_vals = e.values * (vx + i.values)
    series = AlignedSeries(e.times, v_lefts, v_vals)
    return GouTrajectory(
        path=driver,
        model=None,
        x=vx,
        exponential=e,
        integral=i,
        values=series,
        backend=driver.backend,
    )


def _u_part(path: Path, model: LevyModel2) -> Path:
    """The first component of a (U, L) path as a scalar driver."""
    return _scalar(path, path.du, model.sigma_u_sq, "U")


def solve_forward(path: Path, model: LevyModel2, x: float) -> GouTrajectory:
    """Solve the SDE along a sampled (U, L) path via the explicit formula."""
    if (path.du[path.is_jump] == -1.0).any():
        raise ConditionError("path has a jump with dU = -1; no solution")
    traj = solve_pair(_u_part(path, model), eta_path(path, model), x)
    return GouTrajectory(
        path=path,
        model=model,
        x=traj.x,
        exponential=traj.exponential,
        integral=traj.integral,
        values=traj.values,
        backend=path.backend,
    )


def euler_on_path(path: Path, model: LevyModel2, x: float) -> AlignedSeries:
    """Step the SDE directly along an existing path, event by event.

    At jumps V <- V (1 + dU) + dL.  Exact-backend segments carry pure
    drift and are integrated in closed form (linear ODE over the gap), so
    the scheme reproduces solve_forward to float precision there.  Euler-
    backend segments use the first-order update V <- V(1+dU) + dL per
    grid step, which is the independent discretized route.
    """
    exact = path.backend == "exact"
    m = path.du.size
    lefts = np.empty(m + 1)
    values = np.empty(m + 1)
    lefts[0] = values[0] = v = float(x)
    steps = zip(path.is_jump.tolist(), path.du.tolist(), path.dl.tolist())
    for k, (jump, du, dl) in enumerate(steps, start=1):
        if jump:
            lefts[k] = v
            v = v * (1.0 + du) + dl
        else:
            v = v * math.exp(du) + dl * _phi(du) if exact else v * (1.0 + du) + dl
            lefts[k] = v
        values[k] = v
    return AlignedSeries(path.t, lefts, values)


def solve_sde_euler(
    model: LevyModel2,
    x: float,
    horizon: float,
    grid_dt: float,
    rng: np.random.Generator,
) -> GouTrajectory:
    """Sample a path and step the SDE along it (cross-check route).

    Reusing the same stream state reproduces the path fed to
    solve_forward, so the two routes can be compared increment by
    increment.
    """
    path = sample_path(model, horizon, rng, grid_dt)
    series = euler_on_path(path, model, x)
    e = stochastic_exponential(_u_part(path, model))
    integral = AlignedSeries(
        series.times, series.lefts / e.lefts - x, series.values / e.values - x
    )
    return GouTrajectory(
        path=path,
        model=model,
        x=float(x),
        exponential=e,
        integral=integral,
        values=series,
        backend=path.backend,
    )


def causal_integral(path: Path, model: LevyModel2) -> AlignedSeries:
    """Running int_(0,s] E(U)_{r-} dL_r along one path."""
    l_part = _scalar(path, path.dl, 0.0, "L")
    _, integral = exponential_with_integral(_u_part(path, model), l_part, power=1)
    return integral


def finite_samples(values: np.ndarray, what: str, horizon: float) -> np.ndarray:
    """``values``, or ConditionError naming how many are not finite."""
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ConditionError(
            f"{bad} of {values.size} {what} samples are not finite at horizon "
            f"{horizon:g}; the stochastic exponential overflows, use a shorter horizon"
        )
    return values


def stationary_sampler(
    model: LevyModel2,
    kind: str,
    n: int,
    horizon: float,
    seed: int,
    grid_dt: float = 1e-3,
    diag_threshold: float = DIAG_THRESHOLD,
    workers: int = 1,
    label: str = "stationary",
) -> EmpiricalDistribution:
    """n independent exponential-functional samples as an empirical law.

    The metadata records the fraction of paths whose truncation diagnostic
    exceeded the threshold; above 5% the result is flagged.  Samples come
    from the model's ``mc`` lane; non-finite ones raise ConditionError.
    """
    values, diags = mc.exp_functional_samples(
        model, kind, n, horizon, seed, grid_dt=grid_dt, workers=workers, label=label
    )
    values = finite_samples(values, f"{kind} stationary", horizon)
    fail_frac = float(np.mean(diags > diag_threshold))
    dist = EmpiricalDistribution(
        values,
        metadata={
            "kind": kind,
            "horizon": horizon,
            "seed": seed,
            "diagnostic_threshold": diag_threshold,
            "diagnostic_fail_fraction": fail_frac,
            "flagged": fail_frac > 0.05,
        },
    )
    return dist
