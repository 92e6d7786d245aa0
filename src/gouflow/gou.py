"""Forward solutions of the driven linear SDE dV = V_- dU + dL, exponential
functionals and stationary sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mc
from .calculus import AlignedSeries, exponential_with_integral
from .levy import ConditionError, LevyModel2
from .paths import GRID_DT, Path, _scalar, eta_path
from .stats import EmpiricalDistribution

__all__ = [
    "GouTrajectory",
    "solve_forward",
    "solve_pair",
    "causal_integral",
    "finite_samples",
    "stationary_law",
    "stationary_sampler",
]

DIAG_THRESHOLD = 1e-8  # truncation diagnostic bound on |E(U)_T| or its inverse


@dataclass(frozen=True)
class GouTrajectory:
    """One solved trajectory: the stochastic exponential, the running
    integral of the explicit formula, and V itself."""

    x: float
    exponential: AlignedSeries
    integral: AlignedSeries
    values: AlignedSeries


def solve_pair(driver: Path, integrator: Path, x: float) -> GouTrajectory:
    """Explicit solution V_s = E(D)_s (x + int E(D)_{r-}^{-1} dI_r).

    ``integrator`` is used as-is; jumps of V follow
    V -> (1 + dD)(V_- + dI), which for the (U, eta) pairing is exactly
    the SDE jump V -> V_-(1 + dU) + dL.
    """
    e, i = exponential_with_integral(driver, integrator, power=-1)
    vx = float(x)
    series = AlignedSeries(e.times, e.values * (vx + i.values))
    return GouTrajectory(x=vx, exponential=e, integral=i, values=series)


def _u_part(path: Path, model: LevyModel2) -> Path:
    """The first component of a (U, L) path as a scalar driver."""
    return _scalar(path, path.du, model.sigma_u_sq)


def solve_forward(path: Path, model: LevyModel2, x: float) -> GouTrajectory:
    """Solve the SDE along a sampled (U, L) path via the explicit formula."""
    if (path.du[path.is_jump] == -1.0).any():
        raise ConditionError("path has a jump with dU = -1; no solution")
    return solve_pair(_u_part(path, model), eta_path(path, model), x)


def causal_integral(path: Path, model: LevyModel2) -> AlignedSeries:
    """Running int_(0,s] E(U)_{r-} dL_r along one path."""
    l_part = _scalar(path, path.dl, 0.0)
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


def stationary_law(
    values: np.ndarray, diags: np.ndarray, kind: str, horizon: float, seed: int
) -> EmpiricalDistribution:
    """The empirical law of ``mc.exp_functional_samples``' ``values``.

    The metadata records the fraction of paths whose truncation diagnostic
    exceeded ``DIAG_THRESHOLD``; above 5% the result is flagged.
    Non-finite values raise ConditionError (``finite_samples``).  A caller
    that draws several samples at once can build each law after its own
    checks, so that a refusal names what it would name drawn in turn.
    """
    values = finite_samples(values, f"{kind} stationary", horizon)
    fail_frac = float(np.mean(diags > DIAG_THRESHOLD))
    return EmpiricalDistribution(
        values,
        metadata={
            "kind": kind,
            "horizon": horizon,
            "seed": seed,
            "diagnostic_threshold": DIAG_THRESHOLD,
            "diagnostic_fail_fraction": fail_frac,
            "flagged": fail_frac > 0.05,
        },
    )


def stationary_sampler(
    model: LevyModel2,
    kind: str,
    n: int,
    horizon: float,
    seed: int,
    grid_dt: float = GRID_DT,
    workers: int = 1,
    label: str = "stationary",
) -> EmpiricalDistribution:
    """n independent exponential-functional samples from the model's ``mc``
    lane as an empirical law (``stationary_law``)."""
    values, diags = mc.exp_functional_samples(
        model, kind, n, horizon, seed, grid_dt=grid_dt, workers=workers, label=label
    )
    return stationary_law(values, diags, kind, horizon, seed)
