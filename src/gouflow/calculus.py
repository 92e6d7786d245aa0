"""Stochastic exponentials and their running integrals on columnar paths.

All increments already carry genuine drift, so no compensator correction
ever appears inside an integral.  On the exact backend, segments are pure
drift and every integral below is evaluated in closed form, which is what
lets the almost-sure identities be tested at 1e-9 .. 1e-12 tolerances.
The stochastic exponential multiplies factor by factor (one cumprod)
rather than summing logs, so jumps below -1 (sign changes) need no
special casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import ConditionError
from .paths import _TIME_TOL, Path, _check_skeleton

__all__ = [
    "AlignedSeries",
    "stochastic_exponential",
    "exponential_with_integral",
]


@dataclass(frozen=True)
class AlignedSeries:
    """Values aligned to a path's event boundaries.

    Entry 0 is t=0; entry k is the state after event k.  A jump repeats
    its gap's end time, so the first boundary at a jump time holds the
    left limit and the next one the value after the jump.
    """

    times: np.ndarray
    values: np.ndarray

    def at(self, t: float, left: bool = False) -> float:
        """Value at boundary time t (times within 1e-12 count as equal).

        ``left`` reads the first boundary at t, which holds the left
        limit; off the boundaries, or without ``left``, the value after
        the last boundary at or before t.
        """
        times = self.times
        if left:
            k = int(np.searchsorted(times, t - _TIME_TOL, side="left"))
            if k == times.size or times[k] > t + _TIME_TOL:
                k -= 1
        else:
            k = int(np.searchsorted(times, t + _TIME_TOL, side="right")) - 1
        if k < 0:
            raise IndexError(f"time {t} precedes the series")
        return float(self.values[k])


def stochastic_exponential(x: Path) -> AlignedSeries:
    """Doleans-Dade exponential along a path.

    Incremental form of E(X)_s = e^{X_s - sigma^2 s / 2} prod (1+dX) e^{-dX}:
    one running product of e^{dX_cont - sigma^2 dt / 2} per segment and
    (1+dX) per jump.  Never zero under condition (A); changes sign exactly
    at jumps below -1.
    """
    jump = x.is_jump
    if (x.du[jump] == -1.0).any():
        raise ConditionError("stochastic exponential hits zero: jump of size -1")
    factor = np.exp(x.du - 0.5 * x.var_du * x.dt)
    factor[jump] = 1.0 + x.du[jump]
    e = np.empty(x.t.shape)
    e[..., 0] = 1.0
    np.cumprod(factor, axis=-1, out=e[..., 1:])
    return AlignedSeries(x.t, e)


def exponential_with_integral(
    driver: Path, integrator: Path, power: int = -1
) -> tuple[AlignedSeries, AlignedSeries]:
    """E(driver) together with the running integral of E(driver)^power
    against the integrator.

    One cumprod of the per-event factors gives E; one cumsum of the
    integrator increments weighted by E_{start}^power gives the integral.
    Exact backend: a segment with driver increment a contributes the
    closed form c E_start^power phi(power a), so the result carries no
    discretization error.  Euler backend: left-point sums on the grid.
    """
    if power not in (-1, 1):
        raise ValueError("power must be +1 or -1")
    _check_skeleton(driver, integrator)
    e = stochastic_exponential(driver)
    start = e.values[..., :-1]
    weighted = integrator.du * (start if power == 1 else 1.0 / start)
    if driver.backend == "exact":
        # phi(z) = (e^z - 1)/z, continued by 1 + z/2 near 0; 1 at jumps
        z = power * driver.du
        small = np.abs(z) < 1e-8
        safe = np.where(small, 1.0, z)
        phi = np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)
        phi[driver.is_jump] = 1.0
        weighted = weighted * phi
    acc = np.empty(e.values.shape)
    acc[..., 0] = 0.0
    np.cumsum(weighted, axis=-1, out=acc[..., 1:])
    return e, AlignedSeries(driver.t, acc)
