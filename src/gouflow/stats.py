"""Empirical distributions, two-sample tests and confidence machinery."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "EmpiricalDistribution",
    "KsResult",
    "ecdf",
    "ks_two_sample",
    "ks_critical_value",
    "binomial_ci",
]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A sorted sample with right-continuous CDF and quantile evaluation."""

    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample contains non-finite values")
        object.__setattr__(self, "values", np.sort(v))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def cdf(self, x) -> np.ndarray | float:
        """F(x) = #{v <= x} / n, right-continuous."""
        out = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.n
        return float(out) if np.isscalar(x) else out

    def sf(self, x):
        """P(V >= x) = #{v >= x} / n."""
        out = (self.n - np.searchsorted(self.values, np.asarray(x, dtype=float), side="left")) / self.n
        return float(out) if np.isscalar(x) else out

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile level outside [0, 1]")
        idx = min(self.n - 1, max(0, math.ceil(q * self.n) - 1))
        return float(self.values[idx])

    def export(self, csv_path, sidecar_path=None) -> None:
        """Write the sorted sample as one value per line plus a JSON sidecar."""
        np.savetxt(csv_path, self.values, fmt="%.17g", header="value", comments="")
        if sidecar_path is not None:
            meta = {"n": self.n, **self.metadata}
            with open(sidecar_path, "w") as fh:
                json.dump(meta, fh, sort_keys=True, indent=2)
                fh.write("\n")


@dataclass(frozen=True)
class KsResult:
    statistic: float
    pvalue: float
    n_a: int
    n_b: int

    def rejects(self, level: float = 1e-3) -> bool:
        return self.pvalue < level


def ecdf(values) -> EmpiricalDistribution:
    return EmpiricalDistribution(np.asarray(values, dtype=float))


def _kolmogorov_sf(lam: float, terms: int = 100) -> float:
    """Tail of the Kolmogorov distribution, Q(lam) = 2 sum (-1)^{k-1} e^{-2 k^2 lam^2}."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


def ks_two_sample(a: EmpiricalDistribution, b: EmpiricalDistribution) -> KsResult:
    """Two-sample KS statistic by merge scan, asymptotic p-value.

    The p-value uses the Kolmogorov series at effective sample size
    n*m/(n+m); the suites keep n >= 1e3 so the asymptotic regime applies.
    """
    xa, xb = a.values, b.values
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    d = float(np.max(np.abs(fa - fb)))
    n_eff = xa.size * xb.size / (xa.size + xb.size)
    p = _kolmogorov_sf(d * math.sqrt(n_eff))
    return KsResult(statistic=d, pvalue=p, n_a=xa.size, n_b=xb.size)


def ks_critical_value(n_a: int, n_b: int, level: float = 1e-3) -> float:
    """Smallest D rejected at the given level (asymptotic)."""
    n_eff = n_a * n_b / (n_a + n_b)
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n_eff)


def binomial_ci(hits: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= hits <= n:
        raise ValueError("hits outside [0, n]")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # the exact Wilson bounds are 0 at hits == 0 and 1 at hits == n;
    # guard the float roundoff in center - half
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return (lo, hi)
