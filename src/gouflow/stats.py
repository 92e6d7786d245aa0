"""Empirical distributions, two-sample tests and confidence machinery."""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "EmpiricalDistribution",
    "KsResult",
    "RULES",
    "verdict",
    "decide",
    "ecdf",
    "ks_two_sample",
    "ks_critical_value",
    "binomial_ci",
]

_KS_TERMS = 100  # terms of the series in _kolmogorov_sf


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A sorted sample with right-continuous CDF and quantile evaluation.

    A zero is stored as +0.0, so no quantile or export shows a -0.0: the
    lanes define their samples up to the sign of a zero.
    """

    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample contains non-finite values")
        object.__setattr__(self, "values", np.sort(v) + 0.0)

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
        """Write the sorted sample as one value per line plus a JSON sidecar.

        The CSV has the bytes of ``np.savetxt(csv_path, values, fmt="%.17g",
        header="value", comments="")``, formatted in one ``%`` call.
        """
        with open(csv_path, "w") as fh:
            fh.write("value\n")
            fh.write(("%.17g\n" * self.n) % tuple(self.values.tolist()))
        if sidecar_path is not None:
            meta = {"n": self.n, **self.metadata}
            with open(sidecar_path, "w") as fh:
                json.dump(meta, fh, sort_keys=True, indent=2)
                fh.write("\n")


# A pass rule: a row passes on its signed margin(level, *inputs) >= 0, or > 0 if strict.
Rule = namedtuple("Rule", "statistic level margin strict", defaults=[False])
RULES = {  # every verdict's rule, as README's "Verdicts" table lists them; a NaN margin fails
    "duality": Rule("z", 3.29, lambda lv, se, diff: lv * se - diff),  # per direction
    "ruin-subordinator": Rule("|lhs - rhs|", 0.005, lambda lv, b, d: b - d),  # b = 3 se + 0.005
    # the CIs from the 0.005 and 1 - 0.005 == 0.995 bootstrap quantiles overlap
    "ruin-identity": Rule("|lhs - rhs|", 0.005, lambda lv, lo, hi: hi - lo),
    "ks": Rule("p", 1e-3, lambda lv, p: p - lv),
    "oracle": Rule("D", 0.02, lambda lv, d: lv - d),
    "inverse-flow-exact": Rule("max_error", 1e-9, lambda lv, err: lv - err),
    "inverse-flow-euler": Rule("median decrease", 0.0, lambda lv, a, b: a - b - lv, True),
    "monotone": Rule("violations", 0, lambda lv, v: lv - v),  # under condition (B)
    "nonmonotone": Rule("max_z", 4.0, lambda lv, z: z - lv, True),  # without (B)
}


def verdict(rule: str, probe, value, *inputs) -> dict:
    """A row's verdict keys: ``RULES[rule]`` at ``probe``, the statistic's
    ``value``, and the least margin (NaN first) of the rule on each tuple of ``inputs``."""
    lv, margin, strict = RULES[rule][1:]
    least = min((margin(lv, *args) for args in inputs), key=lambda m: (m == m, m))
    row = {"rule": rule, "probe": probe, "value": value, "level": lv, "margin": least}
    return {**row, "pass": bool(least > 0 if strict else least >= 0)}


def decide(rows) -> dict:
    """``passed`` if there is a row and every row passes; ``worst``: a
    failing row if any, least margin, NaN first."""
    rank = lambda r: (r["pass"], r["margin"] == r["margin"], r["margin"])
    passed = bool(rows) and all(r["pass"] for r in rows)
    return {"passed": passed, "worst": min(rows, key=rank, default=None)}


@dataclass(frozen=True)
class KsResult:
    statistic: float
    pvalue: float


def ecdf(values) -> EmpiricalDistribution:
    return EmpiricalDistribution(np.asarray(values, dtype=float))


def _kolmogorov_sf(lam: float) -> float:
    """Tail of the Kolmogorov distribution, Q(lam) = 2 sum (-1)^{k-1} e^{-2 k^2 lam^2}.

    The alternating series has not converged in ``_KS_TERMS`` terms only
    below lam of about 0.0433.  There the theta form 1 - Q = (sqrt(2 pi)
    / lam) sum e^{-(2k-1)^2 pi^2 / (8 lam^2)} is its first term to within
    a factor 1 + e^{-5000}, and that term is below 1e-280: Q is 1.0 in
    floating point.
    """
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, _KS_TERMS + 1):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    else:
        return 1.0
    return min(1.0, max(0.0, total))


def ks_two_sample(a: EmpiricalDistribution, b: EmpiricalDistribution) -> KsResult:
    """Two-sample KS statistic by merge scan, asymptotic p-value.

    The p-value is the asymptotic one, the Kolmogorov series at effective
    sample size n*m/(n+m); nothing enforces an n large enough for it.
    """
    xa, xb = a.values, b.values
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    d = float(np.max(np.abs(fa - fb)))
    n_eff = xa.size * xb.size / (xa.size + xb.size)
    p = _kolmogorov_sf(d * math.sqrt(n_eff))
    return KsResult(statistic=d, pvalue=p)


def ks_critical_value(n_a: int, n_b: int, level: float = RULES["ks"].level) -> float:
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
