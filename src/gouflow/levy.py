"""Bivariate Levy models with finite-activity jumps.

A model is stored by its *genuine* linear drift b = (b_U, b_L), the
Gaussian covariance rate matrix, and a jump specification given as an
intensity times a normalized jump law.  For finite activity this is
equivalent to the usual characteristic triplet, whose location is
gamma = b + intensity * E[z 1_{|z| <= 1}].

Two standing assumptions about the first jump coordinate matter
throughout:

* condition (A): jumps of the first component never equal -1, which makes
  the driven linear SDE solvable;
* condition (B): jumps of the first component stay strictly above -1,
  which keeps the stochastic exponential positive, makes the process
  stochastically monotone and is exactly when a Siegmund dual exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConditionError",
    "Marginal",
    "JumpLaw2",
    "LevyModel2",
    "dual_model",
    "dual_jump",
    "detect_degeneracy",
    "degeneracy_margin",
]

_PSD_TOL = 1e-12
_DEGENERACY_TOL = 1e-9  # largest degeneracy_margin at which k U = -L holds
_MIN_TRUNCATED_MASS = 1e-3  # smallest normal mass above a truncated normal's lower bound


class ConditionError(ValueError):
    """A model violates the hypothesis required by the requested operation."""


def _require_finite(what: str, *values) -> None:
    if not all(math.isfinite(float(v)) for v in values):
        raise ValueError(f"{what} must be finite")


def _check_probabilities(what: str, values, probs) -> None:
    """Finite ``values`` with nonnegative ``probs`` summing to 1."""
    _require_finite(f"{what} atoms and probabilities", *values, *probs)
    total = sum(probs)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{what} probabilities sum to {total}, not 1")
    if any(p < 0 for p in probs):
        raise ValueError(f"negative {what} probability")


def _check_minus_one(du_atoms) -> None:
    """Condition (A) for a law whose dU has the atoms ``du_atoms`` (None:
    no atoms, and a continuous law puts no mass on a single point)."""
    if du_atoms is not None and -1.0 in du_atoms:
        raise ConditionError("jump law puts mass on dU = -1 (condition (A) fails)")


# Uniforms per chunk of ``_atom_index``.  A chunked ``random`` draw takes
# the same Philox words in the same order as one (size,) draw, so the
# indices and the generator's end state do not depend on it.
_ATOM_CHUNK = 16_384


def _atom_index(rng: np.random.Generator, probs, size: int) -> np.ndarray:
    """``size`` indices of atoms with weights ``probs``: what
    ``Generator.choice`` draws for ``p = probs / sum(probs)``, without its
    checks of ``p`` and its binary search.  Each index counts the cdf
    entries at or below one ``random`` uniform, as ``choice`` does; the
    uniforms are drawn ``_ATOM_CHUNK`` at a time into one buffer."""
    p = np.asarray(probs, dtype=float)
    cdf = np.cumsum(p / p.sum())
    cdf /= cdf[-1]
    idx = np.zeros(size, dtype=np.min_scalar_type(cdf.size))  # uint8 below 256 atoms
    buf = np.empty(min(size, _ATOM_CHUNK))
    for s in range(0, size, _ATOM_CHUNK):
        part = idx[s : s + _ATOM_CHUNK]
        u = rng.random(out=buf[: part.size])
        for c in cdf[:-1]:  # the last entry is 1 > u
            part += u >= c
    return idx


# ---------------------------------------------------------------------------
# scalar marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Marginal:
    """One-dimensional jump-size law.

    Supported kinds: ``points`` (finite mixture of point masses),
    ``exponential`` (sign * Exp(rate)), ``uniform`` on (a, b), and
    ``truncated_normal`` restricted to (lower, inf).
    """

    kind: str
    params: tuple

    # -- constructors ------------------------------------------------------

    @staticmethod
    def points(atoms) -> "Marginal":
        atoms = tuple((float(v), float(p)) for v, p in atoms)
        _check_probabilities("point-mass", [v for v, _ in atoms], [p for _, p in atoms])
        return Marginal("points", atoms)

    @staticmethod
    def exponential(rate: float, sign: int = 1) -> "Marginal":
        _require_finite("rate", rate)
        if rate <= 0:
            raise ValueError("rate must be positive")
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        return Marginal("exponential", (float(rate), int(sign)))

    @staticmethod
    def uniform(a: float, b: float) -> "Marginal":
        _require_finite("uniform bounds", a, b)
        if not a < b:
            raise ValueError("need a < b")
        return Marginal("uniform", (float(a), float(b)))

    @staticmethod
    def truncated_normal(mu: float, sigma: float, lower: float) -> "Marginal":
        _require_finite("truncated-normal parameters", mu, sigma, lower)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        mass = 0.5 * math.erfc((lower - mu) / (sigma * math.sqrt(2.0)))
        if mass < _MIN_TRUNCATED_MASS:
            # rejection sampling would need about 1/mass normals per draw
            raise ValueError(
                f"truncated normal keeps mass {mass:.3g} above lower = {lower}; "
                f"at least {_MIN_TRUNCATED_MASS:g} is needed to sample it"
            )
        return Marginal("truncated_normal", (float(mu), float(sigma), float(lower)))

    # -- support -----------------------------------------------------------

    def atoms(self) -> tuple | None:
        """The values of positive mass of a ``points`` law, else None."""
        if self.kind != "points":
            return None
        return tuple(v for v, p in self.params if p > 0)

    def support_bounds(self) -> tuple[float, float]:
        if self.kind == "points":
            vals = self.atoms()
            return (min(vals), max(vals))
        if self.kind == "exponential":
            rate, sign = self.params
            return (0.0, math.inf) if sign > 0 else (-math.inf, 0.0)
        if self.kind == "uniform":
            a, b = self.params
            return (a, b)
        mu, sigma, lower = self.params
        return (lower, math.inf)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "points":
            vals = np.array([v for v, _ in self.params])
            return vals[_atom_index(rng, [p for _, p in self.params], size)]
        if self.kind == "exponential":
            rate, sign = self.params
            return sign * rng.exponential(1.0 / rate, size=size)
        if self.kind == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size=size)
        mu, sigma, lower = self.params
        # rejection; fine for the moderate truncations used here
        out = np.empty(size)
        filled = 0
        while filled < size:
            draw = rng.normal(mu, sigma, size=max(size - filled, 16))
            keep = draw[draw > lower]
            take = min(keep.size, size - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out


# ---------------------------------------------------------------------------
# bivariate jump laws
# ---------------------------------------------------------------------------


def dual_jump(du, dl):
    """The dual jump map (dU, dL) -> (-dU/(1+dU), -dL/(1+dU)), on floats
    or arrays alike: the jumps of the dual pair (W, K) and, under condition
    (A) alone, of the inverse flow's driver and integrator on the reversed
    path (``inverse_flow``)."""
    return -du / (1.0 + du), -dl / (1.0 + du)


@dataclass(frozen=True)
class JumpLaw2:
    """Distribution of a single bivariate jump (dU, dL).

    Variants: ``point_mass``, ``independent`` (product of marginals),
    ``linked`` (dL = intercept + slope * dU), and ``dual`` (the pushforward
    of a base law under the dual jump map, see :func:`dual_model`).
    """

    kind: str
    atoms: tuple = ()
    marg_u: Marginal | None = None
    marg_l: Marginal | None = None
    link: tuple[float, float] | None = None  # (intercept, slope)
    base: "JumpLaw2 | None" = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point_mass(atoms) -> "JumpLaw2":
        atoms = tuple(((float(u), float(l)), float(p)) for (u, l), p in atoms)
        _check_probabilities("jump", [v for uv, _ in atoms for v in uv], [p for _, p in atoms])
        law = JumpLaw2("point_mass", atoms=atoms)
        _check_minus_one([u for u, _ in law._atoms()])
        return law

    @staticmethod
    def independent(marg_u: Marginal, marg_l: Marginal) -> "JumpLaw2":
        _check_minus_one(marg_u.atoms())
        return JumpLaw2("independent", marg_u=marg_u, marg_l=marg_l)

    @staticmethod
    def linked(marg_u: Marginal, intercept: float, slope: float) -> "JumpLaw2":
        _require_finite("link intercept and slope", intercept, slope)
        _check_minus_one(marg_u.atoms())
        return JumpLaw2("linked", marg_u=marg_u, link=(float(intercept), float(slope)))

    # -- support ------------------------------------------------------------

    def _atoms(self) -> list | None:
        """The (dU, dL) values of positive mass when there are finitely
        many of them, else None."""
        if self.kind == "point_mass":
            return [uv for uv, p in self.atoms if p > 0]
        us = None if self.kind == "dual" else self.marg_u.atoms()
        if us is None:
            return None
        if self.kind == "linked":
            c, s = self.link
            return [(u, c + s * u) for u in us]
        ls = self.marg_l.atoms()
        return None if ls is None else [(u, l) for u in us for l in ls]

    def _support(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(dU bounds, dL bounds): the least and greatest value each
        coordinate of a jump can take, or its infimum and supremum."""
        atoms = self._atoms()
        if atoms is not None:
            us, ls = zip(*atoms)
            return (min(us), max(us)), (min(ls), max(ls))
        if self.kind == "dual":
            # dU' = 1/(1+dU) - 1 decreases in dU; dL' = -dL/(1+dU) has the
            # sign opposite to dL's, and its bounds keep only that sign
            (u_lo, u_hi), (lo, hi) = self.base._support()
            du = (1.0 / (1.0 + u_hi) - 1.0, 1.0 / (1.0 + u_lo) - 1.0)
            return du, (-math.inf if hi > 0 else 0.0, math.inf if lo < 0 else 0.0)
        du = self.marg_u.support_bounds()
        if self.kind == "independent":
            return du, self.marg_l.support_bounds()
        c, s = self.link
        if s == 0.0:  # dL = c; c + 0 * inf would be NaN
            return du, (c, c)
        lo, hi = sorted([c + s * du[0], c + s * du[1]])
        return du, (lo, hi)

    @property
    def condition_b(self) -> bool:
        """True when the dU-support lies in (-1, inf).  A dual law has a
        base with (B), and u -> -u/(1+u) maps (-1, inf) onto itself, so
        its dU infimum of -1 (a base dU unbounded above) is not attained."""
        return self.kind == "dual" or self._support()[0][0] > -1.0

    @property
    def dl_nonnegative(self) -> bool:
        return self._support()[1][0] >= 0.0

    # -- sampling -------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int, index: bool = False) -> tuple:
        """``size`` iid jumps as (dU, dL) arrays.

        With ``index`` (point-mass laws only) the same draw comes back as
        (atom index, dU atoms, dL atoms): jump k is (us[idx[k]], ls[idx[k]]),
        so a caller can keep one byte per jump and gather the marks later.
        """
        if self.kind == "point_mass":
            us = np.array([u for (u, _), _ in self.atoms])
            ls = np.array([l for (_, l), _ in self.atoms])
            idx = _atom_index(rng, [p for _, p in self.atoms], size)
            return (idx, us, ls) if index else (us[idx], ls[idx])
        if index:
            raise ValueError(f"a {self.kind} jump law has no atom index")
        if self.kind == "independent":
            return self.marg_u.sample(rng, size), self.marg_l.sample(rng, size)
        if self.kind == "linked":
            du = self.marg_u.sample(rng, size)
            c, s = self.link
            return du, c + s * du
        return dual_jump(*self.base.sample(rng, size))

    def dual(self) -> "JumpLaw2":
        """Pushforward under (dU, dL) -> (-dU/(1+dU), -dL/(1+dU)).

        Exact atom transform for point masses; other variants are wrapped
        and sampled by mapping base draws.
        """
        if not self.condition_b:
            raise ConditionError("dual jump law requires dU > -1 almost surely")
        if self.kind == "point_mass":  # an atom of mass 0 may sit at dU = -1
            return JumpLaw2.point_mass(
                [(dual_jump(u, l), p) for (u, l), p in self.atoms if p > 0]
            )
        if self.kind == "dual":
            return self.base
        return JumpLaw2("dual", base=self)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyModel2:
    """Bivariate Levy process: genuine drift, Gaussian covariance rate,
    finite-activity jumps (intensity times a jump law)."""

    drift: tuple[float, float]
    gaussian_cov: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (0.0, 0.0))
    jump_intensity: float = 0.0
    jump_law: JumpLaw2 | None = None

    def __post_init__(self):
        b = tuple(float(v) for v in self.drift)
        if len(b) != 2:
            raise ValueError(f"drift must have two entries (b_U, b_L), got {len(b)}")
        _require_finite("drift", *b)
        _require_finite("gaussian_cov", *(v for row in self.gaussian_cov for v in row))
        _require_finite("jump_intensity", self.jump_intensity)
        object.__setattr__(self, "drift", b)
        object.__setattr__(self, "jump_intensity", float(self.jump_intensity))
        (a, c), (c2, d) = self.gaussian_cov
        if abs(c - c2) > _PSD_TOL:
            raise ValueError("gaussian_cov must be symmetric")
        if a < -_PSD_TOL or d < -_PSD_TOL or a * d - c * c < -1e-10:
            raise ValueError("gaussian_cov must be positive semidefinite")
        object.__setattr__(
            self, "gaussian_cov", ((float(a), float(c)), (float(c), float(d)))
        )
        if self.jump_intensity < 0:
            raise ValueError("jump_intensity must be nonnegative")
        if self.jump_intensity > 0 and self.jump_law is None:
            raise ValueError("positive jump intensity requires a jump law")

    # -- shorthands ----------------------------------------------------------

    @property
    def sigma_u_sq(self) -> float:
        return self.gaussian_cov[0][0]

    @property
    def sigma_ul(self) -> float:
        return self.gaussian_cov[0][1]

    @property
    def sigma_l_sq(self) -> float:
        return self.gaussian_cov[1][1]

    @property
    def has_jumps(self) -> bool:
        return self.jump_intensity > 0 and self.jump_law is not None

    @property
    def has_gaussian(self) -> bool:
        return any(abs(v) > 0 for row in self.gaussian_cov for v in row)

    @property
    def condition_b(self) -> bool:
        """dU > -1 almost surely (no jumps counts as true)."""
        return (not self.has_jumps) or self.jump_law.condition_b

    @property
    def l_subordinator(self) -> bool:
        """L has nondecreasing paths: b_L >= 0, no Gaussian L part (sigma_L^2
        and sigma_UL both 0), dL >= 0."""
        if self.drift[1] < 0 or self.sigma_l_sq != 0.0 or self.sigma_ul != 0.0:
            return False
        return (not self.has_jumps) or self.jump_law.dl_nonnegative


# ---------------------------------------------------------------------------
# the dual law
# ---------------------------------------------------------------------------


def dual_model(model_ul: LevyModel2) -> LevyModel2:
    """Law of the dual driving pair (W, K).

    Jumps map through (dU, dL) -> (-dU/(1+dU), -dL/(1+dU)); the genuine
    drift becomes (-b_U + sigma_U^2, -b_L + sigma_UL) and the Gaussian
    covariance is unchanged.  Requires condition (B).
    """
    if not model_ul.condition_b:
        raise ConditionError(
            "dual process does not exist: condition (B) needs all jumps dU > -1, "
            "and the jump law puts mass on dU <= -1 (stochastic monotonicity fails)"
        )
    b_w = -model_ul.drift[0] + model_ul.sigma_u_sq
    b_k = -model_ul.drift[1] + model_ul.sigma_ul
    law = model_ul.jump_law.dual() if model_ul.has_jumps else None
    return LevyModel2(
        drift=(b_w, b_k),
        gaussian_cov=model_ul.gaussian_cov,
        jump_intensity=model_ul.jump_intensity,
        jump_law=law,
    )


# ---------------------------------------------------------------------------
# degeneracy detection
# ---------------------------------------------------------------------------


def _line_vectors(model: LevyModel2) -> list | None:
    """The vectors that lie on {(u, -k u)} when k U = -L: the drift, both
    rows of the Gaussian covariance and the jumps (their atoms, or the
    direction (1, slope) of a linked law through 0).  None when the jumps
    are not confined to a line through 0."""
    (suu, sul), (_, sll) = model.gaussian_cov
    vectors = [model.drift, (suu, sul), (sul, sll)]
    if model.has_jumps:
        law = model.jump_law
        atoms = law._atoms()
        if atoms is not None:
            vectors += atoms
        elif law.kind == "linked" and law.link[0] == 0.0:
            vectors.append((1.0, law.link[1]))
        else:
            return None
    return vectors


def degeneracy_margin(model: LevyModel2, k: float) -> float:
    """Largest relative violation of k*U = -L for the given k (inf when
    the jumps are not confined to a line through 0)."""
    vectors = _line_vectors(model)
    if vectors is None:
        return math.inf
    return max(
        abs(k * u + l) / ((1.0 + abs(k)) * (1.0 + abs(u) + abs(l))) for u, l in vectors
    )


def detect_degeneracy(model: LevyModel2) -> float | None:
    """Return k != 0 with k*U = -L almost surely, or None.

    Degeneracy needs every component of the model (drift, Gaussian part,
    all jumps) to live on the line {(u, -k u)}; k is read off the first
    of them with u != 0.
    """
    vectors = _line_vectors(model)
    k = next((-l / u for u, l in vectors or () if u != 0.0), None)
    if k is None or k == 0.0:
        return None
    return k if degeneracy_margin(model, k) <= _DEGENERACY_TOL else None
