"""Columnar sample paths and their derived processes.

A path on [0, horizon] is stored as four arrays.  Event k (k = 1..m)
ends at boundary k: ``is_jump[k-1]`` says whether it is an instantaneous
jump (then ``t[k] == t[k-1]``) or a segment over (t[k-1], t[k]] carrying
the drift (and, on the euler backend, Gaussian) increment; ``du[k-1]``
and ``dl[k-1]`` are its increments and ``t`` holds the m + 1 boundary
times, starting at 0.  Jumps are first class, so on the exact backend
(no Gaussian part) every computed quantity is free of discretization
error.

Derived processes (eta, W, xi, T, time reversals) are array transforms
that share the event skeleton of their source path, which is what makes
pathwise identities checkable boundary by boundary: time reversal is an
index reversal.  The columns may carry a leading batch axis
(``stack_paths``): paths on one horizon padded with null segments, which
the solvers and the inverse-flow check process in one pass.
``Segment``/``Jump`` records only serve to write a path by hand
(``Path.from_events``) and to read one back (``Path.events``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .levy import ConditionError, LevyModel2

__all__ = [
    "Segment",
    "Jump",
    "Path",
    "sample_path",
    "eta_path",
    "w_path",
    "xi_path",
    "t_path",
    "reverse_path",
    "truncate_path",
    "recover_ul_from_xi_eta",
    "pair_path",
    "path_values",
    "stack_paths",
]

_TIME_TOL = 1e-12
_NO_COV = ((0.0, 0.0), (0.0, 0.0))


@dataclass(frozen=True, slots=True)
class Segment:
    """Continuous increment over a duration dt (drift + Gaussian)."""

    dt: float
    du: float
    dl: float = 0.0


@dataclass(frozen=True, slots=True)
class Jump:
    """Instantaneous jump at an interior time."""

    time: float
    du: float
    dl: float = 0.0


@dataclass(frozen=True, eq=False)
class Path:
    """Columnar realization of a scalar or bivariate cadlag process.

    ``cov`` is the Gaussian covariance *rate* of the (du, dl) components;
    scalar processes live in the du column with dl identically zero.
    """

    horizon: float
    is_jump: np.ndarray
    t: np.ndarray
    du: np.ndarray
    dl: np.ndarray
    backend: str  # "exact" or "euler"
    cov: tuple = _NO_COV
    label: str = "U,L"
    grid_dt: float | None = None

    @classmethod
    def from_events(
        cls,
        horizon: float,
        events,
        backend: str,
        cov: tuple = _NO_COV,
        label: str = "U,L",
        grid_dt: float | None = None,
    ) -> "Path":
        """Build a path from ``Segment``/``Jump`` records in time order."""
        events = tuple(events)
        times = [0.0]
        for ev in events:
            times.append(ev.time if isinstance(ev, Jump) else times[-1] + ev.dt)
        return cls(
            horizon=float(horizon),
            is_jump=np.array([isinstance(ev, Jump) for ev in events], dtype=bool),
            t=np.array(times),
            du=np.array([ev.du for ev in events], dtype=float),
            dl=np.array([ev.dl for ev in events], dtype=float),
            backend=backend,
            cov=cov,
            label=label,
            grid_dt=grid_dt,
        )

    @property
    def var_du(self) -> float:
        return self.cov[0][0]

    @property
    def cov_dudl(self) -> float:
        return self.cov[0][1]

    @property
    def var_dl(self) -> float:
        return self.cov[1][1]

    @property
    def dt(self) -> np.ndarray:
        """Event durations (zero at jumps)."""
        return self.t[..., 1:] - self.t[..., :-1]

    @property
    def events(self) -> "_Records":
        """The path as ``Segment``/``Jump`` records, built on access."""
        return _Records(self)

    def jumps(self) -> list:
        j = self.is_jump
        return [
            Jump(*v)
            for v in zip(self.t[1:][j].tolist(), self.du[j].tolist(), self.dl[j].tolist())
        ]

    def validate(self) -> None:
        m = self.du.size
        if not (self.is_jump.size == self.dl.size == m and self.t.size == m + 1):
            raise ValueError("path columns have inconsistent lengths")
        if self.t[0] != 0.0:
            raise ValueError("paths start at time 0")
        step = self.dt
        if np.any(step[~self.is_jump] <= 0):
            raise ValueError("segment duration must be positive")
        late = np.abs(step[self.is_jump]) > _TIME_TOL
        if late.any():
            # jump events must sit at the running clock position
            raise ValueError(f"jump at {self.t[1:][self.is_jump][late][0]} out of order")
        if np.any(self.du[self.is_jump] == -1.0):
            raise ValueError("jump with dU = -1")
        if abs(self.t[-1] - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(
                f"segment durations sum to {self.t[-1]}, horizon is {self.horizon}"
            )
        if self.backend == "exact" and any(v != 0.0 for row in self.cov for v in row):
            raise ValueError("exact backend requires zero Gaussian covariance")


def _replace(path: Path, **changes) -> Path:
    """``dataclasses.replace`` without its per-call field scan (paths have
    no ``__post_init__``, so copying the fields is the same thing)."""
    new = object.__new__(Path)
    new.__dict__.update(path.__dict__, **changes)
    return new


class _Records(Sequence):
    """Read-only record view of a path's events."""

    def __init__(self, path: Path):
        self._path = path

    def __len__(self) -> int:
        return self._path.du.size

    def __getitem__(self, k: int):
        p = self._path
        k = range(len(self))[k]
        du, dl = float(p.du[k]), float(p.dl[k])
        if p.is_jump[k]:
            return Jump(float(p.t[k + 1]), du, dl)
        return Segment(float(p.t[k + 1] - p.t[k]), du, dl)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _cov_sqrt(cov: tuple) -> np.ndarray:
    """C with C C^T = cov, guarding tiny negative eigenvalues of
    user-specified near-singular matrices."""
    w, v = np.linalg.eigh(np.array(cov))
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    root.flags.writeable = False  # shared by every caller
    return root


def _columns(model, horizon, jt, ju, jl, rng, grid_dt, backend):
    """Boundary columns for sorted jump times and marks, filling the gaps
    with one drift segment (exact) or grid steps with one
    ``standard_normal((nsteps, 2))`` draw per gap (euler)."""
    b_u, b_l = model.drift
    chol = _cov_sqrt(model.gaussian_cov) if backend == "euler" else None
    flags, times, dus, dls = [], [0.0], [], []
    start = 0.0
    for k, end in enumerate([*jt.tolist(), float(horizon)]):
        gap = end - start
        if gap > _TIME_TOL and backend == "exact":
            flags.append(False)
            times.append(end)
            dus.append(b_u * gap)
            dls.append(b_l * gap)
        elif gap > _TIME_TOL:
            nsteps = max(1, math.ceil(gap / grid_dt))
            dt = gap / nsteps
            gauss = rng.standard_normal((nsteps, 2)) @ chol.T * math.sqrt(dt)
            step_t = start + dt * np.arange(1, nsteps + 1)
            step_t[-1] = end
            flags.extend([False] * nsteps)
            times.extend(step_t.tolist())
            dus.extend((b_u * dt + gauss[:, 0]).tolist())
            dls.extend((b_l * dt + gauss[:, 1]).tolist())
        if k < jt.size:
            flags.append(True)
            times.append(end)
            dus.append(float(ju[k]))
            dls.append(float(jl[k]))
        start = end
    return (
        np.array(flags, dtype=bool),
        np.array(times),
        np.array(dus, dtype=float),
        np.array(dls, dtype=float),
    )


def sample_path(
    model: LevyModel2,
    horizon: float,
    rng: np.random.Generator,
    grid_dt: float = 1e-3,
    backend: str | None = None,
) -> Path:
    """Sample one (U, L) path: Poisson jump times, iid marks, drift/Gaussian
    segments filling the gaps.

    Deterministic function of (model, horizon, grid_dt, stream state).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if backend is None:
        backend = "euler" if model.has_gaussian else "exact"
    if backend == "exact" and model.has_gaussian:
        raise ValueError("exact backend requested but the model has a Gaussian part")
    if backend == "euler" and grid_dt <= 0:
        raise ValueError("euler backend needs grid_dt > 0")

    if model.has_jumps:
        n_jumps = rng.poisson(model.jump_intensity * horizon)
        jt = np.sort(rng.uniform(0.0, horizon, size=n_jumps))
        ju, jl = model.jump_law.sample(rng, n_jumps)
    else:
        jt = np.empty(0)
        ju = jl = np.empty(0)
    is_jump, t, du, dl = _columns(model, horizon, jt, ju, jl, rng, grid_dt, backend)
    return Path(
        horizon=float(horizon),
        is_jump=is_jump,
        t=t,
        du=du,
        dl=dl,
        backend=backend,
        cov=model.gaussian_cov if backend == "euler" else _NO_COV,
        grid_dt=grid_dt if backend == "euler" else None,
    )


# ---------------------------------------------------------------------------
# derived processes
# ---------------------------------------------------------------------------


def _scalar(path: Path, du: np.ndarray, var: float, label: str) -> Path:
    """A scalar process on the skeleton of ``path`` with increments ``du``."""
    zero = np.zeros_like(du)
    return _replace(path, du=du, dl=zero, cov=((var, 0.0), (0.0, 0.0)), label=label)


def _eventwise(
    path: Path, segments: np.ndarray, at_jumps, invalid, message: str
) -> np.ndarray:
    """``segments`` with the jump entries replaced by ``at_jumps(du, dl)``.

    Raises ConditionError when ``invalid(du)`` holds for some jump.
    """
    j = path.is_jump
    du, dl = path.du[j], path.dl[j]
    if invalid(du).any():
        raise ConditionError(message)
    segments[j] = at_jumps(du, dl)
    return segments


def eta_path(path: Path, model: LevyModel2) -> Path:
    """The integrator process of the explicit solution formula.

    Jumps d_eta = dL/(1+dU); continuous part dL_cont - sigma_UL dt.
    """
    du = _eventwise(
        path,
        path.dl - model.sigma_ul * path.dt,
        lambda du, dl: dl / (1.0 + du),
        lambda du: du == -1.0,
        "eta undefined: jump with dU = -1",
    )
    return _scalar(path, du, model.sigma_l_sq, "eta")


def w_path(path: Path, sigma_u_sq: float | None = None) -> Path:
    """Driver of the reciprocal stochastic exponential: 1/E(U) = E(W).

    Jumps dW = -dU/(1+dU); continuous part -dU_cont + sigma_U^2 dt.
    """
    suu = path.var_du if sigma_u_sq is None else sigma_u_sq
    du = _eventwise(
        path,
        -path.du + suu * path.dt,
        lambda du, dl: -du / (1.0 + du),
        lambda du: du == -1.0,
        "W undefined: jump with dU = -1",
    )
    return _scalar(path, du, suu, "W")


def xi_path(path: Path, sigma_u_sq: float | None = None) -> Path:
    """xi = -log E(U); needs all jumps dU > -1.

    Jumps -log(1+dU); continuous part -dU_cont + sigma_U^2 dt / 2.
    """
    suu = path.var_du if sigma_u_sq is None else sigma_u_sq
    du = _eventwise(
        path,
        -path.du + 0.5 * suu * path.dt,
        lambda du, dl: -np.log1p(du),
        lambda du: du <= -1.0,
        "xi undefined: jump with dU <= -1",
    )
    return _scalar(path, du, suu, "xi")


def t_path(reversed_u: Path, sigma_u_sq: float) -> Path:
    """Driver of the inverse flow, built from the reversed first component.

    Jumps dT = dU~/(1 - dU~); continuous part dU~_cont + sigma_U^2 dt.
    The dl column passes through.
    """
    du = _eventwise(
        reversed_u,
        reversed_u.du + sigma_u_sq * reversed_u.dt,
        lambda du, dl: du / (1.0 - du),
        lambda du: du == 1.0,
        "T undefined: reversed jump of size 1",
    )
    return _replace(reversed_u, du=du, label="T," + reversed_u.label)


# ---------------------------------------------------------------------------
# time reversal
# ---------------------------------------------------------------------------


def truncate_path(path: Path, at: float) -> Path:
    """Restrict a single path to [0, at], splitting a straddling segment
    pro rata."""
    if at > path.horizon + _TIME_TOL:
        raise ValueError("truncation time beyond horizon")
    t = path.t
    k = int(np.searchsorted(t, at + _TIME_TOL, side="right")) - 1  # events kept whole
    is_jump, du, dl, t = path.is_jump[:k], path.du[:k], path.dl[:k], t[: k + 1]
    if k < path.du.size and not path.is_jump[k]:
        frac = (at - t[-1]) / (path.t[k + 1] - t[-1])
        if frac > _TIME_TOL:
            is_jump = np.append(is_jump, False)
            t = np.append(t, at)
            du = np.append(du, path.du[k] * frac)
            dl = np.append(dl, path.dl[k] * frac)
    return _replace(path, horizon=float(at), is_jump=is_jump, t=t, du=du, dl=dl)


def _null_jumps_at(path: Path, at: float) -> Path:
    """The path with every jump at time ``at`` made a null event."""
    hit = path.is_jump & (np.abs(path.t[..., 1:] - at) <= _TIME_TOL)
    if not hit.any():
        return path
    return _replace(path, du=np.where(hit, 0.0, path.du), dl=np.where(hit, 0.0, path.dl))


def reverse_path(path: Path, at: float | None = None) -> Path:
    """Time-reversal at ``at``: X~_s = X_{(at-s)-} - X_{at-}.

    Reversed boundary j is forward boundary m - j: the columns are
    reversed, increments negated and times reflected.  A jump exactly at
    the reversal time becomes a null event (it is not part of X~; for the
    sampled laws this has probability zero).
    """
    at = path.horizon if at is None else float(at)
    if at > path.horizon + _TIME_TOL:
        raise ValueError("reversal time beyond horizon")
    p = truncate_path(path, at) if at < path.horizon - _TIME_TOL else path
    p = _null_jumps_at(p, at)
    t = at - p.t[..., ::-1]
    t[..., 0] = 0.0
    return _replace(
        p,
        horizon=at,
        is_jump=p.is_jump[..., ::-1],
        t=t,
        du=-p.du[..., ::-1],
        dl=-p.dl[..., ::-1],
        label="rev:" + p.label,
    )


def stack_paths(paths) -> Path:
    """Stack paths on one horizon and backend into one batch path.

    Row i holds path i, padded at the end with null segments at the
    horizon (no duration, no increment): they multiply E by 1 and add 0
    to every integral, so each row solves exactly as its path does.
    """
    first = paths[0]
    n, k = len(paths), max(p.du.size for p in paths)
    is_jump = np.zeros((n, k), dtype=bool)
    t = np.full((n, k + 1), first.horizon)
    du = np.zeros((n, k))
    dl = np.zeros((n, k))
    for i, p in enumerate(paths):
        if p.horizon != first.horizon or p.backend != first.backend:
            raise ValueError("stacked paths need one horizon and one backend")
        m = p.du.size
        is_jump[i, :m] = p.is_jump
        t[i, : m + 1] = p.t
        du[i, :m] = p.du
        dl[i, :m] = p.dl
    return _replace(first, is_jump=is_jump, t=t, du=du, dl=dl)


# ---------------------------------------------------------------------------
# recovery and pairing
# ---------------------------------------------------------------------------


def _check_skeleton(a: Path, b: Path) -> None:
    if a.t is b.t and a.is_jump is b.is_jump:
        return  # both derived from one path
    if (
        a.du.size != b.du.size
        or abs(a.horizon - b.horizon) > _TIME_TOL
        or not np.array_equal(a.is_jump, b.is_jump)
        or np.any(np.abs(a.t - b.t) > _TIME_TOL)
    ):
        raise ValueError("paths have mismatched event skeletons")


def pair_path(driver: Path, integrator: Path, cov=None, label: str | None = None) -> Path:
    """Zip two aligned scalar paths into a bivariate (driver, integrator) path."""
    _check_skeleton(driver, integrator)
    if cov is None:
        cov = ((driver.var_du, 0.0), (0.0, integrator.var_du))
    label = label or f"{driver.label}|{integrator.label}"
    return _replace(driver, dl=integrator.du, cov=cov, label=label)


def recover_ul_from_xi_eta(
    xi: Path, eta: Path, sigma_xi_sq: float, sigma_xi_eta: float
) -> Path:
    """Rebuild the driving pair (U, L) from (xi, eta).

    Eventwise: jumps dU = e^{-d_xi} - 1 and dL = e^{-d_xi} d_eta;
    continuous parts dU = -d_xi + sigma_xi^2 dt / 2 and
    dL = d_eta - sigma_{xi,eta} dt.
    """
    _check_skeleton(xi, eta)
    dt = xi.dt
    j = xi.is_jump
    g = np.exp(-xi.du[j])
    du = -xi.du + 0.5 * sigma_xi_sq * dt
    dl = eta.du - sigma_xi_eta * dt
    du[j] = g - 1.0
    dl[j] = g * eta.du[j]
    cov = (
        (sigma_xi_sq, -sigma_xi_eta),
        (-sigma_xi_eta, eta.var_du),
    )
    return _replace(xi, du=du, dl=dl, cov=cov, label="U,L(recovered)")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def path_values(path: Path):
    """Cumulative values at event boundaries.

    Returns (times, u_left, u_right, l_left, l_right); index 0 is t=0.
    At a jump the time repeats and left/right values differ.
    """
    out = [path.t]
    for inc in (path.du, path.dl):
        right = np.concatenate(([0.0], np.cumsum(inc)))
        left = right.copy()
        left[1:][path.is_jump] = right[:-1][path.is_jump]
        out += [left, right]
    return tuple(out)
