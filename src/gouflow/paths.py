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
(``exact_paths``, ``euler_paths``): paths on one horizon padded with null
segments, which the solvers and the inverse-flow check process in one
pass; ``sample_path`` is a one-row batch without them.  ``draw_jumps`` is
the one place that draws jumps: it feeds these batches and every lane of
``mc`` (the jump lane, the ruin scan and the grid lane).  It draws
times and marks for the jumps only and keeps them flat; ``JumpDraw.pad``
lays a tile of rows out on the batch's largest jump count K
(``exact_paths`` and ``euler_draw`` take one tile of all rows).
``euler_draw`` is the euler backend's draw, which ``euler_paths`` lays
out as batches and the inverse-flow check reads as arrays.
``Segment``/``Jump`` records only serve to read a path back
(``Path.events``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .levy import ConditionError, LevyModel2

__all__ = [
    "Segment",
    "Jump",
    "Path",
    "draw_jumps",
    "exact_paths",
    "euler_draw",
    "euler_paths",
    "sample_path",
    "eta_path",
    "w_path",
    "xi_path",
    "t_path",
    "reverse_path",
]

_TIME_TOL = 1e-12
GRID_DT = 1e-3  # default Euler/grid-lane step
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

    @property
    def var_du(self) -> float:
        return self.cov[0][0]

    @property
    def dt(self) -> np.ndarray:
        """Event durations (zero at jumps)."""
        return self.t[..., 1:] - self.t[..., :-1]

    @property
    def events(self) -> list:
        """The events of a one-row path as ``Segment``/``Jump`` records."""
        cols = (c.tolist() for c in (self.is_jump, self.t[1:], self.dt, self.du, self.dl))
        return [Jump(t, du, dl) if j else Segment(dt, du, dl) for j, t, dt, du, dl in zip(*cols)]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _cov_sqrt(cov: tuple) -> np.ndarray:
    """C with C C^T = cov, guarding tiny negative eigenvalues of
    user-specified near-singular matrices."""
    w, v = np.linalg.eigh(np.array(cov))
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


@dataclass(frozen=True, eq=False)
class JumpDraw:
    """The jumps of ``size`` paths on [0, horizon], flat (``draw_jumps``).

    Row i's ``counts[i]`` jumps are entries ``starts[i]:starts[i + 1]`` of
    ``times`` and of the marks, in draw order (times not sorted), so the
    draw holds O(jumps).  The marks are ``du`` and ``dl``, one float each
    per jump, or for a point-mass law ``index``, one atom index per jump
    (uint8 below 256 atoms), with ``du`` and ``dl`` the law's atom
    columns.  ``pad`` lays a tile of rows out on ``kmax`` = K slots, the
    largest count.
    """

    horizon: float
    counts: np.ndarray
    starts: np.ndarray
    kmax: int
    times: np.ndarray
    du: np.ndarray
    dl: np.ndarray
    index: np.ndarray | None = None

    @cached_property
    def u_jumps(self) -> bool:
        """Whether any dU of the draw (any atom's dU for a point-mass law)
        is nonzero, read once per draw."""
        return bool(self.du.any())

    def pad(self, start: int = 0, stop: int | None = None, with_du: bool = True):
        """(times, du, dl) of rows [start, stop) as (rows, K) arrays.

        Times are sorted per row, the marks stay in draw order (a
        point-mass law's gathered from its atom columns for this tile
        only); a row's slots beyond its count sit at the horizon with zero
        marks.  Every tile of rows equals the same rows of the whole-batch
        tile.  With ``with_du`` False, a draw without U jumps
        (``u_jumps``) gives None for du and builds and gathers no dU
        tile: the jump lane, which reads a tile of zero dU as E = e^{a t},
        asks so.
        """
        stop = self.counts.size if stop is None else min(stop, self.counts.size)
        real = np.arange(self.kmax) < self.counts[start:stop, None]
        jumps = slice(self.starts[start], self.starts[stop])
        times = np.full(real.shape, float(self.horizon))
        times[real] = self.times[jumps]
        times.sort(axis=1)  # padded entries are already maximal
        # one intp conversion of the tile's atom indices serves both gathers
        marks = jumps if self.index is None else self.index[jumps].astype(np.intp)
        du = None
        if with_du or self.u_jumps:
            du = np.zeros(real.shape)
            du[real] = self.du[marks]
        dl = np.zeros(real.shape)
        dl[real] = self.dl[marks]
        return times, du, dl


def _check_horizon(horizon) -> None:
    """ValueError unless ``horizon`` is positive and finite."""
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")


def draw_jumps(model: LevyModel2, horizon: float, rng: np.random.Generator, size: int) -> JumpDraw:
    """Jumps of ``size`` paths on [0, horizon]: Poisson counts, then one
    uniform time and then one mark per jump, each drawn for the whole batch.

    The draw stays flat (``JumpDraw``): rows in order, so a one-row batch
    takes its times and marks as one draw of K each, and no padded slot
    exists until ``JumpDraw.pad`` makes one.  A point-mass law's marks
    are kept as its atom index (``JumpLaw2.sample`` with ``index``): the
    same numbers, one byte per jump instead of sixteen.
    """
    lam = model.jump_intensity * horizon
    counts = rng.poisson(lam, size=size) if model.has_jumps else np.zeros(size, dtype=int)
    starts = np.zeros(size + 1, dtype=int)
    np.cumsum(counts, out=starts[1:])
    n = int(starts[-1])
    times = rng.uniform(0.0, horizon, size=n)
    index, du, dl = None, np.zeros(0), np.zeros(0)
    if n and model.jump_law.kind == "point_mass":
        index, du, dl = model.jump_law.sample(rng, n, index=True)
    elif n:
        du, dl = model.jump_law.sample(rng, n)
    kmax = int(counts.max()) if size else 0
    return JumpDraw(float(horizon), counts, starts, kmax, times, du, dl, index)


def exact_paths(
    model: LevyModel2, horizon: float, rng: np.random.Generator, size: int
) -> Path:
    """``size`` exact-backend paths of a model without Gaussian part, stacked.

    One ``draw_jumps`` call; row i is laid out gap, jump, gap, ..., jump,
    gap over the batch's K jump slots.  The slots beyond the row's jump
    count are null segments at the horizon (no duration, no increment):
    they multiply E by 1 and add 0 to every integral, so each row solves
    exactly as its path does.  A horizon that is not positive and finite
    is a ValueError.
    """
    _check_horizon(horizon)
    if model.has_gaussian:
        raise ValueError("exact paths need a model without Gaussian part")
    draw = draw_jumps(model, horizon, rng, size)
    times, ju, jl = draw.pad()
    kmax = times.shape[1]
    t = np.empty((size, 2 * kmax + 2))
    t[:, 0] = 0.0
    t[:, 1:-1:2] = times  # gap ends
    t[:, 2:-1:2] = times  # a jump repeats its gap's end
    t[:, -1] = horizon
    dt = t[:, 1:] - t[:, :-1]
    is_jump = np.zeros((size, 2 * kmax + 1), dtype=bool)
    is_jump[:, 1::2] = np.arange(kmax)[None, :] < draw.counts[:, None]
    b_u, b_l = model.drift
    du = b_u * dt
    dl = b_l * dt
    du[:, 1::2] = ju
    dl[:, 1::2] = jl
    return Path(float(horizon), is_jump, t, du, dl, backend="exact")


@dataclass(frozen=True, eq=False)
class EulerDraw:
    """The draw of ``size`` euler-backend paths on nested grids (``euler_draw``).

    Grid g steps ``ks[g]`` finest steps at a time: its boundaries are
    ``ends(ks[g])`` after 0 and ``sums[g]`` holds its (du, dl) increments,
    shape (2, rows, n).  The K jump slots of a row are in time order:
    ``marks`` (du, dl; zero on the slots beyond ``counts``) and ``coarse``,
    the 1-based coarsest step at whose end each one sits (the last step for
    a padded slot).  ``slots(k)`` maps that one layout to grid k's.
    """

    horizon: float
    fine_t: np.ndarray
    ks: tuple
    counts: np.ndarray
    coarse: np.ndarray
    marks: np.ndarray
    sums: list

    def ends(self, k: int) -> np.ndarray:
        """The right boundaries of grid k's steps, the last one the horizon."""
        return self.fine_t[k - 1 :: k]

    @property
    def jump_times(self) -> np.ndarray:
        """(rows, K) times of the jump slots: ends of their coarsest steps."""
        return self.fine_t[self.coarse * max(self.ks) - 1]

    def slots(self, k: int) -> np.ndarray:
        """(rows, K) positions of the jump slots among grid k's events: slot
        j follows j slots and the grid steps of ``coarse`` coarsest steps."""
        return self.coarse * (max(self.ks) // k) + np.arange(self.marks.shape[-1])


def _step_sums(fine_inc: np.ndarray, k: int) -> np.ndarray:
    """(2, rows, nsteps) increments summed k steps at a time, left to right:
    the bits of ``.sum(axis=-1)`` over the strided (2, rows, nsteps / k, k)
    view (tested), in k - 1 whole-array adds instead of one short
    reduction per sum."""
    steps = fine_inc.reshape(*fine_inc.shape[:2], -1, k)
    total = steps[..., 0].copy()
    for j in range(1, k):
        total += steps[..., j]
    return total


def euler_draw(
    model: LevyModel2,
    horizon: float,
    rng: np.random.Generator,
    size: int,
    grid_dts: Sequence[float],
) -> EulerDraw:
    """The jumps and Gaussian increments of ``size`` paths, one grid per
    step in ``grid_dts`` (the draw of ``euler_paths``).

    One ``draw_jumps`` call and one ``standard_normal((size, nsteps, 2))``
    draw on the finest grid, ``nsteps`` a multiple of each integer
    k = grid_dt / min(grid_dts); a coarser grid sums the fine increments k
    at a time.  Every grid puts a jump at the end of the coarsest step that
    holds it (an O(dt) shift, as in the grid lane; in the last step, on the
    horizon).  A horizon that is not positive and finite is a ValueError.
    """
    _check_horizon(horizon)
    fine = min(grid_dts)
    if fine <= 0 or any(abs(g / fine - round(g / fine)) > 1e-9 for g in grid_dts):
        raise ValueError("euler backend needs grid_dt > 0, each a multiple of the finest")
    ks = tuple(round(g / fine) for g in grid_dts)
    lcm = math.lcm(*ks)
    nsteps = lcm * math.ceil(max(1, math.ceil(horizon / fine)) / lcm)
    dt = horizon / nsteps
    fine_t = dt * np.arange(1, nsteps + 1)
    fine_t[-1] = horizon

    draw = draw_jumps(model, horizon, rng, size)
    times, ju, jl = draw.pad()
    fine_inc = rng.standard_normal((size * nsteps, 2)) @ _cov_sqrt(model.gaussian_cov).T
    fine_inc *= math.sqrt(dt)
    fine_inc += np.multiply(model.drift, dt)
    fine_inc = fine_inc.T.reshape(2, size, nsteps)  # (du, dl)
    # the coarsest step that holds each jump; padded slots get the last one
    kc = max(ks)
    coarse = np.searchsorted(fine_t[kc - 1 :: kc], times) + 1
    sums = [_step_sums(fine_inc, k) for k in ks]
    return EulerDraw(float(horizon), fine_t, ks, draw.counts, coarse, np.stack([ju, jl]), sums)


def euler_paths(
    model: LevyModel2,
    horizon: float,
    rng: np.random.Generator,
    size: int,
    grid_dts: Sequence[float],
) -> list[Path]:
    """``size`` euler-backend paths, stacked, one batch per step in ``grid_dts``.

    The paths of one ``euler_draw``: row i is its segments and
    ``counts[i]`` jumps in time order, then null segments at the horizon
    up to the batch's K jump slots.
    """
    draw = euler_draw(model, horizon, rng, size, grid_dts)
    kmax = draw.marks.shape[-1]
    jump_t = draw.jump_times
    out = []
    for k, sums in zip(draw.ks, draw.sums):
        width = sums.shape[-1] + kmax
        pos = draw.slots(k)
        seg = np.ones((size, width), dtype=bool)
        np.put_along_axis(seg, pos, False, axis=1)
        t = np.zeros((size, width + 1))
        inc = np.empty((2, size, width))
        # segments fill the other slots row by row, so in time order
        t[:, 1:][seg] = np.tile(draw.ends(k), size)
        inc[:, seg] = sums.reshape(2, -1)
        np.put_along_axis(t[:, 1:], pos, jump_t, axis=1)
        np.put_along_axis(inc, pos[None], draw.marks, axis=2)
        is_jump = ~seg & (np.arange(width) < width - kmax + draw.counts[:, None])
        out.append(Path(draw.horizon, is_jump, t, inc[0], inc[1], "euler", model.gaussian_cov))
    return out


def sample_path(
    model: LevyModel2,
    horizon: float,
    rng: np.random.Generator,
    grid_dt: float = GRID_DT,
) -> Path:
    """Sample one (U, L) path: Poisson jump times, iid marks, drift/Gaussian
    segments filling the gaps.

    A model without Gaussian part gets the exact backend, the one-row batch
    of ``exact_paths``; any other model the euler backend, the one-row
    batch of ``euler_paths`` on a grid of step at most ``grid_dt``.  Either
    way without its segments shorter than 1e-12.  Deterministic function
    of (model, horizon, grid_dt, stream state); a horizon that is not
    positive and finite is a ValueError (from the batch builders).
    """
    if model.has_gaussian:
        (row,) = euler_paths(model, horizon, rng, 1, (grid_dt,))
    else:
        row = exact_paths(model, horizon, rng, 1)
    keep = row.is_jump[0] | (row.dt[0] > _TIME_TOL)
    return replace(
        row,
        is_jump=row.is_jump[0, keep],
        t=np.concatenate(([0.0], row.t[0, 1:][keep])),
        du=row.du[0, keep],
        dl=row.dl[0, keep],
    )


# ---------------------------------------------------------------------------
# derived processes
# ---------------------------------------------------------------------------


def _scalar(path: Path, du: np.ndarray, var: float) -> Path:
    """A scalar process on the skeleton of ``path`` with increments ``du``."""
    zero = np.zeros_like(du)
    return replace(path, du=du, dl=zero, cov=((var, 0.0), (0.0, 0.0)))


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
    return _scalar(path, du, model.sigma_l_sq)


def w_path(path: Path, sigma_u_sq: float) -> Path:
    """Driver of the reciprocal stochastic exponential: 1/E(U) = E(W).

    Jumps dW = -dU/(1+dU); continuous part -dU_cont + sigma_U^2 dt.
    """
    du = _eventwise(
        path,
        -path.du + sigma_u_sq * path.dt,
        lambda du, dl: -du / (1.0 + du),
        lambda du: du == -1.0,
        "W undefined: jump with dU = -1",
    )
    return _scalar(path, du, sigma_u_sq)


def xi_path(path: Path, sigma_u_sq: float) -> Path:
    """xi = -log E(U); needs all jumps dU > -1.

    Jumps -log(1+dU); continuous part -dU_cont + sigma_U^2 dt / 2.
    """
    du = _eventwise(
        path,
        -path.du + 0.5 * sigma_u_sq * path.dt,
        lambda du, dl: -np.log1p(du),
        lambda du: du <= -1.0,
        "xi undefined: jump with dU <= -1",
    )
    return _scalar(path, du, sigma_u_sq)


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
    return replace(reversed_u, du=du)


# ---------------------------------------------------------------------------
# time reversal
# ---------------------------------------------------------------------------


def _null_jumps_at(path: Path, at: float) -> Path:
    """The path with every jump at time ``at`` made a null event."""
    hit = path.is_jump & (np.abs(path.t[..., 1:] - at) <= _TIME_TOL)
    if not hit.any():
        return path
    return replace(path, du=np.where(hit, 0.0, path.du), dl=np.where(hit, 0.0, path.dl))


def reverse_path(path: Path) -> Path:
    """Time-reversal at the horizon T: X~_s = X_{(T-s)-} - X_{T-}.

    Reversed boundary j is forward boundary m - j: the columns are
    reversed, increments negated and times reflected.  A jump exactly at
    the horizon becomes a null event: it is not part of X~.  On the exact
    backend that has probability zero; on the euler backend a jump in the
    last grid step lands there (``euler_paths``).
    """
    p = _null_jumps_at(path, path.horizon)
    t = p.horizon - p.t[..., ::-1]
    t[..., 0] = 0.0
    return replace(
        p,
        is_jump=p.is_jump[..., ::-1],
        t=t,
        du=-p.du[..., ::-1],
        dl=-p.dl[..., ::-1],
    )


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
