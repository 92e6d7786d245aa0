"""Vectorized Monte Carlo lanes.

Two lanes share one blocked driver so that results are reproducible and
independent of the worker count:

* jump lane: finite-activity models without a Gaussian part.  Everything
  (stochastic exponential, the two exponential functionals, running minima
  for barrier detection) has a closed form between jumps, so whole blocks
  of paths are reduced with padded-array arithmetic and no time stepping.
* diffusion lane: models with a Gaussian part, on a fixed grid.  The
  stochastic exponential is updated in exact law; finite-variation
  integrands use the trapezoid rule (the left-point rule leaves an O(dt)
  bias that would dominate the statistics), Brownian integrands use
  left-point Ito sums.  Jumps come as a Poisson(lambda dt) count per step
  applied at the step end: an O(dt) weak error, the order of the Ito sums.

All per-path hit detection is expressed through the running minimum of
the integral process I_s = int E^{-1} d eta: when E stays positive,
V_s^x = E_s (x + I_s) <= 0 at some s <= T iff x + min_s I_s <= 0, so one
pass serves every starting point.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .levy import ConditionError, LevyModel2
from .rng import BLOCK_SIZE, stream
from .paths import _cov_sqrt, draw_jumps

__all__ = [
    "run_blocks",
    "terminal_samples",
    "exp_functional_samples",
    "ruin_samples",
]


# ---------------------------------------------------------------------------
# blocked driver
# ---------------------------------------------------------------------------


def run_blocks(n: int, fn, seed: int, label: str, workers: int = 1) -> dict:
    """Run ``fn(rng, size)`` over fixed-size blocks and concatenate results.

    Block i always covers sample indices [i*BLOCK_SIZE, ...) with its own
    named substream, so the assembled arrays are byte-identical for any
    worker count.  ``fn`` returns a dict of 1-d arrays of length ``size``.
    """
    if n <= 0:
        raise ValueError("need n > 0")
    sizes = [min(BLOCK_SIZE, n - i * BLOCK_SIZE) for i in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE)]

    def one(i):
        return fn(stream(seed, label, i), sizes[i])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, range(len(sizes))))
    else:
        parts = [one(i) for i in range(len(sizes))]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


# ---------------------------------------------------------------------------
# jump lane
# ---------------------------------------------------------------------------


def _interval_integrals(a: float, t0: np.ndarray, t1: np.ndarray, sign: int) -> np.ndarray:
    """int_{t0}^{t1} e^{sign * a * s} ds, elementwise, stable at a == 0."""
    z = sign * a
    if z == 0.0:
        return t1 - t0
    return (np.exp(z * t1) - np.exp(z * t0)) / z


def _jump_boundary_arrays(times, du, dl, counts, a, c_eta, c_l, horizon):
    """Closed-form reduction of a block of pure-jump-plus-drift paths.

    times: (n, K) jump times sorted per row, padded with the horizon;
    du, dl: matching marks, zero-padded (``paths.draw_jumps``); counts:
    true jump count per row.  a = b_U, c_eta = drift of eta, c_l = b_L.

    Returns E and I = int E^{-1} d eta at all event boundaries (n, 2K+1),
    interleaved as [end of gap 0, after jump 1, end of gap 1, ...], plus
    the terminal causal integral C = int E_{s-} dL_s.  An overflowing E
    leaves inf/NaN entries without a warning; callers count them.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n, kmax = times.shape
        prod1 = 1.0 + du  # padded entries contribute a factor 1
        p = np.cumprod(prod1, axis=1)
        p_ext = np.concatenate([np.ones((n, 1)), p], axis=1)  # product before gap j
        t_ext = np.concatenate([np.zeros((n, 1)), times, np.full((n, 1), horizon)], axis=1)
        t0, t1 = t_ext[:, :-1], t_ext[:, 1:]

        # gap j runs (t_j, t_{j+1}) with E_s = e^{a s} * p_ext[:, j]
        gap_i = c_eta * _interval_integrals(a, t0, t1, -1) / p_ext
        gap_c = c_l * _interval_integrals(a, t0, t1, +1) * p_ext
        e_left_at_jump = np.exp(a * times) * p_ext[:, :-1]
        jump_i = (dl / prod1) / e_left_at_jump
        jump_c = dl * e_left_at_jump

        inc_i = np.empty((n, 2 * kmax + 1))
        inc_i[:, 0::2] = gap_i
        inc_i[:, 1::2] = jump_i
        i_bnd = np.cumsum(inc_i, axis=1)

        e_bnd = np.empty((n, 2 * kmax + 1))
        e_bnd[:, 0::2] = np.exp(a * t1) * p_ext  # left limit at the gap end
        e_bnd[:, 1::2] = e_left_at_jump * prod1  # right after the jump

        c_final = gap_c.sum(axis=1) + jump_c.sum(axis=1)
    return e_bnd, i_bnd, c_final


def _jump_block(model, horizon, rng, size):
    times, du, dl, counts = draw_jumps(model, horizon, rng, size)
    e_bnd, i_bnd, c_final = _jump_boundary_arrays(
        times, du, dl, counts, model.drift[0], model.drift[1], model.drift[1], horizon
    )
    return {
        "e": e_bnd[:, -1].copy(),
        "i": i_bnd[:, -1].copy(),
        "c": c_final,
        "i_min": np.minimum(i_bnd.min(axis=1), 0.0),
        "u": model.drift[0] * horizon + du.sum(axis=1),
        "l": model.drift[1] * horizon + dl.sum(axis=1),
    }


# ---------------------------------------------------------------------------
# diffusion lane
# ---------------------------------------------------------------------------


def _diffusion_block(model, horizon, rng, size, grid_dt):
    b_u, b_l = model.drift
    suu = model.sigma_u_sq
    drift_eta = b_l - model.sigma_ul
    nsteps = max(1, math.ceil(horizon / grid_dt))
    dt = horizon / nsteps
    chol = _cov_sqrt(model.gaussian_cov) * math.sqrt(dt)

    # U-only Gaussian noise is the common case; skip the dead L draws then
    u_noise_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0

    e = np.ones(size)
    i = np.zeros(size)
    c = np.zeros(size)
    i_min = np.zeros(size)
    u = np.zeros(size)
    l = np.zeros(size)
    for _ in range(nsteps):
        if u_noise_only:
            zu = rng.standard_normal(size) * math.sqrt(suu * dt)
            zl = 0.0
        else:
            z = rng.standard_normal((size, 2)) @ chol.T
            zu, zl = z[:, 0], z[:, 1]
        e_new = e * np.exp(b_u * dt + zu - 0.5 * suu * dt)
        inv_e = 1.0 / e
        i += drift_eta * dt * 0.5 * (inv_e + 1.0 / e_new) + inv_e * zl
        c += b_l * dt * 0.5 * (e + e_new) + e * zl
        u += b_u * dt + zu
        l += b_l * dt + zl
        e = e_new
        np.minimum(i_min, i, out=i_min)
        if model.has_jumps:  # pass r applies the (r+1)-th jump of the step
            counts = rng.poisson(model.jump_intensity * dt, size)
            for r in range(counts.max()):
                rows = np.flatnonzero(counts > r)
                du, dl = model.jump_law.sample(rng, rows.size)
                e_left = e[rows]
                i[rows] += dl / ((1.0 + du) * e_left)
                c[rows] += e_left * dl
                e[rows] = e_left * (1.0 + du)
                u[rows] += du
                l[rows] += dl
                i_min[rows] = np.minimum(i_min[rows], i[rows])
    return {"e": e, "i": i, "c": c, "i_min": i_min, "u": u, "l": l}


# ---------------------------------------------------------------------------
# public lanes
# ---------------------------------------------------------------------------


def terminal_samples(
    model: LevyModel2,
    horizon: float,
    n: int,
    seed: int,
    grid_dt: float = 1e-3,
    workers: int = 1,
    label: str = "terminal",
) -> dict:
    """Per-path terminal quantities for n independent paths.

    Keys: ``e`` = E(U)_T, ``i`` = int_(0,T] E^{-1} d eta, ``c`` =
    int_(0,T] E_{s-} dL_s, ``i_min`` = min(0, inf_{s<=T} I_s).
    V_T^x = e * (x + i) for every x; when E > 0 a.s. the event
    {inf_s V_s^x <= 0} equals {x + i_min <= 0}.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if model.has_gaussian:
        fn = lambda rng, size: _diffusion_block(model, horizon, rng, size, grid_dt)
    else:
        fn = lambda rng, size: _jump_block(model, horizon, rng, size)
    return run_blocks(n, fn, seed, label, workers)


def exp_functional_samples(
    model: LevyModel2,
    kind: str,
    n: int,
    horizon: float,
    seed: int,
    grid_dt: float = 1e-3,
    workers: int = 1,
    label: str = "stationary",
) -> tuple[np.ndarray, np.ndarray]:
    """Samples of the truncated exponential functional plus diagnostics.

    causal: int_(0,T] E_{s-} dL_s with diagnostic |E_T|; noncausal:
    -int_(0,T] E_{s-}^{-1} d eta_s with diagnostic |E_T^{-1}|.  The
    diagnostic measures how much truncation mass the horizon leaves
    behind.
    """
    if kind not in ("causal", "noncausal"):
        raise ValueError("kind must be 'causal' or 'noncausal'")
    res = terminal_samples(model, horizon, n, seed, grid_dt, workers, label)
    with np.errstate(divide="ignore"):
        if kind == "causal":
            return res["c"], np.abs(res["e"])
        return -res["i"], np.abs(1.0 / res["e"])


def ruin_samples(
    model: LevyModel2,
    horizon: float,
    n: int,
    seed: int,
    x_probes,
    h_cdf=None,
    workers: int = 1,
    label: str = "ruin",
) -> dict:
    """First passage of V^x below zero, jointly for all starting points.

    For each x in ``x_probes`` counts paths with tau(x) <= T and, when a
    cdf ``h_cdf`` is supplied, accumulates sum of H(-V_{tau(x)}) over
    those paths (the reweighting appearing in the first-passage identity
    for mixed-sign input).  Needs a model without Gaussian part.  Between
    event boundaries V solves a linear ODE and is monotone, so V <= 0
    somewhere iff at some boundary; that needs only E(U) != 0 (condition
    (A)), while the H-weights need E(U) > 0, i.e. all jumps dU > -1.
    """
    if model.has_gaussian:
        raise NotImplementedError("ruin lane supports pure-jump models only")
    if h_cdf is not None and not model.condition_b:
        raise ConditionError("first-passage bookkeeping needs dU > -1 a.s.")
    xs = np.asarray(list(x_probes), dtype=float)
    b_l = model.drift[1]

    def block(rng, size):
        times, du, dl, counts = draw_jumps(model, horizon, rng, size)
        e_bnd, i_bnd, _ = _jump_boundary_arrays(
            times, du, dl, counts, model.drift[0], b_l, b_l, horizon
        )
        out = {}
        for j, x in enumerate(xs):
            if x <= 0.0:
                # started at or below the barrier: tau = 0 and V_tau = x
                out[f"hit_{j}"] = np.ones(size, dtype=bool)
                if h_cdf is not None:
                    out[f"hw_{j}"] = np.full(size, float(np.asarray(h_cdf(-x))))
                continue
            v_bnd = e_bnd * (x + i_bnd)
            below = v_bnd <= 0.0
            hit = below.any(axis=1)
            out[f"hit_{j}"] = hit
            if h_cdf is None:
                continue
            first = below.argmax(axis=1)
            rows = np.arange(size)
            v_tau = v_bnd[rows, first]
            if b_l != 0.0:
                # an even index is a gap end; if V was positive at the
                # previous boundary the drift crossed zero continuously
                prev_pos = (first % 2 == 0) & (first > 0)
                prev_pos &= v_bnd[rows, np.maximum(first - 1, 0)] > 0.0
                v_tau = np.where(prev_pos, 0.0, v_tau)
            out[f"hw_{j}"] = np.where(hit, h_cdf(np.where(hit, -v_tau, 0.0)), 0.0)
        return out

    res = run_blocks(n, block, seed, label, workers)
    hits = np.array([res[f"hit_{j}"].sum() for j in range(xs.size)], dtype=int)
    out = {"x": xs, "n": n, "hits": hits, "hit_prob": hits / n}
    if h_cdf is not None:
        out["h_weighted"] = np.array(
            [res[f"hw_{j}"].sum() / n for j in range(xs.size)]
        )
        for j in range(xs.size):
            out[f"weights_{j}"] = res[f"hw_{j}"]
    return out
