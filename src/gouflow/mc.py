"""Vectorized Monte Carlo lanes.

Two lanes share one blocked driver so that results are reproducible and
independent of the worker count:

* jump lane: finite-activity models without a Gaussian part.  Everything
  (stochastic exponential, the two exponential functionals, running minima
  for barrier detection) has a closed form between jumps, so blocks of
  paths are reduced with padded-array arithmetic and no time stepping.
  Each block is drawn whole (``paths.draw_jumps``) and reduced in row
  tiles of about ``_CHUNK_ELEMENTS`` boundary values, so the kernel's
  temporaries take O(_CHUNK_ELEMENTS) memory for K jump slots instead of
  O(BLOCK_SIZE * K); the draw itself, O(BLOCK_SIZE * K), is the lane's
  memory bound.
* diffusion lane: models with a Gaussian part, on a fixed grid.  The
  stochastic exponential is updated in exact law; finite-variation
  integrands use the trapezoid rule (the left-point rule leaves an O(dt)
  bias that would dominate the statistics), Brownian integrands use
  left-point Ito sums.  Jumps come as a Poisson(lambda dt) count per step
  applied at the step end: an O(dt) weak error, the order of the Ito sums.
  Without jumps the block's normals are drawn a chunk of steps ahead on
  one helper thread while the current chunk is stepped; the draws keep
  their stream order, so the samples do not depend on it.

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

# Doubles per working chunk of either lane: a jump-lane tile of rows x
# (2K+1) boundaries, or a grid-lane chunk of steps x normals per step.
# The jump kernel makes about ten temporaries of a tile's size.  On a
# whole 4096-row block each is megabytes, mapped fresh and faulted in
# page by page on every call; at this size they stay in cache and reuse
# memory the previous tile freed.
_CHUNK_ELEMENTS = 32_768


def _tiles(times):
    """Row slices of a (size, K) jump draw, each about ``_CHUNK_ELEMENTS``
    of the kernel's 2K+1 boundary values."""
    size, kmax = times.shape
    rows = max(1, _CHUNK_ELEMENTS // (2 * kmax + 1))
    return [slice(s, s + rows) for s in range(0, size, rows)]


def _jump_boundary_arrays(times, du, dl, a, c_eta, c_l, horizon):
    """Closed-form reduction of a tile of pure-jump-plus-drift paths.

    times: (n, K) jump times sorted per row, padded with the horizon;
    du, dl: matching marks, zero-padded (``paths.draw_jumps``).  a = b_U,
    c_eta = drift of eta, c_l = b_L.

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
        # e^{a t} and e^{-a t} once per boundary time; gap j runs
        # (t_j, t_{j+1}) with E_s = e^{a s} * p_ext[:, j]
        grow = np.exp(a * t_ext)
        if a == 0.0:
            int_pos = int_neg = t_ext[:, 1:] - t_ext[:, :-1]
        else:
            shrink = np.exp(-a * t_ext)
            int_pos = (grow[:, 1:] - grow[:, :-1]) / a
            int_neg = (shrink[:, 1:] - shrink[:, :-1]) / -a
        gap_i = c_eta * int_neg / p_ext
        gap_c = c_l * int_pos * p_ext
        e_left_at_jump = grow[:, 1:-1] * p_ext[:, :-1]
        jump_i = (dl / prod1) / e_left_at_jump
        jump_c = dl * e_left_at_jump

        inc_i = np.empty((n, 2 * kmax + 1))
        inc_i[:, 0::2] = gap_i
        inc_i[:, 1::2] = jump_i
        i_bnd = np.cumsum(inc_i, axis=1)

        e_bnd = np.empty((n, 2 * kmax + 1))
        e_bnd[:, 0::2] = grow[:, 1:] * p_ext  # left limit at the gap end
        e_bnd[:, 1::2] = e_left_at_jump * prod1  # right after the jump

        c_final = gap_c.sum(axis=1) + jump_c.sum(axis=1)
    return e_bnd, i_bnd, c_final


def _jump_block(model, horizon, rng, size):
    times, du, dl, _ = draw_jumps(model, horizon, rng, size)
    a, b_l = model.drift
    out = {k: np.empty(size) for k in ("e", "i", "c", "i_min")}
    for rows in _tiles(times):
        e_bnd, i_bnd, c_final = _jump_boundary_arrays(
            times[rows], du[rows], dl[rows], a, b_l, b_l, horizon
        )
        out["e"][rows] = e_bnd[:, -1]
        out["i"][rows] = i_bnd[:, -1]
        out["c"][rows] = c_final
        out["i_min"][rows] = np.minimum(i_bnd.min(axis=1), 0.0)
    out["u"] = a * horizon + du.sum(axis=1)
    out["l"] = b_l * horizon + dl.sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# diffusion lane
# ---------------------------------------------------------------------------


def _normal_rows(rng, shape, nsteps, ahead):
    """Yield ``nsteps`` arrays of standard normals of ``shape``, in stream order.

    Without a pool each array is drawn when it is asked for.  With a
    one-thread pool ``ahead``, that thread fills the next chunk of about
    ``_CHUNK_ELEMENTS`` normals while the caller uses the current one; the
    two chunk buffers are allocated here, on the caller's thread.  A
    (k, *shape) draw takes the same numbers in the same order as k draws
    of ``shape``, so the rows do not depend on the chunking.  A yielded
    row is a view, valid until the next row is asked for.
    """
    if ahead is None:
        for _ in range(nsteps):
            yield rng.standard_normal(shape)
        return
    k = max(1, _CHUNK_ELEMENTS // math.prod(shape))
    bufs = (np.empty((k, *shape)), np.empty((k, *shape)))
    fill = lambda buf, m: rng.standard_normal(out=buf[:m])
    pending = ahead.submit(fill, bufs[0], min(k, nsteps))
    for c, start in enumerate(range(0, nsteps, k)):
        chunk = pending.result()
        if start + k < nsteps:
            pending = ahead.submit(fill, bufs[(c + 1) % 2], min(k, nsteps - start - k))
        yield from chunk


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
    # A model with jumps draws Poisson counts and marks between the
    # normals of its stream, so only a normals-only stream is drawn ahead
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = None if model.has_jumps else pool
        shape = (size,) if u_noise_only else (size, 2)
        for z in _normal_rows(rng, shape, nsteps, ahead):
            if u_noise_only:
                zu = z * math.sqrt(suu * dt)
                zl = 0.0
            else:
                z = z @ chol.T
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
    Non-finite boundary values of E or I (an overflowing E at a long
    horizon) are a ConditionError naming their count.
    """
    if model.has_gaussian:
        raise NotImplementedError("ruin lane supports pure-jump models only")
    if h_cdf is not None and not model.condition_b:
        raise ConditionError("first-passage bookkeeping needs dU > -1 a.s.")
    xs = np.asarray(list(x_probes), dtype=float)
    scanned = [j for j, x in enumerate(xs) if x > 0.0]
    a, b_l = model.drift

    def block(rng, size):
        times, du, dl, _ = draw_jumps(model, horizon, rng, size)
        out = {}
        for j, x in enumerate(xs):
            # filled tile by tile for x > 0; started at or below the
            # barrier, tau = 0 and V_tau = x
            out[f"hit_{j}"] = np.ones(size, dtype=bool)
            if h_cdf is not None:
                out[f"hw_{j}"] = np.full(size, float(np.asarray(h_cdf(-x))))
        # E/I boundary values the scan reads, and how many are not finite
        out["bnd_values"] = np.zeros(size, dtype=int)
        out["bnd_nonfinite"] = np.zeros(size, dtype=int)
        if not scanned:
            return out
        for rows in _tiles(times):
            e_bnd, i_bnd, _ = _jump_boundary_arrays(
                times[rows], du[rows], dl[rows], a, b_l, b_l, horizon
            )
            out["bnd_values"][rows] = 2 * e_bnd.shape[1]
            out["bnd_nonfinite"][rows] = np.count_nonzero(~np.isfinite(e_bnd), axis=1)
            out["bnd_nonfinite"][rows] += np.count_nonzero(~np.isfinite(i_bnd), axis=1)
            idx = np.arange(e_bnd.shape[0])
            for j in scanned:
                with np.errstate(over="ignore", invalid="ignore"):
                    v_bnd = e_bnd * (xs[j] + i_bnd)
                below = v_bnd <= 0.0
                hit = below.any(axis=1)
                out[f"hit_{j}"][rows] = hit
                if h_cdf is None:
                    continue
                first = below.argmax(axis=1)
                v_tau = v_bnd[idx, first]
                if b_l != 0.0:
                    # an even index is a gap end; if V was positive at the
                    # previous boundary the drift crossed zero continuously
                    prev_pos = (first % 2 == 0) & (first > 0)
                    prev_pos &= v_bnd[idx, np.maximum(first - 1, 0)] > 0.0
                    v_tau = np.where(prev_pos, 0.0, v_tau)
                out[f"hw_{j}"][rows] = np.where(hit, h_cdf(np.where(hit, -v_tau, 0.0)), 0.0)
        return out

    res = run_blocks(n, block, seed, label, workers)
    bad = int(res["bnd_nonfinite"].sum())
    if bad:
        raise ConditionError(
            f"{bad} of {int(res['bnd_values'].sum())} ruin-scan E/I boundary samples are not "
            f"finite at horizon {horizon:g}; the stochastic exponential or its inverse "
            "overflows, use a shorter horizon"
        )
    hits = np.array([res[f"hit_{j}"].sum() for j in range(xs.size)], dtype=int)
    out = {"x": xs, "n": n, "hits": hits, "hit_prob": hits / n}
    if h_cdf is not None:
        out["h_weighted"] = np.array(
            [res[f"hw_{j}"].sum() / n for j in range(xs.size)]
        )
        for j in range(xs.size):
            out[f"weights_{j}"] = res[f"hw_{j}"]
    return out
