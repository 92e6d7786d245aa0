"""Vectorized Monte Carlo lanes.

Two lanes share one blocked driver so that results are reproducible and
independent of the worker count:

* jump lane: finite-activity models without a Gaussian part.  The
  stochastic exponential and the two exponential functionals have a
  closed form between jumps, so blocks of paths are reduced with
  padded-array arithmetic and no time stepping.
  Each block's jumps are drawn whole and flat (``paths.draw_jumps``), so
  the draw holds O(jumps) (a point-mass law's marks as a one-byte atom
  index, gathered per tile), and reduced in row tiles of about
  ``_CHUNK_ELEMENTS`` boundary values.  Padded slots exist per tile only:
  a tile is laid out on the block's K jump slots when the kernel reaches
  it, so the padding and the kernel's temporaries take O(_CHUNK_ELEMENTS)
  memory instead of O(BLOCK_SIZE * K).  The lane reduces a tile to its
  terminal state only; the ruin scan alone builds the running sum of I
  at every event boundary.
  A tile on which U does not jump (its marks' dU all 0.0 or -0.0) has
  E = e^{a t} exactly and p = 1 at every jump, so it skips the running
  product of 1 + dU and every product or quotient by it, which were
  exact: its bits do not change.  ``zero``, ``drift-ou`` and
  ``cramer-paulsen`` take this path, on both sides of their duality and
  stationary pairs and in their ruin scans, and so would any OU model
  with compound-Poisson input or risk process with interest (U a drift
  alone); ``degenerate-k`` and ``nonmonotone`` keep the product.
* diffusion lane: models with a Gaussian part, on a fixed grid.  The
  stochastic exponential is updated in exact law; finite-variation
  integrands use the trapezoid rule (the left-point rule leaves an O(dt)
  bias that would dominate the statistics), Brownian integrands use
  left-point Ito sums.  The block's jumps come from one
  ``paths.draw_jumps`` call, first in its stream; each is applied at the
  end of the step that holds it, after that step's continuous update (an
  O(dt) weak error, the order of the Ito sums).  Given the Poisson count
  on [0, T] the jump times are iid uniform, so this has the law of a
  Poisson(lambda dt) count per step.  The rest of the stream is normals,
  drawn chunk by chunk into one reused buffer on the block's own thread,
  so a block takes draw + step time.

The samples a verdict compares (forward against dual, causal against
noncausal) are independent, so ``run_together`` runs them at once, one
thread each, in either lane: at ``workers`` 1 a pair keeps both of two
CPUs busy.

Both lanes return each path's terminal state only, and of it only the
keys their caller asks for: ``e`` = E(U)_T, ``i`` = I_T = int E^{-1} d eta
and ``c`` = C_T = int E_{s-} dL_s.  The duality grid (both sides), the
monotonicity probe, the noncausal stationary law and the stationary
suite's solution sample read e and i; the causal stationary law reads e
and c, the stationary suite's causal-integral sample c alone and the
subordinator ruin mode's dual side i alone.  The jump lane builds only
the increments of the requested integrals (I's with a second exp), and
the grid lane steps E always and skips an unread integral's sums (1/E
with I).  The draw is the same whatever the keys, and a computed key
keeps its bits.

First passage is the job of the ruin scan (``ruin_samples``, pure-jump
models with condition (B), starts x > 0).  Under (B) E(U) > 0, so V^x
first reaches 0 when I first reaches -x: the scan builds I's increments
only, reads I at every event boundary and E only right after the hitting
jump.  It returns for each path and starting point whether it hit and V
at the first passage; what a verdict makes of V_tau (the H-weights of
the first-passage identity) is left to ``duality``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .levy import ConditionError, LevyModel2
from .rng import BLOCK_SIZE, stream
from .paths import GRID_DT, _check_horizon, _cov_sqrt, draw_jumps

__all__ = [
    "run_blocks",
    "run_together",
    "terminal_samples",
    "exp_functional_samples",
    "check_ruin_scan",
    "ruin_samples",
]


# The terminal keys a lane can return: E(U)_T, I_T and C_T.
KEYS = ("e", "i", "c")


def _lane_keys(keys) -> tuple:
    """``keys`` in ``KEYS`` order; ValueError unless a non-empty subset."""
    wanted = {keys} if isinstance(keys, str) else set(keys)
    if not wanted or not wanted <= set(KEYS):
        raise ValueError(f"keys must be a non-empty subset of {KEYS}, not {keys!r}")
    return tuple(k for k in KEYS if k in wanted)


# ---------------------------------------------------------------------------
# blocked driver
# ---------------------------------------------------------------------------


def run_blocks(n: int, fn, seed: int, label: str, workers: int = 1) -> dict:
    """Run ``fn(rng, size)`` over fixed-size blocks and concatenate results.

    Block i always covers sample indices [i*BLOCK_SIZE, ...) with its own
    named substream, so the assembled arrays are byte-identical for any
    worker count.  ``fn`` returns a dict of arrays whose first axis has
    length ``size``.
    A single block runs inline, and the pool has at most one thread per
    block and per CPU.
    """
    if n <= 0:
        raise ValueError("need n > 0")
    sizes = [min(BLOCK_SIZE, n - i * BLOCK_SIZE) for i in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE)]

    def one(i):
        return fn(stream(seed, label, i), sizes[i])

    threads = min(workers, len(sizes), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, range(len(sizes))))
    else:
        parts = [one(i) for i in range(len(sizes))]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def run_together(*calls) -> list:
    """Results of the zero-argument ``calls``, in call order.

    The calls must be independent (each draws its own named streams), so
    their results do not depend on how they are run.  The first runs on
    this thread and the rest at once on a pool, so a pair keeps two CPUs
    busy: a grid-lane block draws and steps on one thread, and a
    jump-lane block's numpy calls mostly release the GIL.  A ``cumprod``
    or ``cumsum`` along a row releases it only on more than 500 rows, and
    a long-horizon tile has 141 to 318, so there a jump-lane pair runs
    1.1 to 1.4 times as fast as in turn.  When several calls raise, the
    first one's exception in call order is raised, as running them in
    turn would; each call must therefore carry the checks that are to
    refuse before the next one starts.
    """
    if len(calls) < 2:
        return [call() for call in calls]
    with ThreadPoolExecutor(max_workers=len(calls) - 1) as pool:
        rest = [pool.submit(call) for call in calls[1:]]
        first = calls[0]()
    return [first, *(f.result() for f in rest)]


# ---------------------------------------------------------------------------
# jump lane
# ---------------------------------------------------------------------------

# Doubles per working chunk of either lane: a jump-lane tile of rows x
# (2K+1) boundaries, or a grid-lane chunk of steps x normals per step.
# The jump kernel makes about ten temporaries of a tile's size, up to
# seven fewer on a tile without U jumps (1 + dU, its running product, p and
# the products and quotients by them).  On a whole 4096-row block each is
# megabytes, mapped fresh and faulted in page by page on every call; at
# this size they stay in cache and reuse memory the previous tile freed.
_CHUNK_ELEMENTS = 32_768


def _jump_tiles(model, horizon, rng, size, keys=KEYS):
    """Draw a block's jumps (``paths.draw_jumps``) and yield, for each row
    tile of about ``_CHUNK_ELEMENTS`` of the kernel's 2K+1 boundary values,
    its row slice and its ``_jump_increments`` for ``keys``.  Every tile
    is padded to the block's K: C's pairwise row sums group terms by the
    row width."""
    draw = draw_jumps(model, horizon, rng, size)
    a, b_l = model.drift
    rows = max(1, _CHUNK_ELEMENTS // (2 * draw.kmax + 1))
    for s in range(0, size, rows):
        times, du, dl = draw.pad(s, s + rows)
        yield slice(s, s + rows), _jump_increments(times, du, dl, a, b_l, horizon, keys)


def _jump_increments(times, du, dl, a, b_l, horizon, keys=KEYS):
    """Closed form of a tile of pure-jump-plus-drift paths, event by event.

    times: (n, K) jump times sorted per row, padded with the horizon;
    du, dl: matching marks, zero-padded (``JumpDraw.pad``).  a = b_U
    and b_l = b_L, which without a Gaussian part is also the drift of eta.
    Gap j runs (t_j, t_{j+1}), with t_0 = 0 and t_{K+1} = T, and there
    E_s = e^{a s} p_j, p_j the product of 1 + dU over the jumps before it.

    Returns ``grow`` = e^{a t_j} (n, K+2), p (n, K+1), 1 + dU and E before
    each jump (n, K), and the increments of I = int E^{-1} d eta and of
    C = int E_{s-} dL_s over each gap (n, K+1) and at each jump (n, K),
    each only when its key is in ``keys`` (else None).  An overflowing E
    leaves inf/NaN entries without a warning; callers count them.

    A tile whose dU are all zero (0.0, or a dual's -0.0) has E = e^{a t}
    exactly: every 1 + dU and every p is 1.0, so both come back as None
    and E before a jump is a view of ``grow``.  The running product and
    every product or quotient by p or 1 + dU are skipped; each was exact,
    so the tile keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n = times.shape[0]
        t_ext = np.concatenate([np.zeros((n, 1)), times, np.full((n, 1), horizon)], axis=1)
        # e^{a t}, and e^{-a t} for I, once per boundary time
        grow = np.exp(a * t_ext)
        prod1 = p_ext = None
        e_left = grow[:, 1:-1]
        if du.any():
            prod1 = 1.0 + du  # padded entries contribute a factor 1
            p_ext = np.concatenate([np.ones((n, 1)), np.cumprod(prod1, axis=1)], axis=1)
            e_left = e_left * p_ext[:, :-1]
        inc_i = inc_c = None
        if "i" in keys:
            if a == 0.0:
                int_neg = t_ext[:, 1:] - t_ext[:, :-1]
            else:
                shrink = np.exp(-a * t_ext)
                int_neg = (shrink[:, 1:] - shrink[:, :-1]) / -a
            if p_ext is None:
                inc_i = b_l * int_neg, dl / e_left
            else:
                inc_i = b_l * int_neg / p_ext, (dl / prod1) / e_left
        if "c" in keys:
            if a == 0.0:
                int_pos = t_ext[:, 1:] - t_ext[:, :-1]
            else:
                int_pos = (grow[:, 1:] - grow[:, :-1]) / a
            gap_c = b_l * int_pos
            inc_c = gap_c if p_ext is None else gap_c * p_ext, dl * e_left
    return grow, p_ext, prod1, e_left, inc_i, inc_c


def _interleave(gaps, jumps, order="C"):
    """(n, 2K+1) values at [gap 0, jump 1, gap 1, ...]."""
    out = np.empty((gaps.shape[0], 2 * jumps.shape[1] + 1), order=order)
    out[:, 0::2] = gaps
    out[:, 1::2] = jumps
    return out


def _jump_terminal(parts):
    """E_T, I_T and C_T of a tile from its ``_jump_increments`` (None for
    an integral whose increments were not built).  I_T is the last column
    of the cumsum of I's interleaved increments (the ruin scan's running
    sum), bit for bit, without the prefix array.  C_T is the sum of its
    gap and jump increments' pairwise row sums."""
    grow, p_ext, _, _, inc_i, inc_c = parts
    i_t = c_t = None
    with np.errstate(over="ignore", invalid="ignore"):
        if inc_i is not None:
            inc = _interleave(*inc_i, order="F")
            # Reduced over an F-ordered tile of two or more rows, I_T adds
            # column by column, as the cumsum does; starting from -0.0 (not
            # numpy's +0.0) keeps the sign of an all -0.0 row.  A one-row
            # tile is contiguous, and numpy would sum it pairwise.
            if inc.shape[0] > 1:
                i_t = np.add.reduce(inc, axis=1, initial=-0.0)
            else:
                i_t = np.cumsum(inc, axis=1)[:, -1]
        if inc_c is not None:
            c_t = inc_c[0].sum(axis=1) + inc_c[1].sum(axis=1)
        e_t = grow[:, -1] if p_ext is None else grow[:, -1] * p_ext[:, -1]
        return e_t, i_t, c_t


def _jump_block(model, horizon, rng, size, keys=KEYS):
    out = {k: np.empty(size) for k in keys}
    for rows, parts in _jump_tiles(model, horizon, rng, size, keys):
        for k, v in zip(KEYS, _jump_terminal(parts)):
            if k in out:
                out[k][rows] = v
    return out


# ---------------------------------------------------------------------------
# diffusion lane
# ---------------------------------------------------------------------------


def _normal_rows(rng, shape, nsteps):
    """Yield ``nsteps`` arrays of standard normals of ``shape``, in stream order.

    The normals are drawn in chunks of about ``_CHUNK_ELEMENTS`` into one
    reused buffer.  A (k, *shape) draw takes the same numbers in the same
    order as k draws of ``shape``, so the rows do not depend on the
    chunking.  A yielded row is a view, valid until the next row is asked
    for.
    """
    k = max(1, _CHUNK_ELEMENTS // math.prod(shape))
    buf = np.empty((k, *shape))
    for start in range(0, nsteps, k):
        yield from rng.standard_normal(out=buf[: min(k, nsteps - start)])


def _step_jumps(model, horizon, rng, size, step_ends):
    """The block's jumps (one ``draw_jumps`` call) by grid step.

    A jump belongs to the first step whose end is at or after its time.
    Returns a dict from step index to its passes: pass r holds (rows, du,
    dl) of the (r+1)-th jump within the step of every row with that many,
    so the passes of a step apply each row's jumps in time order.
    """
    draw = draw_jumps(model, horizon, rng, size)
    times, du, dl = draw.pad()
    real = np.arange(times.shape[1]) < draw.counts[:, None]
    rows = np.nonzero(real)[0]  # row-major: each row's jumps in time order
    step = np.searchsorted(step_ends, times[real])
    # r of each jump: how many jumps of its row come before it in its step;
    # key ascends, so its first match is the first jump of that row and step
    key = rows * step_ends.size + step
    rank = np.arange(rows.size) - np.searchsorted(key, key)
    order = np.lexsort((rank, step))  # stable, so rows ascend within a pass
    rows, step, rank, du, dl = (v[order] for v in (rows, step, rank, du[real], dl[real]))
    starts = np.flatnonzero((np.diff(step, prepend=-1) != 0) | (np.diff(rank, prepend=-1) != 0))
    passes = {}
    for lo, hi in zip(starts, [*starts[1:], rows.size]):
        passes.setdefault(int(step[lo]), []).append((rows[lo:hi], du[lo:hi], dl[lo:hi]))
    return passes


def _diffusion_block(model, horizon, rng, size, grid_dt, keys=KEYS):
    b_u, b_l = model.drift
    suu = model.sigma_u_sq
    drift_eta = b_l - model.sigma_ul
    nsteps = max(1, math.ceil(horizon / grid_dt))
    dt = horizon / nsteps
    chol = _cov_sqrt(model.gaussian_cov) * math.sqrt(dt)
    step_ends = dt * np.arange(1, nsteps + 1)
    step_ends[-1] = horizon
    jumps = _step_jumps(model, horizon, rng, size, step_ends)

    # A step is E' = E exp(b_U dt + Z_U - suu dt / 2), I += (drift_eta dt
    # / 2)(1/E + 1/E') + Z_L / E and C += (b_L dt / 2)(E + E') + E Z_L.
    # The scalar factors are folded once, in the order these expressions
    # group them, and 1/E' is carried to the next step, so every finite
    # sample keeps its bits.  U-only Gaussian noise is the common case;
    # then the dead L draws and the Z_L terms are skipped (where E or 1/E
    # is infinite, I or C stays inf instead of 0 * inf = NaN; both count
    # as non-finite).  E is the state and always stepped; I (with the 1/E
    # carry) and C are summed only when asked for.
    u_noise_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
    sd_u, drift_u, half_var = math.sqrt(suu * dt), b_u * dt, 0.5 * suu * dt
    k_i, k_c = drift_eta * dt * 0.5, b_l * dt * 0.5
    want_i, want_c = "i" in keys, "c" in keys

    e = np.ones(size)
    inv_e, i = (np.ones(size), np.zeros(size)) if want_i else (None, None)
    c = np.zeros(size) if want_c else None
    tmp = np.empty(size)
    shape = (size,) if u_noise_only else (size, 2)
    for s, z in enumerate(_normal_rows(rng, shape, nsteps)):
        if u_noise_only:
            zu = np.multiply(z, sd_u, out=tmp)
        else:
            z = z @ chol.T
            zu, zl = z[:, 0], z[:, 1]
        np.add(zu, drift_u, out=tmp)
        tmp -= half_var
        e_new = e * np.exp(tmp, out=tmp)
        if want_i:
            inv_new = 1.0 / e_new
            np.add(inv_e, inv_new, out=tmp)
            tmp *= k_i
            if not u_noise_only:
                tmp += inv_e * zl
            i += tmp
            inv_e = inv_new
        if want_c:
            np.add(e, e_new, out=tmp)
            tmp *= k_c
            if not u_noise_only:
                tmp += e * zl
            c += tmp
        e = e_new
        for rows, du, dl in jumps.get(s, ()):
            e_left = e[rows]
            e_right = e_left * (1.0 + du)
            if want_i:
                i[rows] += dl / ((1.0 + du) * e_left)
                inv_e[rows] = 1.0 / e_right
            if want_c:
                c[rows] += e_left * dl
            e[rows] = e_right
    terminal = {"e": e, "i": i, "c": c}
    return {k: terminal[k] for k in keys}


# ---------------------------------------------------------------------------
# public lanes
# ---------------------------------------------------------------------------


def terminal_samples(
    model: LevyModel2,
    horizon: float,
    n: int,
    seed: int,
    grid_dt: float = GRID_DT,
    workers: int = 1,
    label: str = "terminal",
    keys=KEYS,
) -> dict:
    """Per-path terminal quantities for n independent paths.

    Returns exactly the ``keys`` asked for, a non-empty subset of ``e`` =
    E(U)_T, ``i`` = int_(0,T] E^{-1} d eta and ``c`` = int_(0,T] E_{s-}
    dL_s (default all three); V_T^x = e * (x + i) for every x.  A lane
    computes only those, from the same draw and with the same bits as
    for all keys.  The duality grid (both sides), the monotonicity probe
    and the stationary suite's solution sample ask for e and i; the
    stationary suite's causal-integral sample for c; the subordinator
    ruin mode's dual side for i; ``exp_functional_samples`` for e and c
    (causal) or e and i (noncausal).  A horizon that is not positive and
    finite, or other keys, are a ValueError before anything is drawn.
    """
    _check_horizon(horizon)
    keys = _lane_keys(keys)
    if model.has_gaussian:
        fn = lambda rng, size: _diffusion_block(model, horizon, rng, size, grid_dt, keys)
    else:
        fn = lambda rng, size: _jump_block(model, horizon, rng, size, keys)
    return run_blocks(n, fn, seed, label, workers)


def exp_functional_samples(
    model: LevyModel2,
    kind: str,
    n: int,
    horizon: float,
    seed: int,
    grid_dt: float = GRID_DT,
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
    keys = ("e", "c") if kind == "causal" else ("e", "i")
    res = terminal_samples(model, horizon, n, seed, grid_dt, workers, label, keys)
    with np.errstate(divide="ignore"):
        if kind == "causal":
            return res["c"], np.abs(res["e"])
        return -res["i"], np.abs(1.0 / res["e"])


def check_ruin_scan(model: LevyModel2) -> None:
    """ConditionError unless the ruin scan can read ``model``: condition
    (B), so that E(U) > 0 and V^x <= 0 iff I <= -x, and no Gaussian part,
    so that V_tau sits at an event boundary of the jump lane."""
    if not model.condition_b:
        raise ConditionError(
            "the ruin scan reads V <= 0 as I <= -x, which needs condition (B): all jumps dU > -1"
        )
    if model.has_gaussian:
        raise ConditionError(
            "the ruin scan reads V_tau off event boundaries, which needs a model without a "
            "Gaussian part"
        )


def ruin_samples(
    model: LevyModel2,
    horizon: float,
    n: int,
    seed: int,
    x_probes,
    workers: int = 1,
    label: str = "ruin",
) -> dict:
    """First passage of V^x below zero, jointly for all starts x > 0.

    Returns, for the x in ``x_probes``, (n, probes) arrays ``hit`` (tau(x)
    <= T) and ``v_tau`` (V at the first passage: 0 for a drift crossing
    between event boundaries and where there is no hit).  A model that
    ``check_ruin_scan`` refuses is a ConditionError before anything is
    drawn, as an x <= 0 is a ValueError.  Under (B) E(U) > 0, so V^x =
    E (x + I) <= 0 iff I <= -x, and I is monotone between event
    boundaries: the scan reads I's running sum at the boundaries and E
    only right after the hitting jump.  Non-finite boundary values of E or I (an overflowing E at a
    long horizon) are a ConditionError naming their count.  A horizon
    that is not positive and finite is a ValueError before anything is
    drawn.
    """
    _check_horizon(horizon)
    check_ruin_scan(model)
    xs = np.asarray(list(x_probes), dtype=float)
    if not (xs > 0.0).all():
        raise ValueError("the ruin scan needs starting points x > 0")

    def block(rng, size):
        out = {
            "hit": np.empty((size, xs.size), dtype=bool),
            "v_tau": np.zeros((size, xs.size)),
            # E/I boundary values the scan reads, and how many are not finite
            "bnd_values": np.zeros(size, dtype=int),
            "bnd_nonfinite": np.zeros(size, dtype=int),
        }
        for rows, parts in _jump_tiles(model, horizon, rng, size, ("i",)):
            grow, p_ext, prod1, e_left, inc_i, _ = parts
            with np.errstate(over="ignore", invalid="ignore"):
                # E at the gap ends is e_left, then E_T; after a jump e_jump
                # (on a tile without U jumps p = 1 + dU = 1: E_T = e^{aT}
                # and e_jump = e_left)
                e_t = grow[:, -1:] if p_ext is None else grow[:, -1:] * p_ext[:, -1:]
                e_jump = e_left if prod1 is None else e_left * prod1
                # I at [end of gap 0, after jump 1, end of gap 1, ...]
                i_bnd = np.cumsum(_interleave(*inc_i), axis=1)
            out["bnd_values"][rows] = 2 * i_bnd.shape[1]
            bad = [np.count_nonzero(~np.isfinite(v), axis=1) for v in (e_left, e_t, i_bnd)]
            bad.append(bad[0] if prod1 is None else np.count_nonzero(~np.isfinite(e_jump), axis=1))
            out["bnd_nonfinite"][rows] = sum(bad)
            idx = np.arange(i_bnd.shape[0])
            v_tau = out["v_tau"][rows]
            for j, x in enumerate(xs):
                below = i_bnd <= -x
                first = below.argmax(axis=1)  # 0 where no boundary is below
                hit = below[idx, first]
                out["hit"][rows, j] = hit
                # an odd index is the boundary right after a jump, which
                # took I to -x or below; at an even one, a gap end, the
                # drift crossed -x continuously and V_tau = 0
                r = np.flatnonzero(hit & (first % 2 == 1))
                v_tau[r, j] = e_jump[r, first[r] // 2] * (x + i_bnd[r, first[r]])
        return out

    res = run_blocks(n, block, seed, label, workers)
    bad = int(res["bnd_nonfinite"].sum())
    if bad:
        raise ConditionError(
            f"{bad} of {int(res['bnd_values'].sum())} ruin-scan E/I boundary samples are not "
            f"finite at horizon {horizon:g}; the stochastic exponential or its inverse "
            "overflows, use a shorter horizon"
        )
    return {"hit": res["hit"], "v_tau": res["v_tau"]}
