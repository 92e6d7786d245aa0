"""Vectorized Monte Carlo lanes.

Two lanes reduce blocks of paths to their terminal state E(U)_T, I_T and
C_T (``terminal_samples``) on one blocked driver (``run_blocks``), so
that the samples do not depend on the worker count:

* jump lane: finite-activity models without a Gaussian part.  Between
  jumps E and both integrals have a closed form, so a block's jumps are
  drawn whole and flat (``paths.draw_jumps``) and reduced in row tiles
  with padded-array arithmetic and no time stepping.  The ruin scan
  (``ruin_samples``) reads the same tiles at every event boundary.
* diffusion lane: models with a Gaussian part, on a fixed grid.  E is
  updated in exact law; finite-variation integrands use the trapezoid
  rule (the left-point rule leaves an O(dt) bias that would dominate the
  statistics), Brownian integrands left-point Ito sums.  The block's
  jumps come from one ``draw_jumps`` call, first in its stream, each
  applied at the end of the step that holds it (an O(dt) weak error, the
  order of the Ito sums); the rest of the stream is normals, drawn a
  chunk at a time into one reused buffer.

Samples are defined up to the sign of a zero: a lane may return -0.0
where the same sum taken in another order gives +0.0.  Every written law
passes through ``stats.EmpiricalDistribution``, which stores +0.0.
"""

from __future__ import annotations

import bisect
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
    length ``size``, or one fixed length per block (a block's counts).
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
    busy while numpy holds no GIL: in a call on more than 500 elements,
    and in a ``cumprod`` or ``cumsum`` along a row only on more than 500
    rows.  Two threads hand the GIL over once per call.
    When several calls raise, the first one's exception in call order is
    raised, as running them in turn would; each call must therefore carry
    the checks that are to refuse before the next one starts.
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
# (2K+1) boundaries, or a grid-lane chunk of steps x normals per step
# (8 steps of a 4096-row block with U-only noise, 4 with two normals a
# step), whose arithmetic runs on (steps + 1, rows) planes at once.
# The jump kernel makes about ten temporaries of a tile's size, up to
# seven fewer on a tile without U jumps (1 + dU, its running product, p and
# the products and quotients by them).  On a whole 4096-row block each is
# megabytes, mapped fresh and faulted in page by page on every call; at
# this size they stay in cache and reuse memory the previous tile freed.
_CHUNK_ELEMENTS = 32_768


def _jump_tiles(model, horizon, rng, size):
    """Draw a block's jumps (``paths.draw_jumps``) and yield, for each row
    tile of about ``_CHUNK_ELEMENTS`` of the kernel's 2K+1 boundary values,
    its row slice and its padded (times, du, dl), du None for a draw
    without U jumps.  Every tile is padded to the block's K: C's pairwise
    row sums group terms by the row width."""
    draw = draw_jumps(model, horizon, rng, size)
    rows = max(1, _CHUNK_ELEMENTS // (2 * draw.kmax + 1))
    for s in range(0, size, rows):
        yield slice(s, s + rows), draw.pad(s, s + rows, with_du=False)


def _block_result(out, checkpoints):
    """A lane's block from its (checkpoints + 1, size) array per key: each
    key (size,) at the horizon without checkpoints, else (size,
    checkpoints + 1), a column per time, which blocks stack row-wise."""
    return {k: v.T if checkpoints else v[0] for k, v in out.items()}


def _cut_tile(times, du, dl, t):
    """A padded tile's paths on [0, t] as a padded tile: the jumps after t
    move to t with zero marks, as a padded slot sits at the horizon, and
    the slots after every row's last jump by t are dropped."""
    kept = times <= t
    k = int(np.count_nonzero(kept, axis=1).max(initial=0))
    kept = kept[:, :k]
    return (
        np.minimum(times[:, :k], t),
        None if du is None else np.where(kept, du[:, :k], 0.0),
        np.where(kept, dl[:, :k], 0.0),
    )


def _reverse_tile(times, du, dl, horizon):
    """A padded tile's paths reversed at the horizon, X_T - X_{(T-s)-}, as
    a padded tile: the columns reversed, each time t moved to T - t, the
    marks kept.  A row's padded slots become null events at time 0 ahead
    of its jumps, so reversed boundary j is forward boundary 2K + 1 - j
    (``_jump_boundaries``), as ``paths.reverse_path`` pairs them."""
    return horizon - times[:, ::-1], None if du is None else du[:, ::-1], dl[:, ::-1]


# Past |a| t + ln t = 700, e^{|a| t} or a gap integral of e^{+-a s} (at most
# e^{|a| t} t) could overflow: the largest float is e^{709.78}.
_GAP_BOUND = 700.0


def _zero_gaps(a, b_l, horizon, k) -> bool:
    """Whether a tile of k jump slots on [0, horizon] may go without its
    gap increments: it has a jump term to sum (k > 0), b_L is zero, and
    e^{+-a s} and the gap integrals of e^{+-a s}, at most e^{|a| t} t,
    are finite (``_GAP_BOUND``)."""
    return (
        k > 0
        and b_l == 0.0
        and abs(a) * horizon + max(0.0, math.log(horizon)) < _GAP_BOUND
    )


def _jump_increments(times, du, dl, a, b_l, horizon, keys=KEYS):
    """Closed form of a tile of pure-jump-plus-drift paths, event by event.

    times: (n, K) jump times sorted per row; du, dl: matching marks, du
    None when U does not jump.  A slot with zero marks is a null event, so
    a row's slots beyond its jumps may sit at the horizon after them
    (``JumpDraw.pad``) or at 0 before them (``_reverse_tile``): either way
    they add zero-length gaps, a factor 1 to E and 0 to every integral.
    a = b_U and b_l = b_L, which without a Gaussian part is also the drift
    of eta.  Gap j runs (t_j, t_{j+1}), with t_0 = 0 and t_{K+1} = T, and
    there E_s = e^{a s} p_j, p_j the product of 1 + dU over the jumps
    before it.

    Returns ``grow`` = e^{a t_j} (n, K+2), p (n, K+1), 1 + dU and E before
    each jump (n, K), and the increments of I = int E^{-1} d eta and of
    C = int E_{s-} dL_s over each gap (n, K+1) and at each jump (n, K),
    each pair only when its key is in ``keys`` (else None).  An
    overflowing E leaves inf/NaN entries without a warning; callers count
    them.

    A tile whose dU are all zero (0.0, or a dual's -0.0) has E = e^{a t}
    exactly: every 1 + dU and every p is 1.0, so both come back as None
    and E before a jump is a view of ``grow``.  The running product and
    every product or quotient by p or 1 + dU are skipped; each was exact,
    so the tile keeps its bits.

    A gap increment is b_L times a gap integral of e^{-a s} (over p) or of
    e^{a s} (times p).  Where ``_zero_gaps`` holds and p is finite and
    nonzero, each is a zero b_L times a finite number: +-0.0, which
    changes a sum at most in the sign of a zero.  Both gap increments
    then come back as None, and the second exp, the gap integrals and
    their products are skipped.  A p that reaches 0, inf or NaN stays
    there (a running product), so its last column tells.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n, k = times.shape
        t_ext = np.concatenate([np.zeros((n, 1)), times, np.full((n, 1), horizon)], axis=1)
        # e^{a t} once per boundary time (and e^{-a t} for I's gaps)
        grow = np.exp(a * t_ext)
        prod1 = p_ext = None
        e_left = grow[:, 1:-1]
        if du is not None and du.any():
            prod1 = 1.0 + du  # padded entries contribute a factor 1
            p_ext = np.concatenate([np.ones((n, 1)), np.cumprod(prod1, axis=1)], axis=1)
            e_left = e_left * p_ext[:, :-1]
        p_t = None if p_ext is None else p_ext[:, -1]
        gaps = not (
            _zero_gaps(a, b_l, horizon, k)
            and (p_t is None or (np.isfinite(p_t).all() and p_t.all()))
        )
        inc_i = inc_c = None
        if "i" in keys:
            gap_i = None
            if gaps:
                if a == 0.0:
                    int_neg = t_ext[:, 1:] - t_ext[:, :-1]
                else:
                    shrink = np.exp(-a * t_ext)
                    int_neg = (shrink[:, 1:] - shrink[:, :-1]) / -a
                gap_i = b_l * int_neg if p_ext is None else b_l * int_neg / p_ext
            inc_i = gap_i, (dl if p_ext is None else dl / prod1) / e_left
        if "c" in keys:
            gap_c = None
            if gaps:
                if a == 0.0:
                    int_pos = t_ext[:, 1:] - t_ext[:, :-1]
                else:
                    int_pos = (grow[:, 1:] - grow[:, :-1]) / a
                gap_c = b_l * int_pos if p_ext is None else b_l * int_pos * p_ext
            inc_c = gap_c, dl * e_left
    return grow, p_ext, prod1, e_left, inc_i, inc_c


def _interleave(gaps, jumps, order="C"):
    """(n, 2K+1) values at [gap 0, jump 1, gap 1, ...]; gaps None (all
    +-0.0, ``_jump_increments``) are laid out as 0.0."""
    out = np.empty((jumps.shape[0], 2 * jumps.shape[1] + 1), order=order)
    out[:, 0::2] = 0.0 if gaps is None else gaps
    out[:, 1::2] = jumps
    return out


def _jump_boundaries(parts):
    """E and I of a tile at its 2K + 2 event boundaries [0, end of gap 0,
    after jump 1, end of gap 1, ..., after jump K, end of gap K = T], from
    its ``_jump_increments`` with I's key: E is e^{a t} times p at each
    boundary's time, I the running sum of its interleaved increments."""
    grow, p_ext, _, _, (gaps, jumps), _ = parts
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.repeat(grow, 2, axis=1)[:, 1:-1]
        if p_ext is not None:
            e *= np.repeat(p_ext, 2, axis=1)
        i = np.zeros(e.shape)
        np.cumsum(_interleave(gaps, jumps), axis=1, out=i[:, 1:])
    return e, i


def _jump_terminal(parts):
    """E_T, I_T and C_T of a tile from its ``_jump_increments`` (None for
    an integral whose increments were not built).  I_T is the last column
    of the cumsum of I's interleaved increments (the ruin scan's running
    sum), bit for bit, without the prefix array.  C_T is the sum of its
    gap and jump increments' pairwise row sums.

    Without gap increments (all +-0.0) I_T adds the jump increments alone
    and C_T is their row sum.
    """
    grow, p_ext, _, _, inc_i, inc_c = parts
    i_t = c_t = None
    with np.errstate(over="ignore", invalid="ignore"):
        if inc_i is not None:
            gaps, jumps = inc_i
            inc = np.asfortranarray(jumps) if gaps is None else _interleave(gaps, jumps, "F")
            # Reduced over an F-ordered tile of two or more rows, I_T adds
            # column by column, as the cumsum does.  A one-row tile is
            # contiguous, and numpy would sum it pairwise.
            if inc.shape[0] > 1:
                i_t = np.add.reduce(inc, axis=1)
            else:
                i_t = np.cumsum(inc, axis=1)[:, -1]
        if inc_c is not None:
            gaps, jumps = inc_c
            c_t = jumps.sum(axis=1) if gaps is None else gaps.sum(axis=1) + jumps.sum(axis=1)
        e_t = grow[:, -1] if p_ext is None else grow[:, -1] * p_ext[:, -1]
        return e_t, i_t, c_t


def _jump_block(model, horizon, rng, size, keys=KEYS, checkpoints=None):
    """A block's ``keys`` at the horizon, or with ``checkpoints`` at each
    of them and then at the horizon (``_block_result``).  A checkpoint t
    reduces every tile cut at t (``_cut_tile``), which is again a
    compound-Poisson path, on [0, t]; the horizon's column is the tile
    itself, with the bits of a run without checkpoints."""
    times = (*(checkpoints or ()), horizon)
    a, b_l = model.drift
    out = {k: np.empty((len(times), size)) for k in keys}
    for rows, tile in _jump_tiles(model, horizon, rng, size):
        for j, t in enumerate(times):
            cut = tile if t == horizon else _cut_tile(*tile, t)
            state = _jump_terminal(_jump_increments(*cut, a, b_l, t, keys))
            for k, v in zip(KEYS, state):
                if k in out:
                    out[k][j, rows] = v
    return _block_result(out, checkpoints)


# ---------------------------------------------------------------------------
# diffusion lane
# ---------------------------------------------------------------------------


def _step_jumps(model, horizon, rng, size, step_ends):
    """The block's jumps (one ``draw_jumps`` call) by grid step, flat.

    A jump belongs to the first step whose end is at or after its time.
    Pass r of a step holds the (r+1)-th jump within the step of every row
    with that many, so the passes of a step apply each row's jumps in time
    order.  Returns the jumps' rows, steps, 1 + dU, dL and whether each is
    its row's first in its step, ordered by step, pass and row; each
    pass's step, and where each pass starts in the jumps (and their end).
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
    pass_starts = [*starts.tolist(), rows.size]
    return rows, step, 1.0 + du, dl, rank == 0, step[starts].tolist(), pass_starts


def _add_steps(total, rows):
    """total = rows[0] + rows[1] + ..., added one row after another.

    ``rows[0]`` takes the running value first.  ``np.add.reduce`` along
    axis 0 of a C-ordered buffer adds row after row, with the per-step
    loop's bits; on one column it would sum pairwise, so a one-path block
    takes the running sum instead.  One step is one in-place add.
    """
    if len(rows) == 2:
        total += rows[1]
        return
    rows[0] = total
    if rows.shape[1] > 1:
        np.add.reduce(rows, axis=0, out=total)
    else:
        total[:] = np.cumsum(rows, axis=0)[-1]


def _integrate(total, vals, scale, ito, incs, jumps):
    """total += a chunk's increments scale (v_j + v_{j+1}) + v_j Z_L, in step order.

    ``vals`` holds the integrand at the chunk's m + 1 step boundaries,
    after their jumps; ``ito`` is None for U-only noise, else the steps'
    Z_L and spare rows of their shape; ``incs`` is (m + 1, size) scratch.
    ``jumps`` is None when no step of the chunk holds a jump.  Else it
    holds the steps j0 and rows r0 whose trapezoid ends at the integrand's
    value ``end`` before their jumps, each pass's (step, rows, slice of
    ``jump_inc``) in order, and ``jump_inc``, the jumps' own increments.
    The sums stop at each step that holds a pass, so that its jumps'
    increments follow the step's.
    """
    m = len(incs) - 1
    left = vals[:m]
    inc = np.add(left, vals[1:], out=incs[1:])
    inc *= scale
    if ito is not None:
        inc += np.multiply(left, ito[0], out=ito[1])
    if jumps is None:
        _add_steps(total, incs)
        return
    j0, r0, end, passes, jump_inc = jumps
    fix = vals[j0, r0] + end
    fix *= scale
    if ito is not None:
        fix += vals[j0, r0] * ito[0][j0, r0]
    inc[j0, r0] = fix
    a = 0  # the first step not yet added
    for j, rows, js in passes:
        if j >= a:
            _add_steps(total, incs[a : j + 2])
            a = j + 1
        total[rows] += jump_inc[js]
    if a < m:
        _add_steps(total, incs[a:])


def _grid(times, grid_dt):
    """Equal steps of at most ``grid_dt`` on each interval between
    consecutive ``times`` (the first from 0): each interval's steps
    [first, stop) and dt, and every step's end, each interval's last
    exactly its time.  One time gives the grid of a run to it alone; later
    intervals step as a run to their time only where their dt is the
    same (a ``grid_dt`` that divides every interval)."""
    intervals, ends, t0, first = [], [], 0.0, 0
    for t in times:
        nsteps = max(1, math.ceil((t - t0) / grid_dt))
        dt = (t - t0) / nsteps
        e = t0 + dt * np.arange(1, nsteps + 1)
        e[-1] = t
        intervals.append((first, first + nsteps, dt))
        ends.append(e)
        t0, first = t, first + nsteps
    return intervals, np.concatenate(ends)


def _diffusion_block(model, horizon, rng, size, grid_dt, keys=KEYS, checkpoints=None):
    b_u, b_l = model.drift
    suu = model.sigma_u_sq
    drift_eta = b_l - model.sigma_ul
    times = (*(checkpoints or ()), horizon)
    intervals, step_ends = _grid(times, grid_dt)
    root = _cov_sqrt(model.gaussian_cov)
    rows, steps, p, dl, first, pass_steps, pass_starts = _step_jumps(
        model, horizon, rng, size, step_ends
    )
    e_left = np.empty(rows.size)  # E before each jump

    # A step is E' = E exp(b_U dt + Z_U - suu dt / 2), I += (drift_eta dt
    # / 2)(1/E + 1/E') + Z_L / E and C += (b_L dt / 2)(E + E') + E Z_L.
    # The scalar factors are folded once, in the order these expressions
    # group them, so every finite sample keeps its bits.  U-only Gaussian
    # noise is the common case; then the dead L draws and the Z_L terms are
    # skipped (where E or 1/E is infinite, I or C stays inf instead of
    # 0 * inf = NaN; both count as non-finite).  E is the state and always
    # stepped; I (with 1/E) and C are summed only when asked for.
    u_noise_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
    want_i, want_c = "i" in keys, "c" in keys

    # The normals come k steps at a time into one reused buffer (a (k,
    # *shape) draw takes the numbers of k draws of shape, in order), and a
    # chunk's arithmetic runs on the whole chunk, but for E's recurrence:
    # one multiply per step, after which the step's jumps move E.  Row j
    # of a (k + 1, size) plane holds a value at the start of the chunk's
    # step j, row j + 1 at its end: E and 1/E after the jumps (row 0
    # carries the previous chunk's end), the increments of I or C, and the
    # Cholesky branch's step factors.  The planes are one allocation, so
    # that blocks after the first reuse its memory instead of faulting in
    # fresh pages.  Chunks stop at each checkpoint, where E, I and C are
    # copied out; the next interval's steps take its own dt.
    shape = (size,) if u_noise_only else (size, 2)
    k = min(step_ends.size, max(1, _CHUNK_ELEMENTS // math.prod(shape)))
    z_buf = np.empty((k, *shape))
    planes = np.empty((3 if u_noise_only else 4, k + 1, size))
    e_all, inv_all, incs = planes[:3]
    if not u_noise_only:
        w_buf, x_buf = np.empty((k, size, 2)), planes[3]
    e_all[0] = inv_all[0] = 1.0
    i = np.zeros(size) if want_i else None
    c = np.zeros(size) if want_c else None
    out = {key: np.empty((len(times), size)) for key in keys}

    # each interval's step factors, folded once from its dt, and its chunks
    factors = [
        (
            (root * math.sqrt(dt)).T,
            (math.sqrt(suu * dt), b_u * dt, 0.5 * suu * dt),
            (drift_eta * dt * 0.5, b_l * dt * 0.5),
        )
        for _, _, dt in intervals
    ]
    chunks = [
        (col, start, min(k, stop - start))
        for col, (first_step, stop, _) in enumerate(intervals)
        for start in range(first_step, stop, k)
    ]

    for col, start, m in chunks:
        chol_t, (sd_u, drift_u, half_var), (k_i, k_c) = factors[col]
        z = rng.standard_normal(out=z_buf[:m])
        if u_noise_only:
            zu = x = np.multiply(z, sd_u, out=z)
            zl = None
        else:
            w = np.matmul(z, chol_t, out=w_buf[:m])
            zu, zl, x = w[..., 0], w[..., 1], x_buf[:m]
        np.add(zu, drift_u, out=x)
        x -= half_var
        np.exp(x, out=x)
        # E's recurrence, each step's jump passes right after it
        q0 = bisect.bisect_left(pass_steps, start)
        q1 = bisect.bisect_left(pass_steps, start + m)
        q, base, passes = q0, pass_starts[q0], []  # (step, rows, its jumps among the chunk's)
        for j in range(m):
            e = np.multiply(e_all[j], x[j], out=e_all[j + 1])
            while q < q1 and pass_steps[q] == start + j:
                js = slice(pass_starts[q], pass_starts[q + 1])
                e[rows[js]] = np.take(e, rows[js], out=e_left[js]) * p[js]
                passes.append((j, rows[js], slice(js.start - base, js.stop - base)))
                q += 1
        jumped_i = jumped_c = None
        if passes:
            hit = slice(base, pass_starts[q1])
            f = first[hit]
            # a step's trapezoid ends at E before its jumps, the first pass's
            j0, r0, e0 = steps[hit][f] - start, rows[hit][f], e_left[hit][f]
            if want_i:
                jumped_i = j0, r0, 1.0 / e0, passes, dl[hit] / (p[hit] * e_left[hit])
            if want_c:
                jumped_c = j0, r0, e0, passes, e_left[hit] * dl[hit]
        # the step factors are spent: their rows take v_j Z_L
        ito = None if zl is None else (zl, x)
        if want_i:
            np.reciprocal(e_all[1 : m + 1], out=inv_all[1 : m + 1])
            _integrate(i, inv_all[: m + 1], k_i, ito, incs[: m + 1], jumped_i)
        if want_c:
            _integrate(c, e_all[: m + 1], k_c, ito, incs[: m + 1], jumped_c)
        e_all[0] = e_all[m]
        inv_all[0] = inv_all[m]
        if start + m == intervals[col][1]:  # a checkpoint's step, or the horizon's
            state = {"e": e_all[0], "i": i, "c": c}
            for key in keys:
                out[key][col] = state[key]
    return _block_result(out, checkpoints)


# ---------------------------------------------------------------------------
# public lanes
# ---------------------------------------------------------------------------


def _check_checkpoints(checkpoints, horizon) -> None:
    """ValueError unless ``horizon`` is positive and finite and
    ``checkpoints`` is None or a non-empty tuple of positive, finite
    times that increase strictly and stay below ``horizon``."""
    _check_horizon(horizon)
    if checkpoints is None:
        return
    if not isinstance(checkpoints, tuple) or not checkpoints:
        raise ValueError(f"checkpoints must be None or a non-empty tuple, not {checkpoints!r}")
    for t in checkpoints:
        _check_horizon(t)
    times = (*checkpoints, horizon)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(
            f"checkpoints must increase strictly and stay below the horizon {horizon:g}, "
            f"not {checkpoints!r}"
        )


def terminal_samples(
    model: LevyModel2,
    horizon: float,
    n: int,
    seed: int,
    grid_dt: float = GRID_DT,
    workers: int = 1,
    label: str = "terminal",
    keys=KEYS,
    checkpoints: tuple | None = None,
) -> dict:
    """Per-path terminal quantities for n independent paths.

    Returns exactly the ``keys`` asked for, a non-empty subset of ``e`` =
    E(U)_T, ``i`` = int_(0,T] E^{-1} d eta and ``c`` = int_(0,T] E_{s-}
    dL_s (default all three); V_T^x = e * (x + i) for every x.  A lane
    computes only those, from the same draw and with the same bits as
    for all keys.

    ``checkpoints``, a tuple of times t_1 < ... < t_m below the horizon,
    asks for each key at every checkpoint and then at T, from the one
    draw on [0, T]: each key is an (n, m + 1) array whose column j is at
    t_j and whose last column is at T, with the bits of a run without
    checkpoints.  The grid lane steps each interval between checkpoints
    on equal steps of at most ``grid_dt`` (no normal is added), and a
    checkpoint is its step's state; the jump lane reduces each path cut at
    t_j.  A column at t_j is a sample at t_j, but the columns of one path
    are not independent.

    A horizon or checkpoint that is not positive and finite, unsorted or
    repeated checkpoints, one at or past the horizon, an empty tuple, or
    other keys are a ValueError before anything is drawn.
    """
    _check_checkpoints(checkpoints, horizon)
    keys = _lane_keys(keys)
    if model.has_gaussian:
        fn = lambda rng, size: _diffusion_block(
            model, horizon, rng, size, grid_dt, keys, checkpoints
        )
    else:
        fn = lambda rng, size: _jump_block(model, horizon, rng, size, keys, checkpoints)
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
    at: float | None = None,
) -> tuple:
    """Samples of the truncated exponential functional plus diagnostics.

    causal: int_(0,T] E_{s-} dL_s with diagnostic |E_T|; noncausal:
    -int_(0,T] E_{s-}^{-1} d eta_s with diagnostic |E_T^{-1}|.  The
    diagnostic measures how much truncation mass the horizon leaves
    behind.

    ``at``, a time t, adds a third result from the same draw: the lane's
    keys at t (e and c, or e and i), (n,) arrays.  The draw then runs to
    max(t, T) with the smaller time as its checkpoint, or none at t = T,
    where one column serves both.  For t <= T the samples keep the bits of
    a call without ``at``; for t > T they are the checkpoint's column at T
    of the draw to t.  The stationary suite reads one side of its lemma so.
    """
    if kind not in ("causal", "noncausal"):
        raise ValueError("kind must be 'causal' or 'noncausal'")
    keys = ("e", "c") if kind == "causal" else ("e", "i")
    end, checkpoints = horizon, None
    if at is not None and at != horizon:
        end, checkpoints = max(at, horizon), (min(at, horizon),)
    res = terminal_samples(model, end, n, seed, grid_dt, workers, label, keys, checkpoints)
    at_t = at_h = res
    if checkpoints:
        first, last = ({k: v[:, j] for k, v in res.items()} for j in (0, -1))
        at_t, at_h = (first, last) if at < horizon else (last, first)
    with np.errstate(divide="ignore"):
        if kind == "causal":
            out = at_h["c"], np.abs(at_h["e"])
        else:
            out = -at_h["i"], np.abs(1.0 / at_h["e"])
    return out if at is None else (*out, at_t)


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


def _nonfinite(values) -> int:
    """How many of ``values`` are not finite.  Their sum is finite only if
    every value is, so a finite tile costs one reduction and no count."""
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(values.sum()):
            return 0
    return int(np.count_nonzero(~np.isfinite(values)))


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
    only right after the hitting jump.  A tile without gap increments
    (``_jump_increments``: b_L = 0) sums I over its jumps alone: I at
    a gap's end is I after the jump before it, so every first passage is
    at a jump, and a non-finite value there counts for both boundaries.
    Non-finite boundary values of E or I (an overflowing E at a long
    horizon) are a ConditionError naming their count.  A horizon that is
    not positive and finite is a ValueError before anything is drawn.
    """
    _check_horizon(horizon)
    check_ruin_scan(model)
    xs = np.asarray(list(x_probes), dtype=float)
    if not (xs > 0.0).all():
        raise ValueError("the ruin scan needs starting points x > 0")
    a, b_l = model.drift

    def block(rng, size):
        out = {
            "hit": np.empty((size, xs.size), dtype=bool),
            "v_tau": np.zeros((size, xs.size)),
            # E/I boundary values the scan reads, and how many are not
            # finite: one count per block
            "bnd_values": np.zeros(1, dtype=int),
            "bnd_nonfinite": np.zeros(1, dtype=int),
        }
        for rows, tile in _jump_tiles(model, horizon, rng, size):
            parts = _jump_increments(*tile, a, b_l, horizon, ("i",))
            grow, p_ext, prod1, e_left, (gaps, jumps), _ = parts
            with np.errstate(over="ignore", invalid="ignore"):
                # E at the gap ends is e_left, then E_T; after a jump e_jump
                # (on a tile without U jumps p = 1 + dU = 1: E_T = e^{aT}
                # and e_jump = e_left)
                e_t = grow[:, -1:] if p_ext is None else grow[:, -1:] * p_ext[:, -1:]
                e_jump = e_left if prod1 is None else e_left * prod1
                # I at [end of gap 0, after jump 1, end of gap 1, ...], or
                # without gap increments (all +-0.0) after each jump only
                i_bnd = np.cumsum(jumps if gaps is None else _interleave(gaps, jumps), axis=1)
            out["bnd_values"] += i_bnd.shape[0] * 2 * (2 * jumps.shape[1] + 1)
            # E before and after each jump (the same where U does not jump),
            # E_T and I; without gap increments I at gap 0's end is +-0.0,
            # and at gap j's end, I after jump j plus +-0.0: it is finite
            # where that one is
            bad = _nonfinite(e_left)
            bad += bad if prod1 is None else _nonfinite(e_jump)
            bad += _nonfinite(e_t) + (2 if gaps is None else 1) * _nonfinite(i_bnd)
            out["bnd_nonfinite"] += bad
            idx = np.arange(i_bnd.shape[0])
            v_tau = out["v_tau"][rows]
            for j, x in enumerate(xs):
                below = i_bnd <= -x
                first = below.argmax(axis=1)  # 0 where no boundary is below
                hit = below[idx, first]
                out["hit"][rows, j] = hit
                if gaps is None:
                    # I stays put over a gap, so only a jump takes it to -x
                    jump = first
                else:
                    # an odd index is the boundary right after a jump, which
                    # took I to -x or below; at an even one, a gap end, the
                    # drift crossed -x continuously and V_tau = 0
                    jump = first // 2
                    hit = hit & (first % 2 == 1)
                r = np.flatnonzero(hit)
                v_tau[r, j] = e_jump[r, jump[r]] * (x + i_bnd[r, first[r]])
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
