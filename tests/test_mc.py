import contextlib
import hashlib
import inspect
import itertools
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gouflow import inverse_flow, mc, suites
from gouflow.config import ExperimentConfig
from gouflow.duality import ruin_probability
from gouflow.levy import ConditionError, JumpLaw2, LevyModel2, Marginal, dual_model
from gouflow.paths import JumpDraw, draw_jumps, exact_paths, sample_path
from gouflow.gou import causal_integral, solve_forward
from gouflow.presets import get_preset
from gouflow.rng import BLOCK_SIZE, stream
from gouflow.stats import ecdf, ks_two_sample, verdict

import conftest
from conftest import padded_jumps


# ---------------------------------------------------------------------------
# blocked driver
# ---------------------------------------------------------------------------


def test_run_blocks_worker_independence():
    def fn(rng, size):
        return {"x": rng.standard_normal(size)}

    a = mc.run_blocks(10_000, fn, seed=1, label="w", workers=1)
    b = mc.run_blocks(10_000, fn, seed=1, label="w", workers=4)
    assert np.array_equal(a["x"], b["x"])


def test_run_blocks_single_block_starts_no_pool(monkeypatch, mixed_jump_model):
    """One block runs inline at any worker count; more blocks get at most
    one pool thread each.  The bytes never change."""
    ref = mc.terminal_samples(mixed_jump_model, 2.0, BLOCK_SIZE, seed=5, workers=1)

    def no_pool(max_workers):
        raise AssertionError("a single block started a thread pool")

    monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
    two = mc.terminal_samples(mixed_jump_model, 2.0, BLOCK_SIZE, seed=5, workers=2)
    assert ref.keys() == two.keys()
    assert all(ref[k].tobytes() == two[k].tobytes() for k in ref)

    pools = _record_pools(monkeypatch)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
    mc.run_blocks(BLOCK_SIZE + 1, lambda rng, size: {"x": rng.random(size)}, 1, "cap", workers=8)
    assert pools == [2]


class _InlinePool:
    """A stand-in for ``ThreadPoolExecutor`` that runs its map inline."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _record_pools(monkeypatch):
    """The ``max_workers`` of every pool ``mc`` asks for, appended as
    asked; the pools start no threads."""
    pools = []

    def recording_pool(max_workers):
        pools.append(max_workers)
        return _InlinePool(max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", recording_pool)
    return pools


@pytest.mark.parametrize(
    "workers, cpus, asked",
    [(1000, 2, [2]), (1000, 64, [5]), (3, 64, [3]), (1000, 1, []), (1000, None, [])],
)
def test_run_blocks_pool_is_bounded_by_blocks_and_cpus(monkeypatch, workers, cpus, asked):
    """The pool has at most one thread per block and per CPU: ``workers``
    1000 on five blocks asks for the smaller of the two, and on one CPU
    (or an unknown count) the blocks run inline.  The bytes never change."""
    fn = lambda rng, size: {"x": rng.random(size)}
    n = 4 * BLOCK_SIZE + 1
    ref = mc.run_blocks(n, fn, 1, "cpus", workers=1)
    pools = _record_pools(monkeypatch)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    got = mc.run_blocks(n, fn, 1, "cpus", workers=workers)
    assert pools == asked
    assert got["x"].tobytes() == ref["x"].tobytes()


def test_run_blocks_label_isolation():
    def fn(rng, size):
        return {"x": rng.standard_normal(size)}

    a = mc.run_blocks(1000, fn, seed=1, label="a")
    b = mc.run_blocks(1000, fn, seed=1, label="b")
    assert not np.array_equal(a["x"], b["x"])


def test_run_blocks_prefix_stability():
    """The first k samples do not depend on the total count."""

    def fn(rng, size):
        return {"x": rng.standard_normal(size)}

    small = mc.run_blocks(5000, fn, seed=2, label="p")
    big = mc.run_blocks(9000, fn, seed=2, label="p")
    assert np.array_equal(small["x"], big["x"][:5000])


# ---------------------------------------------------------------------------
# jump lane, grid lane and the per-path event-list route
# ---------------------------------------------------------------------------


def _row(batch, i):
    """Row i of a stacked batch as a path of its own."""
    cols = dict(is_jump=batch.is_jump[i], t=batch.t[i], du=batch.du[i], dl=batch.dl[i])
    return replace(batch, **cols)


def test_jump_boundary_arrays_match_event_route(mixed_jump_model):
    """[DERIVED] cross-validation: the padded-array closed forms must equal
    the per-path solver on the same rows of ``exact_paths`` (one draw from
    an identical stream)."""
    m = mixed_jump_model
    horizon, n = 2.0, 40
    times, du, dl, counts = padded_jumps(m, horizon, stream(77, "boundary"), n)
    batch = exact_paths(m, horizon, stream(77, "boundary"), n)
    assert counts.min() < counts.max()  # rows carry padding

    parts = mc._jump_increments(times, du, dl, m.drift[0], m.drift[1], horizon)
    grow, p_ext, prod1, e_left, inc_i, _ = parts
    # E and I at [end of gap 0, after jump 1, end of gap 1, ...]
    e_bnd = mc._interleave(grow[:, 1:] * p_ext, e_left * prod1)
    i_bnd = np.cumsum(mc._interleave(*inc_i), axis=1)
    e_final, i_final, c_final = mc._jump_terminal(parts)
    _assert_bitwise(e_final, e_bnd[:, -1])
    _assert_bitwise(i_final, i_bnd[:, -1])
    for row in range(n):
        p = _row(batch, row)
        assert np.count_nonzero(p.is_jump) == counts[row]
        traj = solve_forward(p, m, 0.0)
        c = causal_integral(p, m)
        assert e_bnd[row, -1] == pytest.approx(traj.exponential.values[-1], rel=1e-11)
        assert i_bnd[row, -1] == pytest.approx(traj.integral.values[-1], rel=1e-11, abs=1e-12)
        assert c_final[row] == pytest.approx(c.values[-1], rel=1e-11, abs=1e-12)
        # every boundary, and the running minimum over them, match too
        np.testing.assert_allclose(e_bnd[row], traj.exponential.values[1:], rtol=1e-11)
        np.testing.assert_allclose(i_bnd[row], traj.integral.values[1:], rtol=1e-11, atol=1e-12)
        ref_min = min(0.0, float(traj.integral.values.min()))
        assert min(0.0, i_bnd[row].min()) == pytest.approx(ref_min, abs=1e-11)
    # the prefix arrays of the tile check: the same boundaries after 0
    e_all, i_all = mc._jump_boundaries(parts)
    assert (e_all[:, 0] == 1.0).all() and (i_all[:, 0] == 0.0).all()
    _assert_bitwise(i_all[:, 1:], i_bnd)
    np.testing.assert_allclose(e_all[:, 1:], e_bnd, rtol=1e-14)


# Item 20's lemma on the tile reversal: for a Levy pair the reversed
# increments X_T - X_{(T-s)-} have the law of X, and path by path
# E_T I_T on a tile is C_T on its reversal (same drift, same marks).
LEMMA_MODELS = {
    "drift-ou": (get_preset("drift-ou").model, 3.0),
    "cramer-paulsen": (get_preset("cramer-paulsen").model, 3.0),
    "cramer-paulsen-dual": (dual_model(get_preset("cramer-paulsen").model), 3.0),
    "degenerate-k": (get_preset("degenerate-k").model, 3.0),
    "degenerate-k-T20": (get_preset("degenerate-k").model, 20.0),
    "uniform-exponential": (
        LevyModel2(
            drift=(-1.0, 1.0),
            jump_intensity=1.5,
            jump_law=JumpLaw2.independent(Marginal.uniform(-0.5, 0.8), Marginal.exponential(1.5)),
        ),
        3.0,
    ),
}


def _lemma_error(m, horizon, tile, reversed_tile):
    a, b_l = m.drift
    e_t, i_t, _ = mc._jump_terminal(mc._jump_increments(*tile, a, b_l, horizon, ("i",)))
    _, _, c_t = mc._jump_terminal(mc._jump_increments(*reversed_tile, a, b_l, horizon, ("c",)))
    return inverse_flow._mixed_error(e_t * i_t, c_t)


@pytest.mark.parametrize("name", list(LEMMA_MODELS))
def test_lemma_holds_pathwise_on_the_reversed_tile(name):
    """E_T I_T on a tile equals C_T on ``mc._reverse_tile`` of it, row by
    row, to 1e-9 on the mixed error (the PR 30 prototype read at most
    1.5e-12); the reversal with negated marks fails it."""
    m, horizon = LEMMA_MODELS[name]
    tile = draw_jumps(m, horizon, stream(3, "lemma"), 1024).pad()
    times, du, dl = mc._reverse_tile(*tile, horizon)
    assert _lemma_error(m, horizon, tile, (times, du, dl)).max() <= 1e-9
    assert _lemma_error(m, horizon, tile, (times, -du, -dl)).max() > 1e-9


# The jump lane before row tiles: one kernel call on the whole block and
# six exp calls.  The tiled lane must reproduce it bit for bit.


def _untiled_interval_integrals(a, t0, t1, sign):
    z = sign * a
    if z == 0.0:
        return t1 - t0
    return (np.exp(z * t1) - np.exp(z * t0)) / z


def _untiled_boundary_arrays(times, du, dl, a, c_eta, c_l, horizon):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n, kmax = times.shape
        prod1 = 1.0 + du
        p = np.cumprod(prod1, axis=1)
        p_ext = np.concatenate([np.ones((n, 1)), p], axis=1)
        t_ext = np.concatenate([np.zeros((n, 1)), times, np.full((n, 1), horizon)], axis=1)
        t0, t1 = t_ext[:, :-1], t_ext[:, 1:]
        gap_i = c_eta * _untiled_interval_integrals(a, t0, t1, -1) / p_ext
        gap_c = c_l * _untiled_interval_integrals(a, t0, t1, +1) * p_ext
        e_left_at_jump = np.exp(a * times) * p_ext[:, :-1]
        jump_i = (dl / prod1) / e_left_at_jump
        jump_c = dl * e_left_at_jump
        inc_i = np.empty((n, 2 * kmax + 1))
        inc_i[:, 0::2] = gap_i
        inc_i[:, 1::2] = jump_i
        i_bnd = np.cumsum(inc_i, axis=1)
        e_bnd = np.empty((n, 2 * kmax + 1))
        e_bnd[:, 0::2] = np.exp(a * t1) * p_ext
        e_bnd[:, 1::2] = e_left_at_jump * prod1
        c_final = gap_c.sum(axis=1) + jump_c.sum(axis=1)
    return e_bnd, i_bnd, c_final


def _untiled_jump_block(model, horizon, rng, size):
    times, du, dl, _ = padded_jumps(model, horizon, rng, size)
    b_u, b_l = model.drift
    e_bnd, i_bnd, c_final = _untiled_boundary_arrays(times, du, dl, b_u, b_l, b_l, horizon)
    return {"e": e_bnd[:, -1], "i": i_bnd[:, -1], "c": c_final}


def _untiled_ruin(model, horizon, rng, size, xs):
    """Per-probe hit flags and V at first passage of one untiled ruin block."""
    times, du, dl, _ = padded_jumps(model, horizon, rng, size)
    b_u, b_l = model.drift
    e_bnd, i_bnd, _ = _untiled_boundary_arrays(times, du, dl, b_u, b_l, b_l, horizon)
    hits, v_taus = [], []
    for x in xs:
        if x <= 0.0:
            hits.append(np.ones(size, dtype=bool))
            v_taus.append(np.full(size, x))
            continue
        v_bnd = e_bnd * (x + i_bnd)
        below = v_bnd <= 0.0
        hit = below.any(axis=1)
        hits.append(hit)
        first = below.argmax(axis=1)
        rows = np.arange(size)
        v_tau = v_bnd[rows, first]
        if b_l != 0.0:
            # a gap end that V reached from above: a drift crossing, also
            # in the first gap, which starts at V_0 = x > 0
            prev_pos = (first % 2 == 0) & (
                (first == 0) | (v_bnd[rows, np.maximum(first - 1, 0)] > 0.0)
            )
            v_tau = np.where(prev_pos, 0.0, v_tau)
        v_taus.append(np.where(hit, v_tau, 0.0))
    return hits, v_taus


def _assert_bitwise(a, b):
    """Equal values, NaN where NaN, and the sign of every nonzero value
    (inf and NaN too); samples are defined up to the sign of a zero."""
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a) & (a != 0), np.signbit(b) & (b != 0))


def _check_tiled_lane_bitwise(model, horizon, size, seed):
    tiled = mc._jump_block(model, horizon, stream(seed, "tiles", 0), size)
    ref = _untiled_jump_block(model, horizon, stream(seed, "tiles", 0), size)
    for key in ("e", "i", "c"):
        _assert_bitwise(tiled[key], ref[key])

    # the ruin scan reads I alone, which needs condition (B)
    xs = [0.25, 1.0, 3.0]
    if not model.condition_b:
        with pytest.raises(ConditionError, match="condition \\(B\\)"):
            mc.ruin_samples(model, horizon, size, seed, xs, label="tiles")
        return
    res = mc.ruin_samples(model, horizon, size, seed, xs, label="tiles")
    hits, v_taus = _untiled_ruin(model, horizon, stream(seed, "tiles", 0), size, xs)
    for j, (hit, v_tau) in enumerate(zip(hits, v_taus)):
        assert np.array_equal(res["hit"][:, j], hit)
        _assert_bitwise(res["v_tau"][:, j], v_tau)


@pytest.mark.parametrize("size", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize(
    "name", ["zero", "drift-ou", "cramer-paulsen", "degenerate-k", "nonmonotone"]
)
def test_tiled_jump_lane_is_bitwise_untiled(name, size):
    """Row tiles and the shared e^{+-a t} per boundary change no bit of the
    lane's samples, hit flags, hit counts or V at first passage (models
    with condition (B); ``nonmonotone`` refuses the scan), on either side
    of a tile boundary."""
    preset = get_preset(name)
    horizon = preset.recommended.get("horizon", 20.0)
    _check_tiled_lane_bitwise(preset.model, horizon, size, seed=21)


def _one_row_last_tile(model, horizon, seed):
    """The smallest block size whose last row tile holds exactly one row
    (a multiple of the tile rows, plus one), from the block's own K."""
    counts = draw_jumps(model, horizon, stream(seed, "tiles", 0), BLOCK_SIZE).counts
    kmax = np.maximum.accumulate(counts)  # K of each prefix block
    for size in range(2, BLOCK_SIZE + 1):
        rows = max(1, mc._CHUNK_ELEMENTS // (2 * int(kmax[size - 1]) + 1))
        if size % rows == 1:
            draw = draw_jumps(model, horizon, stream(seed, "tiles", 0), size)
            assert draw.kmax == kmax[size - 1]
            return size
    raise AssertionError("no block size leaves a one-row last tile")


_JUMP_PRESETS = ["drift-ou", "cramer-paulsen", "degenerate-k", "nonmonotone"]


@pytest.mark.parametrize("name", _JUMP_PRESETS)
def test_tiled_jump_lane_is_bitwise_untiled_with_one_row_last_tile(name):
    """A last tile of one row, which numpy would sum pairwise if it reduced
    I_T as a contiguous row, still gives the untiled lane's bits."""
    preset = get_preset(name)
    horizon = preset.recommended.get("horizon", 20.0)
    size = _one_row_last_tile(preset.model, horizon, seed=21)
    _check_tiled_lane_bitwise(preset.model, horizon, size, seed=21)


@pytest.mark.parametrize("size", ["one-row-last-tile", 2, 50])
@pytest.mark.parametrize("name", _JUMP_PRESETS)
def test_tiled_jump_lane_is_bitwise_untiled_when_e_overflows(name, size):
    """At T = 1500, E(U) or its inverse overflows: the terminal lane gives
    the untiled reference's inf, NaN and sign-bit pattern in every column."""
    model, horizon = get_preset(name).model, 1500.0
    if size == "one-row-last-tile":
        size = _one_row_last_tile(model, horizon, seed=21)
    tiled = mc._jump_block(model, horizon, stream(21, "tiles", 0), size)
    ref = _untiled_jump_block(model, horizon, stream(21, "tiles", 0), size)
    for key in ("e", "i", "c"):
        _assert_bitwise(tiled[key], ref[key])
    assert not all(np.isfinite(ref[key]).all() for key in ("e", "i", "c"))


_point_mass_laws = st.lists(
    st.tuples(
        st.floats(-3.0, 2.0).filter(lambda u: abs(u + 1.0) > 1e-3),
        st.floats(-2.0, 2.0),
    ),
    min_size=1,
    max_size=3,
).map(lambda atoms: JumpLaw2.point_mass([(a, 1.0 / len(atoms)) for a in atoms]))
_exponential_laws = st.builds(
    JumpLaw2.independent,
    st.builds(Marginal.exponential, st.floats(0.5, 4.0), st.sampled_from([-1, 1])),
    st.builds(Marginal.exponential, st.floats(0.5, 4.0), st.sampled_from([-1, 1])),
)
# U does not jump: dU = 0.0 or -0.0 (1 + dU = 1.0 either way), so every
# tile skips the running product of 1 + dU
_u_continuous_laws = st.one_of(
    st.lists(
        st.tuples(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)), min_size=1, max_size=3
    ).map(lambda atoms: JumpLaw2.point_mass([(a, 1.0 / len(atoms)) for a in atoms])),
    st.builds(
        JumpLaw2.independent,
        st.just(Marginal.points([(0.0, 1.0)])),
        st.builds(Marginal.exponential, st.floats(0.5, 4.0), st.sampled_from([-1, 1])),
    ),
)
# one dU != 0 atom at a small probability: blocks and tiles with and
# without U jumps (at 1e-4 a two-tile block can hold one of each)
_rare_u_jump_laws = st.builds(
    lambda du, dl, dl_rare, p: JumpLaw2.point_mass([((0.0, dl), 1.0 - p), ((du, dl_rare), p)]),
    st.floats(-0.9, 2.0).filter(lambda u: u != 0.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.sampled_from([1e-2, 1e-4]),
)


@given(
    law=st.one_of(_point_mass_laws, _exponential_laws, _u_continuous_laws, _rare_u_jump_laws),
    b_u=st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
    b_l=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    intensity=st.floats(0.5, 3.0),
    horizon=st.floats(0.5, 6.0),
    size=st.sampled_from([1, 255, 256, 257, 600]),
    dual=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_tiled_jump_lane_is_bitwise_untiled_random_laws(
    law, b_u, b_l, intensity, horizon, size, dual
):
    """Random laws, U-continuous ones (whose tiles take no running product
    of 1 + dU) and, where condition (B) holds, their dual models (whose
    dU = -0.0 for a dU = 0): the untiled reference, which keeps the
    running product, gives the same bits."""
    model = LevyModel2(drift=(b_u, b_l), jump_intensity=intensity, jump_law=law)
    if dual and model.condition_b:
        model = dual_model(model)
    _check_tiled_lane_bitwise(model, horizon, size, seed=22)


class _CallCounter:
    """numpy as ``gouflow.mc`` sees it, counting the calls of ``np.<name>``."""

    def __init__(self, name):
        self.name = name
        self.calls = 0

    def __getattr__(self, attr):
        if attr != self.name:
            return getattr(np, attr)

        def counted(*args, **kwargs):
            self.calls += 1
            return getattr(np, attr)(*args, **kwargs)

        return counted


@pytest.fixture
def cumprod_calls(monkeypatch):
    counter = _CallCounter("cumprod")
    monkeypatch.setattr(mc, "np", counter)
    return counter


@pytest.fixture
def exp_calls(monkeypatch):
    counter = _CallCounter("exp")
    monkeypatch.setattr(mc, "np", counter)
    return counter


def _tiles(model, horizon, seed, label, size=BLOCK_SIZE):
    """How many row tiles the jump lane cuts block 0 of ``label`` into."""
    kmax = draw_jumps(model, horizon, stream(seed, label, 0), size).kmax
    return -(-size // max(1, mc._CHUNK_ELEMENTS // (2 * kmax + 1)))


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("name", ["zero", "drift-ou", "cramer-paulsen", "degenerate-k"])
def test_jump_lane_takes_the_running_product_only_where_u_jumps(cumprod_calls, name, dual):
    """A block of a model whose U does not jump (``zero``, ``drift-ou``,
    ``cramer-paulsen`` and their duals) takes no ``np.cumprod``, in the
    lane and in the ruin scan; ``degenerate-k`` and its dual take one per
    tile."""
    preset = get_preset(name)
    model = dual_model(preset.model) if dual else preset.model
    horizon = preset.recommended.get("horizon", 20.0)
    mc.terminal_samples(model, horizon, BLOCK_SIZE, seed=5, label="lane")
    lane_calls = cumprod_calls.calls
    mc.ruin_samples(model, horizon, BLOCK_SIZE, seed=5, x_probes=[1.0], label="ruin")
    ruin_calls = cumprod_calls.calls - lane_calls
    if name == "degenerate-k":
        assert lane_calls == _tiles(model, horizon, 5, "lane") > 1
        assert ruin_calls == _tiles(model, horizon, 5, "ruin") > 1
    else:
        assert lane_calls == ruin_calls == 0


def test_tiled_jump_lane_mixes_tiles_with_and_without_u_jumps(cumprod_calls):
    """A dU != 0 atom at probability 1e-4 leaves some tiles of a block
    without a U jump: those skip the running product, the rest take it,
    and the block keeps the untiled reference's bits."""
    law = JumpLaw2.point_mass([((0.0, 0.5), 1.0 - 1e-4), ((0.5, -1.0), 1e-4)])
    model = LevyModel2(drift=(0.5, -0.3), jump_intensity=3.0, jump_law=law)
    mc._jump_block(model, 6.0, stream(22, "tiles", 0), BLOCK_SIZE)
    assert 0 < cumprod_calls.calls < _tiles(model, 6.0, 22, "tiles")
    _check_tiled_lane_bitwise(model, 6.0, BLOCK_SIZE, seed=22)


# Zero-L-drift tiles: with b_L = +-0.0 every gap increment is +-0.0 and the
# kernel builds none.  The general path (every tile building its gaps) and
# the untiled reference must give the same values, hits and refusal counts.


def _record_kernel(monkeypatch):
    """(gapless, slots) of every ``_jump_increments`` call, appended as
    made: whether it built no gap increments, and its tile's K."""
    kernel, seen = mc._jump_increments, []

    def recording(*args, **kwargs):
        parts = kernel(*args, **kwargs)
        inc = parts[4] or parts[5]
        seen.append((inc is not None and inc[0] is None, args[0].shape[1]))
        return parts

    monkeypatch.setattr(mc, "_jump_increments", recording)
    return seen


def _lane_and_scan(model, horizon, size, seed, checkpoints=None):
    """Block 0 of the jump lane for all keys and for e and c (whose tiles
    reduce C without I) and, under condition (B), the ruin scan's hit
    flags and V at first passage, or its refusal message."""
    lane = {
        keys: mc._jump_block(model, horizon, stream(seed, "tiles", 0), size, keys, checkpoints)
        for keys in (mc.KEYS, ("e", "c"))
    }
    if not model.condition_b:
        return lane, None
    try:
        res = mc.ruin_samples(model, horizon, size, seed, [0.25, 1.0, 3.0], label="tiles")
    except ConditionError as err:
        return lane, str(err)
    return lane, (res["hit"], res["v_tau"])


def _check_gapless_bitwise(model, horizon, size, seed, checkpoints=None):
    """The lane and the ruin scan give the general path's bits, hits and
    refusal counts; returns the kernel calls (``_record_kernel``) of the
    run that may skip the gaps."""
    with pytest.MonkeyPatch.context() as patch:
        seen = _record_kernel(patch)
        lane, scan = _lane_and_scan(model, horizon, size, seed, checkpoints)
        calls = list(seen)
        patch.setattr(mc, "_zero_gaps", lambda *args: False)
        ref_lane, ref_scan = _lane_and_scan(model, horizon, size, seed, checkpoints)
    assert not any(gapless for gapless, _ in seen[len(calls):])
    for keys, got in lane.items():
        for key in keys:
            _assert_bitwise(got[key], ref_lane[keys][key])
    if isinstance(ref_scan, tuple):
        assert np.array_equal(scan[0], ref_scan[0])
        _assert_bitwise(scan[1], ref_scan[1])
    else:
        assert scan == ref_scan
    if checkpoints is None:
        untiled = _untiled_jump_block(model, horizon, stream(seed, "tiles", 0), size)
        for key in mc.KEYS:
            _assert_bitwise(lane[mc.KEYS][key], untiled[key])
    return calls


# dL = +-0.0 atoms: every jump term of I and C is a zero
_zero_dl_laws = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.9, 2.0)),
        st.sampled_from([0.0, -0.0]),
    ),
    min_size=1,
    max_size=3,
).map(lambda atoms: JumpLaw2.point_mass([(a, 1.0 / len(atoms)) for a in atoms]))


@given(
    law=st.one_of(
        _point_mass_laws, _exponential_laws, _u_continuous_laws, _rare_u_jump_laws, _zero_dl_laws
    ),
    # 1e-300 and 1e-17: a t below float resolution, e^{+-a t} = 1.0
    b_u=st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17]), st.floats(-1.5, 1.5)),
    b_l=st.sampled_from([0.0, -0.0]),
    intensity=st.floats(0.5, 3.0),
    horizon=st.floats(0.5, 6.0),
    size=st.sampled_from([1, 255, 257, 600]),
    dual=st.booleans(),
)
@settings(max_examples=60, deadline=None)
# b_L = dL = -0.0: every I increment of a row without padded slots is -0.0
@example(JumpLaw2.point_mass([((0.5, -0.0), 1.0)]), 0.5, -0.0, 0.0, 2.0, 300, False)
@example(JumpLaw2.point_mass([((0.5, -0.0), 1.0)]), 0.5, -0.0, 1.0, 2.0, 300, False)
def test_zero_l_drift_lane_is_bitwise_general_random_laws(
    law, b_u, b_l, intensity, horizon, size, dual
):
    """Random laws with b_L = +0.0 or -0.0, their duals (b_K = +0.0
    either way), dL = +-0.0 atoms and |a| below float resolution: every
    tile with a jump slot skips the gaps, whatever the sign of b_L, and
    the lane and the ruin scan give the general path's and the untiled
    reference's values."""
    model = LevyModel2(drift=(b_u, b_l), jump_intensity=intensity, jump_law=law)
    if dual and model.condition_b:
        model = dual_model(model)
    seen = _check_gapless_bitwise(model, horizon, size, seed=22)
    assert all(gapless for gapless, slots in seen if slots)
    _check_tiled_lane_bitwise(model, horizon, size, seed=22)


@pytest.mark.parametrize("size", [1, 300])
@pytest.mark.parametrize("dl", [0.0, -0.0])
@pytest.mark.parametrize("b_u", [0.0, 1e-300, -1e-300, 0.5, -0.5])
def test_zero_l_drift_rows_filling_every_slot(b_u, dl, size):
    """dL = +-0.0 makes every jump term of I and C a zero, also in a row
    that fills every slot: its tile skips the gaps, and I_T and C_T are
    zeros, as on the general path."""
    law = JumpLaw2.point_mass([((0.0, dl), 1.0)])
    model = LevyModel2(drift=(b_u, 0.0), jump_intensity=3.0, jump_law=law)
    seen = _check_gapless_bitwise(model, 2.0, size, seed=21)
    assert any(gapless for gapless, _ in seen)
    lane = mc._jump_block(model, 2.0, stream(21, "tiles", 0), size)
    assert not lane["i"].any() and not lane["c"].any()


@pytest.mark.parametrize("keys", [mc.KEYS, ("e", "c")])
def test_zero_l_drift_row_of_negative_zero_c_terms(keys):
    """One jump with 1 + dU = -1 and dL = -0.0 gives the I term (-0.0 /
    -1) / E = +0.0 and the C term -0.0 * E = -0.0.  The one row fills its
    slot; the tile skips the gaps, and I_T and C_T are zeros."""
    law = JumpLaw2.point_mass([((-2.0, -0.0), 1.0)])
    model = LevyModel2(drift=(0.5, 0.0), jump_intensity=1.0, jump_law=law)
    assert draw_jumps(model, 2.0, stream(20, "tiles", 0), 1).counts.tolist() == [1]
    with pytest.MonkeyPatch.context() as patch:
        seen = _record_kernel(patch)
        lane = mc._jump_block(model, 2.0, stream(20, "tiles", 0), 1, keys)
    assert seen == [(True, 1)]
    for key in set(keys) - {"e"}:
        assert lane[key][0] == 0.0
    _check_gapless_bitwise(model, 2.0, 1, seed=20)


@pytest.mark.parametrize("intensity", [0.0, 1e-4])
def test_zero_l_drift_tiles_without_jump_slots(intensity):
    """A tile with K = 0 has no jump term to sum and keeps its gap (the
    scan's argmax needs a column): the lane and the scan give the general
    path's bits, and no kernel call skips the gaps."""
    law = JumpLaw2.point_mass([((0.3, -0.7), 1.0)]) if intensity else None
    model = LevyModel2(drift=(0.5, 0.0), jump_intensity=intensity, jump_law=law)
    assert draw_jumps(model, 2.0, stream(21, "tiles", 0), 300).kmax <= 1
    seen = _check_gapless_bitwise(model, 2.0, 300, seed=21)
    if intensity == 0.0:
        assert not any(gapless for gapless, _ in seen)


@pytest.mark.parametrize(
    "name, dual, checkpoints",
    [
        ("cramer-paulsen", False, (1e-3, 0.5, 2.5)),
        ("cramer-paulsen", True, (1e-3, 0.5, 2.5)),
        ("drift-ou", False, (1e-3, 1.0)),
        ("drift-ou", True, (1e-3, 1.0)),
        ("nonmonotone", False, (0.5, 4.0)),
    ],
)
def test_zero_l_drift_checkpoint_tiles_are_bitwise_general(name, dual, checkpoints):
    """Tiles cut at a checkpoint (K = 0 at t = 1e-3 for most) skip or
    keep their gaps each on its own, with the general path's bits."""
    model = get_preset(name).model
    model = dual_model(model) if dual else model
    seen = _check_gapless_bitwise(model, 5.0, 600, seed=21, checkpoints=checkpoints)
    assert any(gapless for gapless, _ in seen)


@pytest.mark.parametrize(
    "b_u, horizon, gapless",
    [
        (699.0, 1.0, True),
        (701.0, 1.0, False),
        (-699.0, 1.0, True),
        (-701.0, 1.0, False),
        (0.1, 6900.0, True),  # |a| T + ln T = 698.8
        (0.1, 6920.0, False),  # 700.8
        (0.1, 7095.0, False),  # e^{a T} is finite, its integral is not
        (-0.1, 7095.0, False),
    ],
)
def test_zero_l_drift_overflow_guard(b_u, horizon, gapless):
    """Tiles skip the gaps only below |a| T + ln T = 700: above it
    e^{+-a t} or a gap integral may overflow, and the general path's
    0 * inf = NaN gaps must stay NaN."""
    intensity = 3.0 if horizon == 1.0 else 1e-3
    law = JumpLaw2.point_mass([((0.0, 1.0), 0.5), ((0.0, -0.5), 0.5)])
    model = LevyModel2(drift=(b_u, 0.0), jump_intensity=intensity, jump_law=law)
    seen = _check_gapless_bitwise(model, horizon, 300, seed=21)
    assert {g for g, _ in seen} == {gapless}
    if horizon == 7095.0:
        lane = mc._jump_block(model, horizon, stream(21, "tiles", 0), 300)
        assert np.isnan(lane["c" if b_u > 0 else "i"]).any()
        assert np.isfinite(lane["e"]).all()


@pytest.mark.parametrize(
    "du, prob, key, kinds",
    [(-1.0 + 2.0**-53, 0.5, "i", {False}), (1.7e308, 1e-4, "c", {True, False})],
    ids=["p-underflows", "p-overflows"],
)
def test_zero_l_drift_keeps_gaps_where_p_leaves_the_finite_nonzero(du, prob, key, kinds):
    """Twenty-one factors 1 + dU = 2^-53 take p to 0 (a gap of I is then
    0/0 = NaN), and 1 + dU = 1.7e308 and then 1.25 take it to inf (a gap of
    C is 0 * inf = NaN): those tiles build their gaps and others skip them,
    all with the general path's bits."""
    law = JumpLaw2.point_mass([((0.25, -1.0), 1.0 - prob), ((du, 0.5), prob)])
    model = LevyModel2(drift=(0.3, 0.0), jump_intensity=12.0, jump_law=law)
    seen = _check_gapless_bitwise(model, 4.0, BLOCK_SIZE, seed=3)
    assert {gapless for gapless, _ in seen} == kinds
    lane = mc._jump_block(model, 4.0, stream(3, "tiles", 0), BLOCK_SIZE)
    assert np.isnan(lane[key]).any()


def test_zero_l_drift_scan_counts_non_finite_values_twice():
    """An E underflowing to 0 at T = 690 leaves infinite jump terms of I:
    each stands for two boundaries of the scan (after its jump and at the
    next gap's end), so the refusal names the general path's count."""
    law = JumpLaw2.point_mass([((-0.9, 1.0), 0.5), ((0.5, -1.0), 0.5)])
    model = LevyModel2(drift=(-1.0, 0.0), jump_intensity=0.1, jump_law=law)
    with pytest.MonkeyPatch.context() as patch:
        seen = _record_kernel(patch)
        with pytest.raises(ConditionError, match="20770 of 121800 ruin-scan"):
            mc.ruin_samples(model, 690.0, 300, 3, [0.5, 2.0])
    assert seen and all(gapless for gapless, _ in seen)
    _check_gapless_bitwise(model, 690.0, 300, seed=3)


@pytest.mark.parametrize(
    "name, gapless",
    [("cramer-paulsen", True), ("drift-ou", True), ("nonmonotone", True), ("degenerate-k", False)],
)
def test_zero_l_drift_tile_takes_one_exp_and_no_interleave(exp_calls, monkeypatch, name, gapless):
    """A tile of a b_L = 0 model takes one ``np.exp`` (e^{a t} of its
    boundary times) and lays out no interleaved array, in the lane and in
    the ruin scan; ``degenerate-k`` (b_L = -1) takes two and one."""
    preset = get_preset(name)
    model, horizon = preset.model, preset.recommended.get("horizon", 20.0)
    interleave, made = mc._interleave, []
    monkeypatch.setattr(mc, "_interleave", lambda *args: made.append(1) or interleave(*args))
    mc.terminal_samples(model, horizon, BLOCK_SIZE, seed=5, label="lane")
    tiles = _tiles(model, horizon, 5, "lane")
    assert exp_calls.calls == (1 if gapless else 2) * tiles
    assert len(made) == (0 if gapless else tiles)
    if model.condition_b:
        mc.ruin_samples(model, horizon, BLOCK_SIZE, seed=5, x_probes=[1.0], label="ruin")
        tiles += _tiles(model, horizon, 5, "ruin")
        assert exp_calls.calls == (1 if gapless else 2) * tiles
        assert len(made) == (0 if gapless else tiles)


@pytest.mark.parametrize(
    "name, dual, u_jumps",
    [
        ("drift-ou", False, False),
        ("drift-ou", True, False),
        ("cramer-paulsen", False, False),
        ("cramer-paulsen", True, False),
        ("degenerate-k", False, True),
        ("degenerate-k", True, True),
        ("nonmonotone", False, True),
    ],
)
def test_jump_lane_builds_no_du_tile_without_u_jumps(monkeypatch, name, dual, u_jumps):
    """A draw whose dU are all zero (a dual's -0.0 too) records it once,
    and the lane's and the scan's tiles build and gather no dU array;
    ``exact_paths`` and the grid lane keep their dU marks."""
    preset = get_preset(name)
    model, horizon = preset.model, preset.recommended.get("horizon", 20.0)
    model = dual_model(model) if dual else model
    assert draw_jumps(model, horizon, stream(5, "lane", 0), 64).u_jumps == u_jumps
    pad, made = JumpDraw.pad, []

    def recording(self, *args, **kwargs):
        tile = pad(self, *args, **kwargs)
        made.append(tile[1] is None)
        return tile

    monkeypatch.setattr(JumpDraw, "pad", recording)
    mc.terminal_samples(model, horizon, BLOCK_SIZE, seed=5, label="lane")
    if model.condition_b:
        mc.ruin_samples(model, horizon, BLOCK_SIZE, seed=5, x_probes=[1.0], label="ruin")
    assert made and set(made) == {not u_jumps}
    made.clear()
    exact_paths(model, 2.0, stream(5, "paths", 0), 8)
    mc._diffusion_block(model, 2.0, stream(5, "grid", 0), 8, 1e-2)
    assert made == [False, False]


def _per_path_reference(model, horizon, n, seed, grid_dt):
    """Independent route: sample, solve and reduce one event-list path at a
    time with the closed-form kernel (jumps at their exact times)."""
    rng = np.random.default_rng(seed)
    out = {k: np.empty(n) for k in ("e", "i", "c")}
    for j in range(n):
        path = sample_path(model, horizon, rng, grid_dt)
        traj = solve_forward(path, model, 0.0)
        out["e"][j] = traj.exponential.values[-1]
        out["i"][j] = traj.integral.values[-1]
        out["c"][j] = causal_integral(path, model).values[-1]
    return out


def test_terminal_samples_jump_vs_grid_lane_same_law(mixed_jump_model):
    """The closed-form jump lane and the grid lane (jumps applied at step
    ends) draw differently but must agree in distribution."""
    m = mixed_jump_model
    a = mc.terminal_samples(m, 1.5, 4000, seed=9, label="lane-a")
    # the grid lane, called directly on the same pure-jump model
    grid = lambda rng, size: mc._diffusion_block(m, 1.5, rng, size, 1e-3)
    b = mc.run_blocks(4000, grid, seed=10, label="lane-b")
    # E(U)_T is atomic for a pure-jump model with point-mass jumps: the
    # lanes reach its atoms by different float routes
    a["e"], b["e"] = np.round(a["e"], 9), np.round(b["e"], 9)
    for key in ("e", "i", "c"):
        ks = ks_two_sample(ecdf(a[key]), ecdf(b[key]))
        assert verdict("ks", key, ks.pvalue, (ks.pvalue,))["pass"], (key, ks.statistic)


def test_grid_lane_matches_per_path_reference_with_jumps():
    """Gaussian noise in both components, correlated, plus compound-Poisson
    jumps: the grid lane must agree in law with the per-path event route."""
    law = JumpLaw2.point_mass([((0.5, -0.5), 0.5), ((-0.3, 0.4), 0.5)])
    m = LevyModel2(
        drift=(-0.5, 0.3),
        gaussian_cov=((0.4, 0.15), (0.15, 0.3)),
        jump_intensity=2.0,
        jump_law=law,
    )
    a = mc.terminal_samples(m, 1.0, 2000, seed=14, grid_dt=1e-2)
    b = _per_path_reference(m, 1.0, 2000, seed=15, grid_dt=1e-2)
    for key in ("e", "i", "c"):
        ks = ks_two_sample(ecdf(a[key]), ecdf(b[key]))
        assert verdict("ks", key, ks.pvalue, (ks.pvalue,))["pass"], (key, ks.statistic)


# ---------------------------------------------------------------------------
# diffusion lane
# ---------------------------------------------------------------------------


def test_diffusion_lane_exponential_moments(dufresne_model):
    """E(U)_t is lognormal with E[E_t] = e^{b_u t}; the lane must hit both
    the mean of log E and E's median."""
    t = 1.0
    res = mc.terminal_samples(dufresne_model, t, 40_000, seed=11, grid_dt=1e-3)
    log_e = np.log(res["e"])
    mu = (dufresne_model.drift[0] - 0.5 * dufresne_model.sigma_u_sq) * t
    sd = math.sqrt(dufresne_model.sigma_u_sq * t)
    assert abs(log_e.mean() - mu) < 4 * sd / math.sqrt(40_000)
    assert abs(log_e.std() - sd) < 0.02


def test_diffusion_lane_unit_income_integral(dufresne_model):
    """c = int_0^t E_s ds for unit L drift; its mean has the closed form
    (e^{b_u t} - 1)/b_u."""
    t = 1.0
    res = mc.terminal_samples(dufresne_model, t, 40_000, seed=12, grid_dt=1e-3)
    b = dufresne_model.drift[0]
    exact_mean = math.expm1(b * t) / b
    assert abs(res["c"].mean() - exact_mean) < 4 * res["c"].std() / 200 + 2e-3


# The grid lane drawn serially: the block's jumps first (one
# ``draw_jumps`` call), then one normal draw per step on the calling
# thread; each row's jumps are applied one at a time, in time order, after
# the continuous update of the step that holds them.  The lane must
# reproduce it bit for bit.  ``watch(rows, i)``, when given, sees I after
# every step's continuous update and after every jump.


def _serial_diffusion_block(model, horizon, rng, size, grid_dt, watch=None):
    b_u, b_l = model.drift
    suu = model.sigma_u_sq
    drift_eta = b_l - model.sigma_ul
    nsteps = max(1, math.ceil(horizon / grid_dt))
    dt = horizon / nsteps
    chol = mc._cov_sqrt(model.gaussian_cov) * math.sqrt(dt)
    u_noise_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
    step_ends = dt * np.arange(1, nsteps + 1)
    step_ends[-1] = horizon
    times, jump_du, jump_dl, counts = padded_jumps(model, horizon, rng, size)
    jumps = {}  # step -> [(row, du, dl), ...]
    for row in range(size):
        for j in range(counts[row]):
            step = int(np.searchsorted(step_ends, times[row, j]))
            jumps.setdefault(step, []).append((row, jump_du[row, j], jump_dl[row, j]))
    e = np.ones(size)
    i = np.zeros(size)
    c = np.zeros(size)
    for step in range(nsteps):
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
        e = e_new
        if watch:
            watch(slice(None), i)
        for row, du, dl in jumps.get(step, ()):
            e_left = e[row]
            i[row] += dl / ((1.0 + du) * e_left)
            c[row] += e_left * dl
            e[row] = e_left * (1.0 + du)
            if watch:
                watch(row, i)
    return {"e": e, "i": i, "c": c}


_GRID_MODELS = {
    "dufresne": get_preset("dufresne").model,
    "correlated-gauss": LevyModel2(drift=(-1.0, 0.5), gaussian_cov=((1.0, 0.3), (0.3, 0.5))),
    "l-only": LevyModel2(drift=(-0.5, 0.2), gaussian_cov=((0.0, 0.0), (0.0, 0.7))),
    "jump-diffusion": LevyModel2(
        drift=(-1.0, 1.0),
        gaussian_cov=((0.5, 0.0), (0.0, 0.0)),
        jump_intensity=1.0,
        jump_law=JumpLaw2.point_mass([((0.5, 0.5), 0.5), ((-0.3, 0.2), 0.5)]),
    ),
}


def _chunk_steps(model, size):
    """Steps per chunk of normals drawn at once for this model and block size."""
    u_only = model.sigma_l_sq == 0.0 and model.sigma_ul == 0.0
    return max(1, mc._CHUNK_ELEMENTS // (size * (1 if u_only else 2)))


def _check_grid_lane_bitwise(model, nsteps, size, dt=1e-3, seed=31):
    lane = mc._diffusion_block(model, nsteps * dt, stream(seed, "grid", size), size, dt)
    ref = _serial_diffusion_block(model, nsteps * dt, stream(seed, "grid", size), size, dt)
    for key in ("e", "i", "c"):
        _assert_bitwise(lane[key], ref[key])
    return lane


@pytest.mark.parametrize("offset", ["one", -1, 0, 1])
@pytest.mark.parametrize("size", [1, 7, 4096])
@pytest.mark.parametrize("name", list(_GRID_MODELS))
def test_grid_lane_is_bitwise_serial(name, size, offset):
    """Normals drawn a chunk at a time, after the block's jumps, change no
    bit of the lane's samples: one step, and k - 1, k and k + 1 steps
    around the chunk length k."""
    model = _GRID_MODELS[name]
    nsteps = 1 if offset == "one" else _chunk_steps(model, size) + offset
    _check_grid_lane_bitwise(model, nsteps, size)


def _placed_draw(size, horizon, dt, steps):
    """A ``JumpDraw`` that takes nothing from the stream: every row jumps
    once in each step of ``steps``, at a quarter or three quarters of it,
    and row 0 jumps twice in the first of them."""
    times, du, dl, counts = [], [], [], []
    for r in range(size):
        own = [(s + (0.25 if (r + s) % 2 else 0.75)) * dt for s in steps]
        if r == 0:
            own.append((steps[0] + 0.5) * dt)
        times += own[::-1]  # draw order: not sorted
        du += [0.3 if (r + j) % 2 else -0.2 for j in range(len(own))]
        dl += [0.1 * (j + 1) * (-1) ** r for j in range(len(own))]
        counts.append(len(own))
    starts = np.concatenate([[0], np.cumsum(counts)])
    arrays = (np.array(v, dtype=float) for v in (times, du, dl))
    return JumpDraw(horizon, np.array(counts), starts, max(counts), *arrays)


@pytest.mark.parametrize("size", [1, 64])
@pytest.mark.parametrize("name", ["jump-diffusion", "correlated-gauss"])
def test_grid_lane_is_bitwise_serial_with_jumps_placed_in_chunks(monkeypatch, name, size):
    """Jumps in the first, a middle and the last step of a chunk of
    normals, none in the next chunk, jumps again in the first and last
    steps of the third and none in a short fourth (one chunk of 40 steps
    for one path): both noise branches give the serial lane's bits for
    every key subset."""
    model = _GRID_MODELS[name]
    dt, k = 1e-3, _chunk_steps(model, size)
    if size == 1:
        nsteps, steps = 40, [0, 20, 39]
    else:
        nsteps, steps = 3 * k + 5, [0, k // 2, k - 1, 2 * k, 3 * k - 1]
    horizon = nsteps * dt

    def placed(model, horizon, rng, size):
        return _placed_draw(size, horizon, dt, steps)

    monkeypatch.setattr(mc, "draw_jumps", placed)
    monkeypatch.setattr(conftest, "draw_jumps", placed)
    step_ends = dt * np.arange(1, nsteps + 1)
    times = placed(model, horizon, None, size).times
    assert np.unique(np.searchsorted(step_ends, times)).tolist() == steps
    ref = _serial_diffusion_block(model, horizon, stream(7, "placed"), size, dt)
    for keys in _KEY_SUBSETS:
        lane = mc._diffusion_block(model, horizon, stream(7, "placed"), size, dt, keys)
        _assert_subset_of_all(lane, ref, keys)


@pytest.mark.parametrize("name", list(_GRID_MODELS))
def test_grid_lane_takes_one_exp_per_chunk(exp_calls, name):
    """The step factors exp(b_U dt + Z_U - suu dt / 2) are taken once per
    chunk of normals, not once per step: three chunks and one step take
    four ``np.exp`` calls, with or without jumps."""
    model = _GRID_MODELS[name]
    size = 64
    mc._diffusion_block(model, (3 * _chunk_steps(model, size) + 1) * 1e-3, stream(1, "exp"),
                        size, 1e-3)
    assert exp_calls.calls == 4


def test_grid_lane_is_bitwise_serial_with_several_jumps_per_step():
    """On a coarse grid many rows have two or more jumps in one step; the
    lane applies them in time order, as the serial loop does."""
    model = replace(_GRID_MODELS["jump-diffusion"], jump_intensity=20.0)
    times, _, _, counts = padded_jumps(model, 1.0, stream(31, "grid", 64), 64)
    real = np.arange(times.shape[1]) < counts[:, None]
    steps = np.where(real, np.ceil(times / 0.25), -1.0)
    assert ((steps[:, 1:] == steps[:, :-1]) & real[:, 1:]).sum() > 64  # sharing a step
    _check_grid_lane_bitwise(model, 4, 64, dt=0.25)


def test_grid_lane_is_bitwise_serial_when_e_overflows():
    """E(U) overflows within the third chunk: the inf and NaN positions and
    every finite bit still match the serial lane."""
    model = LevyModel2(drift=(2000.0, 0.5), gaussian_cov=((1.0, 0.3), (0.3, 0.5)))
    nsteps = 2 * _chunk_steps(model, 4096) + 3
    with np.errstate(all="ignore"):
        out = _check_grid_lane_bitwise(model, nsteps, 4096, dt=0.05)
    assert np.isinf(out["e"]).all() and np.isnan(out["c"]).any()


def test_terminal_samples_two_blocks_worker_independent(dufresne_model):
    """Two blocks give the same bytes at workers 1 and 2, and the serial
    lane's."""
    n, horizon = 2 * BLOCK_SIZE, 0.05
    one = mc.terminal_samples(dufresne_model, horizon, n, seed=17, workers=1)
    two = mc.terminal_samples(dufresne_model, horizon, n, seed=17, workers=2)
    serial = mc.run_blocks(
        n, lambda rng, size: _serial_diffusion_block(dufresne_model, horizon, rng, size, 1e-3),
        seed=17, label="terminal",
    )
    for key in ("e", "i", "c"):
        assert one[key].tobytes() == two[key].tobytes() == serial[key].tobytes()


class _DrawError(Exception):
    pass


class _CountingStream:
    """A stream stand-in that records the thread of every normal draw and
    raises on fill ``fail_at`` (counted from 1)."""

    def __init__(self, seed, fail_at=None):
        self._rng = stream(seed, "counting")
        self.fail_at = fail_at
        self.error = _DrawError("draw failed")
        self.threads = []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        if len(self.threads) == self.fail_at:
            raise self.error
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_grid_lane_draws_on_the_calling_thread_for_every_model(monkeypatch):
    """Every model's normals are drawn chunk by chunk on the calling
    thread, and the block starts no pool; a model's jumps are drawn before
    them and take none."""

    def no_pool(max_workers):
        raise AssertionError("a grid-lane block started a thread pool")

    monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
    size = 64
    for name in ("dufresne", "jump-diffusion"):
        model = _GRID_MODELS[name]
        k = _chunk_steps(model, size)
        rng = _CountingStream(1)
        mc._diffusion_block(model, (2 * k + 1) * 1e-3, rng, size, 1e-3)
        assert rng.threads == [threading.get_ident()] * 3, name


def test_grid_lane_pure_jump_matches_jump_lane():
    """On a pure-jump model without drift the grid lane moves E, I and C
    only at the jumps, so from the same stream it must give the jump
    lane's E(U)_T bit for bit and I_T and C_T to rounding: the
    same jumps, from one ``draw_jumps`` call, in the same order."""
    model = LevyModel2(
        drift=(0.0, 0.0),
        jump_intensity=3.0,
        jump_law=JumpLaw2.point_mass([((0.5, 0.5), 0.5), ((-0.3, -0.2), 0.5)]),
    )
    grid = mc._diffusion_block(model, 2.0, stream(5, "same"), 512, 1e-2)
    exact = mc._jump_block(model, 2.0, stream(5, "same"), 512)
    _assert_bitwise(grid["e"], exact["e"])
    for key in ("i", "c"):
        np.testing.assert_allclose(grid[key], exact[key], rtol=0.0, atol=1e-12)
    assert np.abs(grid["i"]).max() > 1.0  # the jumps moved I


# L-subordinator models over every jump-law kind and marginal, built so
# that dU > -1 (condition (B)) and dL >= 0


def _points(lo, hi):
    vals = st.lists(st.floats(lo, hi), min_size=1, max_size=3)
    return vals.map(lambda vs: Marginal.points([(v, 1.0 / len(vs)) for v in vs]))


def _marginals(lo):
    """Every marginal kind with support in [lo, inf)."""
    return st.one_of(
        _points(lo, 2.0),
        st.builds(Marginal.exponential, st.floats(0.5, 4.0)),
        st.builds(lambda a, w: Marginal.uniform(a, a + w), st.floats(lo, 1.0), st.floats(0.1, 1.0)),
        st.builds(
            lambda mu, sd, gap: Marginal.truncated_normal(mu, sd, max(lo, mu - gap)),
            st.floats(lo, 1.0), st.floats(0.1, 1.0), st.floats(0.0, 1.0),
        ),
    )


_DU_LOW = -0.9
_subordinator_laws = st.one_of(
    st.lists(st.tuples(st.floats(_DU_LOW, 2.0), st.floats(0.0, 2.0)), min_size=1, max_size=3).map(
        lambda atoms: JumpLaw2.point_mass([(a, 1.0 / len(atoms)) for a in atoms])
    ),
    st.builds(JumpLaw2.independent, _marginals(_DU_LOW), _marginals(0.0)),
    # dL = c + s dU with s > 0 and c + s * (lowest dU) >= 0.01
    st.builds(
        lambda m, s, c: JumpLaw2.linked(m, c - s * m.support_bounds()[0], s),
        _marginals(_DU_LOW), st.floats(0.1, 2.0), st.floats(0.01, 1.0),
    ),
    # the pushforward of a law with dL <= 0: its dL' = -dL / (1 + dU) >= 0
    st.builds(
        lambda mu, rate: JumpLaw2.independent(mu, Marginal.exponential(rate, -1)).dual(),
        _marginals(_DU_LOW), st.floats(0.5, 4.0),
    ),
)
_subordinator_models = st.builds(
    lambda law, b_u, b_l, intensity, s2: LevyModel2(
        drift=(b_u, b_l),
        gaussian_cov=((s2, 0.0), (0.0, 0.0)),
        jump_intensity=intensity,
        jump_law=law,
    ),
    _subordinator_laws,
    st.floats(-1.5, 1.5),
    st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    st.floats(0.5, 3.0),
    st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
)


class _RunningMin:
    """Watches I on the serial grid lane: its running minimum (min(0, .)),
    and how many times some row's I rose."""

    def __init__(self, size):
        self.last = np.zeros(size)
        self.min = np.zeros(size)
        self.rises = 0

    def __call__(self, rows, i):
        self.rises += np.count_nonzero(i[rows] > self.last[rows])
        self.last[rows] = i[rows]
        self.min[rows] = np.minimum(self.min[rows], i[rows])


@given(model=_subordinator_models, horizon=st.floats(0.5, 3.0))
@settings(max_examples=30, deadline=None)
def test_subordinator_dual_i_is_nonincreasing(model, horizon):
    """Every increment of an L-subordinator model's dual I is <= 0: it never
    rises at a jump-lane boundary or at a step or jump of the serial grid
    lane, so ``ruin_probability``, which reads I_T only, counts the hits of
    the running minimum."""
    assert model.l_subordinator and model.has_jumps
    dual = dual_model(model)
    n, seed, grid_dt, ys = 256, 23, 1e-2, [0.05, 0.5, 2.0]
    watch = _RunningMin(n)
    _serial_diffusion_block(dual, horizon, stream(seed, "ruin", 0), n, grid_dt, watch)
    assert watch.rises == 0
    times, du, dl, _ = padded_jumps(dual, horizon, stream(seed, "ruin", 0), n)
    inc_i = mc._jump_increments(times, du, dl, *dual.drift, horizon)[4]
    i_bnd = np.cumsum(mc._interleave(*inc_i), axis=1)
    assert (np.diff(i_bnd, axis=1, prepend=0.0) <= 0.0).all()
    # the running minimum of the lane ruin_probability samples (same stream)
    i_min = watch.min if model.has_gaussian else np.minimum(i_bnd.min(axis=1), 0.0)
    rows, _ = ruin_probability(model, ys, horizon, n, seed, stationary_n=64, grid_dt=grid_dt)
    assert [row["lhs"] for row in rows] == [np.count_nonzero(y + i_min <= 0.0) / n for y in ys]


def test_grid_lane_draw_error_reaches_caller(dufresne_model):
    size = 64
    k = _chunk_steps(dufresne_model, size)
    rng = _CountingStream(1, fail_at=3)
    with pytest.raises(_DrawError) as info:
        mc._diffusion_block(dufresne_model, 3 * k * 1e-3, rng, size, 1e-3)
    assert info.value is rng.error


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("name", ["dufresne", "correlated-gauss", "jump-diffusion"])
def test_grid_lane_is_bitwise_serial_over_three_chunks(name, offset):
    """The chunk buffer is refilled for the second and third chunks:
    3k - 1, 3k and 3k + 1 steps give the serial lane's bits."""
    model = _GRID_MODELS[name]
    _check_grid_lane_bitwise(model, 3 * _chunk_steps(model, 64) + offset, 64)


@pytest.mark.parametrize("b_u, key", [(2000.0, "c"), (-2000.0, "i")])
def test_grid_lane_u_only_non_finite_samples_match_serial(b_u, key):
    """The U-only branch drops the Brownian terms Z_L / E and E Z_L, which
    are zero.  Where E overflows (or underflows, so that 1/E does), the
    serial loop's 0 * inf made C (or I) NaN; without the term it is inf.
    Every finite sample keeps its bits and the same samples are non-finite,
    which is all a consumer reads: each refuses on their count."""
    model = LevyModel2(drift=(b_u, 0.5), gaussian_cov=((1.0, 0.0), (0.0, 0.0)))
    with np.errstate(all="ignore"):
        lane = mc._diffusion_block(model, 1.0, stream(3, "grid"), 64, 0.01)
        ref = _serial_diffusion_block(model, 1.0, stream(3, "grid"), 64, 0.01)
    for k in ("e", "i", "c"):
        finite = np.isfinite(ref[k])
        assert np.array_equal(np.isfinite(lane[k]), finite), k
        _assert_bitwise(lane[k][finite], ref[k][finite])
    assert not np.isfinite(ref[key]).any()


# ---------------------------------------------------------------------------
# paired samples
# ---------------------------------------------------------------------------


def _assert_runs_at_once(model):
    """Two lane samples of ``model`` paired by ``mc.run_together`` run at
    once (the first waits for the second to start), come back in call
    order and give the bytes of running them in turn."""
    started = threading.Event()
    sample = lambda label: mc.terminal_samples(model, 1.0, 64, 5, 0.05, 1, label)

    def first():
        assert started.wait(10), "the second call did not run alongside the first"
        return sample("pairA")

    def second():
        started.set()
        return sample("pairB")

    got = mc.run_together(first, second)
    for res, label in zip(got, ("pairA", "pairB")):
        ref = sample(label)
        assert res.keys() == ref.keys()
        assert all(res[k].tobytes() == ref[k].tobytes() for k in ref)


def test_run_together_runs_grid_lane_calls_at_once(dufresne_model):
    """On a model with a Gaussian part the calls run at once."""
    assert dufresne_model.has_gaussian
    _assert_runs_at_once(dufresne_model)


def test_run_together_runs_jump_lane_calls_at_once(mixed_jump_model):
    """A pure-jump model's calls run at once too."""
    assert mixed_jump_model.has_jumps and not mixed_jump_model.has_gaussian
    _assert_runs_at_once(mixed_jump_model)


def test_run_together_raises_the_first_calls_exception():
    """When both calls raise, the exception is the first call's, as in
    turn, even when the second raised earlier; a failing second call
    alone is raised too."""
    second_done = threading.Event()

    def first():
        assert second_done.wait(10)
        raise ConditionError("first refused")

    def second():
        try:
            raise ConditionError("second refused")
        finally:
            second_done.set()

    with pytest.raises(ConditionError, match="first refused"):
        mc.run_together(first, second)
    with pytest.raises(ConditionError, match="second refused"):
        mc.run_together(lambda: 1, second)


def test_trivial_model_blocks_give_the_bytes_of_workers_1():
    """A model with neither jumps nor a Gaussian part gives the bytes of
    workers 1 from its jump lane and ruin scan at any ``workers``."""
    zero = get_preset("zero").model
    assert not (zero.has_jumps or zero.has_gaussian)
    n = 3 * BLOCK_SIZE + 5
    ref = mc.terminal_samples(zero, 2.0, n, seed=4, workers=1)
    ref_ruin = mc.ruin_samples(zero, 2.0, n, seed=4, x_probes=[0.5, 1.0], workers=1)
    got = mc.terminal_samples(zero, 2.0, n, seed=4, workers=2)
    assert all(ref[k].tobytes() == got[k].tobytes() for k in mc.KEYS)
    got = mc.ruin_samples(zero, 2.0, n, seed=4, x_probes=[0.5, 1.0], workers=4)
    assert all(ref_ruin[k].tobytes() == got[k].tobytes() for k in ("hit", "v_tau"))


# ---------------------------------------------------------------------------
# ruin lane
# ---------------------------------------------------------------------------


def test_ruin_samples_deterministic_drift_crossing():
    """Pure drift: V^x = e^{-t}(x - int_0^t e^s ds) crosses 0 exactly when
    x > started above and the deterministic integral exceeds x."""
    m = LevyModel2(drift=(-1.0, -1.0))
    # I_t = -int e^{s} ds = 1 - e^{t}; crossing iff x + 1 - e^T <= 0
    res = mc.ruin_samples(m, horizon=1.0, n=16, seed=3, x_probes=[0.5, math.e - 1 + 0.01])
    assert res["hit"][:, 0].all()  # x = 0.5 < e - 1
    assert not res["hit"][:, 1].any()  # just above the reachable range
    assert res["hit"].shape == res["v_tau"].shape == (16, 2)
    # the drift crosses 0 continuously before the first (and only) event
    # boundary, so V_tau = 0 rather than V at the horizon; no hit records 0
    assert (res["v_tau"][:, 0] == 0.0).all()
    assert (res["v_tau"][:, 1] == 0.0).all()


def _no_draw(monkeypatch):
    def drawn(*args, **kwargs):
        raise AssertionError("drew jumps before refusing")

    monkeypatch.setattr(mc, "draw_jumps", drawn)


@pytest.mark.parametrize(
    "xs", [[-0.3], [0.0], [1.0, 0.0], [float("nan")]], ids=["negative", "zero", "one-of-two", "nan"]
)
def test_ruin_samples_refuse_starts_at_or_below_barrier(monkeypatch, xs):
    """The scan serves starts x > 0 only; any other probe is a ValueError
    before anything is drawn."""
    _no_draw(monkeypatch)
    law = JumpLaw2.point_mass([((0.5, -0.5), 1.0)])
    m = LevyModel2(drift=(-1.0, -1.0), jump_intensity=1.0, jump_law=law)
    with pytest.raises(ValueError, match="x > 0"):
        mc.ruin_samples(m, 1.0, 8, seed=4, x_probes=xs)


def test_ruin_samples_continuous_crossing_sets_zero_overshoot():
    """L drifts up and jumps down by 1, so every crossing is a jump and
    records its overshoot: V_tau = V_- - 1 lies in (-1, 0]."""
    law = JumpLaw2.point_mass([((0.0, -1.0), 1.0)])
    m = LevyModel2(drift=(0.0, 0.5), jump_intensity=1.0, jump_law=law)
    res = mc.ruin_samples(m, 5.0, 2000, seed=5, x_probes=[0.25])
    hit, v_tau = res["hit"][:, 0], res["v_tau"][:, 0]
    assert 0 < hit.sum() < hit.size
    assert np.all((v_tau[hit] > -1.0) & (v_tau[hit] <= 0.0))
    # some crossings overshoot strictly (jump-driven)
    assert (v_tau[hit] < -0.01).any()
    assert (v_tau[~hit] == 0.0).all()


def test_ruin_samples_jump_onto_the_barrier_is_a_hit():
    """E = 1 and every jump takes I down by exactly 1: from x = 1 the first
    jump lands V on 0, which is ruin (V <= 0), with V_tau = 0."""
    law = JumpLaw2.point_mass([((0.0, -1.0), 1.0)])
    m = LevyModel2(drift=(0.0, 0.0), jump_intensity=1.0, jump_law=law)
    counts = draw_jumps(m, 2.0, stream(6, "ruin", 0), 500).counts
    res = mc.ruin_samples(m, 2.0, 500, seed=6, x_probes=[1.0, 2.0])
    assert np.array_equal(res["hit"][:, 0], counts >= 1)
    assert np.array_equal(res["hit"][:, 1], counts >= 2)
    hits = res["hit"].sum(axis=0)
    assert 0 < hits[1] < hits[0] < 500
    assert not res["v_tau"].any()


def test_ruin_samples_rejects_unsupported_models(dufresne_model):
    with pytest.raises(ConditionError, match="needs a model without a Gaussian part"):
        mc.ruin_samples(dufresne_model, 1.0, 10, 1, [1.0])


def test_ruin_samples_refuse_non_finite_boundary_values():
    """E = e^{-T} underflows to 0 at T = 800, so I = int E^{-1} d eta is
    inf and V = E (x + I) would be NaN: the scan refuses with the count of
    non-finite E/I boundary values instead of counting no hit."""
    m = LevyModel2(drift=(-1.0, -1.0))
    with pytest.raises(ConditionError, match="16 of 32 ruin-scan E/I boundary samples"):
        mc.ruin_samples(m, 800.0, 16, seed=3, x_probes=[0.5])


def _check_non_finite_e_count(law):
    """E = e^{800 t} overflows late in [0, 1], at gap ends and right after
    jumps alike, while I stays finite: the refusal counts the non-finite
    E and I boundary values of the untiled reference, padded slots
    included."""
    m = LevyModel2(drift=(800.0, 0.5), jump_intensity=3.0, jump_law=law)
    times, du, dl, _ = padded_jumps(m, 1.0, stream(3, "ruin", 0), 64)
    e_bnd, i_bnd, _ = _untiled_boundary_arrays(times, du, dl, 800.0, 0.5, 0.5, 1.0)
    assert np.isfinite(i_bnd).all() and not np.isfinite(e_bnd[:, 1::2]).all()
    bad = np.count_nonzero(~np.isfinite(e_bnd))
    with pytest.raises(ConditionError, match=f"{bad} of {2 * e_bnd.size} ruin-scan"):
        mc.ruin_samples(m, 1.0, 64, seed=3, x_probes=[0.5])


def test_ruin_samples_count_non_finite_e_at_jumps():
    _check_non_finite_e_count(JumpLaw2.point_mass([((0.5, -1.0), 1.0)]))


def test_ruin_samples_count_non_finite_e_at_jumps_without_u_jumps(cumprod_calls):
    """With dU = 0 atoms the scan takes no running product (E after a jump
    is E before it) and still names the untiled reference's count."""
    _check_non_finite_e_count(JumpLaw2.point_mass([((0.0, -1.0), 0.5), ((0.0, 0.5), 0.5)]))
    assert cumprod_calls.calls == 0


def test_ruin_samples_count_non_finite_e_after_large_u_jumps():
    """A jump of 1 + dU = 1e6 takes a finite E before it past the float
    range after it: the refusal counts E after each jump itself, not E
    before it."""
    _check_non_finite_e_count(JumpLaw2.point_mass([((999_999.0, -1.0), 1.0)]))


@pytest.mark.parametrize("name", ["sign-flip", "nonmonotone"])
def test_ruin_samples_refuse_without_condition_b(monkeypatch, sign_flip_model, name):
    """Without condition (B) E(U) changes sign at jumps below -1, and
    V <= 0 is no longer I <= -x: the scan refuses before drawing."""
    m = sign_flip_model if name == "sign-flip" else get_preset("nonmonotone").model
    assert not m.condition_b
    _no_draw(monkeypatch)
    with pytest.raises(ConditionError, match="condition \\(B\\)"):
        mc.ruin_samples(m, 2.0, 1000, seed=8, x_probes=[0.25, 1.0, 3.0])


@pytest.mark.parametrize("name", ["mixed", "drift-ou", "cramer-paulsen"])
def test_ruin_samples_match_per_path_solver(mixed_jump_model, name):
    """Condition (B) models with dL of both signs: the scan's hit count
    (I reaching -x) equals the rows of the same block's ``exact_paths``
    whose solved V reaches <= 0."""
    m = mixed_jump_model if name == "mixed" else get_preset(name).model
    lo, hi = m.jump_law._support()[1]
    assert m.condition_b and lo < 0.0 < hi
    n, horizon, xs = 1000, 2.0, [0.25, 0.5, 1.0]
    res = mc.ruin_samples(m, horizon, n, seed=8, x_probes=xs)
    batch = exact_paths(m, horizon, stream(8, "ruin", 0), n)
    for j, x in enumerate(xs):
        v = solve_forward(batch, m, x).values.values
        hits = int(np.count_nonzero((v <= 0.0).any(axis=1)))
        assert np.count_nonzero(res["hit"][:, j]) == hits, (x, hits)
        assert 0 < hits < n


def test_exp_functional_samples_signs(subordinator_model):
    vals, diags = mc.exp_functional_samples(
        subordinator_model, "causal", 2000, 30.0, seed=6
    )
    assert np.all(vals >= 0.0)  # subordinator input, positive exponential
    assert np.all(diags >= 0.0)
    with pytest.raises(ValueError):
        mc.exp_functional_samples(subordinator_model, "nope", 10, 1.0, 1)


# ---------------------------------------------------------------------------
# terminal keys
# ---------------------------------------------------------------------------

_KEY_SUBSETS = [
    keys for r in range(1, len(mc.KEYS) + 1) for keys in itertools.combinations(mc.KEYS, r)
]


def _assert_subset_of_all(sub, full, keys):
    assert tuple(sub) == keys
    for k in keys:
        _assert_bitwise(sub[k], full[k])


@pytest.mark.parametrize("size", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("name", ["zero", "drift-ou", "cramer-paulsen"])
def test_jump_lane_key_subsets_are_bitwise_all_keys(name, size):
    """Every key subset returns exactly those keys, each bitwise equal to
    the all-keys run, on either side of a tile boundary (``zero`` has
    b_U = 0, the others exp(-b_U t) for I)."""
    preset = get_preset(name)
    horizon = preset.recommended.get("horizon", 20.0)
    full = mc.terminal_samples(preset.model, horizon, size, seed=21)
    assert tuple(full) == mc.KEYS
    for keys in _KEY_SUBSETS:
        sub = mc.terminal_samples(preset.model, horizon, size, seed=21, keys=keys)
        _assert_subset_of_all(sub, full, keys)


@pytest.mark.parametrize("name", ["dufresne", "correlated-gauss", "jump-diffusion", "overflow"])
def test_grid_lane_key_subsets_are_bitwise_all_keys(name):
    """The U-only, Cholesky and jump-diffusion branches, and a Cholesky
    model whose E overflows: every key subset gives the all-keys bits
    over three chunks of normals."""
    if name == "overflow":
        model, dt = LevyModel2(drift=(2000.0, 0.5), gaussian_cov=((1.0, 0.3), (0.3, 0.5))), 0.05
    else:
        model, dt = _GRID_MODELS[name], 1e-3
    size = 64
    horizon = (3 * _chunk_steps(model, size) + 1) * dt
    with np.errstate(all="ignore"):
        full = mc._diffusion_block(model, horizon, stream(31, "keys"), size, dt)
        assert tuple(full) == mc.KEYS
        for keys in _KEY_SUBSETS:
            sub = mc._diffusion_block(model, horizon, stream(31, "keys"), size, dt, keys)
            _assert_subset_of_all(sub, full, keys)


@pytest.mark.parametrize("keys", [("i",), ("c",), ("e", "c")])
@pytest.mark.parametrize("name, horizon", [("cramer-paulsen", 2.0), ("dufresne", 0.05)])
def test_key_subsets_are_worker_independent(name, horizon, keys):
    """A key subset gives the same bytes over two blocks at workers 1 and
    2, and the all-keys run's bytes."""
    model, n = get_preset(name).model, 2 * BLOCK_SIZE
    one = mc.terminal_samples(model, horizon, n, seed=17, workers=1, keys=keys)
    two = mc.terminal_samples(model, horizon, n, seed=17, workers=2, keys=keys)
    full = mc.terminal_samples(model, horizon, n, seed=17, workers=1)
    assert tuple(one) == tuple(two) == keys
    for k in keys:
        assert one[k].tobytes() == two[k].tobytes() == full[k].tobytes()


@pytest.mark.parametrize("keys", [(), [], ("e", "x"), ("C",), "ei", ("e", "i", "c", "v")])
@pytest.mark.parametrize("name", ["cramer-paulsen", "dufresne"])
def test_terminal_samples_refuses_unknown_or_empty_keys(monkeypatch, name, keys):
    _no_draw(monkeypatch)
    with pytest.raises(ValueError, match="keys must be a non-empty subset"):
        mc.terminal_samples(get_preset(name).model, 1.0, 8, seed=1, keys=keys)


_BAD_HORIZONS = [0.0, -1.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("horizon", _BAD_HORIZONS)
@pytest.mark.parametrize("name", ["cramer-paulsen", "dufresne"])
def test_terminal_samples_refuses_bad_horizon_before_drawing(monkeypatch, name, horizon):
    """NaN and inf horizons used to reach numpy's Poisson draw or the grid's
    step count; every horizon that is not positive and finite is refused
    before anything is drawn."""
    _no_draw(monkeypatch)
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        mc.terminal_samples(get_preset(name).model, horizon, 8, seed=1)


@pytest.mark.parametrize("horizon", _BAD_HORIZONS)
def test_ruin_samples_refuses_bad_horizon_before_drawing(monkeypatch, horizon):
    """A zero horizon used to give no hit without a word, and a negative
    or NaN one numpy's Poisson error."""
    _no_draw(monkeypatch)
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        mc.ruin_samples(get_preset("cramer-paulsen").model, horizon, 8, 1, [0.5])


def test_ruin_scan_builds_i_increments_only(monkeypatch):
    """The ruin scan's tiles build I's increments and no C increments, and
    its hits match the all-keys kernel's."""
    model, horizon, xs = get_preset("cramer-paulsen").model, 5.0, [0.5, 1.0]
    kernel = mc._jump_increments
    seen = []

    def recording(*args):
        parts = kernel(*args)
        seen.append((args[-1], parts[4] is not None, parts[5] is not None))
        return parts

    monkeypatch.setattr(mc, "_jump_increments", recording)
    res = mc.ruin_samples(model, horizon, 600, seed=4, x_probes=xs)
    assert seen and set(seen) == {(("i",), True, False)}
    monkeypatch.setattr(mc, "_jump_increments", lambda *a: kernel(*a[:-1]))
    full = mc.ruin_samples(model, horizon, 600, seed=4, x_probes=xs)
    assert np.array_equal(res["hit"], full["hit"])
    _assert_bitwise(res["v_tau"], full["v_tau"])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# sha256 (first 16 hex digits) of e, i and c of 300 paths at seed 7, from
# the lanes as they were before checkpoints existed
_SINGLE_TIME_DIGESTS = {
    "cramer-paulsen": (5.0, 1e-3, "c5613a9c0bef2a5d"),
    "degenerate-k": (5.0, 1e-3, "6fbf3b77ab964d60"),
    "dufresne": (0.5, 1e-3, "6a470fc31a0005b6"),
    "correlated-gauss": (0.5, 1e-2, "49f125f112221a34"),
    "jump-diffusion": (1.0, 1e-2, "d0958f717209c618"),
}


def _model(name):
    return _GRID_MODELS[name] if name in _GRID_MODELS else get_preset(name).model


@pytest.mark.parametrize("name", list(_SINGLE_TIME_DIGESTS))
def test_single_time_call_is_bitwise_unchanged(name):
    """A call without checkpoints gives the bytes the lanes gave before
    checkpoints existed, in both lanes and all three grid branches."""
    horizon, dt, digest = _SINGLE_TIME_DIGESTS[name]
    res = mc.terminal_samples(_model(name), horizon, 300, 7, dt)
    got = hashlib.sha256(b"".join(res[k].tobytes() for k in mc.KEYS)).hexdigest()[:16]
    assert got == digest


def _assert_columns(multi, single, col, keys=mc.KEYS):
    for k in keys:
        _assert_bitwise(multi[k][:, col], single[k])


@pytest.mark.parametrize(
    "name, horizon, checkpoints, dt",
    [
        ("cramer-paulsen", 5.0, (0.5, 1.0, 2.5), 1e-3),
        ("degenerate-k", 5.0, (1.0, 4.0), 1e-3),
        ("dufresne", 2.0, (0.5, 1.0), 1e-3),
        ("jump-diffusion", 2.0, (0.5, 1.0), 1e-2),
    ],
)
def test_last_checkpoint_is_bitwise_a_single_time_call(name, horizon, checkpoints, dt):
    """The horizon's column of a call with checkpoints is the call without
    them, bit for bit, on pure-jump presets (with and without U jumps) and
    on the grid lane where every interval keeps the step of a run to the
    horizon (the default grid and t_grid); every key is (n, m + 1)."""
    model = _model(name)
    n = 64 if model.has_gaussian else 300
    multi = mc.terminal_samples(model, horizon, n, 3, dt, checkpoints=checkpoints)
    single = mc.terminal_samples(model, horizon, n, 3, dt)
    assert all(v.shape == (n, len(checkpoints) + 1) for v in multi.values())
    _assert_columns(multi, single, -1)


@pytest.mark.parametrize("name", ["dufresne", "correlated-gauss", "l-only"])
@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_grid_checkpoint_is_bitwise_a_run_to_it(name, dt):
    """Without jumps a checkpoint is a run to its time, bit for bit: on a
    grid that divides every interval the steps have the same dt and the
    normals come in the same order, across chunks of normals."""
    model = _GRID_MODELS[name]
    multi = mc.terminal_samples(model, 1.5, 40, 5, dt, checkpoints=(0.5, 1.0))
    for col, t in enumerate((0.5, 1.0, 1.5)):
        _assert_columns(multi, mc.terminal_samples(model, t, 40, 5, dt), col)


def test_grid_checkpoint_key_subsets_are_bitwise_all_keys():
    """A checkpoint keeps the all-keys bits for every key subset."""
    model = _GRID_MODELS["jump-diffusion"]
    full = mc.terminal_samples(model, 1.0, 64, 2, 1e-2, checkpoints=(0.25, 0.5))
    for keys in _KEY_SUBSETS:
        sub = mc.terminal_samples(model, 1.0, 64, 2, 1e-2, keys=keys, checkpoints=(0.25, 0.5))
        _assert_subset_of_all(sub, full, keys)


def _cut_paths(batch, model, t):
    """The rows of an ``exact_paths`` batch on [0, t]: boundaries after t
    move to t, the segment across t keeps its drift up to t, and every
    event after it is a null segment."""
    b_u, b_l = model.drift
    times = np.minimum(batch.t, t)
    dt = times[:, 1:] - times[:, :-1]
    after = batch.t[:, 1:] > t
    du = np.where(after, np.where(batch.is_jump, 0.0, b_u * dt), batch.du)
    dl = np.where(after, np.where(batch.is_jump, 0.0, b_l * dt), batch.dl)
    return replace(batch, horizon=t, t=times, du=du, dl=dl, is_jump=batch.is_jump & ~after)


@pytest.mark.parametrize("name", ["mixed", "cramer-paulsen", "degenerate-k", "nonmonotone"])
def test_jump_checkpoints_match_per_path_solver(mixed_jump_model, name):
    """Each checkpoint of the jump lane is the per-path solver's E, I and
    C on the same block's ``exact_paths`` rows cut at that time."""
    model = mixed_jump_model if name == "mixed" else get_preset(name).model
    horizon, checkpoints, n = 3.0, (0.4, 1.0, 2.2), 500
    res = mc.terminal_samples(model, horizon, n, 8, label="cut", checkpoints=checkpoints)
    batch = exact_paths(model, horizon, stream(8, "cut", 0), n)
    for col, t in enumerate((*checkpoints, horizon)):
        path = _cut_paths(batch, model, t)
        traj = solve_forward(path, model, 0.0)
        ref = {
            "e": traj.exponential.values[:, -1],
            "i": traj.integral.values[:, -1],
            "c": causal_integral(path, model).values[:, -1],
        }
        for k in mc.KEYS:
            np.testing.assert_allclose(res[k][:, col], ref[k], rtol=1e-12, atol=1e-12)
    # the paths moved between the first checkpoint and the horizon
    assert np.count_nonzero(res["e"][:, 0] != res["e"][:, -1]) > n // 2


def test_grid_checkpoint_agrees_in_law_with_a_direct_run():
    """On the benchmark's jump-diffusion model a checkpoint at t = 1 of a
    run to 2 (its jumps drawn on [0, 2]) agrees in law with a run to 1."""
    model = _GRID_MODELS["jump-diffusion"]
    multi = mc.terminal_samples(model, 2.0, 4000, 11, 1e-2, label="cp", checkpoints=(1.0,))
    direct = mc.terminal_samples(model, 1.0, 4000, 12, 1e-2, label="direct")
    for k in mc.KEYS:
        ks = ks_two_sample(ecdf(multi[k][:, 0]), ecdf(direct[k]))
        assert ks.pvalue > 1e-3, (k, ks.statistic)


def test_checkpoints_are_worker_independent():
    model = get_preset("dufresne").model
    one = mc.terminal_samples(model, 0.1, 2 * BLOCK_SIZE, 4, 1e-2, checkpoints=(0.05,))
    two = mc.terminal_samples(model, 0.1, 2 * BLOCK_SIZE, 4, 1e-2, 2, checkpoints=(0.05,))
    assert all(one[k].tobytes() == two[k].tobytes() for k in mc.KEYS)


@pytest.mark.parametrize(
    "checkpoints, match",
    [
        ((), "non-empty tuple"),
        ([0.5], "non-empty tuple"),
        ((0.0,), "positive and finite"),
        ((-0.5, 0.5), "positive and finite"),
        ((0.5, math.nan), "positive and finite"),
        ((0.5, math.inf), "positive and finite"),
        ((1.0, 0.5), "increase strictly"),
        ((0.5, 0.5), "increase strictly"),
        ((0.5, 2.0), "increase strictly"),
        ((2.0,), "increase strictly"),
    ],
)
@pytest.mark.parametrize("name", ["cramer-paulsen", "dufresne"])
def test_terminal_samples_refuses_bad_checkpoints_before_drawing(
    monkeypatch, name, checkpoints, match
):
    """Empty, non-positive, non-finite, unsorted or repeated checkpoints,
    or one at or past the horizon, are refused before anything is drawn."""
    _no_draw(monkeypatch)
    with pytest.raises(ValueError, match=match):
        mc.terminal_samples(get_preset(name).model, 2.0, 8, 1, checkpoints=checkpoints)


# the keys each caller of the lanes reads, by the label of its samples
_EI = ("e", "i")
_CALLER_KEYS = {
    "dual-V": _EI,
    "dual-R": _EI,
    "monotone": _EI,
    "statA": _EI,
    "statB": ("c",),
    "ruin": ("i",),
    "causal": ("e", "c"),
    "noncausal": _EI,
}


def test_every_suite_asks_only_for_the_keys_it_reads(monkeypatch):
    """Every suite on two jump-lane presets and on ``dufresne`` (grid lane,
    subordinator ruin mode): each lane call asks for exactly the keys its
    caller reads, so a caller that falls back to all keys fails here.
    ``drift-ou`` refuses the ruin suite, as documented."""
    lane, functional = mc.terminal_samples, mc.exp_functional_samples
    # the kind of the exponential functional a thread is sampling, if any
    local, calls = threading.local(), []

    def bound(fn, args, kwargs):
        b = inspect.signature(fn).bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    def terminal_samples(*args, **kwargs):
        a = bound(lane, args, kwargs)
        caller = getattr(local, "kind", None) or a["label"].split("@")[0]
        calls.append((caller, tuple(a["keys"])))
        return lane(*args, **kwargs)

    def exp_functional_samples(*args, **kwargs):
        local.kind = bound(functional, args, kwargs)["kind"]
        try:
            return functional(*args, **kwargs)
        finally:
            local.kind = None

    monkeypatch.setattr(mc, "terminal_samples", terminal_samples)
    monkeypatch.setattr(mc, "exp_functional_samples", exp_functional_samples)
    # the jump-lane presets at their recommended long horizon, which the
    # first-passage ruin mode needs to resolve I's limit
    for name, long_horizon in (("drift-ou", None), ("cramer-paulsen", None), ("dufresne", 2.0)):
        cfg = ExperimentConfig(
            seed=3, preset=name, n_paths=256, horizon=1.0, grid_dt=0.01, t_grid=(0.5, 1.0),
            stationary_horizon=long_horizon, stationary_n=256,
        )
        for run in suites.SUITE_RUNNERS.values():
            with contextlib.suppress(ConditionError):
                run(cfg)
    assert calls == [(caller, _CALLER_KEYS[caller]) for caller, _ in calls]
    assert {caller for caller, _ in calls} == set(_CALLER_KEYS)


# ---------------------------------------------------------------------------
# the stationary suite: one side of the lemma from the stationary sample
# ---------------------------------------------------------------------------


def _stationary_cfg(preset, t, long_horizon, n=300, dt=0.01):
    return ExperimentConfig(
        seed=4, preset=preset, suite="stationary", n_paths=n, horizon=t, grid_dt=dt,
        stationary_horizon=long_horizon,
    )


@pytest.mark.parametrize(
    "preset, t, long_horizon",
    [
        ("drift-ou", 2.0, 6.0),
        ("cramer-paulsen", 2.0, 6.0),
        ("dufresne", 1.0, 2.0),
        ("drift-ou", 3.0, 3.0),
        ("dufresne", 1.5, 1.5),
        ("cramer-paulsen", 5.0, 3.0),
        ("dufresne", 2.0, 1.0),
    ],
)
def test_stationary_suite_reads_one_lemma_side_off_the_stationary_sample(
    monkeypatch, preset, t, long_horizon
):
    """The stationary sample's draw runs to max(t, T) with the smaller time
    as its checkpoint (none at t = T), and its column at t is the lemma's
    causal side C_t (causal kind) or solution side E_t I_t (noncausal
    kind), bit for bit; the other side is the short sample at t.  The
    stationary sample is the column at T.  Three samples are drawn, two
    where no dual is compared."""
    cfg = _stationary_cfg(preset, t, long_horizon)
    model, kind = cfg.resolved_model(), get_preset(preset).recommended["stationary_kind"]
    lane, seen, labels = mc.terminal_samples, {}, []

    def recording(values, what, horizon):
        seen[what] = values.copy()
        return values

    def terminal_samples(*args, **kwargs):
        labels.append(inspect.signature(lane).bind(*args, **kwargs).arguments["label"])
        return lane(*args, **kwargs)

    monkeypatch.setattr(suites, "finite_samples", recording)
    monkeypatch.setattr(mc, "terminal_samples", terminal_samples)
    result = suites.stationary_suite(cfg)
    monkeypatch.undo()

    n, dt, seed = cfg.n_paths, cfg.grid_dt, cfg.seed
    keys = ("e", "c") if kind == "causal" else ("e", "i")
    checkpoints = None if t == long_horizon else (min(t, long_horizon),)
    drawn = mc.terminal_samples(
        model, max(t, long_horizon), n, seed, dt, 1, "stationary", keys, checkpoints
    )
    at_t = at_long = drawn
    if checkpoints:
        first, last = ({k: v[:, j] for k, v in drawn.items()} for j in (0, -1))
        at_t, at_long = (first, last) if t < long_horizon else (last, first)
    if kind == "causal":
        short = mc.terminal_samples(model, t, n, seed, dt, 1, "statA", ("e", "i"))
        _assert_bitwise(seen["causal-integral"], at_t["c"])
        _assert_bitwise(seen["solution"], short["e"] * short["i"])
        _assert_bitwise(result.sample.values, np.sort(at_long["c"]))
        assert sorted(labels) == ["statA", "stationary", "stationary-dual"]
    else:
        short = mc.terminal_samples(model, t, n, seed, dt, 1, "statB", ("c",))
        _assert_bitwise(seen["solution"], at_t["e"] * at_t["i"])
        _assert_bitwise(seen["causal-integral"], short["c"])
        _assert_bitwise(result.sample.values, np.sort(-at_long["i"]))
        assert sorted(labels) == ["statB", "stationary"]
    assert result.sample.metadata["horizon"] == long_horizon


# sha256 (first 16 hex digits) of the stationary sample's values, its
# exported CSV and sidecar, every stationary.csv row but the lemma's
# (causal-vs-dual-noncausal, inverse-gamma-oracle) as a dict of its CSV
# columns and the metrics, at seed 5, from the suite as it was when it drew
# the lemma's two sides on their own; t = T draws no checkpoint, so it
# gives the same bytes
_STATIONARY_DIGESTS = {
    "drift-ou": ({"preset": "drift-ou", "n_paths": 600}, "90884db7186af0cb"),
    "drift-ou t=T": (
        {"preset": "drift-ou", "n_paths": 600, "horizon": 30.0}, "90884db7186af0cb"
    ),
    "cramer-paulsen": ({"preset": "cramer-paulsen", "n_paths": 600}, "567e15a7120b0fc9"),
    "dufresne": (
        {"preset": "dufresne", "n_paths": 256, "stationary_horizon": 3.0}, "dd30452c4d3c86c1"
    ),
}


@pytest.mark.parametrize("name", list(_STATIONARY_DIGESTS))
def test_stationary_suite_keeps_the_stationary_sample_and_its_rows(tmp_path, name):
    """Only the lemma row reads new paths: the stationary sample, its
    export, the dual and oracle rows and the metrics keep their bytes."""
    kwargs, digest = _STATIONARY_DIGESTS[name]
    result = suites.stationary_suite(ExperimentConfig(seed=5, suite="stationary", **kwargs))
    result.sample.export(str(tmp_path / "s.csv"), str(tmp_path / "s.json"))
    table = result.columns
    rows = [dict(zip(table, cells)) for cells in zip(*table.values())]
    rows = [r for r in rows if r["check"] != "solution-vs-causal-integral"]
    h = hashlib.sha256(result.sample.values.tobytes())
    for f in ("s.csv", "s.json"):
        h.update((tmp_path / f).read_bytes())
    h.update(repr([sorted(r.items()) for r in rows]).encode())
    h.update(repr(sorted(result.metrics.items())).encode())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("preset", ["drift-ou", "cramer-paulsen"])
def test_stationary_suite_refuses_the_lemma_before_the_stationary_sample(monkeypatch, preset):
    """Every C and the stationary sample's horizon column are NaN (the dual's
    and the lemma's solution side stay finite): the refusal names the
    causal-integral samples at t, as when the lemma was drawn first,
    though the stationary sample, checked after it, is not finite either."""
    lane = mc.terminal_samples

    def poisoned(*args, **kwargs):
        res = lane(*args, **kwargs)
        for k, v in res.items():
            if k == "c":
                v[:] = np.nan
            elif v.ndim == 2:
                v[:, -1] = np.nan
        return res

    monkeypatch.setattr(mc, "terminal_samples", poisoned)
    cfg = _stationary_cfg(preset, 2.0, 6.0, n=64)
    with pytest.raises(ConditionError, match=r"^64 of 64 causal-integral samples .* horizon 2;"):
        suites.stationary_suite(cfg)
