import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouflow.calculus import AlignedSeries, stochastic_exponential
from gouflow.levy import ConditionError, JumpLaw2, LevyModel2, Marginal
from gouflow.paths import (
    Jump,
    Path,
    Segment,
    _cov_sqrt,
    draw_jumps,
    eta_path,
    euler_paths,
    exact_paths,
    reverse_path,
    sample_path,
    t_path,
    w_path,
    xi_path,
)

from conftest import make_stream, padded_jumps
from oracles import path_from_events, path_jumps, path_values, validate_path


def _increments(path):
    return [
        (type(ev).__name__, round(getattr(ev, "dt", getattr(ev, "time", 0.0)), 12),
         ev.du, ev.dl)
        for ev in path.events
    ]


def test_sample_path_validates_and_sums(mixed_jump_model):
    path = sample_path(mixed_jump_model, 3.0, make_stream("p", 0))
    validate_path(path)
    times, u, l = path_values(path)
    du_total = sum(ev.du for ev in path.events)
    dl_total = sum(ev.dl for ev in path.events)
    assert u[-1] == pytest.approx(du_total, abs=1e-12)
    assert l[-1] == pytest.approx(dl_total, abs=1e-12)
    assert times[-1] == pytest.approx(3.0, abs=1e-12)


def test_sample_path_backend_selection(mixed_jump_model, dufresne_model):
    assert sample_path(mixed_jump_model, 1.0, make_stream("b", 0)).backend == "exact"
    assert sample_path(dufresne_model, 1.0, make_stream("b", 1)).backend == "euler"


def value_at(path, t, left=False):
    """(U, L) value at event-boundary time t (left limit if requested)."""
    times, u, l = path_values(path)
    return AlignedSeries(times, u).at(t, left=left), AlignedSeries(times, l).at(t, left=left)


def test_sample_paths_batched_matches_count(mixed_jump_model):
    paths = [sample_path(mixed_jump_model, 2.0, make_stream("batch", i)) for i in range(7)]
    assert len(paths) == 7
    for p in paths:
        validate_path(p)


def test_exact_paths_rows_are_padded_paths(mixed_jump_model):
    """Row i is gap, jump, ..., gap followed by null segments at the
    horizon; without them it is a valid path with the model's drift."""
    m = mixed_jump_model
    batch = exact_paths(m, 2.0, make_stream("exact-batch"), 50)
    assert batch.du.shape == (50, batch.t.shape[1] - 1)
    assert not batch.is_jump[:, 0::2].any()
    for i in range(50):
        real = batch.is_jump[i] | (batch.dt[i] > 0.0)
        k = int(real.sum())
        assert real[:k].all() and not real[k:].any()  # padding only at the end
        assert np.all(batch.t[i, k:] == 2.0)
        assert not batch.du[i, k:].any() and not batch.dl[i, k:].any()
        t = batch.t[i, : k + 1]
        row = Path(2.0, batch.is_jump[i, :k], t, batch.du[i, :k], batch.dl[i, :k], "exact")
        validate_path(row)
        gaps = ~row.is_jump
        assert np.array_equal(row.du[gaps], m.drift[0] * row.dt[gaps])
        assert np.array_equal(row.dl[gaps], m.drift[1] * row.dt[gaps])


@pytest.mark.parametrize("horizon", [0.01, 5.0])
def test_one_row_draw_jumps_is_the_whole_slot_draw(mixed_jump_model, horizon):
    """A one-row batch takes the numbers the draw of all K slots took:
    Poisson count, uniform times of shape (1, K), then K marks."""
    m = mixed_jump_model
    times, du, dl, counts = padded_jumps(m, horizon, make_stream("one-row"), 1)

    rng = make_stream("one-row")
    ref_counts = rng.poisson(m.jump_intensity * horizon, size=1)
    k = int(ref_counts.max())
    assert (k == 0) == (horizon < 1.0)  # covers K = 0 and K > 0
    ref_times = rng.uniform(0.0, horizon, size=(1, k))
    ref_du, ref_dl = m.jump_law.sample(rng, k) if k else (np.empty(0), np.empty(0))
    ref_times.sort(axis=1)

    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(du, ref_du.reshape(1, k))
    assert np.array_equal(dl, ref_dl.reshape(1, k))


JUMP_DIFFUSION_2D = LevyModel2(
    drift=(-1.0, 0.5),
    gaussian_cov=((0.5, 0.2), (0.2, 0.3)),
    jump_intensity=3.0,
    jump_law=JumpLaw2.point_mass([((0.5, 0.5), 0.5), ((-0.3, 0.2), 0.5)]),
)
GRID_DTS = (4e-3, 2e-3, 1e-3)


def _segments(batch):
    """Per-row segment increments and end times of a stacked euler batch
    (its rows all have the same number of segments)."""
    seg = ~batch.is_jump & (batch.dt > 0.0)
    rows = batch.du.shape[0]
    t = batch.t[:, 1:][seg].reshape(rows, -1)
    return batch.du[seg].reshape(rows, -1), batch.dl[seg].reshape(rows, -1), t


@pytest.mark.parametrize("horizon", [1.0, 0.37])
def test_euler_paths_coarse_segments_are_fine_sums(horizon):
    """Grid k of a batch: its segment increments are the finest grid's
    summed k at a time, bitwise, and its segments end at every k-th
    fine boundary, the last at the horizon."""
    size = 20
    batches = euler_paths(JUMP_DIFFUSION_2D, horizon, make_stream("euler-sums"), size, GRID_DTS)
    fine_du, fine_dl, fine_t = _segments(batches[-1])
    nsteps = fine_du.shape[1]
    assert nsteps % 4 == 0 and nsteps >= horizon / 1e-3
    assert np.all(fine_t == fine_t[0]) and fine_t[0, -1] == horizon
    for g, batch in zip(GRID_DTS, batches):
        k = round(g / 1e-3)
        du, dl, t = _segments(batch)
        assert np.array_equal(du, fine_du.reshape(size, -1, k).sum(axis=-1))
        assert np.array_equal(dl, fine_dl.reshape(size, -1, k).sum(axis=-1))
        assert np.array_equal(t, fine_t[:, k - 1 :: k])


def test_euler_paths_jumps_are_the_drawn_jumps_on_every_grid():
    """Every grid carries each row's ``draw_jumps`` marks in their order, at
    the same time: the end of the coarsest step that holds the drawn time."""
    horizon, size = 1.0, 40
    batches = euler_paths(JUMP_DIFFUSION_2D, horizon, make_stream("euler-jumps"), size, GRID_DTS)
    times, ju, jl, counts = padded_jumps(
        JUMP_DIFFUSION_2D, horizon, make_stream("euler-jumps"), size
    )
    assert counts.min() < counts.max()  # rows carry padding
    coarse = horizon / math.ceil(horizon / 4e-3)
    placed = []
    for batch in batches:
        assert np.array_equal(batch.is_jump.sum(axis=1), counts)
        for i in range(size):
            c = counts[i]
            j = batch.is_jump[i]
            assert np.array_equal(batch.du[i, j], ju[i, :c])
            assert np.array_equal(batch.dl[i, j], jl[i, :c])
        placed.append(batch.t[:, 1:][batch.is_jump])
    assert all(np.array_equal(p, placed[0]) for p in placed)
    drawn = times[np.arange(times.shape[1])[None, :] < counts[:, None]]
    assert np.all(drawn <= placed[0] + 1e-12) and np.all(placed[0] - drawn < coarse + 1e-12)
    assert np.allclose(placed[0] / coarse, np.round(placed[0] / coarse), rtol=0, atol=1e-9)


def test_euler_paths_rows_are_padded_paths():
    """Row i is its segments and jumps in time order, then K - counts[i]
    null segments at the horizon: no duration, no increment."""
    horizon, size = 1.0, 40
    batches = euler_paths(JUMP_DIFFUSION_2D, horizon, make_stream("euler-pad"), size, GRID_DTS)
    _, _, _, counts = padded_jumps(JUMP_DIFFUSION_2D, horizon, make_stream("euler-pad"), size)
    for batch in batches:
        n_seg = batch.du.shape[1] - counts.max()
        assert batch.t.shape == (size, batch.du.shape[1] + 1)
        for i in range(size):
            real = batch.is_jump[i] | (batch.dt[i] > 0.0)
            k = n_seg + counts[i]
            assert real[:k].all() and not real[k:].any()  # padding only at the end
            assert np.all(batch.t[i, k:] == horizon)
            assert not batch.du[i, k:].any() and not batch.dl[i, k:].any()
            row = Path(
                horizon, batch.is_jump[i, :k], batch.t[i, : k + 1], batch.du[i, :k],
                batch.dl[i, :k], "euler", JUMP_DIFFUSION_2D.gaussian_cov,
            )
            validate_path(row)


def test_euler_paths_rejects_grids_that_do_not_nest():
    for grid_dts in [(3e-3, 2e-3), (0.0,), (-1e-3,)]:
        with pytest.raises(ValueError, match="multiple of the finest"):
            euler_paths(JUMP_DIFFUSION_2D, 1.0, make_stream("nest"), 2, grid_dts)


_PURE_JUMP = LevyModel2(
    drift=(-0.5, 0.3), jump_intensity=3.0, jump_law=JumpLaw2.point_mass([((0.5, -1.0), 1.0)])
)
_BUILDERS = {
    "exact_paths": lambda horizon, rng: exact_paths(_PURE_JUMP, horizon, rng, 2),
    "euler_paths": lambda horizon, rng: euler_paths(JUMP_DIFFUSION_2D, horizon, rng, 2, (1e-2,)),
    "sample_path-exact": lambda horizon, rng: sample_path(_PURE_JUMP, horizon, rng),
    "sample_path-euler": lambda horizon, rng: sample_path(JUMP_DIFFUSION_2D, horizon, rng, 1e-2),
}


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("builder", list(_BUILDERS))
def test_path_builders_refuse_bad_horizon_before_drawing(builder, horizon):
    """A zero horizon used to give a one-slot batch, and a NaN or infinite
    one numpy's errors from the Poisson, uniform or step-count draws."""
    rng = make_stream("bad-horizon")
    with pytest.raises(ValueError, match="^horizon must be positive and finite$"):
        _BUILDERS[builder](horizon, rng)
    assert rng.random() == make_stream("bad-horizon").random()  # nothing drawn


@pytest.mark.parametrize("horizon, grid_dt", [(1.0, 1e-3), (0.37, 1e-3), (2.0, 4e-3)])
def test_sample_path_without_jumps_is_one_normal_block(dufresne_model, horizon, grid_dt):
    """A model without jumps samples one ``standard_normal((nsteps, 2))``
    block, scaled by the covariance root and sqrt(dt), plus the drift."""
    m = dufresne_model
    p = sample_path(m, horizon, make_stream("one-block"), grid_dt)
    nsteps = math.ceil(horizon / grid_dt)
    dt = horizon / nsteps
    rng = make_stream("one-block")
    ref = rng.standard_normal((nsteps, 2)) @ _cov_sqrt(m.gaussian_cov).T * math.sqrt(
        dt
    ) + np.array(m.drift) * dt
    t = dt * np.arange(nsteps + 1)
    t[-1] = horizon
    assert not p.is_jump.any()
    assert np.array_equal(p.du, ref[:, 0]) and np.array_equal(p.dl, ref[:, 1])
    assert np.array_equal(p.t, t)


def _exponential_marks_model():
    law = JumpLaw2.independent(Marginal.exponential(2.0), Marginal.exponential(1.0, sign=-1))
    return LevyModel2(drift=(-0.5, 0.3), jump_intensity=3.0, jump_law=law)


@pytest.mark.parametrize("exponential_marks", [False, True])
def test_draw_jumps_fills_only_the_real_slots(mixed_jump_model, monkeypatch, exponential_marks):
    """Row i has exactly counts[i] times below the horizon, sorted; the
    padded slots sit at the horizon with zero marks; the marks come from
    one ``sample`` call of size counts.sum(), which keeps a point-mass
    law's draw as its atom index."""
    m = _exponential_marks_model() if exponential_marks else mixed_jump_model
    horizon, size = 2.0, 1000
    calls = []
    original = JumpLaw2.sample

    def recording(law, rng, n, **kwargs):
        calls.append((n, kwargs))
        return original(law, rng, n, **kwargs)

    monkeypatch.setattr(JumpLaw2, "sample", recording)
    times, du, dl, counts = padded_jumps(m, horizon, make_stream("real-slots"), size)

    assert calls == [(counts.sum(), {} if exponential_marks else {"index": True})]
    assert times.shape == du.shape == dl.shape == (size, counts.max())
    assert counts.min() < counts.max()  # rows carry padding
    real = np.arange(times.shape[1])[None, :] < counts[:, None]
    assert np.array_equal((times < horizon).sum(axis=1), counts)
    assert np.all(times[~real] == horizon)
    assert not du[~real].any() and not dl[~real].any()
    assert np.all(du[real] != 0.0) and np.all(dl[real] != 0.0)
    assert np.all(np.diff(times, axis=1) >= 0.0)


def _padded_reference(model, horizon, rng, size):
    """A whole block's jumps drawn straight onto (size, K) slots: Poisson
    counts, uniform times and marks scattered row by row into the real
    slots, then the times sorted per row."""
    counts = rng.poisson(model.jump_intensity * horizon, size=size)
    k, n = int(counts.max()), int(counts.sum())
    real = np.arange(k) < counts[:, None]
    times = np.full((size, k), horizon)
    times[real] = rng.uniform(0.0, horizon, size=n)
    du, dl = np.zeros((size, k)), np.zeros((size, k))
    du[real], dl[real] = model.jump_law.sample(rng, n)
    times.sort(axis=1)
    return counts, (times, du, dl)


def _same_marginal(make):
    return JumpLaw2.independent(make(), make())


_LAWS_BY_KIND = {
    "point_mass": JumpLaw2.point_mass([((0.5, 0.5), 0.5), ((-0.3, -0.2), 0.5)]),
    "dual-point_mass": JumpLaw2.point_mass(
        [((0.5, 0.5), 0.25), ((-0.3, -0.2), 0.5), ((1.5, 0.1), 0.25)]
    ).dual(),
    "independent-points": _same_marginal(lambda: Marginal.points([(0.4, 0.3), (-0.2, 0.7)])),
    "independent-exponential": _same_marginal(lambda: Marginal.exponential(2.0, sign=-1)),
    "independent-uniform": _same_marginal(lambda: Marginal.uniform(-0.5, 0.5)),
    "independent-truncated_normal": _same_marginal(
        lambda: Marginal.truncated_normal(0.0, 0.5, -0.8)
    ),
    "linked": JumpLaw2.linked(Marginal.exponential(2.0), 0.1, 0.5),
    "dual": JumpLaw2.independent(Marginal.uniform(-0.5, 0.5), Marginal.exponential(1.0)).dual(),
}


@pytest.mark.parametrize("kind", list(_LAWS_BY_KIND))
def test_padded_tiles_are_the_whole_block_draw(kind):
    """Every row tile that ``JumpDraw.pad`` lays out, one-row tiles and
    one-row last tiles included, equals the same rows of the block drawn
    straight onto padded slots, for every jump-law kind.  A point-mass
    law (a dual one too) keeps one uint8 atom index per jump and its two
    atom columns."""
    model = LevyModel2(drift=(-0.5, 0.3), jump_intensity=3.0, jump_law=_LAWS_BY_KIND[kind])
    horizon, size = 2.0, 300
    draw = draw_jumps(model, horizon, make_stream("tiles", 1), size)
    counts, ref = _padded_reference(model, horizon, make_stream("tiles", 1), size)
    assert np.array_equal(draw.counts, counts)
    assert draw.kmax == counts.max() > counts.min()  # rows carry padding
    if kind.endswith("point_mass"):
        assert draw.index.dtype == np.uint8
        assert draw.du.size == draw.dl.size == len(model.jump_law.atoms)
        assert draw.times.size == draw.index.size == counts.sum()  # O(jumps)
    else:
        assert draw.index is None
        assert draw.times.size == draw.du.size == draw.dl.size == counts.sum()  # O(jumps)
    for rows in (1, 7, 128, size - 1, size):
        for s in range(0, size, rows):
            for got, want in zip(draw.pad(s, s + rows), ref):
                assert got.shape == (min(rows, size - s), draw.kmax)
                assert np.array_equal(got, want[s : s + rows])


def test_jump_count_statistics(mixed_jump_model):
    lam = mixed_jump_model.jump_intensity
    counts = [
        len(path_jumps(sample_path(mixed_jump_model, 2.0, make_stream("cnt", i))))
        for i in range(500)
    ]
    mean = np.mean(counts)
    assert abs(mean - lam * 2.0) < 4 * math.sqrt(lam * 2.0 / 500)


def test_w_path_gives_reciprocal_exponential(mixed_jump_model):
    for i in range(20):
        p = sample_path(mixed_jump_model, 2.0, make_stream("w", i))
        e = stochastic_exponential(_u_only(p, mixed_jump_model))
        ew = stochastic_exponential(
            _u_only(w_path(p, mixed_jump_model.sigma_u_sq), mixed_jump_model)
        )
        assert np.max(np.abs(e.values * ew.values - 1.0)) < 1e-12


def test_xi_path_is_minus_log_exponential(mixed_jump_model):
    for i in range(20):
        p = sample_path(mixed_jump_model, 2.0, make_stream("xi", i))
        e = stochastic_exponential(_u_only(p, mixed_jump_model))
        _, xi, _ = path_values(xi_path(p, mixed_jump_model.sigma_u_sq))
        assert np.max(np.abs(np.exp(-xi) - e.values)) < 1e-12


def test_xi_path_rejects_sign_flips(sign_flip_model):
    for i in range(50):
        p = sample_path(sign_flip_model, 2.0, make_stream("xi-flip", i))
        if any(ev.du <= -1.0 for ev in path_jumps(p)):
            with pytest.raises(ConditionError):
                xi_path(p, 0.0)
            return
    pytest.fail("no sign-flipping path sampled")


def _u_only(path, model=None):
    from dataclasses import replace

    return replace(path, dl=np.zeros_like(path.dl), cov=((path.var_du, 0.0), (0.0, 0.0)))


def test_eta_path_jump_transform(mixed_jump_model):
    p = sample_path(mixed_jump_model, 2.0, make_stream("eta", 3))
    eta = eta_path(p, mixed_jump_model)
    for ev, ee in zip(p.events, eta.events):
        if isinstance(ev, Jump):
            assert ee.du == pytest.approx(ev.dl / (1.0 + ev.du), rel=1e-15)
        else:
            assert ee.du == pytest.approx(ev.dl, rel=1e-15)  # sigma_UL = 0


def test_reverse_is_involution(mixed_jump_model):
    for i in range(20):
        p = sample_path(mixed_jump_model, 2.0, make_stream("rev", i))
        rr = reverse_path(reverse_path(p))
        a = _increments(p)
        b = _increments(rr)
        assert len(a) == len(b)
        for (ka, ta, ua, la), (kb, tb, ub, lb) in zip(a, b):
            assert ka == kb
            assert ta == pytest.approx(tb, abs=1e-9)
            assert ua == pytest.approx(ub, abs=1e-12)
            assert la == pytest.approx(lb, abs=1e-12)


def test_reverse_path_evaluates_time_reversal(mixed_jump_model):
    """X~_s = X_{(t-s)-} - X_{t-} at every event boundary."""
    for i in range(10):
        p = sample_path(mixed_jump_model, 2.0, make_stream("revval", i))
        t = p.horizon
        r = reverse_path(p)
        u_tm, l_tm = value_at(p, t, left=True)
        times_r, ur_r, lr_r = path_values(r)
        for k in range(times_r.size):
            s = times_r[k]
            if k + 1 < times_r.size and abs(times_r[k + 1] - s) < 1e-12:
                continue  # first of a duplicated boundary (pre-jump state)
            u_l, l_l = value_at(p, t - s, left=True)
            assert ur_r[k] == pytest.approx(u_l - u_tm, abs=1e-9)
            assert lr_r[k] == pytest.approx(l_l - l_tm, abs=1e-9)


def test_t_path_jump_transform(mixed_jump_model):
    p = sample_path(mixed_jump_model, 2.0, make_stream("tpath", 0))
    rev = reverse_path(p)
    tp = t_path(rev, 0.0)
    for er, et in zip(rev.events, tp.events):
        if isinstance(er, Jump):
            assert et.du == pytest.approx(er.du / (1.0 - er.du), rel=1e-15)
            assert et.dl == er.dl  # dl slot passes through


def test_value_at_left_and_right():
    p = path_from_events(
        horizon=2.0,
        events=(Segment(1.0, 0.5, 0.2), Jump(1.0, 1.0, -1.0), Segment(1.0, 0.5, 0.2)),
        backend="exact",
    )
    validate_path(p)
    assert value_at(p, 1.0, left=True) == (pytest.approx(0.5), pytest.approx(0.2))
    assert value_at(p, 1.0) == (pytest.approx(1.5), pytest.approx(-0.8))
    assert value_at(p, 2.0) == (pytest.approx(2.0), pytest.approx(-0.6))


def test_validate_rejects_bad_paths():
    with pytest.raises(ValueError):
        validate_path(path_from_events(1.0, (Segment(-0.5, 0.0, 0.0),), backend="exact"))
    with pytest.raises(ValueError):
        validate_path(path_from_events(1.0, (Segment(0.4, 0.0, 0.0),), backend="exact"))
    with pytest.raises(ValueError):
        validate_path(
            path_from_events(
                horizon=1.0,
                events=(Segment(1.0, 0.0, 0.0), Jump(0.5, 1.0, 0.0)),
                backend="exact",
            )
        )


@given(st.floats(0.1, 1.9))
@settings(max_examples=25, deadline=None)
def test_truncate_then_reverse_consistency(at):
    """A path sampled on [0, at] reverses to a valid path on [0, at]."""
    p = sample_path(
        __import__("gouflow").presets.get_preset("drift-ou").model,
        at,
        make_stream("hyp-trunc", 0),
    )
    q = reverse_path(p)
    validate_path(q)
    assert q.horizon == at
