import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouflow import (
    AlignedSeries,
    ConditionError,
    Jump,
    Path,
    Segment,
    eta_path,
    reverse_path,
    sample_path,
    t_path,
    truncate_path,
    w_path,
    xi_path,
)
from gouflow.calculus import stochastic_exponential
from gouflow.paths import (
    exact_paths,
    pair_path,
    path_values,
    recover_ul_from_xi_eta,
)

from conftest import make_stream


def _increments(path):
    return [
        (type(ev).__name__, round(getattr(ev, "dt", getattr(ev, "time", 0.0)), 12),
         ev.du, ev.dl)
        for ev in path.events
    ]


def test_sample_path_validates_and_sums(mixed_jump_model):
    path = sample_path(mixed_jump_model, 3.0, make_stream("p", 0))
    path.validate()
    times, ul, ur, ll, lr = path_values(path)
    du_total = sum(ev.du for ev in path.events)
    dl_total = sum(ev.dl for ev in path.events)
    assert ur[-1] == pytest.approx(du_total, abs=1e-12)
    assert lr[-1] == pytest.approx(dl_total, abs=1e-12)
    assert times[-1] == pytest.approx(3.0, abs=1e-12)


def test_sample_path_backend_selection(mixed_jump_model, dufresne_model):
    assert sample_path(mixed_jump_model, 1.0, make_stream("b", 0)).backend == "exact"
    assert sample_path(dufresne_model, 1.0, make_stream("b", 1)).backend == "euler"
    with pytest.raises(ValueError):
        sample_path(dufresne_model, 1.0, make_stream("b", 2), backend="exact")


def value_at(path, t, left=False):
    """(U, L) value at event-boundary time t (left limit if requested)."""
    times, ul, ur, ll, lr = path_values(path)
    u = AlignedSeries(times, ul, ur).at(t, left=left)
    l = AlignedSeries(times, ll, lr).at(t, left=left)
    return u, l


def test_sample_paths_batched_matches_count(mixed_jump_model):
    paths = [sample_path(mixed_jump_model, 2.0, make_stream("batch", i)) for i in range(7)]
    assert len(paths) == 7
    for p in paths:
        p.validate()


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
        row.validate()
        gaps = ~row.is_jump
        assert np.array_equal(row.du[gaps], m.drift[0] * row.dt[gaps])
        assert np.array_equal(row.dl[gaps], m.drift[1] * row.dt[gaps])


def test_jump_count_statistics(mixed_jump_model):
    lam = mixed_jump_model.jump_intensity
    counts = [
        len(sample_path(mixed_jump_model, 2.0, make_stream("cnt", i)).jumps())
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
        times, xl, xr, _, _ = path_values(xi_path(p, mixed_jump_model.sigma_u_sq))
        assert np.max(np.abs(np.exp(-xr) - e.values)) < 1e-12


def test_xi_path_rejects_sign_flips(sign_flip_model):
    for i in range(50):
        p = sample_path(sign_flip_model, 2.0, make_stream("xi-flip", i))
        if any(ev.du <= -1.0 for ev in p.jumps()):
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


def test_truncate_path_splits_segments(mixed_jump_model):
    p = sample_path(mixed_jump_model, 2.0, make_stream("trunc", 1))
    q = truncate_path(p, 1.3)
    q.validate()
    assert q.horizon == pytest.approx(1.3)
    t_q, _, ur_q, _, lr_q = path_values(q)
    assert t_q[-1] == pytest.approx(1.3, abs=1e-12)
    # the straddling segment splits pro rata, so the truncated terminal is
    # the drift-interpolated value of the original path
    jumps_before = [ev for ev in p.jumps() if ev.time <= 1.3]
    b_u, b_l = mixed_jump_model.drift
    assert ur_q[-1] == pytest.approx(
        b_u * 1.3 + sum(j.du for j in jumps_before), abs=1e-12
    )
    assert lr_q[-1] == pytest.approx(
        b_l * 1.3 + sum(j.dl for j in jumps_before), abs=1e-12
    )


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
        times_r, _, ur_r, _, lr_r = path_values(r)
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


def test_recover_ul_from_xi_eta_round_trip(mixed_jump_model):
    m = mixed_jump_model
    for i in range(10):
        p = sample_path(m, 2.0, make_stream("rec", i))
        xi = xi_path(p, m.sigma_u_sq)
        eta = eta_path(p, m)
        q = recover_ul_from_xi_eta(xi, eta, m.sigma_u_sq, m.sigma_ul)
        for ea, eb in zip(p.events, q.events):
            assert ea.du == pytest.approx(eb.du, rel=1e-12, abs=1e-14)
            assert ea.dl == pytest.approx(eb.dl, rel=1e-12, abs=1e-14)


def test_pair_path_zips_skeletons(mixed_jump_model):
    p = sample_path(mixed_jump_model, 1.0, make_stream("pair", 0))
    u = _u_only(p)
    eta = eta_path(p, mixed_jump_model)
    z = pair_path(u, eta)
    assert len(z.events) == len(p.events)
    with pytest.raises(ValueError):
        pair_path(u, truncate_path(eta, 0.5))


def test_value_at_left_and_right():
    p = Path.from_events(
        horizon=2.0,
        events=(Segment(1.0, 0.5, 0.2), Jump(1.0, 1.0, -1.0), Segment(1.0, 0.5, 0.2)),
        backend="exact",
    )
    p.validate()
    assert value_at(p, 1.0, left=True) == (pytest.approx(0.5), pytest.approx(0.2))
    assert value_at(p, 1.0) == (pytest.approx(1.5), pytest.approx(-0.8))
    assert value_at(p, 2.0) == (pytest.approx(2.0), pytest.approx(-0.6))


def test_validate_rejects_bad_paths():
    with pytest.raises(ValueError):
        Path.from_events(1.0, (Segment(-0.5, 0.0, 0.0),), backend="exact").validate()
    with pytest.raises(ValueError):
        Path.from_events(1.0, (Segment(0.4, 0.0, 0.0),), backend="exact").validate()
    with pytest.raises(ValueError):
        Path.from_events(
            horizon=1.0,
            events=(Segment(1.0, 0.0, 0.0), Jump(0.5, 1.0, 0.0)),
            backend="exact",
        ).validate()


@given(st.floats(0.1, 1.9))
@settings(max_examples=25, deadline=None)
def test_truncate_then_reverse_consistency(at):
    p = sample_path(
        __import__("gouflow").presets.get_preset("drift-ou").model,
        2.0,
        make_stream("hyp-trunc", 0),
    )
    q = reverse_path(p, at)
    q.validate()
    assert q.horizon == pytest.approx(at)
