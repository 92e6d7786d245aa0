import cmath
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouflow.config import _model_from_dict
from gouflow.levy import (
    ConditionError,
    _ATOM_CHUNK,
    _atom_index,
    JumpLaw2,
    LevyModel2,
    Marginal,
    degeneracy_margin,
    detect_degeneracy,
    dual_jump,
    dual_model,
)
from gouflow.presets import get_preset

from conftest import make_stream, terminal_ul
from oracles import (
    characteristic_exponent,
    gamma_w_cutoff_form,
    gamma_w_direct_form,
    marginal_cf,
    marginal_mean,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_points_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        Marginal.points([(1.0, 0.5), (2.0, 0.4)])


ATOM_PROBS = [
    [1.0],
    [0.3, 0.7],
    [0.2, 0.0, 0.8],
    [0.1, 0.2, 0.3, 0.15, 0.25],
]


@pytest.mark.parametrize("probs", ATOM_PROBS, ids=lambda p: f"{len(p)}-atoms")
def test_atom_index_equals_generator_choice(probs):
    """The atom sampler draws what ``Generator.choice(p=...)`` draws, index
    for index, and leaves the stream where ``choice`` leaves it; both
    point-mass samplers use it."""
    probs = np.array(probs)
    p = probs / probs.sum()  # what the samplers passed to ``choice``
    mine, ref = np.random.default_rng(7), np.random.default_rng(7)
    idx = _atom_index(mine, probs, 100_000)
    assert idx.dtype == np.uint8
    assert np.array_equal(idx, ref.choice(probs.size, size=100_000, p=p))
    assert mine.random() == ref.random()

    values = np.arange(1.0, probs.size + 1.0)
    marg = Marginal.points(list(zip(values, probs)))
    mine, ref = np.random.default_rng(8), np.random.default_rng(8)
    assert np.array_equal(marg.sample(mine, 1000), values[ref.choice(probs.size, 1000, p=p)])
    law = JumpLaw2.point_mass([((v, -v), p) for v, p in zip(values, probs)])
    du, dl = law.sample(mine, 1000)
    expect = values[ref.choice(probs.size, 1000, p=p)]
    assert np.array_equal(du, expect) and np.array_equal(dl, -expect)


def _one_shot_atom_index(rng, probs, size):
    """The atom sampler with all ``size`` uniforms drawn as one array."""
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    u = rng.random(size)
    return sum((u >= c).astype(np.uint8) for c in cdf[:-1]).astype(np.uint8)


@pytest.mark.parametrize("offset", [-1, 0, 1, _ATOM_CHUNK + 3])
def test_chunked_atom_index_is_the_one_shot_draw(offset):
    """Drawn ``_ATOM_CHUNK`` uniforms at a time, the indices equal those of
    one (size,) draw of the Philox stream, which is left where that draw
    leaves it: the next draw (here normals, as in the grid lane) is the
    same."""
    probs = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    size = _ATOM_CHUNK + offset
    mine, ref = make_stream("chunks", size), make_stream("chunks", size)
    idx = _atom_index(mine, probs, size)
    assert idx.dtype == np.uint8
    assert np.array_equal(idx, _one_shot_atom_index(ref, probs, size))
    assert np.array_equal(mine.standard_normal(5), ref.standard_normal(5))


def test_point_mass_index_draw_is_the_marks_draw():
    """``sample(index=True)`` gives a point-mass law's draw as its atom
    index and atom columns, whose gather is the ``sample`` marks from the
    same numbers; a law without atoms has no index draw."""
    law = JumpLaw2.point_mass([((0.5, 1.0), 0.25), ((-0.3, 0.25), 0.5), ((2.0, -1.0), 0.25)])
    idx, us, ls = law.sample(make_stream("index"), 5000, index=True)
    du, dl = law.sample(make_stream("index"), 5000)
    assert idx.dtype == np.uint8 and us.size == ls.size == 3
    assert np.array_equal(us[idx], du) and np.array_equal(ls[idx], dl)
    with pytest.raises(ValueError, match="no atom index"):
        JumpLaw2.linked(Marginal.exponential(2.0), 0.1, 0.5).sample(make_stream("x"), 5, index=True)


def test_marginal_sampling_means(rng):
    cases = [
        (Marginal.points([(1.0, 0.25), (-2.0, 0.75)]), 0.25 - 1.5),
        (Marginal.exponential(2.0), 0.5),
        (Marginal.exponential(2.0, sign=-1), -0.5),
        (Marginal.uniform(-1.0, 3.0), 1.0),
    ]
    for marg, mean in cases:
        draws = marg.sample(rng, 200_000)
        assert abs(draws.mean() - mean) < 0.02
        assert abs(marginal_mean(marg) - mean) < 1e-12


def test_truncated_normal_sampling_respects_lower_bound(rng):
    marg = Marginal.truncated_normal(0.0, 1.0, -0.5)
    draws = marg.sample(rng, 50_000)
    assert draws.min() > -0.5
    assert abs(draws.mean() - marginal_mean(marg)) < 0.02


def test_marginal_cf_at_zero_is_one():
    for marg in (
        Marginal.points([(1.0, 1.0)]),
        Marginal.exponential(3.0),
        Marginal.uniform(0.0, 2.0),
    ):
        assert abs(marginal_cf(marg, 0.0) - 1.0) < 1e-12


def test_marginal_cf_matches_empirical(rng):
    marg = Marginal.uniform(-1.0, 2.0)
    draws = marg.sample(rng, 400_000)
    for t in (0.3, 1.7):
        emp = np.exp(1j * t * draws).mean()
        assert abs(emp - marginal_cf(marg, t)) < 0.01


# ---------------------------------------------------------------------------
# jump laws
# ---------------------------------------------------------------------------


def test_point_mass_on_minus_one_rejected():
    with pytest.raises(ConditionError):
        JumpLaw2.point_mass([((-1.0, 0.0), 1.0)])


def test_condition_b_flags():
    b_ok = JumpLaw2.point_mass([((-0.5, 0.0), 1.0)])
    b_bad = JumpLaw2.point_mass([((-2.0, 0.0), 0.5), ((0.5, 0.0), 0.5)])
    assert b_ok.condition_b
    assert not b_bad.condition_b


def test_dl_sign_flags():
    law = JumpLaw2.point_mass([((0.0, 1.0), 0.5), ((0.0, 2.0), 0.5)])
    assert law.dl_nonnegative
    law = JumpLaw2.point_mass([((0.0, -1.0), 1.0)])
    assert not law.dl_nonnegative


def test_linked_law_with_slope_zero_has_a_point_dl_support():
    """dL = c when the slope is 0, whatever dU's support: no NaN bound
    from 0 * inf."""
    law = JumpLaw2.linked(Marginal.exponential(1.0, -1), 0.5, 0.0)
    assert law._support()[1] == (0.5, 0.5)
    assert law.dl_nonnegative


def test_dual_of_linked_law_with_slope_zero_has_negative_dl(rng):
    """The dual of dL = 0.5 > 0 has dL' = -0.5 / (1 + dU) < 0: its dual
    model's L is not a subordinator."""
    law = JumpLaw2.linked(Marginal.exponential(1.0), 0.5, 0.0)
    dual = law.dual()
    _, dl = dual.sample(rng, 1000)
    assert np.all(dl < 0)
    assert dual._support()[1] == (-math.inf, 0.0)
    assert not dual.dl_nonnegative
    m = LevyModel2(drift=(-1.0, 1.0), jump_intensity=1.0, jump_law=law)
    assert m.l_subordinator and not dual_model(m).l_subordinator


_PTS = Marginal.points([(-0.5, 0.25), (0.5, 0.75)])
_PTS_ZERO = Marginal.points([(-3.0, 0.0), (0.5, 0.5), (2.0, 0.5)])
_PTS_MINUS_ONE = Marginal.points([(-1.0, 0.5), (0.5, 0.5)])
_PTS_MINUS_ONE_ZERO = Marginal.points([(-1.0, 0.0), (0.5, 1.0)])
_EXP_UP = Marginal.exponential(2.0)
_EXP_DOWN = Marginal.exponential(2.0, -1)
_UNIF = Marginal.uniform(-0.5, 1.0)
_TNORM = Marginal.truncated_normal(0.0, 1.0, -0.5)
_REFUSED = "condition (A) refusal"
_NO_DUAL = "no dual"
_INF = math.inf
_THIRD = 1 - 1 / 1.5  # the bound 1 / (1 + 0.5) - 1 of a dual dU is -_THIRD

# name, law, then (dU bounds, dL bounds, condition (B), dL >= 0) of the
# law and of its dual
SUPPORT_TABLE = [
    (
        "point-mass",
        lambda: JumpLaw2.point_mass([((-0.5, 1.0), 0.5), ((0.5, -0.5), 0.5)]),
        ((-0.5, 0.5), (-0.5, 1.0), True, False),
        ((-1 / 3, 1.0), (-2.0, 1 / 3), True, False),
    ),
    (
        "point-mass-zero-atom",
        lambda: JumpLaw2.point_mass([((-2.0, -3.0), 0.0), ((0.5, 0.25), 1.0)]),
        ((0.5, 0.5), (0.25, 0.25), True, True),
        ((-1 / 3, -1 / 3), (-1 / 6, -1 / 6), True, False),
    ),
    (
        "point-mass-minus-one",
        lambda: JumpLaw2.point_mass([((-1.0, 0.0), 0.5), ((0.5, 0.0), 0.5)]),
        _REFUSED,
        None,
    ),
    (
        "point-mass-minus-one-zero-atom",
        lambda: JumpLaw2.point_mass([((-1.0, 0.0), 0.0), ((0.5, 0.0), 1.0)]),
        ((0.5, 0.5), (0.0, 0.0), True, True),
        ((-1 / 3, -1 / 3), (0.0, 0.0), True, True),
    ),
    (
        "point-mass-no-b",
        lambda: JumpLaw2.point_mass([((-2.0, 1.0), 0.5), ((1.0, 0.0), 0.5)]),
        ((-2.0, 1.0), (0.0, 1.0), False, True),
        _NO_DUAL,
    ),
    (
        "independent-points-exp-down",
        lambda: JumpLaw2.independent(_PTS, _EXP_DOWN),
        ((-0.5, 0.5), (-_INF, 0.0), True, False),
        ((-_THIRD, 1.0), (0.0, _INF), True, True),
    ),
    (
        "independent-exp-up-points",
        lambda: JumpLaw2.independent(_EXP_UP, _PTS),
        ((0.0, _INF), (-0.5, 0.5), True, False),
        ((-1.0, 0.0), (-_INF, _INF), True, False),
    ),
    (
        "independent-exp-down-uniform",
        lambda: JumpLaw2.independent(_EXP_DOWN, _UNIF),
        ((-_INF, 0.0), (-0.5, 1.0), False, False),
        _NO_DUAL,
    ),
    (
        "independent-uniform-truncated-normal",
        lambda: JumpLaw2.independent(_UNIF, _TNORM),
        ((-0.5, 1.0), (-0.5, _INF), True, False),
        ((-0.5, 1.0), (-_INF, _INF), True, False),
    ),
    (
        "independent-truncated-normal-exp-up",
        lambda: JumpLaw2.independent(_TNORM, _EXP_UP),
        ((-0.5, _INF), (0.0, _INF), True, True),
        ((-1.0, 1.0), (-_INF, 0.0), True, False),
    ),
    (
        "independent-points-points-zero-atom",
        lambda: JumpLaw2.independent(_PTS, _PTS_ZERO),
        ((-0.5, 0.5), (0.5, 2.0), True, True),
        ((-_THIRD, 1.0), (-_INF, 0.0), True, False),
    ),
    (
        "independent-points-zero-atom-points",
        lambda: JumpLaw2.independent(_PTS_ZERO, _PTS),
        ((0.5, 2.0), (-0.5, 0.5), True, False),
        ((1 / 3 - 1, -_THIRD), (-_INF, _INF), True, False),
    ),
    (
        "independent-minus-one",
        lambda: JumpLaw2.independent(_PTS_MINUS_ONE, _EXP_UP),
        _REFUSED,
        None,
    ),
    (
        "independent-minus-one-zero-atom",
        lambda: JumpLaw2.independent(_PTS_MINUS_ONE_ZERO, _UNIF),
        ((0.5, 0.5), (-0.5, 1.0), True, False),
        ((-_THIRD, -_THIRD), (-_INF, _INF), True, False),
    ),
    (
        "independent-dl-minus-one",
        lambda: JumpLaw2.independent(_UNIF, _PTS_MINUS_ONE),
        ((-0.5, 1.0), (-1.0, 0.5), True, False),
        ((-0.5, 1.0), (-_INF, _INF), True, False),
    ),
    (
        "linked-points",
        lambda: JumpLaw2.linked(_PTS, 0.25, -0.5),
        ((-0.5, 0.5), (0.0, 0.5), True, True),
        ((-_THIRD, 1.0), (-_INF, 0.0), True, False),
    ),
    (
        "linked-points-zero-atom",
        lambda: JumpLaw2.linked(_PTS_ZERO, 0.25, 2.0),
        ((0.5, 2.0), (1.25, 4.25), True, True),
        ((1 / 3 - 1, -_THIRD), (-_INF, 0.0), True, False),
    ),
    (
        "linked-exp-up",
        lambda: JumpLaw2.linked(_EXP_UP, 0.25, 0.5),
        ((0.0, _INF), (0.25, _INF), True, True),
        ((-1.0, 0.0), (-_INF, 0.0), True, False),
    ),
    (
        "linked-exp-down",
        lambda: JumpLaw2.linked(_EXP_DOWN, 0.25, -0.5),
        ((-_INF, 0.0), (0.25, _INF), False, True),
        _NO_DUAL,
    ),
    (
        "linked-uniform",
        lambda: JumpLaw2.linked(_UNIF, -0.25, 1.5),
        ((-0.5, 1.0), (-1.0, 1.25), True, False),
        ((-0.5, 1.0), (-_INF, _INF), True, False),
    ),
    (
        "linked-truncated-normal",
        lambda: JumpLaw2.linked(_TNORM, 0.25, -0.5),
        ((-0.5, _INF), (-_INF, 0.5), True, False),
        ((-1.0, 1.0), (-_INF, _INF), True, False),
    ),
    (
        "linked-slope-zero",
        lambda: JumpLaw2.linked(_EXP_DOWN, 0.5, 0.0),
        ((-_INF, 0.0), (0.5, 0.5), False, True),
        _NO_DUAL,
    ),
    (
        "linked-slope-zero-exp-up",
        lambda: JumpLaw2.linked(_EXP_UP, -0.5, 0.0),
        ((0.0, _INF), (-0.5, -0.5), True, False),
        ((-1.0, 0.0), (0.0, _INF), True, True),
    ),
    (
        "linked-negative-slope-unbounded",
        lambda: JumpLaw2.linked(_EXP_UP, 0.0, -2.0),
        ((0.0, _INF), (-_INF, 0.0), True, False),
        ((-1.0, 0.0), (0.0, _INF), True, True),
    ),
    (
        "linked-no-b",
        lambda: JumpLaw2.linked(Marginal.uniform(-2.0, 1.0), 1.0, 1.0),
        ((-2.0, 1.0), (-1.0, 2.0), False, False),
        _NO_DUAL,
    ),
    (
        "linked-minus-one",
        lambda: JumpLaw2.linked(_PTS_MINUS_ONE, 0.0, 1.0),
        _REFUSED,
        None,
    ),
    (
        "linked-minus-one-zero-atom",
        lambda: JumpLaw2.linked(_PTS_MINUS_ONE_ZERO, 0.0, 1.0),
        ((0.5, 0.5), (0.5, 0.5), True, True),
        ((-_THIRD, -_THIRD), (-_INF, 0.0), True, False),
    ),
]


def _support_row(law):
    du, dl = law._support()
    return du, dl, law.condition_b, law.dl_nonnegative


@pytest.mark.parametrize(
    "make, expected, dual_expected",
    [row[1:] for row in SUPPORT_TABLE],
    ids=[row[0] for row in SUPPORT_TABLE],
)
def test_support_table(make, expected, dual_expected):
    """Every jump-law kind on every marginal kind, and each law's dual:
    the (dU, dL) bounds, condition (B), dL >= 0 and the condition (A)
    refusal, all read off ``_support`` and the atoms of positive mass.
    The dual of a point-mass law drops its atoms of mass 0, one of which
    may sit at dU = -1."""
    if expected == _REFUSED:
        with pytest.raises(ConditionError, match="condition \\(A\\)"):
            make()
        return
    law = make()
    assert _support_row(law) == expected
    if dual_expected == _NO_DUAL:
        with pytest.raises(ConditionError):
            law.dual()
    else:
        assert _support_row(law.dual()) == dual_expected


def test_linked_law_samples_on_the_line(rng):
    law = JumpLaw2.linked(Marginal.uniform(-0.5, 1.0), 0.25, -2.0)
    du, dl = law.sample(rng, 1000)
    assert np.allclose(dl, 0.25 - 2.0 * du)


def test_dual_requires_condition_b():
    law = JumpLaw2.point_mass([((-2.0, 0.0), 1.0)])
    with pytest.raises(ConditionError):
        law.dual()


# atoms with 1 + du a power of two keep the dual map exactly invertible
# in floats (both divisions are exact)
dyadic_du = st.sampled_from([-0.75, -0.5, 0.0, 1.0, 3.0, 7.0])
dyadic_dl = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 2.0])


@given(
    st.lists(st.tuples(dyadic_du, dyadic_dl), min_size=1, max_size=4, unique=True)
)
@settings(max_examples=60, deadline=None)
def test_dual_jump_law_is_an_involution(pairs):
    n = len(pairs)
    law = JumpLaw2.point_mass([((u, l), 1.0 / n) for u, l in pairs])
    assert law.dual().dual().atoms == law.atoms


def test_dual_of_continuous_law_round_trips_by_wrapping(rng):
    law = JumpLaw2.independent(Marginal.uniform(-0.5, 0.5), Marginal.exponential(1.0))
    d = law.dual()
    assert d.kind == "dual"
    assert d.dual() is law
    du, dl = d.sample(rng, 10_000)
    assert du.min() > -1.0  # image of (-1, inf) under -x/(1+x)


def test_dual_law_pushforward_matches_direct_transform(rng):
    base = JumpLaw2.point_mass([((0.5, -1.0), 0.5), ((-0.25, 2.0), 0.5)])
    wrapped = JumpLaw2("dual", base=base)
    du, dl = wrapped.sample(np.random.default_rng(3), 1000)
    bu, bl = base.sample(np.random.default_rng(3), 1000)
    assert np.allclose(du, -bu / (1 + bu))
    assert np.allclose(dl, -bl / (1 + bu))


def test_dual_jump_map_keeps_the_bits_of_dual_samples_and_atoms():
    """``dual_jump`` is the one dual map: a wrapped law's samples and a
    point-mass law's dual atoms carry the bits of -dU/(1+dU), -dL/(1+dU)."""
    base = JumpLaw2.independent(Marginal.uniform(-0.5, 0.8), Marginal.exponential(1.5, -1))
    du, dl = JumpLaw2("dual", base=base).sample(np.random.default_rng(4), 1000)
    bu, bl = base.sample(np.random.default_rng(4), 1000)
    assert du.tobytes() == (-bu / (1.0 + bu)).tobytes()
    assert dl.tobytes() == (-bl / (1.0 + bu)).tobytes()
    law = JumpLaw2.point_mass([((0.3, -1.1), 0.5), ((-0.7, 0.9), 0.25), ((0.0, 2.0), 0.25)])
    expected = tuple(((-u / (1.0 + u), -l / (1.0 + u)), p) for (u, l), p in law.atoms)
    assert law.dual().atoms == expected
    assert dual_jump(0.3, -1.1) == expected[0][0]


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        LevyModel2(drift=(0.0, 0.0), gaussian_cov=((1.0, 0.5), (0.4, 1.0)))
    with pytest.raises(ValueError):
        LevyModel2(drift=(0.0, 0.0), gaussian_cov=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(ValueError):
        LevyModel2(drift=(0.0, 0.0), jump_intensity=1.0)
    with pytest.raises(ValueError):
        LevyModel2(drift=(0.0, 0.0), jump_intensity=-1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LevyModel2(drift=(math.nan, 1.0)),
        lambda: LevyModel2(drift=(0.0, 0.0), gaussian_cov=((math.inf, 0.0), (0.0, 0.0))),
        lambda: LevyModel2(drift=(0.0, 0.0), jump_intensity=math.inf),
        lambda: Marginal.points([(math.nan, 1.0)]),
        lambda: Marginal.exponential(math.inf),
        lambda: Marginal.uniform(0.0, math.inf),
        lambda: Marginal.truncated_normal(0.0, 1.0, math.nan),
        lambda: JumpLaw2.point_mass([((math.inf, 0.0), 1.0)]),
        lambda: JumpLaw2.linked(Marginal.uniform(0.0, 1.0), math.nan, 1.0),
    ],
)
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_truncated_normal_refuses_law_it_cannot_sample():
    """The normal mass above 40 sigma is 0 in floats: rejection sampling
    would never end, so the law is refused before any draw."""
    with pytest.raises(ValueError, match="mass"):
        Marginal.truncated_normal(0.0, 1.0, 40.0)
    Marginal.truncated_normal(0.0, 1.0, 3.0)  # mass 1.35e-3 stays allowed


def test_subordinator_flags(subordinator_model):
    assert subordinator_model.l_subordinator
    neg = LevyModel2(
        drift=(0.0, -0.5),
        jump_intensity=1.0,
        jump_law=JumpLaw2.point_mass([((0.0, -1.0), 1.0)]),
    )
    assert not neg.l_subordinator


def test_characteristic_exponent_zero_and_drift():
    m = LevyModel2(drift=(1.5, -0.5))
    assert characteristic_exponent(m, (0.0, 0.0)) == 0
    psi = characteristic_exponent(m, (2.0, 1.0))
    assert abs(psi - 1j * (2.0 * 1.5 + 1.0 * -0.5)) < 1e-14


def test_characteristic_exponent_against_empirical_cf(mixed_jump_model, rng):
    """exp(t psi(theta)) must match the empirical cf of sampled increments."""
    t = 0.7
    res = terminal_ul(mixed_jump_model, t, 200_000, seed=4, label="cf")
    for theta in ((0.5, 0.0), (0.0, 0.8), (0.4, -0.6)):
        emp = np.exp(1j * (theta[0] * res["u"] + theta[1] * res["l"])).mean()
        exact = cmath.exp(t * characteristic_exponent(mixed_jump_model, theta))
        assert abs(emp - exact) < 0.01


def test_dual_model_is_involution(mixed_jump_model):
    dd = dual_model(dual_model(mixed_jump_model))
    assert dd.drift == mixed_jump_model.drift
    assert dd.gaussian_cov == mixed_jump_model.gaussian_cov
    for ((u, l), p), ((u0, l0), p0) in zip(
        dd.jump_law.atoms, mixed_jump_model.jump_law.atoms
    ):
        assert p == p0
        assert math.isclose(u, u0, rel_tol=4e-16, abs_tol=0)
        assert math.isclose(l, l0, rel_tol=4e-16, abs_tol=0)


def test_dual_model_involution_field_exact_on_presets():
    for name in ("drift-ou", "cramer-paulsen", "degenerate-k"):
        m = get_preset(name).model
        dd = dual_model(dual_model(m))
        assert dd.drift == m.drift
        assert dd.jump_law.atoms == m.jump_law.atoms


def test_dual_model_requires_condition_b(sign_flip_model):
    with pytest.raises(ConditionError):
        dual_model(sign_flip_model)


@pytest.mark.parametrize(
    "law",
    [
        JumpLaw2.independent(Marginal.exponential(2.0), Marginal.exponential(1.0)),
        JumpLaw2.linked(Marginal.truncated_normal(0.0, 1.0, lower=-0.5), 0.5, 1.0),
    ],
    ids=["independent-exponential", "linked-truncated-normal"],
)
def test_dual_of_unbounded_u_jumps_has_condition_b(law):
    """dU unbounded above maps to dual jumps in (-1, 0]: the dual has (B)
    and dualizes back to the model."""
    m = LevyModel2(drift=(-1.0, 1.0), jump_intensity=1.0, jump_law=law)
    d = dual_model(m)
    assert d.condition_b
    assert dual_model(d) == m


def test_dual_model_gaussian_drift():
    m = LevyModel2(drift=(-2.0, 1.0), gaussian_cov=((2.0, 0.5), (0.5, 1.0)))
    d = dual_model(m)
    assert d.drift == (2.0 + 2.0, -1.0 + 0.5)
    assert d.gaussian_cov == m.gaussian_cov


@given(
    st.lists(st.tuples(dyadic_du, dyadic_dl), min_size=1, max_size=3, unique=True),
    st.floats(-2.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_gamma_w_two_forms_agree(pairs, b_u):
    n = len(pairs)
    law = JumpLaw2.point_mass([((u, l), 1.0 / n) for u, l in pairs])
    m = LevyModel2(drift=(b_u, 0.0), jump_intensity=1.5, jump_law=law)
    assert math.isclose(
        gamma_w_cutoff_form(m), gamma_w_direct_form(m), rel_tol=0, abs_tol=1e-12
    )


# ---------------------------------------------------------------------------
# degeneracy
# ---------------------------------------------------------------------------


def test_detect_degeneracy_on_preset():
    m = get_preset("degenerate-k").model
    assert detect_degeneracy(m) == pytest.approx(2.0, abs=1e-12)


def test_detect_degeneracy_rejects_perturbation():
    law = JumpLaw2.point_mass([((1.0, -2.0), 0.5), ((-0.5, 1.001), 0.5)])
    m = LevyModel2(drift=(0.5, -1.0), jump_intensity=2.0, jump_law=law)
    assert detect_degeneracy(m) is None
    assert degeneracy_margin(m, 2.0) > 1e-5


def test_detect_degeneracy_none_for_generic(mixed_jump_model, dufresne_model):
    assert detect_degeneracy(mixed_jump_model) is None
    assert detect_degeneracy(dufresne_model) is None


def _workload_model(name):
    with open(os.path.join(ROOT, "verdictbench", "workloads.json")) as fh:
        return _model_from_dict(json.load(fh)["models"][name])


_LINE = ((1.0, -2.0), (-2.0, 4.0))  # Gaussian part on 2*U = -L

# name, model (built from the test's request), k from detect_degeneracy
DEGENERACY_TABLE = [
    *[
        (name, lambda request, name=name: get_preset(name).model, k)
        for name, k in [
            ("zero", None),
            ("drift-ou", None),
            ("cramer-paulsen", None),
            ("dufresne", None),
            ("degenerate-k", 2.0),
            ("nonmonotone", None),
        ]
    ],
    *[
        (name, lambda request, name=name: _workload_model(name), None)
        for name in ("correlated-gauss", "jump-diffusion")
    ],
    *[
        (name, lambda request, name=name: request.getfixturevalue(name), None)
        for name in ("mixed_jump_model", "sign_flip_model", "subordinator_model", "dufresne_model")
    ],
    ("drift-on-line", lambda request: LevyModel2(drift=(0.5, -1.0)), 2.0),
    ("only-l-drift", lambda request: LevyModel2(drift=(0.0, 1.0)), None),
    (
        "gaussian-on-line",
        lambda request: LevyModel2(drift=(0.0, 0.0), gaussian_cov=_LINE),
        2.0,
    ),
    (
        "gaussian-on-line-drift-off",
        lambda request: LevyModel2(drift=(1.0, -1.0), gaussian_cov=_LINE),
        None,
    ),
    (
        "linked-through-zero",
        lambda request: LevyModel2(
            drift=(0.0, 0.0),
            jump_intensity=1.0,
            jump_law=JumpLaw2.linked(Marginal.exponential(2.0), 0.0, -1.5),
        ),
        1.5,
    ),
    (
        "linked-through-zero-with-drift",
        lambda request: LevyModel2(
            drift=(2.0, -3.0),
            jump_intensity=1.0,
            jump_law=JumpLaw2.linked(Marginal.uniform(-0.5, 1.0), 0.0, -1.5),
        ),
        1.5,
    ),
    (
        "linked-off-zero",
        lambda request: LevyModel2(
            drift=(1.0, -1.5),
            jump_intensity=1.0,
            jump_law=JumpLaw2.linked(Marginal.exponential(2.0), 0.25, -1.5),
        ),
        None,
    ),
    (
        "independent-continuous",
        lambda request: LevyModel2(
            drift=(1.0, -1.5),
            jump_intensity=1.0,
            jump_law=JumpLaw2.independent(Marginal.exponential(2.0), Marginal.uniform(0.0, 1.0)),
        ),
        None,
    ),
]


@pytest.mark.parametrize(
    "build, k",
    [row[1:] for row in DEGENERACY_TABLE],
    ids=[row[0] for row in DEGENERACY_TABLE],
)
def test_detect_degeneracy_table(request, build, k):
    """k from the first vector off the L axis, checked against every
    component: the presets, the benchmark's models, the test fixtures and
    one model per kind of component that can pin or break the line."""
    assert detect_degeneracy(build(request)) == k
