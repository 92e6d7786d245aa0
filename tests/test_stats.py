import math
import os
import subprocess
import sys
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

from gouflow.stats import (
    RULES,
    EmpiricalDistribution,
    binomial_ci,
    decide,
    ecdf,
    ks_critical_value,
    ks_two_sample,
    verdict,
)
from gouflow.stats import _kolmogorov_sf
from gouflow import gou, mc
from gouflow.levy import LevyModel2
from gouflow.presets import get_preset
from gouflow.suites import _dufresne_oracle, _gamma_q
import gouflow


def test_ecdf_basics():
    d = ecdf([3.0, 1.0, 2.0, 2.0])
    assert d.n == 4
    assert d.cdf(0.5) == 0.0
    assert d.cdf(1.0) == 0.25  # right-continuous: includes the atom
    assert d.cdf(2.0) == 0.75
    assert d.cdf(10.0) == 1.0
    assert d.sf(2.0) == pytest.approx(0.75)  # P(V >= 2): both atoms and the 3
    assert d.sf(2.5) == pytest.approx(0.25)
    assert d.quantile(0.5) == 2.0


def test_ecdf_vectorized_queries():
    d = ecdf(np.arange(10, dtype=float))
    qs = d.cdf(np.array([-1.0, 0.0, 4.5, 9.0]))
    assert np.allclose(qs, [0.0, 0.1, 0.5, 1.0])


def test_empirical_distribution_export(tmp_path):
    d = EmpiricalDistribution(np.array([2.0, 1.0]), metadata={"kind": "test"})
    csv = tmp_path / "d.csv"
    side = tmp_path / "d.json"
    d.export(str(csv), str(side))
    assert csv.read_text().splitlines()[0] == "value"
    assert "test" in side.read_text()


@pytest.mark.parametrize(
    "values",
    [
        [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 1e16, 0.1, 2.0 / 3.0],
        [-0.0],
        [1e308],
        [1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072009e-308,
         0.10000000000000001, 1.2345678901234567e-5, 98765432109876543.0, -0.0],
        list(np.random.default_rng(5).standard_normal(4096)
             * 10.0 ** np.random.default_rng(6).integers(-300, 300, 4096)),
    ],
)
def test_export_csv_is_savetxt_bytes(tmp_path, values):
    """The CSV has the bytes ``np.savetxt`` writes for the sorted sample,
    and those of a join of one ``"%.17g\\n" % v`` per value: zeros of
    either sign (written as 0), subnormals, extremes, 17-digit values,
    integral floats and one value."""
    d = EmpiricalDistribution(np.array(values))
    d.export(tmp_path / "d.csv")
    np.savetxt(tmp_path / "ref.csv", d.values, fmt="%.17g", header="value", comments="")
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    joined = "value\n" + "".join(["%.17g\n" % v for v in d.values.tolist()])
    assert (tmp_path / "d.csv").read_text() == joined
    assert (tmp_path / "d.csv").read_text().count("\n") == d.n + 1
    assert "-0\n" not in (tmp_path / "d.csv").read_text()


def test_exported_law_writes_no_negative_zero(tmp_path):
    """A noncausal law without jumps or L drift is -I = -0.0 on every path:
    the law, its quantiles and its export hold +0.0."""
    model = LevyModel2(drift=(0.5, 0.0))
    values, diags = mc.exp_functional_samples(model, "noncausal", 8, 2.0, seed=1)
    assert not values.any()
    law = gou.stationary_law(values, diags, "noncausal", 2.0, seed=1)
    assert not np.signbit(law.values).any() and not np.signbit(law.quantile(0.5))
    law.export(tmp_path / "law.csv")
    assert (tmp_path / "law.csv").read_text() == "value\n" + "0\n" * 8


def test_kolmogorov_sf_matches_scipy():
    for lam in (0.4, 0.8, 1.2, 1.36, 2.0):
        assert _kolmogorov_sf(lam) == pytest.approx(float(kolmogorov(lam)), abs=1e-10)


def test_kolmogorov_sf_matches_scipy_down_to_small_lambda():
    """Q(lam) is right over [1e-4, 3], also below lam ~ 0.043, where the
    alternating series has not converged in 100 terms; so two large
    samples that differ in one value are not near rejection.  At 5e-324
    lam * lam underflows to 0; ``ks_two_sample`` never passes a lam that
    small: a nonzero statistic is at least 1 / (n m), so its lam is at
    least 1 / sqrt(n m (n + m))."""
    for lam in np.geomspace(1e-4, 3.0, 400):
        assert _kolmogorov_sf(float(lam)) == pytest.approx(float(kolmogorov(lam)), abs=1e-10)
    for lam in (5e-324, 1e-4, 1e-3, 0.01):
        assert _kolmogorov_sf(lam) == 1.0
    a = np.arange(16_384, dtype=float)
    b = a.copy()
    b[0] = -1.0
    assert ks_two_sample(ecdf(a), ecdf(b)).pvalue == 1.0


def test_ks_two_sample_identical_samples():
    a = ecdf(np.arange(100, dtype=float))
    res = ks_two_sample(a, a)
    assert res.statistic == 0.0
    assert res.pvalue == pytest.approx(1.0)
    assert verdict("ks", "probe", res.pvalue, (res.pvalue,))["pass"]


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 3.0, 7.5, 50.0, 200.0])
def test_gamma_q_matches_scipy_gammaincc(a):
    from scipy.special import gammaincc

    z = np.concatenate([np.geomspace(1e-6, 1e3), [a, a + 1.0, 0.0, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = _gamma_q(a, z)
    assert np.max(np.abs(q - gammaincc(a, z))) <= 1e-13
    assert q[-2] == 1.0 and q[-1] == 0.0


def test_dufresne_oracle_is_scipy_inverse_gamma_cdf():
    from scipy.stats import invgamma

    oracle = _dufresne_oracle(get_preset("dufresne").model)
    x = np.concatenate([[0.0, 1e-3], np.geomspace(1e-2, 1e2, 200), [np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf = oracle(x)
    # shape 2 mu / sigma^2 = 3 and scale 2 / sigma^2 = 1 (see the preset)
    assert np.max(np.abs(cdf - invgamma.cdf(x, 3.0, scale=1.0))) <= 1e-13


def test_ks_two_sample_against_scipy_oracle():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(1)
    x = rng.standard_normal(400)
    y = rng.standard_normal(500) * 1.3 + 0.1
    res = ks_two_sample(ecdf(x), ecdf(y))
    ref = ks_2samp(x, y, method="asymp")
    assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert res.pvalue == pytest.approx(ref.pvalue, rel=0.05, abs=1e-4)


def test_ks_two_sample_detects_shift():
    rng = np.random.default_rng(2)
    a = ecdf(rng.standard_normal(2000))
    b = ecdf(rng.standard_normal(2000) + 1.0)
    p = ks_two_sample(a, b).pvalue
    assert not verdict("ks", "probe", p, (p,))["pass"]


def test_ks_null_rejection_rate_is_calibrated():
    """Under the null the 0.1% test should almost never reject."""
    rng = np.random.default_rng(3)
    pvalues = [
        ks_two_sample(ecdf(rng.standard_normal(500)), ecdf(rng.standard_normal(500))).pvalue
        for _ in range(300)
    ]
    rejections = sum(not verdict("ks", "probe", p, (p,))["pass"] for p in pvalues)
    assert rejections <= 3


def test_ks_critical_value_consistency():
    c = ks_critical_value(1000, 1000, level=1e-3)
    lam = c * math.sqrt(1000 * 1000 / 2000)
    assert _kolmogorov_sf(lam) == pytest.approx(1e-3, rel=0.05)


@given(st.integers(0, 50), st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_binomial_ci_properties(hits, extra):
    n = hits + extra
    lo, hi = binomial_ci(hits, n)
    assert 0.0 <= lo <= hits / n <= hi <= 1.0
    if hits == 0:
        assert lo == 0.0
    if hits == n:
        assert hi == 1.0


def test_binomial_ci_coverage():
    """Wilson 95% CI should cover the true p about 95% of the time."""
    rng = np.random.default_rng(4)
    p = 0.3
    n = 200
    cover = 0
    for _ in range(1000):
        k = rng.binomial(n, p)
        lo, hi = binomial_ci(k, n)
        cover += lo <= p <= hi
    assert 0.92 <= cover / 1000 <= 0.98


def test_binomial_ci_validation():
    with pytest.raises(ValueError):
        binomial_ci(5, 0)
    with pytest.raises(ValueError):
        binomial_ci(-1, 10)


def _wilson(hits, n, z):
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99, 0.999])
def test_binomial_ci_normal_quantile_matches_scipy(level):
    """z comes from the standard library; scipy's normal quantile agrees to
    1e-15, and so do the intervals built on either."""
    from scipy.stats import norm

    z_ref = float(norm.ppf(0.5 + level / 2.0))
    assert abs(NormalDist().inv_cdf(0.5 + level / 2.0) - z_ref) <= 1e-15 * z_ref
    for hits, n in ((1, 2), (3, 10), (57, 400), (999, 1000)):
        lo, hi = binomial_ci(hits, n, level)
        ref_lo, ref_hi = _wilson(hits, n, z_ref)
        assert abs(lo - ref_lo) <= 1e-15 and abs(hi - ref_hi) <= 1e-15


def _run_in_fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(gouflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_and_binomial_ci_leave_scipy_stats_unloaded():
    code = (
        "import sys, gouflow.cli\n"
        "from gouflow.stats import binomial_ci\n"
        "binomial_ci(3, 10)\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    _run_in_fresh_interpreter(code)


def test_cli_stationary_oracle_run_leaves_scipy_unloaded(tmp_path):
    """The dufresne stationary verdict reaches the inverse-gamma oracle
    without importing any scipy module."""
    config = tmp_path / "dufresne.yaml"
    config.write_text(
        "schema_version: 1\nseed: 3\npreset: dufresne\nsuite: stationary\n"
        "n_paths: 256\nhorizon: 1.0\nstationary_horizon: 2.0\ngrid_dt: 0.01\n"
    )
    out = tmp_path / "out"
    code = (
        "import sys, gouflow.cli\n"
        "from gouflow.stats import binomial_ci\n"
        "binomial_ci(3, 10)\n"
        f"code = gouflow.cli.main(['run', '--config', {str(config)!r}, '--out', {str(out)!r}])\n"
        "assert code in (0, 1), code\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    _run_in_fresh_interpreter(code)
    assert "inverse-gamma-oracle" in (out / "stationary.csv").read_text()


# ---------------------------------------------------------------------------
# the verdict rules
# ---------------------------------------------------------------------------

NAN = math.nan
_SUB = 3.0 * 0.0 + RULES["ruin-subordinator"].level  # the subordinator bound at se = 0

# (rule, the margins' inputs, the comparison each suite made before the
# rules moved into one table, written out).  Each rule is taken at its
# level, at se = 0 where it has one, and with a NaN statistic.
_EDGES = [
    # |p_a - p_b| <= 3.29 se; at se = 0, p_a == p_b (z 0) or z = inf
    ("duality", [(0.5, 3.29 * 0.5)], 3.29 * 0.5 <= 3.29 * 0.5),
    ("duality", [(0.0, 0.0)], 0.0 == 0.0),
    ("duality", [(0.0, 0.25)], 0.25 == 0.0),
    ("duality", [(0.1, 0.0), (0.1, NAN)], 0.0 <= 3.29 * 0.1 and NAN <= 3.29 * 0.1),
    ("duality", [(NAN, 0.1), (0.1, 0.0)], 0.1 <= 3.29 * NAN and 0.0 <= 3.29 * 0.1),
    # |lhs - rhs| <= 3 se + 0.005
    ("ruin-subordinator", [(_SUB, 0.005)], 0.005 <= _SUB),
    ("ruin-subordinator", [(_SUB, 0.0)], 0.0 <= _SUB),
    ("ruin-subordinator", [(_SUB, 0.25)], 0.25 <= _SUB),
    ("ruin-subordinator", [(_SUB, NAN)], NAN <= _SUB),
    # the CIs (lhs_lo, lhs_hi) and (rhs_lo, rhs_hi) overlap:
    # lhs_lo <= rhs_hi and rhs_lo <= lhs_hi
    ("ruin-identity", [(0.1, 0.3), (0.2, 0.2)], 0.1 <= 0.3 and 0.2 <= 0.2),
    ("ruin-identity", [(0.1, 0.3), (0.25, 0.2)], 0.1 <= 0.3 and 0.25 <= 0.2),
    ("ruin-identity", [(NAN, 0.3), (0.2, 0.2)], NAN <= 0.3 and 0.2 <= 0.2),
    ("ruin-identity", [(0.1, 0.3), (0.05, NAN)], 0.1 <= 0.3 and 0.05 <= NAN),
    # the stationary suite's old comparison: not p < 1e-3
    ("ks", [(1e-3,)], not 1e-3 < 1e-3),
    ("ks", [(5e-4,)], not 5e-4 < 1e-3),
    # D <= 0.02
    ("oracle", [(0.02,)], 0.02 <= 0.02),
    ("oracle", [(0.03,)], 0.03 <= 0.02),
    ("oracle", [(NAN,)], NAN <= 0.02),
    # max_error <= 1e-9
    ("inverse-flow-exact", [(1e-9,)], 1e-9 <= 1e-9),
    ("inverse-flow-exact", [(2e-9,)], 2e-9 <= 1e-9),
    ("inverse-flow-exact", [(NAN,)], NAN <= 1e-9),
    # strictly decreasing medians a, b, c: b < a and c < b
    ("inverse-flow-euler", [(3.0, 2.0), (2.0, 1.0)], 2.0 < 3.0 and 1.0 < 2.0),
    ("inverse-flow-euler", [(3.0, 2.0), (2.0, 2.0)], 2.0 < 3.0 and 2.0 < 2.0),
    ("inverse-flow-euler", [(3.0, 2.0), (2.0, NAN)], 2.0 < 3.0 and NAN < 2.0),
    ("inverse-flow-euler", [(NAN, 2.0), (2.0, 1.0)], 2.0 < NAN and 1.0 < 2.0),
    # violations == 0
    ("monotone", [(0,)], 0 == 0),
    ("monotone", [(2,)], 2 == 0),
    ("monotone", [(NAN,)], NAN == 0),
    # max_z > 4.0
    ("nonmonotone", [(4.0,)], 4.0 > 4.0),
    ("nonmonotone", [(math.inf,)], math.inf > 4.0),
    ("nonmonotone", [(NAN,)], NAN > 4.0),
]


@pytest.mark.parametrize("rule, inputs, old", _EDGES)
def test_verdict_rules_decide_as_the_old_comparisons(rule, inputs, old):
    """Every rule's verdict equals the comparison its suite made before:
    at the level a >= rule passes and a strict one fails, and a NaN
    statistic fails."""
    row = verdict(rule, "probe", 0.0, *inputs)
    assert row["pass"] is old
    assert row["level"] == RULES[rule].level
    assert decide([row]) == {"passed": old, "worst": row}


def test_ks_verdict_fails_a_nan_p():
    """The one rule whose old comparison passed a NaN: ``not p < 1e-3``
    holds for p = NaN.  A NaN margin fails; ks_two_sample never gives one
    (it compares finite samples and clamps p into [0, 1])."""
    assert not verdict("ks", "probe", NAN, (NAN,))["pass"]
    assert not NAN < 1e-3


@pytest.mark.parametrize(
    "p_a, p_b, z, old",
    [(0.0, 0.0, 0.0, 0.0 == 0.0), (1.0, 0.0, math.inf, 1.0 == 0.0), (0.3, 0.3, 0.0, True)],
)
def test_duality_two_sided_at_zero_standard_error(p_a, p_b, z, old):
    """At se = 0 (every path agrees) z is 0 or inf, and the margin
    -|p_a - p_b| passes exactly when the old ``diff == 0.0`` did."""
    from gouflow.duality import _two_sided

    got_z, inputs = _two_sided(p_a, p_b, 100)
    assert got_z == z
    assert verdict("duality", "probe", got_z, inputs)["pass"] is old


def test_decide_names_the_worst_row():
    """The worst row is a failing one of least margin, NaN least; with no
    failing row, the passing row of least margin.  No row does not pass."""
    # the Euler rule's margin is a - b
    margins = [0.5, -0.1, -0.3, 0.2]
    rows = [verdict("inverse-flow-euler", k, m, (m, 0.0)) for k, m in enumerate(margins)]
    assert decide(rows) == {"passed": False, "worst": rows[2]}
    nan_row = verdict("inverse-flow-euler", "nan", NAN, (NAN, 0.0))
    assert decide(rows + [nan_row])["worst"] is nan_row
    assert decide([rows[0], rows[3]]) == {"passed": True, "worst": rows[3]}
    # no row decides nothing, which is not a pass
    assert decide([]) == {"passed": False, "worst": None}
    at_level = verdict("nonmonotone", "at level", 4.0, (4.0,))
    assert decide([rows[3], at_level]) == {"passed": False, "worst": at_level}
    # margin 0 passes a >= rule and fails a strict one: the failing row is worse
    passing = verdict("oracle", "oracle at level", 0.02, (0.02,))
    assert (passing["margin"], passing["pass"]) == (0.0, True)
    assert decide([passing, at_level])["worst"] is at_level
