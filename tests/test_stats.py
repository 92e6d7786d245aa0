import math
import os
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

from gouflow.stats import (
    EmpiricalDistribution,
    binomial_ci,
    ecdf,
    ks_critical_value,
    ks_two_sample,
)
from gouflow.stats import _kolmogorov_sf
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


def test_kolmogorov_sf_matches_scipy():
    for lam in (0.4, 0.8, 1.2, 1.36, 2.0):
        assert _kolmogorov_sf(lam) == pytest.approx(float(kolmogorov(lam)), abs=1e-10)


def test_ks_two_sample_identical_samples():
    a = ecdf(np.arange(100, dtype=float))
    res = ks_two_sample(a, a)
    assert res.statistic == 0.0
    assert res.pvalue == pytest.approx(1.0)
    assert not res.rejects()


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
    assert ks_two_sample(a, b).rejects()


def test_ks_null_rejection_rate_is_calibrated():
    """Under the null the 0.1% test should almost never reject."""
    rng = np.random.default_rng(3)
    rejections = sum(
        ks_two_sample(
            ecdf(rng.standard_normal(500)), ecdf(rng.standard_normal(500))
        ).rejects()
        for _ in range(300)
    )
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


def test_cli_import_and_binomial_ci_leave_scipy_stats_unloaded():
    code = (
        "import sys, gouflow.cli\n"
        "from gouflow.stats import binomial_ci\n"
        "binomial_ci(3, 10)\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(gouflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
