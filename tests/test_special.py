"""The special functions of the closed forms against 40-digit mpmath."""
import warnings

import mpmath
import numpy as np
import pytest

from fockop.special import gamma_p, log_hyp1f1

_A_INTEGERS = [float(a) for a in range(1, 32)]
_A_FRACTIONS = [float(a) for a in np.random.default_rng(11).uniform(1.0, 31.0, 20)] + [1.5, 2.25, 7.3]
_X = [0.0, 1e-3, 0.5, 1.0, 2.5, 10.0, 37.5, 100.0, 333.3, 1000.0]


def _mp_log_hyp1f1(a, x):
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.hyp1f1(a, 1, x, maxterms=10**6)))


@pytest.mark.parametrize("a", _A_INTEGERS + _A_FRACTIONS)
def test_log_hyp1f1_matches_high_precision(a):
    for x in _X:
        want = _mp_log_hyp1f1(a, x)
        assert abs(log_hyp1f1(a, x) - want) <= 1e-15 * max(1.0, abs(want)), (a, x)


@pytest.mark.parametrize("a", [1.0, 1.5, 2.5, 7.0, 7.3, 31.0, 250.25, 1000.5])
@pytest.mark.parametrize("x", [64.0, 1e3, 1e5, 1e12, 1e200])
def test_log_hyp1f1_past_the_double_range(a, x):
    # 1F1(a; 1; 1e5) is about e^100000, which no double holds; from x = max(64, a) on, the large-x series
    # stops after fewer than a + 12 terms, where the power series would run for about x terms
    want = _mp_log_hyp1f1(a, x)
    assert abs(log_hyp1f1(a, x) - want) <= 1e-15 * max(1.0, abs(want)), (a, x)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 11, 17, 31, 60, 100, 150, 171])
def test_gamma_p_matches_high_precision(n):
    x = np.array(sorted({0.0, 1e-3, 0.5, 1.0, 4.0, 16.0, 64.0, n - 0.5, n, n + 0.5, 2.0 * n, 250.0, 500.0}))
    got = gamma_p(n, x)
    with mpmath.workdps(40):
        want = [float(mpmath.gammainc(n, 0, xi, regularized=True)) for xi in x]
    for xi, g, w in zip(x, got, want):
        assert g == pytest.approx(w, rel=1e-14, abs=1e-300), (n, xi)


def test_special_functions_at_zero_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            for n in (1, 2, 11, 171):
                assert gamma_p(n, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
        assert log_hyp1f1(1.0, 0.0) == 0.0
        assert log_hyp1f1(2.5, 0.0) == 0.0
