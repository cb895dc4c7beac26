import math

import numpy as np
import pytest
import scipy.special

from zepl.specfn import laguerre, laguerre_deriv


def series_laguerre(n, alpha, x):
    """Independent oracle: explicit finite series
    L_n^a(x) = sum_k (-1)^k C(n+a, n-k) x^k / k!."""
    total = 0.0
    scale = 0.0
    for k in range(n + 1):
        logc = (math.lgamma(n + alpha + 1.0) - math.lgamma(alpha + k + 1.0)
                - math.lgamma(n - k + 1.0) - math.lgamma(k + 1.0))
        term = (-1.0) ** k * math.exp(logc) * x**k
        total += term
        scale += abs(term)
    return total, scale


def test_degree_zero_is_one():
    assert laguerre(0, 7.3, 4.2) == 1.0


def test_degree_one_explicit():
    assert laguerre(1, 2.0, 3.0) == 0.0  # 1 + alpha - x


def test_degree_two_series_value():
    # (a+1)(a+2)/2 - (a+2) x + x^2/2 at a=1, x=2
    assert laguerre(2, 1.0, 2.0) == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 4.5])
@pytest.mark.parametrize("n", range(7))
def test_recurrence_matches_series(n, alpha):
    for x in np.linspace(0.0, 50.0, 41):
        ref, scale = series_laguerre(n, alpha, float(x))
        got = laguerre(n, alpha, float(x))
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-6 * scale, 1e-300)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 4.5])
@pytest.mark.parametrize("n", [8, 12, 20])
def test_recurrence_matches_scipy(n, alpha):
    x = np.linspace(0.0, 50.0, 101)
    ref = scipy.special.eval_genlaguerre(n, alpha, x)
    got = laguerre(n, alpha, x)
    scale = np.abs(ref).max()
    assert np.allclose(got, ref, rtol=1e-9, atol=1e-12 * scale)


def test_invalid_degree_rejected():
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(2.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, 0.0, math.inf)


def test_deriv_trivial_cases():
    assert laguerre_deriv(0, 3.3, 9.9) == 0.0
    assert laguerre_deriv(1, 2.0, 3.0) == -1.0


def test_deriv_matches_finite_difference():
    n, alpha, x = 3, 0.5, 1.7
    h = 1e-5
    fd = (laguerre(n, alpha, x + h) - laguerre(n, alpha, x - h)) / (2 * h)
    got = laguerre_deriv(n, alpha, x)
    assert abs(got - fd) <= 1e-8 * abs(fd)


@pytest.mark.parametrize("n,alpha", [(1, 0.0), (4, 1.5), (7, -0.25)])
def test_deriv_identity(n, alpha):
    x = np.linspace(0.1, 30.0, 50)
    assert np.array_equal(laguerre_deriv(n, alpha, x), -laguerre(n - 1, alpha + 1.0, x))


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_weighted_orthogonality(alpha):
    from zepl.oracle import quad_seminfinite

    def normalized(k):
        scale = math.exp(0.5 * (math.lgamma(k + alpha + 1.0) - math.lgamma(k + 1.0)))
        return lambda x: laguerre(k, alpha, x) / scale

    for m in range(4):
        for n in range(m + 1, 5):
            fm, fn = normalized(m), normalized(n)
            # x f(x) at t = log x, f = x^alpha e^-x L_m L_n
            val = quad_seminfinite(
                lambda t: np.exp((alpha + 1.0) * t - np.exp(t)) * fm(np.exp(t)) * fn(np.exp(t)),
                1e-11, atol=1e-12).value
            assert abs(val) < 1e-9
