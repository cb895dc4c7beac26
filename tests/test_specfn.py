import ast
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from zepl import dirac, halfline, oscillator, powerlaw, specfn
from zepl.specfn import laguerre, laguerre_pair


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


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 4.5])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 11, 19, 40])  # rescaled before 11 and 19
def test_pair_is_the_last_two_degrees(n, alpha):
    x = np.linspace(0.0, 50.0, 41)
    top, below = laguerre_pair(n, alpha, x)
    assert np.array_equal(top, laguerre(n, alpha, x))
    assert np.array_equal(below, laguerre(n - 1, alpha, x))
    for xi in (x[7], np.float64(x[7]), np.array(x[7])):  # a float and 0-d input
        got = laguerre_pair(n, alpha, xi)
        assert all(type(v) is float for v in got)
        assert got == (laguerre(n, alpha, xi), laguerre(n - 1, alpha, xi))


def test_pair_at_degree_zero_is_one_and_zero():
    assert laguerre_pair(0, 7.3, 4.2) == (1.0, 0.0)
    top, below = laguerre_pair(0, 7.3, np.array([0.5, 4.2]))
    assert np.array_equal(top, [1.0, 1.0]) and np.array_equal(below, [0.0, 0.0])


@pytest.mark.parametrize("n,x", [(-1, 1.0), (2.5, 1.0), (True, 1.0), (2, math.inf),
                                 (2, math.nan), (0, np.array([1.0, -math.inf]))])
def test_pair_refuses_what_laguerre_refuses(n, x):
    for f in (laguerre, laguerre_pair):
        with pytest.raises(ValueError):
            f(n, 0.0, x)


@pytest.mark.parametrize("make", [
    lambda: powerlaw.PowerLawFamily(1.5, l=True),
    lambda: powerlaw.PowerLawFamily(1.5, n=True),
    lambda: dirac.DiracFamily(0.5, l=True),
    lambda: halfline.HalfLineProblem(1, n=True),
    lambda: halfline.HalfLineProblem(True),
    lambda: oscillator.OscillatorState(0.0, True),
], ids=["powerlaw-l", "powerlaw-n", "dirac-l", "halfline-n", "halfline-N",
        "oscillator-n"])
def test_every_index_refuses_a_bool(make):
    # True is an int to isinstance, so these took it as 1; the Laguerre degree,
    # refused above, goes through the same check
    with pytest.raises(ValueError, match="got True"):
        make()


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("x", [math.inf, math.nan, np.array([1.0, math.inf])])
def test_deriv_refuses_a_non_finite_argument_at_every_degree(n, x):
    # the derivatives are formed from the pair (L_n, L_(n-1)); at the constant
    # L_0 as well, its L_(-1) = 0 is 0 only where x is a number
    with pytest.raises(ValueError, match="finite"):
        laguerre_pair(n, 0.5, x)


def test_deriv_matches_finite_difference():
    # d/dx L_n^alpha = -L_(n-1)^(alpha+1)
    n, alpha, x = 3, 0.5, 1.7
    h = 1e-5
    fd = (laguerre(n, alpha, x + h) - laguerre(n, alpha, x - h)) / (2 * h)
    got = -laguerre(n - 1, alpha + 1.0, x)
    assert abs(got - fd) <= 1e-8 * abs(fd)


@pytest.mark.parametrize("n,alpha", [(1, 0.0), (4, 1.5), (7, -0.25)])
def test_deriv_identity(n, alpha):
    # the two forms of x L_n' that the package relies on agree: from the
    # pair, n L_n - (n+alpha) L_(n-1), and -x L_(n-1)^(alpha+1)
    x = np.linspace(0.1, 30.0, 50)
    top, below = laguerre_pair(n, alpha, x)
    want = -x * laguerre(n - 1, alpha + 1.0, x)
    assert np.allclose(n * top - (n + alpha) * below, want, rtol=1e-12,
                       atol=1e-12 * np.abs(want).max())


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


KERNEL_DEGREES = [0, 1, 2, 3, 8, 9, 10, 11, 40]  # 10 and 11 straddle the first rescale


@pytest.mark.parametrize("n", KERNEL_DEGREES)
def test_pair_never_writes_its_argument_and_returns_fresh_arrays(n):
    x = np.geomspace(1e-2, 30.0 * (n + 1), 101)
    x.setflags(write=False)  # a write into x raises
    top, below = laguerre_pair(n, 1.5, x)
    want = top.copy(), below.copy()
    top[:] = 7.0
    below[:] = 7.0
    again = laguerre_pair(n, 1.5, x)
    assert np.array_equal(again[0], want[0]) and np.array_equal(again[1], want[1])
    for a, b in ((top, below), (top, x), (below, x)):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("n", KERNEL_DEGREES)
def test_pair_on_a_stack_equals_each_row_alone(n):
    alpha = np.array([[-0.5], [0.0], [1.5], [7.25]])
    x = np.geomspace(1e-2, 30.0 * (n + 1), 97) * np.array([[1.0], [0.5], [2.0], [1.5]])
    top, below = laguerre_pair(n, alpha, x)
    for i in range(len(alpha)):
        row = laguerre_pair(n, float(alpha[i, 0]), x[i])
        assert np.array_equal(top[i], row[0]) and np.array_equal(below[i], row[1])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0 / 3.0, 4.5])
@pytest.mark.parametrize("n", KERNEL_DEGREES)
def test_pair_matches_scipy_to_1e13_of_its_peak(n, alpha):
    x = np.geomspace(1e-3, 30.0 * (n + 1), 2001)
    top, below = laguerre_pair(n, alpha, x)
    for got, m in ((top, n), (below, n - 1)):
        want = scipy.special.eval_genlaguerre(m, alpha, x) if m >= 0 else np.zeros_like(x)
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("mu,lam,l", [(1.5, 1.0, 1), (-2.5, 1.0, 0), (0.25, 1.0, 2)])
def test_pair_stays_finite_up_to_degree_159_on_the_closed_forms_grids(mu, lam, l):
    # L itself leaves the floats from n = 164 on these grids (162 with the
    # classical recurrence); a rescale that let the buffers grow past L
    # (dividing by the last eight k, not the next eight) overflowed from 158
    from zepl.closedform import zero_energy_solution

    for n in range(150, 160):
        sol = zero_energy_solution(1.0 / (mu + 0.5), lam, l, n)
        assert all(np.isfinite(v).all() for v in laguerre_pair(n, sol.order, sol.w_grid(240)))


def test_pair_on_1e5_points_allocates_three_buffers():
    # the 800 KB grid, then P_1, P_2 and one spare buffer: 3.2 MB.  The
    # classical recurrence made five temporaries per degree, a 4.0 MB peak
    tracemalloc.start()
    try:
        laguerre_pair(30, 1.5, np.geomspace(1e-2, 930.0, 100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6e6


def test_the_kernel_imports_only_numpy_and_the_standard_library():
    # the recurrence is to stay free of scipy, which zepl is to shed
    tree = ast.parse(Path(specfn.__file__).read_text())
    roots = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    roots |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert roots - {"__future__"} <= set(sys.stdlib_module_names) | {"numpy"}
