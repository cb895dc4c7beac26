import ast
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special

from zepl import closedform, halfline, oracle, powerlaw
from zepl.closedform import (ClosedFormSolution, count_sign_changes, relative_residual,
                             zero_energy_solution)
from zepl.specfn import laguerre, laguerre_pair


@pytest.mark.parametrize("params", [
    dict(log_amplitude=math.log(1.3), power=2.0, rate=1.0, shape=2.0, degree=3, order=0.5),
    dict(log_amplitude=math.log(0.7), power=-1.0, rate=0.8, shape=-1.5, degree=2, order=2.0),
    dict(log_amplitude=0.0, power=2.5, rate=1.2, shape=0.5, degree=4, order=1.5),
])
def test_derivatives_match_finite_differences(params):
    sol = ClosedFormSolution(**params)
    r = np.linspace(0.5, 3.0, 7)
    h = 1e-6
    d1_fd = (sol.value(r + h) - sol.value(r - h)) / (2 * h)
    # the second difference divides rounding noise by h^2: at h = 1e-6 that
    # noise is 1e-3 of psi, at 1e-4 the truncation error is 1e-9
    h2 = 1e-4
    d2_fd = (sol.value(r + h2) - 2 * sol.value(r) + sol.value(r - h2)) / h2**2
    scale = np.abs(sol.value(r)).max()
    assert np.allclose(sol.deriv(r), d1_fd, rtol=1e-7, atol=1e-7 * scale)
    assert np.allclose(sol.deriv2(r), d2_fd, rtol=1e-3, atol=1e-3 * scale)


def laguerre_longdouble(n, a, x):
    """L_n^a(x) by the classical three-term recurrence in np.longdouble."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for j in range(1, n + 1):
        prev, cur = cur, ((2 * j - 1 + a - x) * cur - (j - 1 + a) * prev) / j
    return cur


def test_derivatives_from_one_recurrence_match_the_three_recurrence_forms():
    # euler takes psi' and psi'' from L_n and L_(n-1) through w L' = n L_n -
    # (n+a) L_(n-1) and Laguerre's equation; the reference takes them from
    # L' = -L_(n-1)^(a+1) and L'' = L_(n-2)^(a+2), two more recurrences, in
    # np.longdouble (64-bit mantissa on x86) on the solution's own float
    # fields and grid; a float64 reference was itself off by 9.7e-13 at
    # (1e5, 60, 0).  Each term is weighted by E over its peak, as residual()
    # weights it.
    worst = 0.0
    for mu, l, n, lam in itertools.product([-1e5, 1e5, -0.5001, -0.49999, -2.5, 1.5],
                                           [0, 60], [0, 1, 2, 40], [1e-3, 30.0]):
        sol = zero_energy_solution(1.0 / (mu + 0.5), lam, l, n)
        w = sol.w_grid(400)
        log_env = sol.power * (np.log(w) - math.log(sol.rate)) / sol.shape - 0.5 * w
        weight = np.exp(log_env - log_env.max())
        a, p, k = (np.longdouble(v) for v in (sol.order, sol.power, sol.shape))
        x = w.astype(np.longdouble)
        h = laguerre_longdouble(n, a, x)
        rg = p - k * x / 2
        d1 = -k * x * laguerre_longdouble(n - 1, a + 1, x) if n else 0 * x
        d2 = (k - 1) * d1 + (k * k * x * x * laguerre_longdouble(n - 2, a + 2, x) if n > 1 else 0)
        ref = [rg * h + d1, (rg * rg - p - k * (k - 1) * x / 2) * h + 2 * rg * d1 + d2]
        for got, want in zip(sol.euler(w, derivs=True)[1:], ref):
            want = want.astype(float)
            err = np.abs(weight * (got - want)).max() / np.abs(weight * want).max()
            worst = max(worst, err)
    # 8.2e-13 measured, psi'' at (1e5, 60, 2), where psi' reads 7.0e-13; the
    # first bracket of psi'' as rg^2 - p - (k(k-1)/2 + k^2 n) w read 1.1e-12
    assert worst < 1e-12


def test_positive_domain_enforced():
    sol = ClosedFormSolution(log_amplitude=0.0, power=1.0, rate=1.0, shape=2.0)
    with pytest.raises(ValueError):
        sol.value(0.0)
    with pytest.raises(ValueError):
        sol.value(np.array([1.0, -2.0]))


def test_scaled_keeps_shape():
    sol = ClosedFormSolution(log_amplitude=math.log(2.0), power=1.0, rate=1.0, shape=2.0)
    tripled = sol.scaled(math.log(3.0))
    assert tripled.value(1.7) == pytest.approx(3.0 * sol.value(1.7), rel=1e-15)
    assert tripled.amplitude == pytest.approx(6.0, rel=1e-15)


@pytest.mark.parametrize("factor", [math.inf, math.nan])
def test_scaled_refuses_an_amplitude_outside_the_floats(factor):
    # a log factor of inf (or nan) makes psi blow up (or undefined) everywhere
    sol = ClosedFormSolution(log_amplitude=math.log(1e-10), power=1.0, rate=1.0, shape=2.0)
    with pytest.raises(ValueError, match="amplitude"):
        sol.scaled(factor)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [0.0, 1e-320])
def test_scaled_keeps_an_amplitude_outside_the_floats(factor):
    # the amplitude e^-800 (or 1e-320 e^-800) underflows and r^300 overflows
    # at r = e^3, but psi = e^(log a + 900 - w/2) is inside the floats
    sol = ClosedFormSolution(log_amplitude=0.0, power=300.0, rate=1.0, shape=0.5)
    log_factor = -800.0 + (math.log(factor) if factor else 0.0)
    small = sol.scaled(log_factor)
    assert small.amplitude == 0.0
    assert math.log(small.value(math.exp(3.0))) == pytest.approx(
        log_factor + 900.0 - 0.5 * math.exp(1.5), rel=1e-14)


def test_count_sign_changes():
    assert count_sign_changes([1.0, 2.0, 3.0]) == 0
    assert count_sign_changes([1.0, -1.0, 1.0]) == 2
    assert count_sign_changes([1.0, 1e-18, -1.0]) == 1  # near-zero sample ignored
    assert count_sign_changes([]) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_count_sign_changes_rejects_non_finite_samples(bad):
    # a non-finite sample hides its sign: [1, -inf] would count one change,
    # [1, nan, -1] could count any number
    with pytest.raises(ValueError, match="non-finite"):
        count_sign_changes([1.0, bad, -1.0])


def test_relative_residual_cancellation():
    x = np.linspace(1.0, 2.0, 11)
    rep = relative_residual([x**2, -(x**2)])
    assert rep.max_residual == 0.0
    rep2 = relative_residual([x**2, -(x**2) * (1 + 1e-6)])
    assert 1e-7 < rep2.max_residual < 1e-5


def test_relative_residual_mask():
    terms = [np.array([1.0, 1e-20, 1.0]), np.array([-1.0, 1e-20, -0.5])]
    rep = relative_residual(terms, mask=np.array([True, True, False]))
    assert rep.masked_points >= 1
    assert rep.max_residual == 0.0


def test_residual_fails_when_no_point_is_left():
    terms = [np.array([1.0, 2.0]), np.array([-1.0, -2.0])]
    assert relative_residual(terms, mask=[False, False]).max_residual == math.inf
    # psi = exp(-r/2) solves psi'' = psi/4, r^2 q = r^2/4; at amplitude e^-1000
    # it underflows at every point, but the residual is checked at the scale
    # where its envelope peaks at 1, so every point is kept
    sol = ClosedFormSolution(log_amplitude=0.0, power=0.0, rate=1.0, shape=1.0)
    assert sol.residual([(0.25, 2.0)]).max_residual < 1e-15
    rep = sol.scaled(-1000.0).residual([(0.25, 2.0)])
    assert rep.max_residual < 1e-15 and rep.residuals.size == 240


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_relative_residual_fails_on_non_finite_kept_terms(bad):
    terms = [np.array([1.0, bad, 1.0]), np.array([-1.0, 1.0, -1.0])]
    assert relative_residual(terms).max_residual == math.inf
    assert relative_residual(terms, mask=[True, True, False]).max_residual == math.inf
    assert relative_residual(terms, mask=[True, False, True]).max_residual == 0.0


@pytest.mark.parametrize("shape", [2.0, -1.5])
def test_grid_is_geometric_in_the_laguerre_argument(shape):
    sol = ClosedFormSolution(log_amplitude=0.0, power=1.0, rate=0.7, shape=shape, degree=3)
    w = sol.w_grid(240)
    assert w.size == 240 and np.all(np.diff(w) > 0)
    assert w[0] == pytest.approx(1e-2) and w[-1] == pytest.approx(120.0)
    assert np.allclose(w, np.geomspace(1e-2, 120.0, 240))


def test_relative_residual_is_called_only_by_the_closed_form_and_pct_check():
    callers = set()
    for path in Path(closedform.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        == "relative_residual"):
                    callers.add((path.name, fn.name))
    # _pct_identity holds pct_identity_check's rows, for one family or a stack
    assert callers == {("closedform.py", "residual"), ("powerlaw.py", "_pct_identity"),
                       ("dirac.py", "reduced_form_agreement"),
                       ("dirac.py", "lower_component_relative")}


def test_every_closed_form_integral_is_stated_in_log_w():
    # quad_seminfinite integrates a closed form's integrand() and, in the
    # specfn suite, the Gaussian moment; no radius grid is left to call
    bare = set()
    for path in Path(closedform.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            assert name != "grid", path.name
            arg = node.args[0] if name == "quad_seminfinite" else None
            if arg is not None and getattr(getattr(arg, "func", None), "attr", None) != "integrand":
                bare.add((path.name, ast.unparse(arg)))
    assert bare == {("verify.py", "lambda t: np.exp(3.0 * t - np.exp(2.0 * t))")}
    assert not hasattr(ClosedFormSolution, "grid")


@pytest.mark.parametrize("shape", [2.0, -1.5, 0.1])
def test_integrand_is_psi_squared_per_unit_log_w(shape):
    # dr = r du/|shape| at u = log w: the integrand is r psi(r)^2/|shape|
    sol = zero_energy_solution(shape, 1.3, 2, 3).scaled(0.4)
    r = np.array([0.3, 0.9, 1.7])
    u = np.log(sol.rate * r**shape)
    assert np.allclose(sol.integrand()(u), r * sol.value(r) ** 2 / abs(shape), rtol=1e-12)
    h = lambda w: np.sin(w)
    assert np.allclose(sol.integrand(h)(u), sol.integrand()(u) * h(np.exp(u))
                       / sol.euler(np.exp(u), False)[0] ** 2, rtol=1e-12)


@pytest.mark.parametrize("shape,l,n", [(2.0, 1, 3), (-1.5, 2, 4), (0.5, 0, 2), (40.0, 3, 1)])
def test_integrand_evaluates_h_at_live_points_only(shape, l, n):
    # of the quadrature's 2817-point scan, h sees only the points where the
    # envelope is positive; the dead ones read 0, as exp(...) * h(e^u) did
    # there or as the quadrature made its 0 * inf, so no sample moves
    sol = zero_energy_solution(shape, 1.3, l, n).scaled(0.4)
    sizes = []
    h = lambda w: sizes.append(w.size) or laguerre(n, sol.order, w) ** 2
    s, log_rate = (2.0 * sol.power + 1.0) / sol.shape, math.log(sol.rate)
    log_c = 2.0 * sol.log_amplitude - math.log(abs(sol.shape))
    before = lambda u: np.exp(log_c + s * (u - log_rate) - np.exp(u)) * h(np.exp(u))
    q = oracle.quad_seminfinite(sol.integrand(h), 1e-12)
    assert sizes[0] < 100 and q.converged
    assert oracle.quad_seminfinite(before, 1e-12) == q


def test_log_norm_diverges_exactly_when_s_is_at_most_minus_one():
    # s = (2 power + 1)/shape - 1
    for power, shape, finite in ((1.0, 2.0, True), (0.0, -1.0, False), (-1.0, -1.0, True),
                                 (-0.5, 3.0, False), (-2.0, -0.5, True)):
        sol = ClosedFormSolution(log_amplitude=0.0, power=power, rate=1.0, shape=shape)
        assert sol.norm_finite is finite
        assert math.isfinite(sol.log_norm()) is finite


@pytest.mark.parametrize("params", [
    dict(log_amplitude=math.log(1.3), power=2.0, rate=1.0, shape=0.5, degree=40, order=6.0),
    dict(log_amplitude=math.log(0.7), power=-1.0, rate=0.8, shape=-1.5, degree=2, order=2.0),
    dict(log_amplitude=math.log(2.0), power=1.0, rate=1.4, shape=0.1, degree=12, order=0.3),
    dict(log_amplitude=0.0, power=0.5, rate=2.0, shape=3.0, degree=25, order=1.5),
])
def test_log_norm_matches_scipy_gauss_laguerre(params):
    # degree 40 is where weights from the Jacobi eigenvectors lose their
    # relative accuracy: they put this norm off by a factor of 2e7
    sol = ClosedFormSolution(**params)
    s = (2.0 * sol.power + 1.0) / sol.shape - 1.0
    x, w = scipy.special.roots_genlaguerre(sol.degree + 1, s)
    inner = w @ scipy.special.eval_genlaguerre(sol.degree, sol.order, x) ** 2
    ref = sol.amplitude**2 * sol.rate ** (-(s + 1.0)) / abs(sol.shape) * inner
    assert sol.log_norm() == pytest.approx(math.log(ref), abs=1e-11)


def _connection_sum(sol: ClosedFormSolution) -> float:
    """log_norm at 50 digits: sum_m c_m^2 Gamma(n-m+s+1)/(n-m)!, c_m = (d)_m/m!,
    d = order - s, times amplitude^2 rate^-(s+1)/|shape|; c_m is exactly 0 from
    the first m with d + m - 1 = 0 on."""
    with mpmath.workdps(50):
        n, s = sol.degree, (2 * mpmath.mpf(sol.power) + 1) / mpmath.mpf(sol.shape) - 1
        d, total, c, m = mpmath.mpf(sol.order) - s, mpmath.mpf(0), mpmath.mpf(1), 0
        while c and m <= n:
            total += c**2 * mpmath.gamma(n - m + s + 1) / mpmath.factorial(n - m)
            c, m = c * (d + m) / (m + 1), m + 1
        return float(mpmath.log(total) + 2 * mpmath.mpf(sol.log_amplitude)
                     - (s + 1) * mpmath.log(sol.rate) - mpmath.log(abs(sol.shape)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1000, 10_000])
def test_log_norm_at_any_degree(n):
    # the Gauss-Laguerre rule read nan with an overflow warning at degree 1000,
    # from L at its nodes; the connection-formula sum forms no Laguerre value
    family = zero_energy_solution(0.5, 1.0, 1, n)  # (mu, lam, l) = (3/2, 1, 1): d = -3
    assert family.log_norm() == pytest.approx(_connection_sum(family), rel=1e-12)
    # the oscillator's s equals its order: one term, Gamma(n+s+1)/n!
    osc = zero_energy_solution(2.0, 1.3, 1, n).scaled(0.4)
    s = osc.order
    exact = (math.lgamma(n + s + 1.0) - math.lgamma(n + 1.0) + 2.0 * osc.log_amplitude
             - (s + 1.0) * math.log(osc.rate) - math.log(2.0))
    assert osc.log_norm() == pytest.approx(exact, rel=1e-12)
    for sol in (family, osc):
        unit = sol.to_unit_norm()
        assert unit.normalized and unit.log_norm() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("params", [
    dict(log_amplitude=0.0, power=-1.0, rate=0.8, shape=-1.5, degree=30, order=2.0),
    dict(log_amplitude=0.3, power=1.0, rate=1.4, shape=0.1, degree=12, order=0.3),
    dict(log_amplitude=0.0, power=0.5, rate=2.0, shape=3.0, degree=60, order=1.5),
])
def test_log_norm_is_the_connection_sum_at_50_digits(params):
    sol = ClosedFormSolution(**params)
    assert sol.log_norm() == pytest.approx(_connection_sum(sol), rel=1e-13)


def test_closedform_imports_nothing_from_scipy():
    # norms are a finite sum: the closed forms need numpy and math alone
    tree = ast.parse(Path(closedform.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "scipy"
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "scipy" for a in node.names)


@pytest.mark.parametrize("module", [closedform, halfline], ids=lambda m: m.__name__)
def test_closed_forms_import_nothing_from_the_oracle(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [*(node.module or "").split("."), *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        assert "oracle" not in names


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e-200, 1e200, math.inf])
def test_a_rate_of_zero_or_inf_is_refused_by_name(lam):
    # at lam^2 = 0 the norm's math.log(rate) raised a bare "math domain error"
    with pytest.raises(OverflowError, match=re.escape(f"lam = {lam}")):
        powerlaw.wavefunction(powerlaw.PowerLawFamily(1.5, lam=lam))


def test_a_subnormal_rate_is_a_rate():
    # so the norm of (6e304, 1e-154, 0, 0) reaches to_unit_norm's own refusal
    assert 0.0 < zero_energy_solution(0.5, 1e-160, 1, 0).rate < 2.3e-308
    shape, l = np.array([[0.5], [2.0]]), 1
    assert zero_energy_solution(shape, np.array([[1.0], [1e-160]]), l, 0).rate[1, 0] > 0.0
    with pytest.raises(OverflowError, match="lam = "):  # a stack with one rate of 0
        zero_energy_solution(shape, np.array([[1.0], [1e-200]]), l, 0)


@pytest.mark.parametrize("shape,l,power", [(2.0, 1, 2.0), (-1.5, 2, -2.0), (3.0, 0, 1.0),
                                           (2.0, 1.25, 2.25)])
def test_zero_energy_solution_is_the_papers_closed_form(shape, l, power):
    # r^(l+1) for shape > 0, r^-l for shape < 0, order (2l+1)/|shape|, w = lam^2 r^shape
    sol = zero_energy_solution(shape, 1.3, l, 3)
    assert (sol.amplitude, sol.power, sol.rate, sol.shape, sol.degree) == (
        1.0, power, pytest.approx(1.69), shape, 3)
    assert sol.order == pytest.approx((2 * l + 1) / abs(shape))


def test_to_unit_norm():
    sol = zero_energy_solution(0.5, 0.8, 2, 4).scaled(math.log(1e30))
    unit = sol.to_unit_norm()
    assert unit.normalized and abs(unit.log_norm()) < 1e-12
    assert unit.value(2.0) / sol.value(2.0) == pytest.approx(math.exp(-0.5 * sol.log_norm()))
    with pytest.raises(ValueError, match="diverges"):
        zero_energy_solution(-1.0, 1.0, 0, 0).to_unit_norm()


def test_only_closedform_constructs_closed_form_solutions():
    # every closed form in the package is built by zero_energy_solution
    callers = set()
    for path in Path(closedform.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "ClosedFormSolution"):
                callers.add(path.name)
    assert callers == {"closedform.py"}


def test_no_caller_scales_by_an_exponential():
    # scaled() adds a log factor; exp() of that factor would leave the floats
    # before psi does
    for path in Path(closedform.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "scaled"):
                continue
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                for inner in ast.walk(arg):
                    assert not (isinstance(inner, ast.Call)
                                and getattr(inner.func, "attr", None) == "exp"), path.name


@pytest.mark.filterwarnings("error")
def test_grid_covers_psi_beyond_the_laguerre_range():
    # the power-law family (3/2, 1, 60, 3): psi ~ w^122 e^(-w/2) L_3(w) peaks
    # beyond w = 244, while the old grid ended at w = 120 and kept only the
    # rising flank; the grid now starts where psi is below 1e-12 of its peak
    # and ends past it, 1e-9 down its tail
    sol = zero_energy_solution(0.5, 1.0, 60, 3)
    w = sol.w_grid(240)
    log_env = sol.power * (np.log(w) - math.log(sol.rate)) / sol.shape - 0.5 * w
    psi = np.abs(np.exp(log_env - log_env.max()) * sol.euler(w, False)[0])
    assert w[0] > 30.0 and w[-1] > 400.0
    assert psi[0] < 1e-12 * psi.max() and psi[-1] < 1e-9 * psi.max()
    assert np.sum(psi > 1e-12 * psi.max()) >= 120


# --- _terms in blocks of _BLOCK points ----------------------------------------

B = closedform._BLOCK
CALLS = ("value", "__call__", "deriv", "deriv2", "_derivs")


def one_pass_and_blocked(monkeypatch, sol, r):
    """Every evaluation of sol at r as _terms does it, then with _BLOCK
    above the size of r, which makes every input one pass."""
    blocked = [getattr(sol, name)(r) for name in CALLS]
    monkeypatch.setattr(closedform, "_BLOCK", np.size(r) + 1)
    return [getattr(sol, name)(r) for name in CALLS], blocked


def assert_bit_for_bit(whole, blocked):
    for one, many in zip(whole, blocked):
        if isinstance(one, list):  # _derivs: [psi, psi', psi'']
            assert all(np.array_equal(a, b) for a, b in zip(one, many, strict=True))
        else:
            assert np.array_equal(one, many)


@pytest.mark.parametrize("num", [1, B - 1, B, B + 1, 3 * B + 17])
def test_blocks_equal_one_pass_bit_for_bit(monkeypatch, num):
    sol = zero_energy_solution(0.8, 1.3, 2, 12).to_unit_norm()
    r = np.geomspace(1e-3, 80.0, num)
    lengths = []
    monkeypatch.setattr(closedform, "laguerre_pair",
                        lambda n, a, w: lengths.append(w.shape[-1]) or laguerre_pair(n, a, w))
    sol._derivs(r)
    assert sum(lengths) == num and len(lengths) == -(-num // B)  # one recurrence per block
    assert max(lengths) - min(lengths) <= 1  # of equal length: none is short
    assert_bit_for_bit(*one_pass_and_blocked(monkeypatch, sol, r))


def test_blocks_run_along_the_last_axis_of_a_2d_radius(monkeypatch):
    sol = zero_energy_solution(-1.5, 0.9, 1, 7)
    r = np.geomspace(0.05, 40.0, 2 * (3 * B + 17)).reshape(2, -1)
    whole, blocked = one_pass_and_blocked(monkeypatch, sol, r)
    assert blocked[0].shape == r.shape
    assert_bit_for_bit(whole, blocked)


def test_a_scalar_radius_still_gives_floats(monkeypatch):
    sol = zero_energy_solution(2.0, 1.0, 1, 5)
    whole, blocked = one_pass_and_blocked(monkeypatch, sol, 1.7)
    assert all(type(v) is float for v in [*blocked[:4], *blocked[4]])
    assert_bit_for_bit(whole, blocked)


@pytest.mark.parametrize("n", [0, 3])
def test_a_stack_over_l_alone_gives_each_members_terms(n):
    # rate and shape are scalars, so w = rate r^shape is one row against the
    # (3, 1) power and order; euler broadcasts it to the stack's shape
    r = np.geomspace(0.05, 6.0, 50)
    stack = zero_energy_solution(2.0, 1.1, np.array([[0.0], [1.0], [3.0]]), n)._terms(r)
    for i, l in enumerate([0, 1, 3]):
        for got, want in zip(stack, zero_energy_solution(2.0, 1.1, l, n)._terms(r)):
            assert got.shape == (3, r.size) and np.array_equal(got[i], want)


def test_blocks_of_a_stack_equal_one_pass_bit_for_bit(monkeypatch):
    # cut as 3 blocks of _BLOCK and one of 17 points, the last block took
    # numpy's SIMD power on the (3, 1) shapes: one value a last bit off
    shape, lam = np.array([[2.0], [0.5], [-1.5]]), np.array([[1.0], [0.7], [1.4]])
    sol = zero_energy_solution(shape, lam, np.array([[0.0], [1.0], [3.0]]), 9)
    r = np.geomspace(1e-2, 30.0, 3 * B + 17)
    whole, blocked = one_pass_and_blocked(monkeypatch, sol, r)
    assert blocked[0].shape == (3, r.size)
    assert_bit_for_bit(whole, blocked)


@pytest.mark.filterwarnings("error")
def test_a_block_where_the_envelope_is_zero_equals_one_pass(monkeypatch):
    # E = 0 from the first point to past the second block's start, with w
    # overflowing to inf on the first part of it: L is taken at r = 1 there
    sol = zero_energy_solution(2.0, 1.0, 1, 6)
    r = np.concatenate([np.geomspace(1e200, 100.0, B + B // 2),
                        np.geomspace(1e-2, 8.0, 2 * B)])
    whole, blocked = one_pass_and_blocked(monkeypatch, sol, r)
    assert not blocked[0][:B + B // 2].any() and blocked[0][B + B // 2:].all()
    assert_bit_for_bit(whole, blocked)


@pytest.mark.parametrize("block", [B, 10**6], ids=["blocked", "one-pass"])
def test_a_radius_in_the_last_block_that_is_not_positive_is_refused(monkeypatch, block):
    monkeypatch.setattr(closedform, "_BLOCK", block)
    r = np.geomspace(1e-2, 8.0, 3 * B + 17)
    r[-1] = 0.0
    sol = zero_energy_solution(2.0, 1.0, 1, 6)
    for name in CALLS:
        with pytest.raises(ValueError, match="radial argument must be positive"):
            getattr(sol, name)(r)


def test_deriv2_on_1e5_points_keeps_no_whole_grid_temporaries():
    # one pass held ~16 temporaries of 800 KB at once: a 9.6 MB peak.  Blocked,
    # the peak is the three 800 KB outputs plus one block's temporaries,
    # 3.20 MB measured with the products written into the outputs, the
    # recurrence in place and euler's algebra in three buffers (3.66 MB with
    # euler's ~12 temporaries, 4.23 MB with the recurrence's too); a margin of
    # 0.5 MB, less than one more 800 KB array
    sol = zero_energy_solution(0.8, 1.3, 2, 30).to_unit_norm()
    r = np.geomspace(1e-3, 80.0, 100_000)
    tracemalloc.start()
    try:
        sol.deriv2(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.70e6
