import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from zepl import closedform, halfline
from zepl.closedform import (ClosedFormSolution, count_sign_changes, relative_residual,
                             zero_energy_solution)
from zepl.specfn import laguerre


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


def test_derivatives_from_one_recurrence_match_the_three_recurrence_forms():
    # euler takes psi' and psi'' from L_n and L_(n-1) through w L' = n L_n -
    # (n+a) L_(n-1) and Laguerre's equation; the reference takes them from
    # L' = -L_(n-1)^(a+1) and L'' = L_(n-2)^(a+2), two more recurrences.  Each
    # term is weighted by E over its peak, as residual() weights it.
    worst = 0.0
    for mu, l, n, lam in itertools.product([-1e5, 1e5, -0.5001, -0.49999, -2.5, 1.5],
                                           [0, 60], [0, 1, 2, 40], [1e-3, 30.0]):
        sol = zero_energy_solution(1.0 / (mu + 0.5), lam, l, n)
        a, p, k = sol.order, sol.power, sol.shape
        w = sol.w_grid(400)
        log_env = p * (np.log(w) - math.log(sol.rate)) / k - 0.5 * w
        weight = np.exp(log_env - log_env.max())
        h = laguerre(n, a, w)
        rg, d1 = p - 0.5 * k * w, k * w * (-laguerre(n - 1, a + 1.0, w) if n else 0.0)
        d2 = (k - 1.0) * d1 + (k * k * w * w * laguerre(n - 2, a + 2.0, w) if n > 1 else 0.0)
        ref = [rg * h + d1, (rg * rg - p - 0.5 * k * (k - 1.0) * w) * h + 2.0 * rg * d1 + d2]
        for got, want in zip(sol.euler(w, derivs=True)[1:], ref):
            err = np.abs(weight * (got - want)).max() / np.abs(weight * want).max()
            worst = max(worst, err)
    assert worst < 1e-12  # 1.0e-13 measured, at (-2.5, 0, 40)


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
