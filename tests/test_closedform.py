import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from zepl import closedform, halfline
from zepl.closedform import ClosedFormSolution, count_sign_changes, log_grid, relative_residual


@pytest.mark.parametrize("params", [
    dict(amplitude=1.3, power=2.0, rate=1.0, shape=2.0, degree=3, order=0.5),
    dict(amplitude=0.7, power=-1.0, rate=0.8, shape=-1.5, degree=2, order=2.0),
    dict(amplitude=1.0, power=2.5, rate=1.2, shape=0.5, degree=4, order=1.5),
])
def test_derivatives_match_finite_differences(params):
    sol = ClosedFormSolution(**params)
    r = np.linspace(0.5, 3.0, 7)
    h = 1e-6
    d1_fd = (sol.value(r + h) - sol.value(r - h)) / (2 * h)
    d2_fd = (sol.value(r + h) - 2 * sol.value(r) + sol.value(r - h)) / h**2
    scale = np.abs(sol.value(r)).max()
    assert np.allclose(sol.deriv(r), d1_fd, rtol=1e-7, atol=1e-7 * scale)
    assert np.allclose(sol.deriv2(r), d2_fd, rtol=1e-3, atol=1e-3 * scale)


def test_positive_domain_enforced():
    sol = ClosedFormSolution(amplitude=1.0, power=1.0, rate=1.0, shape=2.0)
    with pytest.raises(ValueError):
        sol.value(0.0)
    with pytest.raises(ValueError):
        sol.value(np.array([1.0, -2.0]))


def test_scaled_keeps_shape():
    sol = ClosedFormSolution(amplitude=2.0, power=1.0, rate=1.0, shape=2.0)
    doubled = sol.scaled(3.0)
    assert doubled.value(1.7) == pytest.approx(3.0 * sol.value(1.7), rel=1e-15)


def test_count_sign_changes():
    assert count_sign_changes([1.0, 2.0, 3.0]) == 0
    assert count_sign_changes([1.0, -1.0, 1.0]) == 2
    assert count_sign_changes([1.0, 1e-18, -1.0]) == 1  # near-zero sample ignored
    assert count_sign_changes([]) == 0


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
    # psi = exp(-r/2) underflows to 0 at both radii: nothing can be checked
    sol = ClosedFormSolution(amplitude=1.0, power=0.0, rate=1.0, shape=1.0)
    assert sol.residual(np.array([1.0, 2.0]), [0.25]).max_residual < 1e-15
    assert sol.residual(np.array([1e4, 2e4]), [0.25]).max_residual == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_relative_residual_fails_on_non_finite_kept_terms(bad):
    terms = [np.array([1.0, bad, 1.0]), np.array([-1.0, 1.0, -1.0])]
    assert relative_residual(terms).max_residual == math.inf
    assert relative_residual(terms, mask=[True, True, False]).max_residual == math.inf
    assert relative_residual(terms, mask=[True, False, True]).max_residual == 0.0


@pytest.mark.parametrize("shape", [2.0, -1.5])
def test_grid_is_geometric_in_the_laguerre_argument(shape):
    sol = ClosedFormSolution(amplitude=1.0, power=1.0, rate=0.7, shape=shape, degree=3)
    r = sol.grid()
    w = np.sort(sol.rate * r**sol.shape)
    assert r.size == 240 and np.all(np.diff(r) > 0)
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
    assert callers == {("closedform.py", "residual"), ("powerlaw.py", "pct_identity_check")}


def test_log_grid_validation():
    with pytest.raises(ValueError):
        log_grid(-1.0, 2.0)
    g = log_grid(1e-2, 10.0, 50)
    assert g.shape == (50,) and g[0] == pytest.approx(1e-2)


def test_log_norm_diverges_exactly_when_s_is_at_most_minus_one():
    # s = (2 power + 1)/shape - 1
    for power, shape, finite in ((1.0, 2.0, True), (0.0, -1.0, False), (-1.0, -1.0, True),
                                 (-0.5, 3.0, False), (-2.0, -0.5, True)):
        sol = ClosedFormSolution(amplitude=1.0, power=power, rate=1.0, shape=shape)
        assert sol.norm_finite is finite
        assert math.isfinite(sol.log_norm()) is finite


@pytest.mark.parametrize("params", [
    dict(amplitude=1.3, power=2.0, rate=1.0, shape=0.5, degree=40, order=6.0),
    dict(amplitude=0.7, power=-1.0, rate=0.8, shape=-1.5, degree=2, order=2.0),
    dict(amplitude=2.0, power=1.0, rate=1.4, shape=0.1, degree=12, order=0.3),
    dict(amplitude=1.0, power=0.5, rate=2.0, shape=3.0, degree=25, order=1.5),
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
