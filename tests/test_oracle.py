import ast
import math
from pathlib import Path

import numpy as np
import pytest

from zepl import oracle


# --- quadrature ---------------------------------------------------------------

def test_quad_exponential():
    q = oracle.quad_seminfinite(lambda r: np.exp(-r), 1e-10)
    assert q.converged
    assert q.value == pytest.approx(1.0, rel=1e-10)


def test_quad_gaussian_moment():
    q = oracle.quad_seminfinite(lambda r: r**2 * np.exp(-(r**2)), 1e-12)
    assert q.converged
    assert q.value == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-11)


def test_quad_divergent_flags():
    q = oracle.quad_seminfinite(lambda r: 1.0 / r, 1e-8)
    assert not q.converged
    assert "truncated" in q.note or "budget" in q.note


def test_quad_tol_validated():
    for bad in (1e-14, 1e-5, 0.0):
        with pytest.raises(ValueError):
            oracle.quad_seminfinite(lambda r: np.exp(-r), bad)


def test_quad_self_consistency_on_tol_halving():
    f = lambda r: r**3 * np.exp(-1.7 * r)
    coarse = oracle.quad_seminfinite(f, 1e-8)
    fine = oracle.quad_seminfinite(f, 5e-9)
    assert abs(coarse.value - fine.value) <= coarse.error + fine.error


def test_quad_shifted_scale():
    # mass far from r ~ 1 must still be found by the window expansion
    q = oracle.quad_seminfinite(lambda r: np.exp(-((np.log(r) - 15.0) ** 2)), 1e-9)
    assert q.converged
    assert q.value == pytest.approx(math.sqrt(math.pi) * math.exp(15.0 + 0.25), rel=1e-8)


# --- radial integration ---------------------------------------------------------

def test_free_particle_log_derivative():
    ode = oracle.RadialODE(q=lambda r, c: 0.0, r_inner=1e-3, r_outer=10.0,
                           origin_exponent=1.0, match_radius=1.0)
    traj = oracle.integrate_radial(ode, 0.0, "outward")
    assert traj.log_deriv == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(traj.r) > 0)


def test_inward_direction_and_renormalization():
    # u'' = u with decaying outer start: u ~ e^(-r), log-derivative -1
    ode = oracle.RadialODE(q=lambda r, c: 1.0, r_inner=0.1, r_outer=60.0,
                           origin_exponent=1.0, match_radius=1.0)
    traj = oracle.integrate_radial(ode, 0.0, "inward")
    assert traj.log_deriv == pytest.approx(-1.0, rel=1e-6)
    assert np.isfinite(traj.u).all()


def test_direction_validated():
    ode = oracle.RadialODE(q=lambda r, c: 0.0, r_inner=1e-3, r_outer=10.0)
    with pytest.raises(ValueError):
        oracle.integrate_radial(ode, 0.0, "sideways")


# --- coupling shooting -----------------------------------------------------------

def test_mismatch_brackets_each_root():
    ode = oracle.build_powerlaw_ode(1.5, 1.0, 1)
    d0 = 7.0 / 16.0
    lo = oracle.coupling_mismatch(ode, d0 - 0.02)[0]
    hi = oracle.coupling_mismatch(ode, d0 + 0.02)[0]
    at = oracle.coupling_mismatch(ode, d0)[0]
    assert lo * hi < 0
    assert abs(at) < 1e-7


def test_shoot_coupling_l0():
    res = oracle.shoot_coupling(1.5, 1.0, 0, count=2)
    predicted = [(2 * n + 3) / 16.0 for n in range(2)]
    assert len(res.values) == 2
    for got, want in zip(res.values, predicted):
        assert got == pytest.approx(want, rel=1e-6)
    assert res.node_counts == [0, 1]
    assert res.values == sorted(res.values)


def test_shoot_coupling_below_branch():
    res = oracle.shoot_coupling(-1.5, 1.0, 1, count=2)
    predicted = [(2 * n + 4) / 4.0 for n in range(2)]
    for got, want in zip(res.values, predicted):
        assert got == pytest.approx(want, rel=1e-6)
    assert res.node_counts == [0, 1]


def test_shoot_coupling_count_capped():
    with pytest.raises(ValueError):
        oracle.shoot_coupling(1.5, 1.0, 1, count=7)


# --- spectral shooting -----------------------------------------------------------

def test_shoot_energy_quartic_plus_linear():
    res = oracle.shoot_energy_bender(1, count=2)
    assert res.values[0] == pytest.approx(4.0, rel=1e-6)
    assert res.values[1] == pytest.approx(10.0, rel=1e-6)
    assert res.node_counts == [0, 1]


def test_shoot_energy_validation():
    with pytest.raises(ValueError):
        oracle.shoot_energy_bender(2, count=2)
    with pytest.raises(ValueError):
        oracle.shoot_energy_bender(0, count=9)


# --- Pruefer-angle search ------------------------------------------------------

def _coupling_levels(mu, lam, l, count):
    unit = (lam / (2.0 * mu + 1.0)) ** 2
    return [unit * (2 * n + 1 + (2 * l + 1) * abs(mu + 0.5)) for n in range(count)]


def test_start_angle_counts_zeros_inside_the_start_radius():
    # the n = 5 level at (1/4, 1, 0) must not be skipped for the n = 6 one
    res = oracle.shoot_coupling(0.25, 1.0, 0, count=6)
    expected = [(4.0 / 9.0) * (2 * n + 1.75) for n in range(6)]
    for got, want in zip(res.values, expected, strict=True):
        assert abs(got - want) < 1e-9
    assert res.node_counts == list(range(6))


@pytest.mark.parametrize("mu, lam, l, count", [
    (1.5, 1.0, 1, 6), (-2.5, 1.0, 2, 6), (-0.75, 1.0, 2, 6), (1.0 / 6.0, 2.0, 1, 6)])
def test_shoot_coupling_at_count_cap(mu, lam, l, count):
    res = oracle.shoot_coupling(mu, lam, l, count=count)
    for got, want in zip(res.values, _coupling_levels(mu, lam, l, count), strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == list(range(count))


@pytest.mark.parametrize("n_power", [-1, 0, 1, 3])
def test_shoot_energy_at_count_cap(n_power):
    res = oracle.shoot_energy_bender(n_power, count=4)
    expected = [(2 * n + 1) * abs(n_power + 2) + 1.0 for n in range(4)]
    for got, want in zip(res.values, expected, strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == [0, 1, 2, 3]


@pytest.mark.parametrize("mu, l, coupling", [(1.5, 1, 0.5), (-1.5, 1, 2.2), (0.25, 0, 3.0)])
def test_mismatch_is_the_scaled_wronskian(mu, l, coupling):
    ode = oracle.build_powerlaw_ode(mu, 1.0, l)
    mismatch, out, inn = oracle.coupling_mismatch(ode, coupling)
    rm = ode.match_at(coupling)
    w = out.end_du * inn.end_u - inn.end_du * out.end_u
    scale = math.sqrt((out.end_u**2 + (rm * out.end_du) ** 2)
                      * (inn.end_u**2 + (rm * inn.end_du) ** 2))
    assert mismatch == pytest.approx(w * rm / scale, abs=1e-12)
    assert abs(mismatch) > 1e-3  # off the spectrum


def test_shooting_diagnostics_count_the_work():
    res = oracle.shoot_energy_bender(0, count=2)
    diag = res.diagnostics
    assert set(diag) == {"mismatch_evals", "ode_sweeps", "rhs_evals"}
    assert all(isinstance(v, int) and v > 0 for v in diag.values())
    assert diag["ode_sweeps"] == 2 * diag["mismatch_evals"]
    assert diag["rhs_evals"] > diag["ode_sweeps"]


def test_oracle_imports_nothing_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("zepl")
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "zepl" for a in node.names)
