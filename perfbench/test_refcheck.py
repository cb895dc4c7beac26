"""The independent checks accept the paper's answers and reject slightly
wrong ones.  Like refcheck itself, nothing here imports zepl."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import refcheck as rc

FAMILIES = [(1.5, 1.0, 1, 3), (-1.5, 0.7, 2, 4), (0.25, 2.0, 0, 6), (-2.75, 1.3, 3, 12)]


def _normalised(mu, lam, l, n):
    shape = rc.paper_shape(mu, lam, l, n)
    return shape, 1.0 / math.sqrt(rc.gl_norm(1.0, shape))


def test_levels_match_the_paper():
    assert [rc.coupling_level(1.5, 1.0, 1, n) for n in range(3)] == [7 / 16, 9 / 16, 11 / 16]
    assert [rc.energy_level(0, n) for n in range(2)] == [3.0, 7.0]
    assert [rc.energy_level(-1, n) for n in range(2)] == [2.0, 4.0]


def test_level_off_by_1e5_relative_is_rejected():
    expected = [rc.coupling_level(-0.75, 1.0, 1, n) for n in range(3)]
    assert rc.check_levels(expected, expected) is None
    assert rc.check_levels([expected[0], expected[1] * (1 + 1e-5), expected[2]], expected)
    assert rc.check_levels(expected[:2], expected)


def test_node_counts():
    assert rc.check_node_counts([0, 1, 2], 3) is None
    assert rc.check_node_counts([0, 2, 1], 3)
    assert rc.check_node_counts([0, 1], 3)


@pytest.mark.parametrize("family", FAMILIES)
def test_gauss_laguerre_norm_agrees_with_adaptive_quadrature(family):
    shape, amp = _normalised(*family)
    value, _ = quad(lambda x: rc.psi(amp, shape, x) ** 2, 0.0, np.inf,
                    limit=400, epsabs=0.0, epsrel=1e-11)
    assert abs(value - 1.0) < 1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_norm_off_by_1e6_is_rejected(family):
    shape, amp = _normalised(*family)
    assert rc.check_norm(rc.gl_norm(amp * math.sqrt(1 + 1e-6), shape))


def test_finite_rule_and_flipped_flag():
    divergent = rc.paper_shape(-1.5, 1.0, 0, 2)
    finite = rc.paper_shape(-1.5, 1.0, 1, 2)
    assert rc.gl_norm(1.0, divergent) == math.inf
    assert rc.check_finite_rule(False, divergent) is None
    assert rc.check_finite_rule(True, divergent)
    assert rc.check_finite_rule(True, finite) is None
    assert rc.check_finite_rule(False, finite)


@pytest.mark.parametrize("family", FAMILIES)
def test_psi_solves_the_wave_equation(family):
    """psi, psi' and V_eff are consistent: a central difference of psi'
    gives V_eff psi."""
    mu, lam, l, n = family
    shape, amp = _normalised(*family)
    r = rc.radial_grid(shape, 300)
    h = 1e-5 * r
    d2 = (rc.psi_deriv(amp, shape, r + h) - rc.psi_deriv(amp, shape, r - h)) / (2 * h)
    assert rc.check_residual(mu, lam, l, n, r, rc.psi(amp, shape, r), d2, tol=1e-5) is None
    d1 = (rc.psi(amp, shape, r + h) - rc.psi(amp, shape, r - h)) / (2 * h)
    assert rc.check_psi(d1, rc.psi_deriv(amp, shape, r), tol=1e-7) is None


@pytest.mark.parametrize("family", FAMILIES)
def test_slightly_wrong_psi_or_second_derivative_is_rejected(family):
    mu, lam, l, n = family
    shape, amp = _normalised(*family)
    r = rc.radial_grid(shape, 300)
    values = rc.psi(amp, shape, r)
    exact_d2 = rc.veff(mu, lam, l, n, r) * values
    assert rc.check_psi(values, values) is None
    assert rc.check_psi(values + 1e-9 * np.abs(values).max(), values)
    assert rc.check_residual(mu, lam, l, n, r, values, exact_d2) is None
    assert rc.check_residual(mu, lam, l, n, r, values, exact_d2 * (1 + 1e-7))
    assert rc.check_residual(mu, lam * (1 + 1e-7), l, n, r, values, exact_d2)


def test_veff_off_in_lambda_is_rejected():
    r = np.geomspace(0.01, 100.0, 200)
    good = rc.veff(1.5, 1.0, 1, 2, r)
    assert rc.check_veff(good, 1.5, 1.0, 1, 2, r) is None
    assert rc.check_veff(rc.veff(1.5, 1.0 + 1e-9, 1, 2, r), 1.5, 1.0, 1, 2, r)


@pytest.mark.parametrize("family", FAMILIES)
def test_node_count_is_n(family):
    shape, amp = _normalised(*family)
    r = rc.radial_grid(shape, 4000)
    count = rc.sign_changes(rc.psi(amp, shape, r))
    assert rc.check_node_count(count, family[3]) is None
    assert rc.check_node_count(count + 1, family[3])


def test_flipped_verdict_is_rejected():
    assert rc.check_verdict(True, True, 1.5, 1) is None
    assert rc.check_verdict(False, True, 1.5, 1)
    assert rc.check_verdict(False, False, -1.5, 0) is None
    assert rc.check_verdict(True, False, -1.5, 0)
    assert rc.check_verdict(True, True, -1.5, 1) is None
    assert rc.check_verdict(True, False, -1.5, 1)


def test_missing_degenerate_pair_is_rejected():
    assert rc.check_degenerate({(0, 4), (1, 2), (2, 0)}, 1, 2) is None
    assert rc.check_degenerate({(0, 4), (2, 0)}, 1, 2)
