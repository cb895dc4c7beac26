import math

import numpy as np
import pytest

from zepl import oracle, oscillator, verify
from zepl.oscillator import OscillatorState, eigenvalue_term, ladder_check, phi, residual_a5
from zepl.specfn import laguerre


def test_state_validation():
    with pytest.raises(ValueError):
        OscillatorState(gamma=-0.6, n=0)
    with pytest.raises(ValueError):
        OscillatorState(gamma=0.5, n=-1)
    with pytest.raises(ValueError):
        OscillatorState(gamma=0.5, n=0, lam=0.0)


def test_ground_state_value():
    # gamma=1/2, n=0, lam=1: sqrt(2/Gamma(3)) x^(5/2) e^(-x^2/2) = x^2.5 e^(-x^2/2)
    state = OscillatorState(gamma=0.5, n=0, lam=1.0)
    assert phi(state)(1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("n", range(4))
def test_unit_norm(n):
    f = phi(OscillatorState(gamma=0.5, n=n, lam=1.0))
    q = oracle.quad_seminfinite(f.integrand(), 1e-11)
    assert q.converged
    assert q.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gamma,lam", [(0.5, 1.0), (1.75, 0.6)])
def test_orthogonality(gamma, lam):
    f0 = phi(OscillatorState(gamma=gamma, n=0, lam=lam))
    f1 = phi(OscillatorState(gamma=gamma, n=1, lam=lam))
    # phi_0 phi_1 = E_0^2 L_0 L_1 A_1/A_0: both share power, rate and shape
    h = lambda w: laguerre(1, f1.order, w) * math.exp(f1.log_amplitude - f0.log_amplitude)
    val = oracle.quad_seminfinite(f0.integrand(h), 1e-11, atol=1e-12).value
    assert abs(val) < 1e-9


@pytest.mark.parametrize("gamma,n,lam", [(0.5, 0, 1.0), (2.25, 4, 0.7)])
def test_wave_equation_residual(gamma, n, lam):
    rep = residual_a5(OscillatorState(gamma=gamma, n=n, lam=lam))
    assert rep.max_residual < 1e-8


@pytest.mark.filterwarnings("error")
def test_phi_where_its_constant_overflows():
    # (lam x)^(2 gamma + 3/2) and the constant leave the floats (the constant
    # reads inf); the log form gives a normalized phi that solves its equation
    state = OscillatorState(gamma=300.0, n=0, lam=100.0)
    sol = phi(state)
    assert sol.amplitude == math.inf and abs(sol.log_norm()) < 1e-10
    assert residual_a5(state).max_residual < 1e-8


def test_residual_detector_fires():
    # the same check with lam^2 scaled by 1.01 in the equation fails
    state = OscillatorState(gamma=0.5, n=0, lam=1.0)
    g, lam_sq = state.gamma, 1.01
    q = [(4.0 * g * (g + 1.0) + 0.75, 0.0), (lam_sq**2, 4.0),
         (-4.0 * lam_sq * (g + state.n + 1.0), 2.0)]
    assert phi(state).residual(q).max_residual > 1e-3


def test_phi_returns_derivatives():
    f = phi(OscillatorState(gamma=1.0, n=2, lam=0.8))
    x = np.linspace(0.4, 2.0, 5)
    h = 1e-6
    fd = (f(x + h) - f(x - h)) / (2 * h)
    assert np.allclose(f.deriv(x), fd, rtol=1e-7, atol=1e-9)
    assert f(x).shape == f.deriv2(x).shape == x.shape


def test_lowering_annihilates_ground_state():
    rep = ladder_check(0.5, 0)
    assert rep.lminus_annihilation < 1e-8


def test_raising_coefficient():
    rep = ladder_check(0.5, 0)
    assert rep.lplus_expected == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert rep.lplus_norm_ratio == pytest.approx(rep.lplus_expected, rel=1e-6)


def test_compact_generator_eigenvalue():
    rep = ladder_check(0.5, 2)
    assert rep.l3_expected == 3.5
    assert abs(rep.l3_ratio) == pytest.approx(3.5, rel=1e-6)
    assert rep.l3_max_rel_dev < 1e-6


def test_single_global_sign():
    sigmas = {ladder_check(g, n).sigma for g, n in [(0.5, 0), (0.5, 3), (1.75, 2), (3.0, 1)]}
    assert len(sigmas) == 1


def test_sign_row_fails_when_one_state_breaks_the_convention(monkeypatch):
    # the sign is measured per state, so one flipped L3 must show in the suite
    generator = oscillator._generator

    def l3_flipped_at_n3(sol, eta, w, quartic, pm):
        out, val = generator(sol, eta, w, quartic, pm)
        return (-out if sol.degree == 3 and quartic < 0 else out), val

    monkeypatch.setattr(oscillator, "_generator", l3_flipped_at_n3)
    row = next(c for c in verify.suite_oscillator()
               if c.name == "oscillator.ladder[single global sign]")
    assert not row.passed and row.detail == "sigma=[-1, 1]"


def test_spectrum_linearity():
    for gamma, lam in [(0.5, 1.0), (2.0, 0.7)]:
        for n in range(4):
            step = (eigenvalue_term(OscillatorState(gamma, n + 1, lam))
                    - eigenvalue_term(OscillatorState(gamma, n, lam)))
            assert step == pytest.approx(4.0 * lam**2, rel=1e-15)
