import math

import numpy as np
import pytest

from zepl import oracle
from zepl.oscillator import (OscillatorState, default_grid, eigenvalue_term, ladder_check,
                             phi, phi_eval, residual_a5)


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
    q = oracle.quad_seminfinite(lambda r: f(r) ** 2, 1e-11)
    assert q.converged
    assert q.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gamma,lam", [(0.5, 1.0), (1.75, 0.6)])
def test_orthogonality(gamma, lam):
    f0 = phi(OscillatorState(gamma=gamma, n=0, lam=lam))
    f1 = phi(OscillatorState(gamma=gamma, n=1, lam=lam))
    val = oracle.quad_seminfinite(lambda r: f0(r) * f1(r), 1e-11, atol=1e-12).value
    assert abs(val) < 1e-9


@pytest.mark.parametrize("gamma,n,lam", [(0.5, 0, 1.0), (2.25, 4, 0.7)])
def test_wave_equation_residual(gamma, n, lam):
    rep = residual_a5(OscillatorState(gamma=gamma, n=n, lam=lam))
    assert rep.max_residual < 1e-8


def test_residual_detector_fires():
    # the same check with lam^2 scaled by 1.01 in the equation fails
    state = OscillatorState(gamma=0.5, n=0, lam=1.0)
    x = default_grid(state)
    g, lam_sq = state.gamma, 1.01
    q = [(4.0 * g * (g + 1.0) + 0.75) / x**2, lam_sq**2 * x**2,
         -4.0 * lam_sq * (g + state.n + 1.0)]
    assert phi(state).residual(x, q).max_residual > 1e-3


def test_phi_eval_returns_derivatives():
    state = OscillatorState(gamma=1.0, n=2, lam=0.8)
    x = np.linspace(0.4, 2.0, 5)
    val, d1, d2 = phi_eval(state, x)
    h = 1e-6
    fd = (phi(state)(x + h) - phi(state)(x - h)) / (2 * h)
    assert np.allclose(d1, fd, rtol=1e-7, atol=1e-9)
    assert val.shape == d2.shape == x.shape


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


def test_spectrum_linearity():
    for gamma, lam in [(0.5, 1.0), (2.0, 0.7)]:
        for n in range(4):
            step = (eigenvalue_term(OscillatorState(gamma, n + 1, lam))
                    - eigenvalue_term(OscillatorState(gamma, n, lam)))
            assert step == pytest.approx(4.0 * lam**2, rel=1e-15)
