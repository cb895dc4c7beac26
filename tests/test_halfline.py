import math

import numpy as np
import pytest

from zepl import halfline as hl
from zepl import oracle
from zepl import powerlaw as pl
from zepl.closedform import ClosedFormSolution
from zepl.specfn import laguerre


def test_problem_validation():
    with pytest.raises(ValueError):
        hl.HalfLineProblem(N=-2)
    with pytest.raises(ValueError):
        hl.HalfLineProblem(N=0, n=-1)
    with pytest.raises(ValueError):
        hl.spectrum(-2, 0)


def test_spectrum_examples():
    assert hl.spectrum(0, 0) == 3.0
    assert hl.spectrum(-1, 1) == 4.0
    assert hl.spectrum(1, 2) == 16.0


def test_spectrum_spacing_exact():
    for N in (-3, -1, 0, 1, 3):
        for n in range(4):
            assert hl.spectrum(N, n + 1) - hl.spectrum(N, n) == 2.0 * abs(N + 2)


def test_oscillator_ground_state_shape():
    f = hl.eigenfunction(0, 0)
    x = np.linspace(0.2, 4.0, 25)
    ratio = f.value(x) / (x * np.exp(-(x**2) / 2.0))
    assert ratio.std() / ratio.mean() < 1e-12


def test_first_excited_matches_odd_hermite():
    # L_1^(1/2)(x^2) reproduces the E = 7 odd state up to scale
    f = hl.eigenfunction(0, 1)
    x = np.linspace(0.2, 4.0, 25)
    ref = x * np.exp(-(x**2) / 2.0) * laguerre(1, 0.5, x**2)
    ratio = f.value(x) / ref
    assert ratio.std() / abs(ratio.mean()) < 1e-12


@pytest.mark.parametrize("N", [-3, -1, 0, 1, 3])
@pytest.mark.parametrize("n", range(5))
def test_equation_residual(N, n):
    assert hl.residual_41(N, n).max_residual < 1e-8


def test_energy_detector_fires():
    # the same check with E shifted by 0.01 in the equation fails
    sol = hl.eigenfunction(0, 0)
    assert sol.residual([(1.0, 4.0), (-(hl.spectrum(0, 0) + 0.01), 2.0)]).max_residual > 1e-4


def test_laguerre_order_choice():
    # order 1/|N+2| (derived from the general family at l = 0) solves the
    # equation; the |N+2| alternative does not
    prob = hl.HalfLineProblem(N=1, n=2)
    assert hl.residual_41(1, 2).max_residual < 1e-8
    alt = ClosedFormSolution(log_amplitude=0.0, power=1.0, rate=prob.lam_sq,
                             shape=3.0, degree=2, order=float(abs(1 + 2)))
    assert alt.residual([(1.0, 6.0), (-prob.energy, 3.0)]).max_residual > 1e-2


@pytest.mark.parametrize("N", [1, 3, -3])
def test_consistent_with_powerlaw_family(N):
    prob = hl.HalfLineProblem(N=N, n=2)
    fam = pl.PowerLawFamily(mu=prob.mu, lam=math.sqrt(prob.lam_sq), l=0, n=2)
    sol = hl.eigenfunction(N, 2)
    x = np.sort((sol.w_grid(240) / sol.rate) ** (1.0 / sol.shape))
    ratio = sol.value(x) / pl.wavefunction(fam).value(x)
    assert ratio.std() / abs(ratio.mean()) < 1e-10


def test_normalization():
    f = hl.eigenfunction(0, 3)
    q = oracle.quad_seminfinite(f.integrand(), 1e-11)
    assert q.value == pytest.approx(1.0, abs=1e-9)
    g = hl.eigenfunction(-3, 1)
    assert not g.normalized


def test_owns_excluded_mu_values():
    # N = -1 and N = 0 map onto mu values the general family rejects
    assert hl.HalfLineProblem(N=-1).mu == pytest.approx(0.5)
    assert hl.HalfLineProblem(N=0).mu == pytest.approx(0.0)
    assert hl.residual_41(-1, 3).max_residual < 1e-8
    assert hl.residual_41(0, 3).max_residual < 1e-8


@pytest.mark.parametrize("N,n", [(-1, 0), (-1, 4), (1, 2), (3, 3), (6, 1)])
def test_gauss_laguerre_normalization_agrees_with_quadrature(N, n):
    f = hl.eigenfunction(N, n)
    q = oracle.quad_seminfinite(f.integrand(), 1e-11)
    assert f.normalized and q.value == pytest.approx(1.0, abs=1e-9)
