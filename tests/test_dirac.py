import math

import numpy as np
import pytest

from zepl import dirac
from zepl import powerlaw as pl


def test_family_validation():
    for beta in (0.0, 1.0, 2.0, math.inf):
        with pytest.raises(ValueError):
            dirac.DiracFamily(beta=beta)
    with pytest.raises(ValueError):
        dirac.DiracFamily(beta=0.5, lam=-1.0)


def test_odd_potential_value():
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    assert dirac.odd_potential(fam, 4.0) == pytest.approx(0.125, rel=1e-14)
    with pytest.raises(ValueError):
        dirac.odd_potential(fam, -1.0)


def test_odd_potential_forms_agree():
    fam = dirac.DiracFamily(beta=0.5, lam=1.3, l=2)
    r = np.geomspace(0.1, 10.0, 120)
    a = dirac.odd_potential(fam, r)
    b = dirac.odd_potential_nu_form(fam, r)
    assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


def test_beta_nu_exponent_map():
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    assert fam.nu == pytest.approx(1.5)
    assert (fam.nu - 0.5) / (fam.nu + 0.5) == pytest.approx(1.0 - fam.beta)


def test_correspondence_branches():
    c = dirac.correspondence(0.5, 1)
    assert (c.nu, c.kappa, c.n) == (pytest.approx(1.5), -2, 0)
    c = dirac.correspondence(-0.5, 1)
    assert (c.nu, c.kappa, c.n) == (pytest.approx(-2.5), 1, 0)


@pytest.mark.parametrize("beta,l", [(0.5, 0), (3.0, 2), (-0.5, 1), (-3.0, 0)])
def test_index_always_zero(beta, l):
    assert dirac.correspondence(beta, l).n == 0


def test_spinor_norm_matches_constant():
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    q = dirac.spinor_norm(fam)
    assert q.converged and q.value == pytest.approx(1.0, abs=1e-8)


def test_unnormalizable_branch_flagged():
    with pytest.warns(UserWarning):
        sol = dirac.upper_spinor(dirac.DiracFamily(beta=-1.0, lam=1.0, l=0))
    assert not sol.normalized and sol.c_l is None
    assert any("kappa = 0" in note for note in sol.notes)


def test_spinor_log_form():
    fam = dirac.DiracFamily(beta=0.5, lam=1.2, l=1)
    sol = dirac.upper_spinor(fam)
    r = np.geomspace(0.3, 30.0, 30)
    lhs = np.log(sol.phi.value(r))
    rhs = (math.log(sol.c_l) - fam.kappa * np.log(fam.lam ** (2.0 / fam.beta) * r)
           - 0.5 * fam.lam**2 * r**fam.beta)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("beta,lam,l", [(0.5, 1.0, 1), (-0.5, 0.7, 2)])
def test_reduced_equation_residual(beta, lam, l):
    fam = dirac.DiracFamily(beta=beta, lam=lam, l=l)
    assert dirac.residual_33(fam).max_residual < 1e-8


@pytest.mark.parametrize("beta,kept", [(-0.5, 200), (-3.0, 124)])
def test_residual_is_exactly_zero_at_kappa_zero(beta, kept):
    # l = 0, beta < 0 (kappa = 0): the residual vanishes on every kept point
    with pytest.warns(UserWarning, match="kappa = 0"):
        rep = dirac.residual_33(dirac.DiracFamily(beta=beta, lam=1.0, l=0))
    assert rep.max_residual == 0.0 and rep.residuals.size == kept


def test_residual_detector_fires():
    # the same check with kappa + 1 in the equation fails; at beta > 0,
    # kappa = -l-1, so the l = 0 family carries kappa + 1 of the l = 1 one
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=1)
    shifted = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    r = dirac.default_grid(fam)
    k = shifted.kappa
    phi = dirac.upper_spinor(fam).phi
    assert phi.residual(r, [k * (k + 1.0) / r**2,
                            dirac.operator_bracket(shifted, r)]).max_residual > 1e-2


def test_operator_and_reduced_potential_agree():
    for beta, l in [(0.5, 0), (3.0, 1), (-0.5, 1)]:
        fam = dirac.DiracFamily(beta=beta, lam=1.1, l=l)
        assert dirac.reduced_form_agreement(fam) < 1e-12


def test_lower_component_vanishes():
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0, alpha_fs=1.0)
    sol = dirac.upper_spinor(fam)
    assert dirac.lower_component(fam, sol, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert dirac.lower_component_relative(fam) < 1e-12


def test_lower_component_detector_fires(monkeypatch):
    # doubling W breaks the cancellation
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0, alpha_fs=1.0)
    sol = dirac.upper_spinor(fam)
    odd_potential = dirac.odd_potential
    monkeypatch.setattr(dirac, "odd_potential", lambda f, r: 2.0 * odd_potential(f, r))
    assert abs(dirac.lower_component(fam, sol, 1.0)) > 1e-3


def test_odd_potential_independent_of_l():
    r = np.geomspace(0.1, 50.0, 80)
    w = [dirac.odd_potential(dirac.DiracFamily(beta=0.5, lam=1.3, l=l), r)
         for l in (0, 1, 2, 5)]
    for other in w[1:]:
        assert np.array_equal(w[0], other)


def test_bridge_to_nonrelativistic_family():
    # beta > 0, kappa = -l-1: reduced equation coincides with the zero-energy
    # family at mu = nu, n = 0, and the spinor is proportional to its psi
    fam = dirac.DiracFamily(beta=0.5, lam=1.1, l=1)
    pw = pl.PowerLawFamily(mu=fam.nu, lam=fam.lam, l=fam.l, n=0)
    r = np.geomspace(0.5, 100.0, 150)
    assert np.max(np.abs(dirac.reduced_potential(fam, r) - pl.potential_eval(pw, r))
                  / np.abs(pl.potential_eval(pw, r))) < 1e-12
    ratio = dirac.upper_spinor(fam).phi.value(r) / pl.wavefunction(pw).value(r)
    assert ratio.std() / abs(ratio.mean()) < 1e-10
    assert fam.kappa * (fam.kappa + 1) == fam.l * (fam.l + 1)
