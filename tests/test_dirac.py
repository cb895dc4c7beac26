import math

import numpy as np
import pytest

from zepl import dirac
from zepl import powerlaw as pl
from zepl.closedform import positive_radii
from zepl.verify import REDUCED_FORM_TOL, RESIDUAL_TOL, THETA_TOL


# The paper's other forms of the branch, used here as oracles.

def odd_potential(family, r):
    """W(r) = (lam^2 beta/2) r^(beta-1); independent of l by construction."""
    return family.coupling * positive_radii(r) ** (family.beta - 1.0)


def odd_potential_nu_form(family, r):
    """Equivalent form A / r^((nu-1/2)/(nu+1/2)); must agree pointwise with
    the beta form."""
    nu = family.nu
    return family.coupling / positive_radii(r) ** ((nu - 0.5) / (nu + 0.5))


def lower_component(family, r, w=odd_potential):
    """theta(r) = (alpha/2)(W + kappa/r + d/dr) phi(r) at alpha = 1; identically
    zero for the exact upper component."""
    r = positive_radii(r)
    val, d1, _ = dirac.upper_spinor(family)._derivs(r)
    return 0.5 * ((w(family, r) + family.kappa / r) * val + d1)


def reduced_potential(family, r):
    """V(r) of the reduced equation's Schroedinger form: the family (nu, lam, l, 0)'s."""
    return pl.PowerLawFamily(mu=family.nu, lam=family.lam, l=family.l).terms.value(r)


def test_family_validation():
    for beta in (0.0, 1.0, 2.0, math.inf):
        with pytest.raises(ValueError):
            dirac.DiracFamily(beta=beta)
    with pytest.raises(ValueError):
        dirac.DiracFamily(beta=0.5, lam=-1.0)


def test_odd_potential_value():
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    assert odd_potential(fam, 4.0) == pytest.approx(0.125, rel=1e-14)
    with pytest.raises(ValueError):
        odd_potential(fam, -1.0)


def test_odd_potential_forms_agree():
    fam = dirac.DiracFamily(beta=0.5, lam=1.3, l=2)
    r = np.geomspace(0.1, 10.0, 120)
    a = odd_potential(fam, r)
    b = odd_potential_nu_form(fam, r)
    assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


def test_beta_nu_exponent_map():
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    assert fam.nu == pytest.approx(1.5)
    assert (fam.nu - 0.5) / (fam.nu + 0.5) == pytest.approx(1.0 - fam.beta)


def test_correspondence_branches():
    c = dirac.DiracFamily(0.5, l=1)
    assert (c.nu, c.kappa, c.n) == (pytest.approx(1.5), -2, pytest.approx(0.0, abs=1e-12))
    c = dirac.DiracFamily(-0.5, l=1)
    assert (c.nu, c.kappa, c.n) == (pytest.approx(-2.5), 1, pytest.approx(0.0, abs=1e-12))


@pytest.mark.parametrize("beta,l", [(0.5, 0), (3.0, 2), (-0.5, 1), (-3.0, 0)])
def test_index_always_zero(beta, l):
    # n is derived from the r^(beta-2) coefficient, so it is zero to rounding
    assert abs(dirac.DiracFamily(beta, l=l).n) < 1e-12


def test_correspondence_detector_fires(monkeypatch):
    # on the other branch's kappa (l instead of -l-1 at beta > 0) the index
    # the map derives is -6, far outside the verify row's |n| < 1e-12
    monkeypatch.setattr(dirac.DiracFamily, "kappa", property(lambda self: self.l))
    assert dirac.DiracFamily(0.5, l=1).n == pytest.approx(-6.0, abs=1e-12)


def test_spinor_norm_matches_constant():
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    q = dirac.spinor_norm(fam)
    assert q.converged and q.value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.filterwarnings("error")
def test_unnormalizable_branch_flagged():
    # kappa = 0 is in the domain: the notes flag it, and no warning is raised
    fam = dirac.DiracFamily(beta=-1.0, lam=1.0, l=0)
    sol = dirac.upper_spinor(fam)
    assert not sol.normalized and fam.log_c_l is None
    assert any("kappa = 0" in note for note in sol.notes)


def test_spinor_log_form():
    fam = dirac.DiracFamily(beta=0.5, lam=1.2, l=1)
    sol = dirac.upper_spinor(fam)
    r = np.geomspace(0.3, 30.0, 30)
    lhs = np.log(sol.value(r))
    rhs = (fam.log_c_l - fam.kappa * np.log(fam.lam ** (2.0 / fam.beta) * r)
           - 0.5 * fam.lam**2 * r**fam.beta)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("beta,lam,l", [(0.5, 1.0, 1), (-0.5, 0.7, 2)])
def test_reduced_equation_residual(beta, lam, l):
    fam = dirac.DiracFamily(beta=beta, lam=lam, l=l)
    assert dirac.residual_33(fam).max_residual < 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [-0.5, -3.0])
def test_residual_vanishes_to_rounding_at_kappa_zero(beta):
    # l = 0, beta < 0 (kappa = 0): phi = exp(-w/2), and r^2 q is formed from
    # r^beta = exp(beta log r), so the residual is rounding on all 240 points
    fam = dirac.DiracFamily(beta=beta, lam=1.0, l=0)
    assert any("kappa = 0" in note for note in dirac.upper_spinor(fam).notes)
    rep = dirac.residual_33(fam)
    assert rep.max_residual < 1e-15 and rep.residuals.size == 240


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam,l", [*((lam, l) for lam in (0.01, 1.0) for l in (0, 1, 2, 5, 20, 90)),
                                   (30.0, 0)])
def test_checks_at_beta_0_01_form_no_radius(lam, l):
    # r = (w/lam^2)^100 leaves the floats: on grid radii 13 of these raised or warned
    fam = dirac.DiracFamily(beta=0.01, lam=lam, l=l)
    assert dirac.residual_33(fam).max_residual < RESIDUAL_TOL
    assert dirac.lower_component_relative(fam) < THETA_TOL
    assert dirac.reduced_form_agreement(fam) < REDUCED_FORM_TOL


@pytest.mark.parametrize("beta", [1e6, -2e3])
def test_reduced_form_refuses_a_beta_beyond_the_precision_of_nu(beta):
    # nu + 1/2 = 1/beta loses digits; at beta = 1e6 the agreement read 1.7e-9
    with pytest.raises(ValueError, match="keeps 1/beta"):
        dirac.reduced_form_agreement(dirac.DiracFamily(beta=beta, lam=1.0, l=1))


def test_residual_detector_fires():
    # the same check with kappa + 1 in the equation fails; at beta > 0,
    # kappa = -l-1, so the l = 0 family carries kappa + 1 of the l = 1 one
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=1)
    shifted = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    phi = dirac.upper_spinor(fam)
    k = shifted.kappa
    assert phi.residual([(k * (k + 1.0), 0.0),
                         *dirac.bracket_monomials(shifted)]).max_residual > 1e-2


def test_operator_and_reduced_potential_agree():
    # at beta = 47.2852 the bracket's pieces are near 2450 and it is 0.197:
    # scaled by |bracket| + |2V| instead of its pieces, rounding read 3.1e-12
    for beta, l in [(0.5, 0), (3.0, 1), (-0.5, 1), (47.2852, 1)]:
        fam = dirac.DiracFamily(beta=beta, lam=1.1, l=l)
        assert dirac.reduced_form_agreement(fam) < 1e-12


def test_lower_component_vanishes():
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    assert lower_component(fam, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert dirac.lower_component_relative(fam) < 1e-12


def test_lower_component_detector_fires():
    # doubling W breaks the cancellation
    fam = dirac.DiracFamily(beta=0.5, lam=1.0, l=0)
    assert abs(lower_component(fam, 1.0, w=lambda f, r: 2.0 * odd_potential(f, r))) > 1e-3


def test_odd_potential_independent_of_l():
    r = np.geomspace(0.1, 50.0, 80)
    w = [odd_potential(dirac.DiracFamily(beta=0.5, lam=1.3, l=l), r)
         for l in (0, 1, 2, 5)]
    for other in w[1:]:
        assert np.array_equal(w[0], other)


def test_bridge_to_nonrelativistic_family():
    # beta > 0, kappa = -l-1: reduced equation coincides with the zero-energy
    # family at mu = nu, n = 0, and the spinor is proportional to its psi
    fam = dirac.DiracFamily(beta=0.5, lam=1.1, l=1)
    pw = pl.PowerLawFamily(mu=fam.nu, lam=fam.lam, l=fam.l, n=0)
    r = np.geomspace(0.5, 100.0, 150)
    assert np.max(np.abs(reduced_potential(fam, r) - pw.terms.value(r))
                  / np.abs(pw.terms.value(r))) < 1e-12
    ratio = dirac.upper_spinor(fam).value(r) / pl.wavefunction(pw).value(r)
    assert ratio.std() / abs(ratio.mean()) < 1e-10
    assert fam.kappa * (fam.kappa + 1) == fam.l * (fam.l + 1)


@pytest.mark.parametrize("beta,lam,l", [(0.05, 3.0, 5), (-0.05, 3.0, 5), (0.25, 2.0, 20)])
def test_log_form_constant_where_gamma_overflows(beta, lam, l):
    # C_l = lam^(1/beta) sqrt(|beta| / Gamma((1 - 2 kappa)/beta)); at (0.05, 3, 5)
    # the Gamma argument is 260 and Gamma alone overflows a float
    fam = dirac.DiracFamily(beta=beta, lam=lam, l=l)
    arg = (1.0 - 2.0 * fam.kappa) / beta
    log_c = math.log(lam) / beta + 0.5 * (math.log(abs(beta)) - math.lgamma(arg))
    assert 0.0 < math.exp(fam.log_c_l) and fam.log_c_l == pytest.approx(log_c, rel=1e-13)
    assert dirac.residual_33(fam).max_residual < 1e-8
