import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from zepl import powerlaw as pl
from zepl.specfn import laguerre
from zepl.verify import PCT_TOL, RESIDUAL_TOL

FAMILY_GRID = [
    (-2.5, 2, 4, 2.0), (-1.5, 1, 0, 0.7), (-0.75, 0, 2, 1.0), (-0.75, 2, 3, 1.0),
    (1.0 / 6.0, 0, 1, 0.7), (0.25, 1, 2, 2.0), (1.5, 0, 0, 1.0), (1.5, 2, 4, 0.7),
    (2.5, 1, 1, 2.0),
]


def radii(sol):
    """Sample radii of w_grid(240), ascending."""
    return np.sort((sol.w_grid(240) / sol.rate) ** (1.0 / sol.shape))


# --- family & parameter map -------------------------------------------------

@pytest.mark.parametrize("mu", [0, 0.5, -0.5, Fraction(1, 2)])
def test_excluded_mu_rejected(mu):
    with pytest.raises(ValueError):
        pl.PowerLawFamily(mu=mu)


def test_field_validation():
    with pytest.raises(ValueError):
        pl.PowerLawFamily(mu=1.5, lam=-1.0)
    with pytest.raises(ValueError):
        pl.PowerLawFamily(mu=1.5, l=-1)
    with pytest.raises(ValueError):
        pl.PowerLawFamily(mu=1.5, n=1.5)


@pytest.mark.parametrize("mu,l,n,lam", FAMILY_GRID)
def test_gamma_above_lower_bound(mu, l, n, lam):
    fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
    assert fam.gamma > -0.5
    assert fam.beta > 0


def test_map_parameters_gamma_examples():
    assert pl.map_parameters(pl.PowerLawFamily(mu=1.5, l=0)).gamma == pytest.approx(0.5)
    assert pl.map_parameters(pl.PowerLawFamily(mu=-0.75, l=1)).gamma == pytest.approx(-0.125)
    assert pl.map_parameters(pl.PowerLawFamily(mu=1.5, l=0)).energy == 0.0


def test_map_parameters_terms_example():
    terms = pl.map_parameters(pl.PowerLawFamily(mu=1.5, lam=2.0, l=0, n=0)).terms
    assert terms.repulsive_coeff == pytest.approx(0.5, rel=1e-14)
    assert terms.repulsive_exponent == pytest.approx(-1.0)
    assert terms.attractive_coeff == pytest.approx(0.75, rel=1e-14)
    assert terms.attractive_exponent == pytest.approx(-1.5)


def test_potential_value_example():
    fam = pl.PowerLawFamily(mu=1.5, lam=2.0, l=0, n=0)
    assert pl.potential_eval(fam, 1.0) == pytest.approx(-0.25, rel=1e-14)
    with pytest.raises(ValueError):
        pl.potential_eval(fam, 0.0)


def test_effective_potential_reduces_to_2v_at_l0():
    fam = pl.PowerLawFamily(mu=-0.75, lam=1.3, l=0, n=2)
    r = np.geomspace(0.1, 10, 50)
    assert np.allclose(pl.effective_potential_eval(fam, r),
                       2.0 * pl.potential_eval(fam, r), rtol=1e-15)


@pytest.mark.filterwarnings("error")
def test_effective_potential_beyond_the_floats_is_the_dominant_terms_inf():
    # at l = 0 the centrifugal term is exactly 0, also where r^2 underflows;
    # elsewhere a sum that leaves the floats takes the sign of its largest term
    r = np.geomspace(1e-300, 1e300, 601)
    fam = pl.PowerLawFamily(mu=2.5, lam=1.0, l=0, n=0)
    assert np.array_equal(pl.effective_potential_eval(fam, r), 2.0 * pl.potential_eval(fam, r))
    fam = pl.PowerLawFamily(mu=7 / 3, lam=1.0, l=100_000, n=0)
    v_eff = pl.effective_potential_eval(fam, r)
    assert not np.isnan(v_eff).any() and np.all(v_eff[r < 1e-150] == np.inf)
    assert pl.effective_potential_eval(fam, 1e-300) == np.inf


def effective_potential_beta_form(family, r):
    """The effective potential written in the tail parameter beta; must agree
    pointwise with the mu form for every valid family."""
    b, lam, l, n = family.beta, family.lam, family.l, family.n
    omega_b = 2 * n + 1 + (2 * l + 1) / b
    s = r**b if family.above else r**(-b)
    return (l * (l + 1) + (b**2 * lam**4 / 4.0) * s**2
            - (b**2 * lam**2 / 2.0) * omega_b * s) / r**2


@pytest.mark.parametrize("mu,l,n,lam", FAMILY_GRID)
def test_beta_form_equals_mu_form(mu, l, n, lam):
    fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
    r = np.geomspace(1e-2, 1e2, 300)
    a = pl.effective_potential_eval(fam, r)
    b = effective_potential_beta_form(fam, r)
    assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)) < 1e-12


# --- exponents ---------------------------------------------------------------

def test_exponent_pair_examples():
    assert pl.exponent_pair(1.5) == pytest.approx((-1.0, -1.5))
    assert pl.exponent_pair(-0.75) == pytest.approx((-10.0, -6.0))


@pytest.mark.parametrize("mu", [1e6, -1e6])
def test_exponent_pair_large_mu_limit(mu):
    p1, p2 = pl.exponent_pair(mu)
    assert abs(p1 + 2.0) < 1e-5
    assert abs(p2 + 2.0) < 1e-5


def test_exponent_pair_rejects_excluded():
    for mu in (0, 0.5, -0.5):
        with pytest.raises(ValueError):
            pl.exponent_pair(mu)


# --- wavefunction -----------------------------------------------------------

def test_special_case_ratio_is_constant():
    lam, l, n = 1.0, 1, 2
    fam = pl.PowerLawFamily(mu=1.5, lam=lam, l=l, n=n)
    z = lam**4 / 32.0
    r = np.geomspace(0.5, 50.0, 200)
    ref = ((z * r) ** (l + 1) * np.exp(-2.0 * np.sqrt(2.0 * z * r))
           * laguerre(n, 4 * l + 2, 4.0 * np.sqrt(2.0 * z * r)))
    ratio = pl.wavefunction(fam).value(r) / ref
    assert ratio.std() / abs(ratio.mean()) < 1e-10


def test_below_branch_l0_tagged_unnormalized():
    sol = pl.wavefunction(pl.PowerLawFamily(mu=-1.5, lam=1.0, l=0, n=0))
    assert not sol.normalized
    assert any("unnormalized" in note for note in sol.notes)


def test_nodeless_log_form():
    fam = pl.PowerLawFamily(mu=1.5, lam=1.0, l=2, n=0)
    sol = pl.wavefunction(fam)
    r = np.geomspace(0.1, 30.0, 40)
    lhs = np.log(sol.value(r) / sol.amplitude)
    rhs = sol.power * np.log(r) - 0.5 * sol.rate * r**sol.shape
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("mu,l,lam", [(1.5, 1, 1.0), (-0.75, 2, 2.0)])
@pytest.mark.parametrize("n", range(5))
def test_interior_node_count(mu, l, lam, n):
    fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
    assert pl.interior_node_count(fam) == n


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu,lam,l,n", [(50, 1.0, 2, 3), (1.5, 1.0, 60, 3),
                                        (-10, 1e-3, 0, 40), (-10, 1.0, 0, 40),
                                        (-10, 30.0, 0, 40)])
def test_node_count_where_the_factors_leave_the_floats(mu, lam, l, n):
    # r^power overflows on the count grid, or psi's outer lobes lie e^30
    # below its peak (mu = -10); the count is made on L(w) alone
    assert pl.interior_node_count(pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)) == n


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", (-50, 50))
def test_node_count_at_mu_50_needs_no_radius(mu):
    # 24 of these 72 families have grid radii outside the floats; the count
    # runs on w_grid alone
    for l in (0, 2, 20, 60):
        for n in (0, 5, 40):
            for lam in (1e-3, 1.0, 30.0):
                fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
                assert pl.interior_node_count(fam) == n, fam


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", (-50, 50))
def test_residual_and_pct_identity_at_mu_50_need_no_radius(mu):
    # l(l+1)/r^2 and V(r) on grid radii warned or raised on 43 of these 72
    # families, and the identity on its oscillator grid warned on 40; both
    # now run in w and log r
    for l in (0, 2, 20, 60):
        for n in (0, 5, 40):
            for lam in (1e-3, 1.0, 30.0):
                fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
                assert pl.schrodinger_residual(fam).max_residual < RESIDUAL_TOL, fam
                assert pl.pct_identity_check(fam).max_residual < PCT_TOL, fam


# --- residual identities ----------------------------------------------------

@pytest.mark.parametrize("mu,l,n,lam", FAMILY_GRID)
def test_zero_energy_residual(mu, l, n, lam):
    fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
    assert pl.schrodinger_residual(fam).max_residual < 1e-8


def test_residual_detector_fires():
    # l = 0: the same check with the attractive coefficient scaled by 1.001 fails
    fam = pl.PowerLawFamily(mu=1.5, lam=1.0, l=0, n=0)
    sol = pl.wavefunction(fam)
    terms = pl.map_parameters(fam).terms
    k = 1.0 / (fam.mu_f + 0.5)
    for scale, ok in ((1.0, True), (1.001, False)):
        t = terms.scaled(scale)
        rep = sol.residual([(2.0 * t.repulsive_coeff, 2.0 * k), (-2.0 * t.attractive_coeff, k)])
        assert (rep.max_residual < 1e-8) if ok else (rep.max_residual > 1e-4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu,lam,l,n", [(-50, 1.0, 2, 3), (50, 1.0, 2, 3), (1.5, 1.0, 60, 3)])
def test_residual_where_the_factors_leave_the_floats(mu, lam, l, n):
    # the grid covers psi's peak (w near 2 power/shape, far beyond 30(n+1)),
    # and the residual is checked at the scale where psi's envelope peaks at 1
    rep = pl.schrodinger_residual(pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n))
    assert rep.max_residual < 1e-8 and rep.residuals.size >= 40


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [1e4, -1e6, -1e7])
def test_residual_exponents_do_not_cancel_at_large_mu(mu):
    # p + 2 formed from p = -2 + 2/(mu + 1/2) keeps only |mu| eps of it: the
    # residual read 7.3e-13, 1.6e-9 and 1.85e-8 here, the last above RESIDUAL_TOL
    rep = pl.schrodinger_residual(pl.PowerLawFamily(mu=mu, lam=1.0, l=2, n=3))
    assert rep.max_residual < 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu,lam,l,n", [(9, 1.0, 0, 0), (10, 1.0, 0, 3), (20, 1.0, 0, 5)])
def test_residual_scale_is_taken_where_psi_is_checked(mu, lam, l, n):
    # V ~ r^p1 blows up at r -> 0, where psi vanishes; a scale peak taken
    # there dropped every point psi's mask keeps, and the residual read inf
    rep = pl.schrodinger_residual(pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n))
    assert rep.max_residual < 1e-8


@pytest.mark.filterwarnings("error")
def test_residual_is_checked_at_unit_amplitude():
    # psi's scale does not enter the residual, and at unit amplitude this
    # family is finite on its whole grid
    rep = pl.schrodinger_residual(pl.PowerLawFamily(mu=1.5, lam=1.0, l=60, n=3))
    assert rep.max_residual < 1e-8


@pytest.mark.parametrize("mu,l,n,lam", [(1.5, 1, 0, 1.0), (-0.75, 0, 2, 0.8)])
def test_pct_identity(mu, l, n, lam):
    fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
    assert pl.pct_identity_check(fam).max_residual < 1e-10


def test_pct_detector_fires(monkeypatch):
    fam = pl.PowerLawFamily(mu=1.5, lam=1.0, l=1, n=0)
    gamma = pl.PowerLawFamily.gamma
    monkeypatch.setattr(pl.PowerLawFamily, "gamma",
                        property(lambda self: gamma.fget(self) + 0.01))
    assert pl.pct_identity_check(fam).max_residual > 1e-3


def test_pct_exponent_detector_fires(monkeypatch):
    # p1 off by one part in 1e6 breaks M(p1+2) = 4
    fam = pl.PowerLawFamily(mu=1.5, lam=1.0, l=1, n=0)
    exponent_pair = pl.exponent_pair
    monkeypatch.setattr(pl, "exponent_pair",
                        lambda mu: (exponent_pair(mu)[0] * (1 + 1e-6), exponent_pair(mu)[1]))
    assert pl.pct_identity_check(fam).max_residual > 1e-7


# --- the matrix as stacks of families ----------------------------------------

# suite: (one-family check, stacked maxima, the suite's tolerance)
STACKED = {"zero_energy": (pl.schrodinger_residual, pl.schrodinger_residual_maxima, RESIDUAL_TOL),
           "pct_identity": (pl.pct_identity_check, pl.pct_identity_maxima, PCT_TOL)}


@pytest.mark.parametrize("check,maxima", [s[:2] for s in STACKED.values()])
def test_stacked_pass_is_the_one_family_check_bit_for_bit(check, maxima):
    # every one of the 315 families, in the matrix's order and reversed
    from zepl.verify import _families

    fams = list(_families())
    one_by_one = [check(fam).max_residual for fam in fams]
    assert maxima(fams).tolist() == one_by_one
    assert maxima(fams[::-1]).tolist() == one_by_one[::-1]


def test_the_matrix_residual_is_below_1e_13():
    # 2.4e-14 measured over the 315 families, at (5/2, 0.7, 0, 0); r^2 psi''/E
    # formed with the cross term 2 rg d1 + d2, whose two large parts cancel
    # to g d1, read 1.9e-13 at (1/6, 1, 0, 3)
    from zepl.verify import _families

    assert pl.schrodinger_residual_maxima(list(_families())).max() < 1e-13


@pytest.mark.parametrize("suite", ["zero_energy", "pct_identity"])
@pytest.mark.parametrize("index", [0, 137, 314])
def test_stacked_pass_fails_at_exactly_the_perturbed_family(monkeypatch, suite, index):
    # the attractive coefficient of one family, scaled by 1.001, breaks both
    # identities there and nowhere else in its stack
    from zepl import verify

    fams = list(verify._families())
    target, map_parameters = fams[index], pl.map_parameters

    def perturbed(fam):
        mapped = map_parameters(fam)
        return replace(mapped, terms=mapped.terms.scaled(1.001)) if fam == target else mapped

    monkeypatch.setattr(pl, "map_parameters", perturbed)
    check, maxima, tol = STACKED[suite]
    assert np.flatnonzero(maxima(fams) >= tol).tolist() == [index]
    [row] = verify.run_suite(suite)
    assert not row.passed and row.detail == f"worst at {target}"
    assert row.value == check(target).max_residual > 1e-4


# --- bound-state condition ---------------------------------------------------

def test_condition_l0_always_satisfied():
    fam = pl.PowerLawFamily(mu=1.5, lam=1.0, l=0, n=0)
    cond = pl.bound_condition(fam)
    assert cond.rhs < 0 and cond.satisfied and not cond.applicable


def test_condition_arithmetic_above():
    cond = pl.bound_condition(pl.PowerLawFamily(mu=1.5, lam=1.0, l=1, n=0))
    assert cond.rhs == pytest.approx(-5.0 / 6.0, rel=1e-12)
    assert cond.applicable and cond.satisfied
    assert cond.status == "satisfied"


def test_condition_arithmetic_below():
    cond = pl.bound_condition(pl.PowerLawFamily(mu=-1.5, lam=1.0, l=1, n=0))
    assert cond.rhs == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert cond.status == "satisfied"


def test_condition_not_applicable_between():
    cond = pl.bound_condition(pl.PowerLawFamily(mu=0.25, lam=1.0, l=1, n=0))
    assert cond.status == "not-applicable" and cond.rhs is None


# --- classification ----------------------------------------------------------

def test_classify_examples():
    rep = pl.classify(pl.PowerLawFamily(mu=-0.75, lam=1.0, l=0, n=0))
    assert (rep.bounded, rep.normalizable) == (False, False)
    rep = pl.classify(pl.PowerLawFamily(mu=1.0 / 6.0, lam=1.0, l=0, n=0))
    assert (rep.bounded, rep.normalizable) == (True, True)
    rep = pl.classify(pl.PowerLawFamily(mu=2.5, lam=1.0, l=0, n=0))
    assert rep.limit_infinity == "0+" and rep.limit_origin == "-inf" and rep.bounded


def test_classify_table_grid():
    for mu in (-1.5, -0.75, 1.0 / 6.0, 0.25, 1.5, 2.5):
        for l in (0, 1, 2):
            rep = pl.classify(pl.PowerLawFamily(mu=mu, lam=1.0, l=l, n=0))
            expect_fail = mu < -0.5 and l == 0
            assert rep.bounded == (not expect_fail)
            assert rep.normalizable == (not expect_fail)


def test_classify_limits_below_branch():
    rep = pl.classify(pl.PowerLawFamily(mu=-1.5, lam=1.0, l=0, n=0))
    assert rep.limit_origin == "+inf" and rep.limit_infinity == "0-"
    rep = pl.classify(pl.PowerLawFamily(mu=-1.5, lam=1.0, l=1, n=0))
    assert rep.limit_infinity == "0+"


def test_classify_subquantized_shape():
    # scaling the attractive coupling below the critical value removes the
    # well: condition violated, scan unbounded, normalizability untouched
    fam = pl.PowerLawFamily(mu=1.5, lam=1.0, l=1, n=0)
    rep = pl.classify(fam, coupling_scale=0.7)
    assert not rep.bounded
    assert rep.condition.status == "violated"
    assert rep.normalizable
    assert not rep.well.found_negative_minimum


def test_classify_satisfied_but_unbounded_window():
    # condition satisfied (stationary points exist) yet the minimum sits above
    # zero: necessary, not sufficient
    fam = pl.PowerLawFamily(mu=1.5, lam=1.0, l=1, n=0)
    rep = pl.classify(fam, coupling_scale=0.78)
    assert rep.condition.status == "satisfied"
    assert not rep.bounded


# --- degeneracy ----------------------------------------------------------------

def brute_force_pairs(mu, omega, l_max, n_max=60):
    """Enumeration oracle over the full (l, n) rectangle."""
    q = abs(Fraction(mu) + Fraction(1, 2))
    found = set()
    for l in range(l_max + 1):
        for n in range(n_max + 1):
            if 2 * n + 1 + (2 * l + 1) * q == omega:
                found.add((l, n))
    return found


def test_degenerate_pairs_examples():
    mu = Fraction(3, 2)
    assert pl.degenerate_pairs(mu, 11, 4) == {(0, 4), (1, 2), (2, 0)}
    assert pl.degenerate_pairs(mu, 13, 4) == {(0, 5), (1, 3), (2, 1)}
    assert pl.degenerate_pairs(mu, 10, 4) == set()


def test_omega_is_formed_once_per_family():
    # map_parameters, bound_condition and degenerate_pairs each read it
    fam = pl.PowerLawFamily(Fraction(3, 2), 1.0, 1, 2)
    assert fam.omega == 11 and fam.omega is fam.omega and "omega" in vars(fam)
    assert fam == pl.PowerLawFamily(Fraction(3, 2), 1.0, 1, 2)
    assert replace(fam, n=3).omega == 13


@pytest.mark.parametrize("mu,omega", [
    (Fraction(3, 2), 11), (Fraction(3, 2), 13), (Fraction(3, 2), 10),
    (Fraction(-3, 2), 8), (Fraction(1, 6), Fraction(23, 3)),
])
def test_degenerate_pairs_against_enumeration(mu, omega):
    assert pl.degenerate_pairs(mu, omega, 8) == brute_force_pairs(mu, omega, 8)


def test_degenerate_pairs_float_tolerance():
    got = pl.degenerate_pairs(1.5, 11.0, 4)
    assert got == {(0, 4), (1, 2), (2, 0)}


def test_degenerate_states_share_potential_but_not_wavefunction():
    mu = Fraction(3, 2)
    pairs = sorted(pl.degenerate_pairs(mu, 11, 4))
    terms = [pl.map_parameters(pl.PowerLawFamily(mu=mu, lam=1.0, l=l, n=n)).terms
             for l, n in pairs]
    for t in terms[1:]:
        assert t == terms[0]
    r = np.geomspace(1.0, 40.0, 60)
    f0 = pl.wavefunction(pl.PowerLawFamily(mu=mu, lam=1.0, l=pairs[0][0], n=pairs[0][1]))
    f1 = pl.wavefunction(pl.PowerLawFamily(mu=mu, lam=1.0, l=pairs[1][0], n=pairs[1][1]))
    ratio = f0.value(r) / f1.value(r)
    assert ratio.std() / abs(ratio.mean()) > 1e-3


# --- norms --------------------------------------------------------------------

def test_norm_divergent_below_l0():
    res = pl.norm(pl.PowerLawFamily(mu=-1.5, lam=1.0, l=0, n=0))
    assert not res.finite and res.value is None
    assert res.quad is None


@pytest.mark.filterwarnings("error")
def test_divergent_norm_is_not_integrated():
    # integrating this divergent norm spends the whole sample budget near 1e305
    res = pl.norm(pl.PowerLawFamily(mu=-2.5, lam=0.7, l=0, n=4))
    assert not res.finite and res.value is None and res.quad is None


def test_norm_finite_below_l1():
    res = pl.norm(pl.PowerLawFamily(mu=-1.5, lam=1.0, l=1, n=0))
    assert res.finite
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_norm_above_is_unit():
    res = pl.norm(pl.PowerLawFamily(mu=1.5, lam=1.0, l=0, n=2))
    assert res.finite
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_norm_below_matches_substituted_integral():
    # independent route: substitute rho = r^(-beta), integrate in rho with a
    # different quadrature; rho-endpoint exponent -1 + (2l-1)/beta > -1 for l > 0
    import scipy.integrate

    fam = pl.PowerLawFamily(mu=-1.5, lam=1.0, l=1, n=1)
    b = fam.beta
    sol = pl.wavefunction(fam)
    direct = pl.norm(fam).value

    def integrand(rho):
        r = rho ** (-1.0 / b)
        return sol.value(r) ** 2 * (1.0 / b) * rho ** (-1.0 / b - 1.0)

    substituted, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=200)
    assert direct == pytest.approx(substituted, rel=1e-8)
    assert -1.0 + (2 * fam.l - 1) / b > -1.0


# --- closed-form classification -------------------------------------------

# The paper's table says bounded at every quantized n; a scan of V_eff on
# turning_scale * 10^(+-5) missed the well of each of these.
BOUNDED_AT_QUANTIZED = [
    (Fraction(3, 2), 1.0, 1, 40), (10, 1.0, 1, 0), (50, 1.0, 2, 3), (-50, 1.0, 2, 3),
    (-10, 1.0, 1, 0), (Fraction(41, 10), 0.93, 1, 9), (Fraction(-17, 4), 1.7, 3, 18),
]


@pytest.mark.parametrize("mu,lam,l,n", BOUNDED_AT_QUANTIZED)
def test_classify_bounded_where_the_table_says(mu, lam, l, n):
    rep = pl.classify(pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n))
    assert rep.bounded and rep.normalizable
    assert rep.condition.status == "satisfied"
    assert rep.well.found_negative_minimum and rep.well.v_min < 0


@pytest.mark.filterwarnings("error")
def test_classify_reports_a_well_beyond_float_range_in_t():
    # the well sits at log r = 1130: r_min is not representable, v_min is -0.0
    rep = pl.classify(pl.PowerLawFamily(mu=50, lam=1e-3, l=60, n=40))
    assert rep.bounded and rep.normalizable
    assert rep.well.r_min is None and rep.well.v_min == 0.0
    assert rep.well.log_r_min == pytest.approx(1130.0, abs=1.0)


def test_turning_scale_takes_k_exactly():
    # 1/(p1 - p2) divided by zero from |mu| ~ 4.5e15 on, where p1 - p2 cancels
    fam = pl.PowerLawFamily(mu=1.5, l=1)
    t = pl.map_parameters(fam).terms
    assert t.turning_scale(fam.k) == (t.attractive_coeff / t.repulsive_coeff) ** 2  # k = 1/2
    for mu in (1e40, -1e40, -300):
        fam = pl.PowerLawFamily(mu=mu, l=1)
        with pytest.raises(OverflowError):
            pl.map_parameters(fam).terms.turning_scale(fam.k)


def test_bound_condition_is_the_stationary_point_discriminant():
    # dV_eff/dr = 0  <=>  A p1 t^2 - B p2 t - l(l+1) = 0 with t = r^(p2+2)
    checked = 0
    for mu in (-50, -10, -2.5, -1.5, -0.75, -0.6, 0.6, 0.75, 1.5, 2.5, 10, 50):
        for l in (1, 2, 3, 5):
            for n in (0, 1, 3, 8):
                for scale in (0.5, 0.7, 0.78, 1.0, 1.5):
                    fam = pl.PowerLawFamily(mu=mu, lam=1.3, l=l, n=n)
                    t = pl.map_parameters(fam).terms.scaled(scale)
                    disc = (t.attractive_coeff * t.attractive_exponent) ** 2 + (
                        4.0 * t.repulsive_coeff * t.repulsive_exponent * l * (l + 1))
                    assert pl.bound_condition(fam, scale).satisfied == (disc > 0)
                    checked += disc > 0
    assert 0 < checked < 12 * 4 * 4 * 5  # both outcomes occur


@pytest.mark.parametrize("mu,lam,l,n,scale", [
    (Fraction(3, 2), 1.0, 1, 40, 1.0), (Fraction(41, 10), 0.93, 1, 9, 1.0),
    (Fraction(-17, 4), 1.7, 3, 18, 1.0), (10, 1.0, 1, 0, 1.0), (-10, 1.0, 1, 0, 1.0),
    (1.5, 1.0, 1, 0, 0.9), (-1.5, 1.0, 2, 3, 1.0), (2.5, 0.7, 2, 3, 1.0),
])
def test_analytic_well_matches_a_numerical_scan(mu, lam, l, n, scale):
    fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
    well = pl.classify(fam, coupling_scale=scale).well
    k = 1.0 / (float(mu) + 0.5)  # t = r^k turns r^2 V_eff into a quadratic
    r = np.sort(well.r_min * np.geomspace(1e-3, 1e3, 200_001) ** (1.0 / k))
    v = pl.effective_potential_eval(fam, r, coupling_scale=scale)
    i = int(np.argmin(v))
    assert 0 < i < r.size - 1
    assert abs(np.log(r[i] / well.r_min) * k) < 1e-4
    assert well.log_r_min == pytest.approx(math.log(well.r_min), rel=1e-15, abs=1e-15)
    assert v[i] == pytest.approx(well.v_min, rel=1e-7)
    assert np.any(v[i:] > 0)


# --- Gauss-Laguerre normalization ---------------------------------------------

def test_norm_is_unit_on_the_verify_matrix():
    from zepl.verify import _families

    worst, finite = 0.0, 0
    for fam in _families():
        if pl.wavefunction(fam).normalized:
            finite += 1
            worst = max(worst, abs(pl.norm(fam).value - 1.0))
    assert finite == 270
    assert worst < 1e-9


def test_wavefunction_sign_and_scale_conventions():
    # a_n > 0 and L_n(0) > 0; where the norm diverges the amplitude is 1
    from zepl.verify import _families

    unnormalized = 0
    for fam in _families():
        sol = pl.wavefunction(fam)
        assert sol.amplitude > 0
        if not sol.normalized:
            unnormalized += 1
            assert sol.amplitude == 1.0
    assert unnormalized == 45


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu,lam,l,n", [
    (50, 1.0, 2, 3), (10, 1.0, 20, 5), (-10, 1.0, 20, 5), (50, 1000.0, 40, 0)])
def test_wavefunction_is_built_where_its_amplitude_leaves_the_floats(mu, lam, l, n):
    # the normalized amplitude underflows to 0 (or overflows at lam = 1000),
    # but psi is formed in logs: it is finite, not identically 0, and normalized
    sol = pl.wavefunction(pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n))
    assert sol.normalized and sol.amplitude in (0.0, math.inf)
    assert abs(sol.log_norm()) < 1e-10
    psi = sol.value(radii(sol))
    assert np.all(np.isfinite(psi)) and np.abs(psi).max() > 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu,lam,l,n", [
    (1.5, 1.0, 60, 3), (-0.58, 1.0, 1, 5), (Fraction(-29, 50), 1.0, 1, 5),
    (Fraction(-9, 20), 1.3, 2, 7)])
def test_norm_where_a_factor_leaves_the_floats_in_the_quadrature_window(mu, lam, l, n):
    # (3/2, 1, 60, 3): r^61 overflowed inside the window, and the quadrature
    # read 0.99935 while it claimed convergence; the others are fault F2, where
    # w = lam^2 r^(1/(mu+1/2)) overflows and the Laguerre kernel raised
    assert pl.norm(pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)).value == pytest.approx(
        1.0, abs=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu,lam,l,n", [
    (Fraction(-121, 40), 1.980712, 3, 16), (50, 1.0, 2, 3), (-0.4999, 1.0, 1, 2),
    (-0.5001, 1.0, 1, 2), (-0.4999, 1e-3, 60, 0), (-0.5001, 30.0, 2, 0),
    (-0.4999, 30.0, 2, 0), (-0.4999, 30.0, 2, 5), (-0.4999, 30.0, 2, 40)])
def test_norm_quadrature_converges_where_it_once_reported_a_miss(mu, lam, l, n):
    # these read 1 + 1.1e-8 (error claimed 9.1e-11), 0.0, 1.0010, 1.0002, then
    # 0.850, 1.0022 and 1.005 to 1.008 while stated in r, each with
    # converged=True: next to mu = -1/2, w = lam^2 r^(1/(mu+1/2)) turns over
    # within 1e-4 in log r, and psi^2 dr per unit log w decays only like
    # w^((2p+1)/|k|), (2p+1)/|k| <= 0.013, as w -> 0
    res = pl.norm(pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n))
    assert res.quad.converged and res.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_norm_at_mu_50_is_right_or_unconverged():
    # psi's mass sits hundreds of e-folds out in log r; 36 of these 63
    # normalizable families read off by more than 1e-9 with converged=True,
    # then 21 read unconverged; in log w all 63 converge and are right
    checked = 0
    for mu in (50, -50):
        for l in (0, 2, 20, 60):
            for n in (0, 5, 40):
                for lam in (1e-3, 1.0, 30.0):
                    res = pl.norm(pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n))
                    if res.finite:
                        checked += 1
                        assert res.quad.converged and abs(res.value - 1.0) <= 1e-9, (
                            mu, lam, l, n)
    assert checked == 63


@pytest.mark.parametrize("mu,l,n", [(-20, 5, 3), (10, 4, 3)])
def test_wavefunction_normalized_at_extreme_mu(mu, l, n):
    fam = pl.PowerLawFamily(mu=mu, lam=1.0, l=l, n=n)
    sol = pl.wavefunction(fam)
    assert sol.normalized and np.all(np.isfinite(sol.value(radii(sol))))
    assert pl.norm(fam).value == pytest.approx(1.0, abs=1e-9)


SWEEP_MU = (0.52, -0.52, 0.6, -0.6, 2.0, -2.0, 10.0, -10.0, 0.1, -0.1, 0.45, -0.45, -0.51, -0.55)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", SWEEP_MU)
def test_closed_form_stays_inside_the_floats_across_the_domain(mu):
    # 504 families: near mu = -1/2 (|mu + 1/2| down to 0.01), l up to 60,
    # n up to 40 and lam from 1e-3 to 30; 62 of them warned or raised here
    # while the closed form multiplied r^power, exp(-w/2) and L(w) apart
    for l in (0, 2, 20, 60):
        for n in (0, 5, 40):
            for lam in (1e-3, 1.0, 30.0):
                fam = pl.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
                sol = pl.wavefunction(fam)
                r = radii(sol)
                for curve in (sol.value(r), sol.deriv(r), sol.deriv2(r)):
                    assert np.all(np.isfinite(curve)), fam
                if sol.normalized:
                    assert abs(sol.log_norm()) < 1e-10, fam
                assert pl.schrodinger_residual(fam).max_residual < 1e-8, fam
                assert pl.pct_identity_check(fam).max_residual < PCT_TOL, fam
