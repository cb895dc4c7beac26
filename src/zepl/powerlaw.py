"""Zero-energy solutions for the two-term power-law potential family.

A family is indexed by a real exponent parameter mu (mu not in {0, +1/2,
-1/2}; those three values collapse to the oscillator, Coulomb and Morse
problems and are rejected), a strength lam > 0, angular momentum l and a
state index n.  The potential

    V(r) = (lam/(2 mu+1))^2 [ (lam^2/2) r^p1 - Omega r^p2 ],
    p1 = -2(mu - 1/2)/(mu + 1/2),    p2 = -2 mu/(mu + 1/2),
    Omega = 2n + 1 + (2l + 1)|mu + 1/2|,

admits an exact solution at exactly zero energy,

    psi(r) = a_n (lam^(2 mu+1) r)^(l+1 or -l) exp(-(lam^2/2) r^(1/(mu+1/2)))
             L_n^((2l+1)|mu+1/2|)(lam^2 r^(1/(mu+1/2))),

with the l+1 prefactor for mu > -1/2 and -l for mu < -1/2.  This module
builds the potential and wavefunction, checks the residual and the point
canonical transformation identity that generates them from the oscillator,
classifies boundedness and normalizability of the effective potential, and
enumerates degenerate (l, n) pairs sharing one potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from numbers import Rational

import numpy as np

from . import oracle, specfn
from .closedform import (ClosedFormSolution, ResidualReport, count_sign_changes,
                         positive_radii, relative_residual, zero_energy_solution)

__all__ = [
    "PowerLawFamily", "PotentialTerms", "BoundCondition",
    "Well", "ClassificationReport", "NormResult",
    "omega", "state_index", "effective_potential_eval",
    "exponent_pair", "wavefunction",
    "schrodinger_residual", "pct_identity_check", "schrodinger_residual_maxima",
    "pct_identity_maxima", "bound_condition",
    "classify", "degenerate_pairs", "norm",
]

def _validate_mu(mu) -> float:
    mu_f = float(mu)
    if not math.isfinite(mu_f):
        raise ValueError("mu must be finite")
    if mu_f in (0.0, 0.5, -0.5):
        raise ValueError(
            "mu in {0, +1/2, -1/2} reduces to the oscillator, Coulomb or Morse "
            "problem and is outside this family")
    return mu_f


@dataclass(frozen=True)
class PowerLawFamily:
    """Parameter bundle (mu, lam, l, n) of one exactly solvable problem."""

    mu: float | Fraction
    lam: float = 1.0
    l: int = 0
    n: int = 0

    def __post_init__(self):
        _validate_mu(self.mu)
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        specfn.check_index(self.l, "l")
        specfn.check_index(self.n, "n")

    @property
    def mu_f(self) -> float:
        return float(self.mu)

    @property
    def beta(self) -> float:
        """Positive tail parameter: mu = -1/2 + 1/beta above, -1/2 - 1/beta below."""
        return 1.0 / abs(self.mu_f + 0.5)

    @property
    def k(self) -> float:
        """k = 1/(mu + 1/2): p1 + 2 = 2k and p2 + 2 = p1 - p2 = k, stated exactly,
        since p + 2 and p1 - p2 cancel at large |mu|."""
        return 1.0 / (self.mu_f + 0.5)

    @property
    def gamma(self) -> float:
        return -0.5 + (self.l + 0.5) * abs(self.mu_f + 0.5)

    @cached_property
    def omega(self):
        """Degeneracy constant ``omega(mu, l, n)``, formed once per family."""
        return omega(self.mu, self.l, self.n)

    @cached_property
    def terms(self) -> PotentialTerms:
        """The two terms the coordinate map r = x^(2 mu + 1) makes of the oscillator
        at zero energy; OverflowError where a coefficient leaves the floats."""
        mu, lam = self.mu_f, self.lam
        p1, p2 = exponent_pair(mu)
        unit = (lam / (2.0 * mu + 1.0)) ** 2
        a, b = unit * lam**2 / 2.0, unit * self.omega
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise OverflowError(f"the potential's coefficients leave the floats at mu = {mu:g}, "
                                f"lam = {lam:g}")
        return PotentialTerms(repulsive_coeff=a, repulsive_exponent=p1,
                              attractive_coeff=b, attractive_exponent=p2)


def _abs_shift(mu):
    """|mu + 1/2|, exact for a rational mu."""
    return abs(Fraction(mu) + Fraction(1, 2)) if isinstance(mu, Rational) else abs(float(mu) + 0.5)


def omega(mu, l: int, n):
    """Omega = 2n + 1 + (2l+1)|mu + 1/2|, the constant that every (l, n) on one
    potential shares: exact for a rational mu, a float otherwise."""
    return 2 * n + 1 + (2 * l + 1) * _abs_shift(mu)


def state_index(mu, l: int, omega):
    """n = (Omega - 1 - (2l+1)|mu + 1/2|)/2, the inverse of ``omega``, not
    rounded: exact for a rational mu and Omega, a float otherwise."""
    if isinstance(mu, Rational) and isinstance(omega, Rational):
        return (Fraction(omega) - 1 - (2 * l + 1) * _abs_shift(mu)) / 2
    return 0.5 * (float(omega) - 1.0 - (2 * l + 1) * _abs_shift(float(mu)))


def _dominant_beyond_floats(v, r, monomials):
    """v, the sum of c r^p over ``monomials`` at r, set where it is not finite
    to the inf of the largest term there, max log|c| + p log r (c != 0)."""
    v = np.asarray(v, dtype=float)
    beyond = ~np.isfinite(v)
    if beyond.any():
        monomials = [(c, p) for c, p in monomials if c]
        log_r = np.log(np.broadcast_to(r, v.shape)[beyond])
        lead = np.argmax([math.log(abs(c)) + p * log_r for c, p in monomials], axis=0)
        v[beyond] = np.copysign(np.inf, np.array([c for c, _ in monomials])[lead])
    return v[()]


@dataclass(frozen=True)
class PotentialTerms:
    """One repulsive plus one attractive power term; coefficients positive."""

    repulsive_coeff: float
    repulsive_exponent: float
    attractive_coeff: float
    attractive_exponent: float

    def __post_init__(self):
        if not (self.repulsive_coeff > 0 and self.attractive_coeff > 0):
            raise ValueError("both term coefficients must be positive")

    def value(self, r):
        """c1 r^p1 - c2 r^p2, or the larger term's inf where that is not finite:
        formed in one output with one spare buffer."""
        r, c1, c2 = positive_radii(r), self.repulsive_coeff, self.attractive_coeff
        p1, p2 = self.repulsive_exponent, self.attractive_exponent
        with np.errstate(over="ignore", invalid="ignore"):
            v = r**p1
            v *= c1
            spare = r**p2
            spare *= c2
            v -= spare
        return _dominant_beyond_floats(v, r, ((c1, p1), (-c2, p2)))

    def scaled(self, coupling_scale: float) -> "PotentialTerms":
        return replace(self, attractive_coeff=self.attractive_coeff * coupling_scale)

    def turning_scale(self, k: float) -> float:
        """Radius where the two terms balance, (c2/c1)^(1/k) with k = p1 - p2
        passed exactly (``PowerLawFamily.k``), since the difference cancels to
        0 at large |mu|; OverflowError where the radius is 0 or inf."""
        r = (self.attractive_coeff / self.repulsive_coeff) ** (1.0 / k)
        if not 0.0 < r < math.inf:
            raise OverflowError("the turning radius leaves the floats")
        return r


def exponent_pair(mu) -> tuple[float, float]:
    """Exponents (p1, p2) of the repulsive and attractive terms; both tend to
    -2 as |mu| grows, and are undefined at mu in {0, +1/2, -1/2}."""
    mu_f = _validate_mu(mu)
    return (-2.0 * (mu_f - 0.5) / (mu_f + 0.5), -2.0 * mu_f / (mu_f + 0.5))


def effective_potential_eval(family: PowerLawFamily, r, coupling_scale: float = 1.0):
    """Centrifugal term plus twice the potential: the coefficient of psi in
    psi'' = [l(l+1)/r^2 + 2 V(r)] psi at zero energy, or the largest term's
    inf where that is not finite; at l = 0 the centrifugal term is exactly 0.
    Formed in the potential's output with one spare buffer."""
    r = positive_radii(r)
    t = family.terms.scaled(coupling_scale)
    ll = family.l * (family.l + 1.0)
    v = np.asarray(t.value(r))  # its own output, 0-d at a scalar r
    with np.errstate(all="ignore"):
        v *= 2.0
        if ll:
            spare = np.square(r, out=np.empty(r.shape))
            v += np.divide(ll, spare, out=spare)
    return _dominant_beyond_floats(v, r, ((ll, -2.0),
                                          (2.0 * t.repulsive_coeff, t.repulsive_exponent),
                                          (-2.0 * t.attractive_coeff, t.attractive_exponent)))


# ---------------------------------------------------------------------------
# Wavefunction
# ---------------------------------------------------------------------------

def _unit_solution(family: PowerLawFamily) -> ClosedFormSolution:
    """The closed form with unit amplitude: the paper's member k = 1/(mu+1/2)."""
    return zero_energy_solution(family.k, family.lam, family.l, family.n)


def wavefunction(family: PowerLawFamily) -> ClosedFormSolution:
    """Closed-form solution with analytic derivatives, positive at its regular
    end (a_n > 0 and L_n(0) > 0).  Normalized by the closed-form norm, a
    connection-formula sum of positive terms, whenever that is finite (always
    above mu = -1/2; for l > 0 below); otherwise unit amplitude, tagged
    unnormalized."""
    unit = _unit_solution(family)
    return unit.to_unit_norm() if unit.norm_finite else unit.scaled(
        0.0, notes=("unnormalized: norm diverges for l = 0 below mu = -1/2",))


@dataclass(frozen=True)
class NormResult:
    finite: bool
    value: float | None
    quad: oracle.QuadResult | None


def norm(family: PowerLawFamily) -> NormResult:
    """Squared norm of the constructed wavefunction, re-measured by adaptive
    quadrature, independently of the connection-formula sum that normalized
    it.  Finiteness is that sum's (divergent exactly when mu < -1/2 and l = 0,
    where the tail integrand tends to a constant); a divergent norm is not
    integrated."""
    sol = wavefunction(family)
    if not sol.normalized:
        return NormResult(False, None, None)
    q = oracle.quad_seminfinite(sol.integrand(), 1e-10)
    return NormResult(True, q.value, q)


# ---------------------------------------------------------------------------
# Residual checks
# ---------------------------------------------------------------------------

def _residual_inputs(family: PowerLawFamily) -> tuple:
    """(k, lam, l, 2A, -2B) of r^2 q = l(l+1) + 2A r^(2k) - 2B r^k, k = 1/(mu + 1/2)."""
    t = family.terms
    return (family.k, family.lam, family.l,
            2.0 * t.repulsive_coeff, -2.0 * t.attractive_coeff)


def _residual(n: int, k, lam, l, a2, b2) -> ResidualReport:
    """The residual of ``schrodinger_residual``; k, lam, l, a2 and b2 may be
    (m, 1) columns over families of degree n."""
    return zero_energy_solution(k, lam, l, n).residual(
        [(l * (l + 1.0), 0.0), (a2, 2.0 * k), (b2, k)])


def schrodinger_residual(family: PowerLawFamily) -> ResidualReport:
    """Relative residual of psi'' = [l(l+1)/r^2 + 2V] psi, stated as
    r^2 q = l(l+1) + 2A r^(2k) - 2B r^k with k = 1/(mu + 1/2): the exponents
    p1 + 2 and p2 + 2 stated exactly, since p + 2 cancels at large |mu|.
    Scale-free, so the unit-amplitude solution is checked."""
    return _residual(family.n, *_residual_inputs(family))


def pct_identity_check(family: PowerLawFamily) -> ResidualReport:
    """Check that the coordinate map r = x^M, M = 2 mu + 1, applied to the
    oscillator equation reproduces -l(l+1)/r^2 - 2V(r).

    The mapped side is
        (g')^-2 [ -(4 g(g+1)+3/4)/x^2 - lam^4 x^2 + 4 lam^2 (g+n+1)
                  - g'''/(2 g') + 3 (g''/g')^2 / 4 ]
    with g(x) = x^M; for a monomial map the last two terms collapse to
    (M^2 - 1)/(4 x^2).  Times r^2 = x^(2M) both sides are polynomials in
    w = lam^2 x^2 once M(p1+2) = 4 and M(p2+2) = 2: the check is those exponent
    identities and the w^0, w and w^2 coefficient identities, each a row of
    pieces summing to zero; p + 2 cancels at large |mu|, so p and 2 stay apart.
    """
    return _pct_identity(*_pct_inputs(family))


def _pct_inputs(family: PowerLawFamily) -> tuple:
    t = family.terms
    return (family.lam, family.l, family.n, family.gamma, 2.0 * family.mu_f + 1.0,
            t.repulsive_coeff, t.attractive_coeff, t.repulsive_exponent, t.attractive_exponent)


def _pct_identity(lam, l, n, g, M, a, b, p1, p2) -> ResidualReport:
    """The rows of ``pct_identity_check``; every input may be an array over
    families, whose rows are then the points of one identity each."""
    one = 0.0 * M + 1.0  # 1 in the families' shape, for the constant pieces
    rows = [[-(4.0 * g * (g + 1.0) + 0.75) / M**2, (M * M - 1.0) / (4.0 * M**2), l * (l + 1.0)],
            [4.0 * (g + n + 1.0) / M**2, -2.0 * b / lam**2],
            [-1.0 / M**2, 2.0 * a / (lam * lam) ** 2],
            [M * p1, 2.0 * M, -4.0 * one],
            [M * p2, 2.0 * M, -2.0 * one]]
    terms = np.array(list(zip_longest(*rows, fillvalue=0.0 * one)))  # pieces, rows, families
    return relative_residual(terms.swapaxes(1, -1))


def _columns(inputs, families) -> np.ndarray:
    """inputs(family) of every family, one row per input."""
    return np.array([inputs(f) for f in families], dtype=float).T


def schrodinger_residual_maxima(families) -> np.ndarray:
    """schrodinger_residual(family).max_residual of every family, in order,
    from one array pass per degree: the Laguerre recurrence runs to one
    degree, so each pass is a stack of that degree's families."""
    out = np.empty(len(families))
    degrees = np.array([f.n for f in families])
    for n in np.unique(degrees):
        at = np.flatnonzero(degrees == n)
        cols = _columns(_residual_inputs, [families[i] for i in at])
        out[at] = _residual(int(n), *cols[..., None]).max_residual
    return out


def pct_identity_maxima(families) -> np.ndarray:
    """pct_identity_check(family).max_residual of every family, in order,
    from one array pass."""
    return _pct_identity(*_columns(_pct_inputs, families)).max_residual


# ---------------------------------------------------------------------------
# Boundedness / normalizability classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCondition:
    """Necessary (not sufficient) well-existence condition n > rhs, defined
    for |mu| > 1/2: V_eff has stationary points.  Reported alongside the
    shape verdict but never overriding it."""

    rhs: float | None
    satisfied: bool | None
    applicable: bool

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "satisfied" if self.satisfied else "violated"


def bound_condition(family: PowerLawFamily, coupling_scale: float = 1.0) -> BoundCondition:
    mu, b, l = family.mu_f, family.beta, family.l
    if -0.5 < mu < 0.5:
        return BoundCondition(rhs=None, satisfied=None, applicable=False)
    sign = -1.0 if mu > 0.5 else +1.0  # (1 -+ beta), (2 -+ beta)
    one, two = 1.0 + sign * b, 2.0 + sign * b
    rhs = (2.0 * math.sqrt(l * (l + 1) * one) / (b * two) - (l + 0.5) / b - 0.5)
    n_eff = state_index(family.mu, l, coupling_scale * family.omega)
    return BoundCondition(rhs=rhs, satisfied=bool(n_eff > rhs), applicable=l > 0)


@dataclass(frozen=True)
class Well:
    found_negative_minimum: bool
    r_min: float | None
    log_r_min: float | None  # finite wherever a well is found, also where r_min is None
    v_min: float | None
    barrier_reaches_positive: bool | None


def _limit_label(exponent: float, coeff: float, at_infinity: bool) -> str:
    grows = exponent > 0 if at_infinity else exponent < 0
    if grows:
        return "+inf" if coeff > 0 else "-inf"
    return "0+" if coeff > 0 else "0-"


def _effective_limits(terms: PotentialTerms, l: int) -> tuple[str, str]:
    entries = [(terms.repulsive_exponent, 2.0 * terms.repulsive_coeff),
               (terms.attractive_exponent, -2.0 * terms.attractive_coeff)]
    if l > 0:
        entries.append((-2.0, float(l * (l + 1))))
    at0 = min(entries, key=lambda e: e[0])
    atinf = max(entries, key=lambda e: e[0])
    return (_limit_label(*at0, at_infinity=False),
            _limit_label(*atinf, at_infinity=True))


def _well(terms: PotentialTerms, l: int, k: float) -> Well:
    """Closed-form well of V_eff for l > 0, |mu| > 1/2.

    With t = r^k, k = p2 + 2 = (p1 + 2)/2 passed exactly,
    r^2 V_eff = l(l+1) + 2A t^2 - 2B t.
    Both limits are positive (+inf at 0, 0+ at inf), so V_eff goes negative
    exactly when that quadratic does, B^2 > 2A l(l+1), and then the well is
    the stationary point, a root of A p1 t^2 - B p2 t - l(l+1) = 0, where the
    quadratic is negative; the other root is the positive barrier beyond it.
    The well is formed in logs: log_r_min is its log r, and r_min is None
    where |log r| >= 709 (r would overflow or underflow); v_min is -inf where
    its magnitude overflows.
    """
    a, p1 = terms.repulsive_coeff, terms.repulsive_exponent
    b, p2 = terms.attractive_coeff, terms.attractive_exponent
    c = l * (l + 1)
    if not b * b > 2.0 * a * c:
        return Well(False, None, None, None, None)
    # p1, p2 < 0 here, so both roots are positive; stable quadratic formula
    q = 0.5 * (-b * p2 + math.sqrt((b * p2) ** 2 + 4.0 * a * p1 * c))
    # at a stationary point r^2 V_eff = (k/2) t d(r^2 V_eff)/dt = k t (2A t - B),
    # which does not cancel to 0 where k is small, as the sum does
    r2v, t = min((k * t * (2.0 * a * t - b), t) for t in (-q / (a * p1), c / q))
    log_r = math.log(t) / k
    log_v = math.log(-r2v) - 2.0 * log_r
    return Well(True, math.exp(log_r) if abs(log_r) < 709.0 else None, log_r,
                -math.exp(log_v) if log_v < 709.0 else -math.inf, True)


@dataclass(frozen=True)
class ClassificationReport:
    limit_origin: str
    limit_infinity: str
    bounded: bool
    normalizable: bool
    condition: BoundCondition
    well: Well | None
    coupling_scale: float = 1.0


def classify(family: PowerLawFamily, coupling_scale: float = 1.0) -> ClassificationReport:
    """Shape classification of the effective potential.

    Decision procedure: confining tails (|mu| < 1/2) and the mu > 1/2, l = 0
    shape (rise from -inf through zero to a positive barrier) are bounded by
    construction; mu < -1/2 with l = 0 never is (tail creeps up to zero from
    below).  Every other case is bounded exactly when V_eff has a negative
    well with a positive barrier beyond it, which is decided in closed form.
    Normalizability follows the closed-form norm's rule: divergent only
    for mu < -1/2 with l = 0.  ``coupling_scale`` scales the attractive
    coefficient so sub-quantized shapes (the condition-violated rows of the
    summary table) can be constructed and inspected with the same machinery.
    """
    mu, l = family.mu_f, family.l
    terms = family.terms.scaled(coupling_scale)
    lim0, liminf = _effective_limits(terms, l)
    condition = bound_condition(family, coupling_scale)
    well = None
    if -0.5 < mu < 0.5:
        bounded = True
    elif mu > 0.5 and l == 0:
        bounded = True
    elif mu < -0.5 and l == 0:
        bounded = False
    else:
        well = _well(terms, l, family.k)
        bounded = well.found_negative_minimum
    normalizable = _unit_solution(family).norm_finite
    return ClassificationReport(limit_origin=lim0, limit_infinity=liminf,
                                bounded=bounded, normalizable=normalizable,
                                condition=condition, well=well,
                                coupling_scale=coupling_scale)


# ---------------------------------------------------------------------------
# Degeneracy
# ---------------------------------------------------------------------------

def degenerate_pairs(mu, omega, l_max: int) -> set[tuple[int, int]]:
    """All (l <= l_max, n >= 0) whose ``omega(mu, l, n)`` equals omega.

    Exact rational arithmetic whenever mu (and omega) are rational; floats
    fall back to a 1e-12 tolerance on the match.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    _validate_mu(mu)
    exact = isinstance(mu, Rational) and isinstance(omega, Rational)
    slack = 0 if exact else 1e-12 * max(1.0, abs(float(omega)))
    pairs: set[tuple[int, int]] = set()
    for l in range(l_max + 1):
        n = state_index(mu, l, omega)
        n_int = round(n)
        if n_int >= 0 and abs(n - n_int) <= slack:
            pairs.add((l, n_int))
    return pairs


def interior_node_count(family: PowerLawFamily) -> int:
    """Zeros of the wavefunction on (0, inf).  Its envelope is positive, so
    they are the zeros of the Laguerre factor L(w), counted by sign changes
    on w_grid(4000), which holds every one of them; no radius is formed."""
    sol = _unit_solution(family)
    return count_sign_changes(specfn.laguerre(sol.degree, sol.order, sol.w_grid(4000)))
