"""Relativistic branch at rest-mass energy for the odd power-law potential.

The two-component radial problem with vanishing even potential and energy
fixed at the rest mass reduces, for the odd component

    W(r) = (lam^2 beta / 2) r^(beta - 1),       beta not in {0, 1, 2},

to a second-order equation for the upper spinor component,

    [-d2/dr2 + k(k+1)/r^2 + W^2 - W' + 2 k W / r] phi = 0,

whose exact solution is phi = C_l (lam^(2/beta) r)^(-k) exp(-(lam^2/2) r^beta),
the paper's closed form at shape beta and n = 0.  The parameter map to the
nonrelativistic family forces the state index to zero and selects the
spin-orbit label k by branch: k = -l-1 for beta > 0 and k = l for beta < 0.
The lower component is the first-order operator (alpha/2)(W + k/r + d/dr)
applied to phi and vanishes identically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import oracle, powerlaw
from .closedform import (ClosedFormSolution, ResidualReport, positive_radii, relative_residual,
                         zero_energy_solution)

__all__ = ["DiracFamily", "Correspondence", "SpinorSolution", "odd_potential",
           "odd_potential_nu_form", "correspondence", "upper_spinor",
           "residual_33", "reduced_potential", "lower_component"]

FINE_STRUCTURE_DEFAULT = 1.0 / 137.035999


def _validate_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or beta in (0.0, 1.0, 2.0):
        raise ValueError(f"beta must be finite and outside {{0, 1, 2}}, got {beta}")
    return beta


@dataclass(frozen=True)
class DiracFamily:
    """Parameters of one solvable rest-mass-energy problem."""

    beta: float
    lam: float = 1.0
    l: int = 0
    alpha_fs: float = FINE_STRUCTURE_DEFAULT

    def __post_init__(self):
        _validate_beta(self.beta)
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not (isinstance(self.l, (int, np.integer)) and self.l >= 0):
            raise ValueError("l must be a non-negative integer")
        if not self.alpha_fs > 0:
            raise ValueError("fine-structure constant must be positive")
        # the reduced equation's r^(2 beta) coefficient is the coupling squared,
        # so it must be a normal float (also refused: lam^2 of 0 or inf)
        if not sys.float_info.min <= self.coupling * self.coupling < math.inf:
            raise OverflowError(f"the coupling lam^2 beta/2 or its square leaves the floats at "
                                f"beta = {self.beta:g}, lam = {self.lam:g}")

    @property
    def nu(self) -> float:
        return -0.5 + 1.0 / self.beta

    @property
    def kappa(self) -> int:
        """Spin-orbit label: branch (ii) -l-1 for beta > 0, branch (i) l for
        beta < 0.  The l = 0, beta < 0 combination yields kappa = 0, outside
        the physical spin-orbit spectrum; it is representable, and the
        solution's notes say so."""
        return -self.l - 1 if self.beta > 0 else self.l

    @property
    def coupling(self) -> float:
        """Amplitude A = lam^2/(2 nu + 1) = lam^2 beta / 2 of the odd term."""
        return self.lam * self.lam * self.beta / 2.0

    @property
    def normalizable(self) -> bool:
        return not (self.l == 0 and self.beta < 0)


@dataclass(frozen=True)
class Correspondence:
    nu: float
    kappa: int
    coupling: float
    n: float  # zero (to rounding) on both branches: the only compatible index


def correspondence(beta: float, l: int, lam: float = 1.0) -> Correspondence:
    """Parameter map onto the nonrelativistic family at mu = nu.  The
    r^(beta-2) coefficient of the reduced equation, A(2 kappa - beta + 1) with
    A = lam^2 beta/2, matches the family's -2 (lam beta/2)^2 Omega, and
    n = (Omega - 1 - (2l+1)/|beta|)/2 follows; the branch choice of kappa is
    what makes it zero."""
    fam = DiracFamily(beta=beta, lam=lam, l=l)
    omega = -fam.coupling * (2.0 * fam.kappa - beta + 1.0) / (2.0 * (lam * beta / 2.0) ** 2)
    n = 0.5 * (omega - 1.0 - (2 * l + 1) / abs(beta))
    return Correspondence(nu=fam.nu, kappa=fam.kappa, coupling=fam.coupling, n=n)


def odd_potential(family: DiracFamily, r):
    """W(r) = (lam^2 beta/2) r^(beta-1); independent of l by construction."""
    r = positive_radii(r)
    return family.coupling * r ** (family.beta - 1.0)


def odd_potential_nu_form(family: DiracFamily, r):
    """Equivalent form A / r^((nu-1/2)/(nu+1/2)); must agree pointwise with
    the beta form."""
    r = positive_radii(r)
    nu = family.nu
    return family.coupling / r ** ((nu - 0.5) / (nu + 0.5))


@dataclass(frozen=True)
class SpinorSolution:
    """Upper component with analytic derivatives; the lower component is the
    first-order reduction and vanishes identically at rest-mass energy."""

    family: DiracFamily
    phi: ClosedFormSolution
    c_l: float | None  # exp(log_c_l), which reads 0.0 where C_l underflows
    log_c_l: float | None
    normalized: bool
    notes: tuple[str, ...] = ()


def upper_spinor(family: DiracFamily) -> SpinorSolution:
    """phi(r) = C_l (lam^(2/beta) r)^(-kappa) exp(-(lam^2/2) r^beta): the
    paper's closed form at shape beta and n = 0 scaled by
    exp(log C_l - (2 kappa/beta) log lam), with
    C_l = lam^(1/beta) sqrt(|beta| / Gamma((1 - 2 kappa)/beta)) formed in logs
    wherever the norm is finite, which is where the Gamma argument is positive."""
    beta, lam, kappa = family.beta, family.lam, family.kappa
    notes: tuple[str, ...] = ()
    log_c = None
    if family.normalizable:
        log_c = (math.log(lam) / beta
                 + 0.5 * (math.log(abs(beta)) - math.lgamma((1.0 - 2.0 * kappa) / beta)))
    else:  # l = 0 with beta < 0, the one case where kappa = 0
        notes = ("kappa = 0 lies outside the physical spin-orbit spectrum",
                 "unnormalized: norm diverges for l = 0 with beta < 0")
    phi = zero_energy_solution(beta, lam, family.l, 0).scaled(
        (log_c or 0.0) - 2.0 * kappa / beta * math.log(lam), normalized=family.normalizable,
        notes=notes)
    return SpinorSolution(family=family, phi=phi, normalized=family.normalizable, notes=notes,
                          c_l=None if log_c is None else math.exp(log_c), log_c_l=log_c)


def _reduced_family(family: DiracFamily) -> powerlaw.PowerLawFamily:
    """The power-law family (nu, lam, l, 0) of the paper's map; nu + 1/2 keeps
    1/beta only to 2^-54 |beta| relative, an error above |beta| = 1e3."""
    if abs(family.beta) > 1e3:
        raise ValueError(f"|beta| > 1e3: nu keeps 1/beta to {2.0**-54 * abs(family.beta):.0e} only")
    return powerlaw.PowerLawFamily(mu=family.nu, lam=family.lam, l=family.l)


def reduced_potential(family: DiracFamily, r):
    """V(r) of the reduced equation's Schroedinger form: the family (nu, lam, l, 0)'s."""
    return powerlaw.potential_eval(_reduced_family(family), r)


def bracket_monomials(family: DiracFamily) -> list[tuple[float, float]]:
    """r^2 [W^2, -dW/dr, 2 kappa W / r] with W = A r^(beta-1), as the
    (coefficient, exponent) pairs of A^2 r^(2 beta), -A(beta-1) r^beta, 2 kappa A r^beta."""
    a, beta = family.coupling, family.beta
    return [(a * a, 2.0 * beta), (-a * (beta - 1.0), beta), (2.0 * family.kappa * a, beta)]


def residual_33(family: DiracFamily) -> ResidualReport:
    """Relative residual of the reduced second-order equation applied to the
    upper spinor, stated as r^2 q = kappa(kappa+1) plus the bracket's pieces."""
    k = family.kappa
    return upper_spinor(family).phi.residual([(k * (k + 1.0), 0.0), *bracket_monomials(family)])


def reduced_form_agreement(family: DiracFamily) -> float:
    """Max relative discrepancy between the reduced equation and the family's
    at (nu, lam, l, 0).  Times r^2 both are polynomials in w = lam^2 r^beta
    once M(p1+2) = 4 and M(p2+2) = 2 at M = 2 nu + 1 = 2/beta: the check is
    those exponent identities and the w^0, w and w^2 coefficient identities,
    each a row of pieces summing to zero; cancelling sums keep their parts apart."""
    (a2, e_a), (b1, e_b), (c1, _) = bracket_monomials(family)
    t = powerlaw.map_parameters(_reduced_family(family)).terms
    k, l, lam2 = family.kappa, family.l, family.lam**2
    rows = [[k * (k + 1.0), -l * (l + 1.0)],
            [b1 / lam2, c1 / lam2, 2.0 * t.attractive_coeff / lam2],
            [a2 / lam2**2, -2.0 * t.repulsive_coeff / lam2**2],
            [t.repulsive_exponent, 2.0, -e_a],
            [t.attractive_exponent, 2.0, -e_b]]
    return relative_residual(list(zip_longest(*rows, fillvalue=0.0))).max_residual


def lower_component(family: DiracFamily, solution: SpinorSolution, r):
    """theta(r) = (alpha/2)(W + kappa/r + d/dr) phi(r); identically zero for
    the exact upper component."""
    r = positive_radii(r)
    val, d1, _ = solution.phi._derivs(r)
    return 0.5 * family.alpha_fs * ((odd_potential(family, r) + family.kappa / r) * val + d1)


def lower_component_relative(family: DiracFamily) -> float:
    """sup |theta| normalized by the size of its pieces, on w_grid(240).  Times
    r/E, phi = E L(w), they are [A r^beta L, kappa L, r phi'/E], A r^beta = A w/lam^2."""
    phi = upper_spinor(family).phi
    w = phi.w_grid(240)
    val, d1, _ = phi.euler(w, derivs=True)
    return relative_residual([family.coupling / phi.rate * w * val, family.kappa * val,
                              d1]).max_residual


def spinor_norm(family: DiracFamily) -> oracle.QuadResult:
    return oracle.quad_seminfinite(upper_spinor(family).phi.integrand(), 1e-11)
