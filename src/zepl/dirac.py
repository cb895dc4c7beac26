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
applied to phi and vanishes identically, so the fine-structure constant
alpha multiplies zero and no result depends on it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import zip_longest

from . import oracle, powerlaw
from .closedform import (ClosedFormSolution, ResidualReport, relative_residual,
                         zero_energy_solution)
from .specfn import check_index

__all__ = ["DiracFamily", "upper_spinor", "residual_33", "reduced_form_agreement",
           "lower_component_relative", "spinor_norm"]


@dataclass(frozen=True)
class DiracFamily:
    """Parameters of one solvable rest-mass-energy problem."""

    beta: float
    lam: float = 1.0
    l: int = 0

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta in (0.0, 1.0, 2.0):
            raise ValueError(f"beta must be finite and outside {{0, 1, 2}}, got {self.beta}")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        check_index(self.l, "l")
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
    def n(self) -> float:
        """State index of the parameter map onto the family at mu = nu.  The
        r^(beta-2) coefficient of the reduced equation, A(2 kappa - beta + 1),
        matches the family's -2 (lam beta/2)^2 Omega, and
        n = (Omega - 1 - (2l+1)/|beta|)/2 follows; the branch choice of kappa
        is what makes it zero (to rounding) on both branches."""
        a, beta, lam = self.coupling, self.beta, self.lam
        omega = -a * (2.0 * self.kappa - beta + 1.0) / (2.0 * (lam * beta / 2.0) ** 2)
        return 0.5 * (omega - 1.0 - (2 * self.l + 1) / abs(beta))

    @property
    def log_c_l(self) -> float | None:
        """log C_l, C_l = lam^(1/beta) sqrt(|beta| / Gamma((1 - 2 kappa)/beta)),
        formed in logs; None where the Gamma argument is not positive.  That
        argument is phi's (2 power + 1)/shape, so it is positive exactly where
        the norm is finite: everywhere but l = 0 with beta < 0."""
        beta = self.beta
        arg = (1.0 - 2.0 * self.kappa) / beta
        if not arg > 0.0:
            return None
        return math.log(self.lam) / beta + 0.5 * (math.log(abs(beta)) - math.lgamma(arg))


def upper_spinor(family: DiracFamily) -> ClosedFormSolution:
    """phi(r) = C_l (lam^(2/beta) r)^(-kappa) exp(-(lam^2/2) r^beta): the
    paper's closed form at shape beta and n = 0 scaled by
    exp(log C_l - (2 kappa/beta) log lam), normalized; where the norm
    diverges, C_l = 1 and the notes say why."""
    beta, lam, kappa, log_c = family.beta, family.lam, family.kappa, family.log_c_l
    notes: tuple[str, ...] = ()
    if log_c is None:  # l = 0 with beta < 0, the one case where kappa = 0
        notes = ("kappa = 0 lies outside the physical spin-orbit spectrum",
                 "unnormalized: norm diverges for l = 0 with beta < 0")
    return zero_energy_solution(beta, lam, family.l, 0).scaled(
        (log_c or 0.0) - 2.0 * kappa / beta * math.log(lam), normalized=log_c is not None,
        notes=notes)


def bracket_monomials(family: DiracFamily) -> list[tuple[float, float]]:
    """r^2 [W^2, -dW/dr, 2 kappa W / r] with W = A r^(beta-1), as the
    (coefficient, exponent) pairs of A^2 r^(2 beta), -A(beta-1) r^beta, 2 kappa A r^beta."""
    a, beta = family.coupling, family.beta
    return [(a * a, 2.0 * beta), (-a * (beta - 1.0), beta), (2.0 * family.kappa * a, beta)]


def residual_33(family: DiracFamily) -> ResidualReport:
    """Relative residual of the reduced second-order equation applied to the
    upper spinor, stated as r^2 q = kappa(kappa+1) plus the bracket's pieces."""
    k = family.kappa
    return upper_spinor(family).residual([(k * (k + 1.0), 0.0), *bracket_monomials(family)])


def reduced_form_agreement(family: DiracFamily) -> float:
    """Max relative discrepancy between the reduced equation and the
    power-law family's at (nu, lam, l, 0).  Times r^2 both are polynomials in
    w = lam^2 r^beta once M(p1+2) = 4 and M(p2+2) = 2 at M = 2 nu + 1 = 2/beta:
    the check is those exponent identities and the w^0, w and w^2 coefficient
    identities, each a row of pieces summing to zero; cancelling sums keep
    their parts apart.  nu + 1/2 keeps 1/beta only to 2^-54 |beta| relative,
    an error above |beta| = 1e3, which is refused."""
    if abs(family.beta) > 1e3:
        raise ValueError(f"|beta| > 1e3: nu keeps 1/beta to "
                         f"{2.0**-54 * abs(family.beta):.0e} only")
    (a2, e_a), (b1, e_b), (c1, _) = bracket_monomials(family)
    t = powerlaw.map_parameters(powerlaw.PowerLawFamily(family.nu, family.lam, family.l)).terms
    k, l, lam2 = family.kappa, family.l, family.lam**2
    rows = [[k * (k + 1.0), -l * (l + 1.0)],
            [b1 / lam2, c1 / lam2, 2.0 * t.attractive_coeff / lam2],
            [a2 / lam2**2, -2.0 * t.repulsive_coeff / lam2**2],
            [t.repulsive_exponent, 2.0, -e_a],
            [t.attractive_exponent, 2.0, -e_b]]
    return relative_residual(list(zip_longest(*rows, fillvalue=0.0))).max_residual


def lower_component_relative(family: DiracFamily) -> float:
    """sup |theta| normalized by the size of its pieces, on w_grid(240).  Times
    r/E, phi = E L(w), they are [A r^beta L, kappa L, r phi'/E], A r^beta = A w/lam^2."""
    phi = upper_spinor(family)
    w = phi.w_grid(240)
    val, d1, _ = phi.euler(w, derivs=True)
    return relative_residual([family.coupling / phi.rate * w * val, family.kappa * val,
                              d1]).max_residual


def spinor_norm(family: DiracFamily) -> oracle.QuadResult:
    return oracle.quad_seminfinite(upper_spinor(family).integrand(), 1e-11)
