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
import warnings
from dataclasses import dataclass

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

    @property
    def nu(self) -> float:
        return -0.5 + 1.0 / self.beta

    @property
    def kappa(self) -> int:
        """Spin-orbit label: branch (ii) -l-1 for beta > 0, branch (i) l for
        beta < 0.  The l = 0, beta < 0 combination yields kappa = 0, outside
        the physical spin-orbit spectrum; it is representable but flagged."""
        return -self.l - 1 if self.beta > 0 else self.l

    @property
    def coupling(self) -> float:
        """Amplitude A = lam^2/(2 nu + 1) = lam^2 beta / 2 of the odd term."""
        return self.lam**2 * self.beta / 2.0

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
    c_l: float | None
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
        warnings.warn("DiracFamily with l = 0 and beta < 0 yields kappa = 0, "
                      "outside the physical spin-orbit spectrum", stacklevel=2)
    phi = zero_energy_solution(beta, lam, family.l, 0).scaled(
        (log_c or 0.0) - 2.0 * kappa / beta * math.log(lam), normalized=family.normalizable,
        notes=notes)
    return SpinorSolution(family=family, phi=phi, normalized=family.normalizable, notes=notes,
                          c_l=None if log_c is None else math.exp(log_c))


def reduced_potential(family: DiracFamily, r):
    """V(r) of the Schroedinger-like form of the reduced equation: the
    power-law family's potential at (mu, lam, l, n) = (nu, lam, l, 0), which
    holds 1/beta = nu + 1/2 only to 2^-54 |beta| relative: an error above 1e3."""
    if abs(family.beta) > 1e3:
        raise ValueError(f"|beta| > 1e3: nu keeps 1/beta to {2.0**-54 * abs(family.beta):.0e} only")
    return powerlaw.potential_eval(
        powerlaw.PowerLawFamily(mu=family.nu, lam=family.lam, l=family.l), r)


def _bracket_pieces(family: DiracFamily, r):
    """[W^2, -dW/dr, 2 kappa W / r], the pieces of the operator bracket."""
    r = positive_radii(r)
    w = odd_potential(family, r)
    dw = family.coupling * (family.beta - 1.0) * r ** (family.beta - 2.0)
    return [w**2, -dw, 2.0 * family.kappa * w / r]


def operator_bracket(family: DiracFamily, r):
    """W^2 - dW/dr + 2 kappa W / r, the potential-like part of the reduced
    operator; agrees with kappa(kappa+1)/r^2 + 2 V - kappa(kappa+1)/r^2."""
    return sum(_bracket_pieces(family, r))


def residual_33(family: DiracFamily) -> ResidualReport:
    """Relative residual of the reduced second-order equation applied to the
    upper spinor, on its grid."""
    phi = upper_spinor(family).phi
    r = phi.grid()
    k = family.kappa
    return phi.residual(r, [k * (k + 1.0) / r**2, operator_bracket(family, r)])


def reduced_form_agreement(family: DiracFamily) -> float:
    """Max relative discrepancy between the operator bracket and twice the
    power-law family's potential at mu = nu, n = 0 (the paper's map) on phi's
    grid.  The bracket is a cancelling sum, so the scale is its pieces' sum."""
    r = zero_energy_solution(family.beta, family.lam, family.l, 0).grid()
    terms = _bracket_pieces(family, r) + [-2.0 * reduced_potential(family, r)]
    return relative_residual(terms).max_residual


def _lower_pieces(family: DiracFamily, phi: ClosedFormSolution, r):
    """[W phi, kappa phi / r, phi'], the pieces of (W + kappa/r + d/dr) phi."""
    r = positive_radii(r)
    val, d1, _ = phi._derivs(r)
    return [odd_potential(family, r) * val, family.kappa / r * val, d1]


def lower_component(family: DiracFamily, solution: SpinorSolution, r):
    """theta(r) = (alpha/2)(W + kappa/r + d/dr) phi(r); identically zero for
    the exact upper component."""
    out = 0.5 * family.alpha_fs * sum(_lower_pieces(family, solution.phi, r))
    return out if np.ndim(out) else float(out)


def lower_component_relative(family: DiracFamily) -> float:
    """sup |theta| on the upper spinor's grid, normalized by the size of the
    individual operator pieces, so 'vanishes' is meaningful across scales."""
    phi = upper_spinor(family).phi
    return relative_residual(_lower_pieces(family, phi, phi.grid())).max_residual


def spinor_norm(family: DiracFamily) -> oracle.QuadResult:
    sol = upper_spinor(family)
    return oracle.quad_seminfinite(lambda r: sol.phi.value(r) ** 2, 1e-11)
