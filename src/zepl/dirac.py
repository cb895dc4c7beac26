"""Relativistic branch at rest-mass energy for the odd power-law potential.

The two-component radial problem with vanishing even potential and energy
fixed at the rest mass reduces, for the odd component

    W(r) = (lam^2 beta / 2) r^(beta - 1),       beta not in {0, 1, 2},

to a second-order equation for the upper spinor component,

    [-d2/dr2 + k(k+1)/r^2 + W^2 - W' + 2 k W / r] phi = 0,

whose exact solution is phi = C_l (lam^(2/beta) r)^(-k) exp(-(lam^2/2) r^beta).
The parameter map to the nonrelativistic family forces the state index to
zero and selects the spin-orbit label k by branch: k = -l-1 for beta > 0 and
k = l for beta < 0.  The lower component is the first-order operator
(alpha/2)(W + k/r + d/dr) applied to phi and vanishes identically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import oracle
from .closedform import ClosedFormSolution, ResidualReport, log_grid, positive_radii

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
    n: int  # identically zero: the only index compatible with the map


def correspondence(beta: float, l: int, lam: float = 1.0) -> Correspondence:
    """Parameter map onto the nonrelativistic family.  Compatibility pins the
    state index to zero and picks the branch from the sign of beta."""
    fam = DiracFamily(beta=beta, lam=lam, l=l)
    return Correspondence(nu=fam.nu, kappa=fam.kappa, coupling=fam.coupling, n=0)


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


def _odd_deriv(family: DiracFamily, r):
    return family.coupling * (family.beta - 1.0) * positive_radii(r) ** (family.beta - 2.0)


@dataclass(frozen=True)
class SpinorSolution:
    """Upper component with analytic derivatives; the lower component is the
    first-order reduction and vanishes identically at rest-mass energy."""

    family: DiracFamily
    phi: ClosedFormSolution
    c_l: float | None
    normalized: bool
    notes: tuple[str, ...] = ()

    def theta(self, r):
        return lower_component(self.family, self, r)


def normalization_constant(family: DiracFamily) -> float:
    """C_l = lam^(1/beta) sqrt(|beta| / Gamma((1 - 2 kappa)/beta))."""
    arg = (1.0 - 2.0 * family.kappa) / family.beta
    if arg <= 0:
        raise ValueError("normalization undefined: Gamma argument must be positive")
    return family.lam ** (1.0 / family.beta) * math.sqrt(
        abs(family.beta) / math.exp(math.lgamma(arg)))


def upper_spinor(family: DiracFamily) -> SpinorSolution:
    """phi(r) = C_l (lam^(2/beta) r)^(-kappa) exp(-(lam^2/2) r^beta), with the
    closed-form normalization constant whenever the norm is finite."""
    kappa = family.kappa
    power = float(-kappa)
    base_amp = (family.lam ** (2.0 / family.beta)) ** power
    notes: tuple[str, ...] = ()
    if family.kappa == 0:
        notes += ("kappa = 0 lies outside the physical spin-orbit spectrum",)
        warnings.warn("DiracFamily with l = 0 and beta < 0 yields kappa = 0, "
                      "outside the physical spin-orbit spectrum", stacklevel=2)
    if family.normalizable:
        c_l = normalization_constant(family)
        phi = ClosedFormSolution(amplitude=c_l * base_amp, power=power,
                                 rate=family.lam**2, shape=family.beta,
                                 normalized=True, norm_constant=c_l, notes=notes)
        return SpinorSolution(family=family, phi=phi, c_l=c_l, normalized=True,
                              notes=notes)
    notes += ("unnormalized: norm diverges for l = 0 with beta < 0",)
    phi = ClosedFormSolution(amplitude=base_amp, power=power, rate=family.lam**2,
                             shape=family.beta, normalized=False, notes=notes)
    return SpinorSolution(family=family, phi=phi, c_l=None, normalized=False,
                          notes=notes)


def default_grid(family: DiracFamily, num: int = 200) -> np.ndarray:
    scale = (2.0 / family.lam**2) ** (1.0 / family.beta)
    return log_grid(scale * 1e-2, scale * 1e2, num)


def reduced_potential(family: DiracFamily, r):
    """V(r) = (lam^2 beta/4)[(lam^2 beta/2) r^(2 beta-2) + (2k - beta + 1) r^(beta-2)]
    entering the Schroedinger-like form of the reduced equation."""
    r = positive_radii(r)
    a = family.lam**2 * family.beta
    return (a / 4.0) * ((a / 2.0) * r ** (2.0 * family.beta - 2.0)
                        + (2.0 * family.kappa - family.beta + 1.0)
                        * r ** (family.beta - 2.0))


def operator_bracket(family: DiracFamily, r):
    """W^2 - dW/dr + 2 kappa W / r, the potential-like part of the reduced
    operator; agrees with kappa(kappa+1)/r^2 + 2 V - kappa(kappa+1)/r^2."""
    r = positive_radii(r)
    w = odd_potential(family, r)
    return w**2 - _odd_deriv(family, r) + 2.0 * family.kappa * w / r


def residual_33(family: DiracFamily, grid=None) -> ResidualReport:
    """Relative residual of the reduced second-order equation applied to the
    upper spinor."""
    r = default_grid(family) if grid is None else positive_radii(grid)
    k = family.kappa
    return upper_spinor(family).phi.residual(r, [k * (k + 1.0) / r**2,
                                                 operator_bracket(family, r)])


def reduced_form_agreement(family: DiracFamily, grid=None) -> float:
    """Max relative discrepancy between the operator bracket and the
    closed-form reduced potential, 2 V(r)."""
    r = default_grid(family) if grid is None else positive_radii(grid)
    a = operator_bracket(family, r)
    b = 2.0 * reduced_potential(family, r)
    return float(np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-300)))


def lower_component(family: DiracFamily, solution: SpinorSolution, r):
    """theta(r) = (alpha/2)(W + kappa/r + d/dr) phi(r); identically zero for
    the exact upper component."""
    r = positive_radii(r)
    val, d1, _ = solution.phi._derivs(r)
    w = odd_potential(family, r)
    out = 0.5 * family.alpha_fs * (w * val + family.kappa / r * val + d1)
    return out if np.ndim(out) else float(out)


def lower_component_relative(family: DiracFamily, grid=None) -> float:
    """sup |theta| normalized by the size of the individual operator pieces,
    so 'vanishes' is meaningful across scales."""
    r = default_grid(family) if grid is None else positive_radii(grid)
    sol = upper_spinor(family)
    val, d1, _ = sol.phi._derivs(r)
    w = odd_potential(family, r)
    theta = lower_component(family, sol, r)
    scale = 0.5 * family.alpha_fs * (np.abs(w * val) + np.abs(family.kappa / r * val)
                                     + np.abs(d1))
    good = scale > 1e-12 * scale.max()
    return float(np.max(np.abs(theta[good]) / scale[good]))


def spinor_norm(family: DiracFamily) -> oracle.QuadResult:
    sol = upper_spinor(family)
    return oracle.quad_seminfinite(lambda r: sol.phi.value(r) ** 2, 1e-11)
