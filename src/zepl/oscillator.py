"""Three-dimensional oscillator reference problem and its SO(2,1) ladder.

This is the anchor every power-law solution is mapped from: normalized radial
wavefunctions Phi_n^gamma, the wave-equation residual

    [d2/dx2 - (4 gamma (gamma+1) + 3/4)/x^2 - lam^4 x^2
            + 4 lam^2 (gamma + n + 1)] Phi = 0,

and numerical checks that the differential realization of the SO(2,1)
generators acts on Phi with the representation coefficients

    L3 |g,n>  = (gamma+n+1) |g,n>
    L+ |g,n>  = sqrt((n+1)(n+2 gamma+2)/2) |g,n+1>
    L- |g,n>  = sqrt(n (n+2 gamma+1)/2)   |g,n-1>

up to one sign sigma: at lam^2 = 1/4 the realization below acts as
L3 = -(gamma+n+1), so sigma = -1 and its nominal raising and lowering
combinations swap roles.  ``ladder_check`` measures sigma from each state's
own L3 ratio, so a state off the common sign shows in the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .closedform import ClosedFormSolution, ResidualReport, zero_energy_solution
from .specfn import check_index

__all__ = ["OscillatorState", "phi", "residual_a5", "ladder_check", "eigenvalue_term",
           "LadderReport"]

_LADDER_LAMBDA_SQ = 0.25  # untilted frame: lam^4 = 1/16 matches the x^2/16 realization


@dataclass(frozen=True)
class OscillatorState:
    """One basis state of the lowered-bounded discrete series."""

    gamma: float
    n: int
    lam: float = 1.0

    def __post_init__(self):
        if not self.gamma >= -0.5:
            raise ValueError(f"representation label gamma must be >= -1/2, got {self.gamma}")
        check_index(self.n, "state index")
        if not self.lam > 0:
            raise ValueError("oscillator strength must be positive")

    @property
    def eta(self) -> float:
        """Inverse-square coefficient of the generator realization."""
        return -4.0 * self.gamma * (self.gamma + 1.0) - 0.75


def eigenvalue_term(state: OscillatorState) -> float:
    """Constant term 4 lam^2 (gamma + n + 1) of the wave equation."""
    return 4.0 * state.lam**2 * (state.gamma + state.n + 1.0)


def phi(state: OscillatorState) -> ClosedFormSolution:
    """Normalized wavefunction
    sqrt(2 lam n! / Gamma(2 gamma + n + 2)) (lam x)^(2 gamma + 3/2)
    exp(-lam^2 x^2 / 2) L_n^(2 gamma + 1)(lam^2 x^2): the paper's closed form
    at shape 2 and l = 2 gamma + 1/2, with its constant formed in logs."""
    g, n, lam = state.gamma, state.n, state.lam
    unit = zero_energy_solution(2.0, lam, 2.0 * g + 0.5, n)
    log_c = 0.5 * (math.log(2.0 * lam) + math.lgamma(n + 1.0)
                   - math.lgamma(2.0 * g + n + 2.0))
    return unit.scaled(log_c + unit.power * math.log(lam), normalized=True)


def residual_a5(state: OscillatorState) -> ResidualReport:
    """Residual of the oscillator equation as x^2 q = -eta + lam^4 x^4 - 4 lam^2 (g+n+1) x^2."""
    return phi(state).residual([(-state.eta, 0.0), (state.lam**4, 4.0),
                                (-eigenvalue_term(state), 2.0)])


def _generator(sol: ClosedFormSolution, eta: float, w, quartic: float, pm: float):
    """x^2/E [Phi'' + eta Phi/x^2 + quartic x^2 Phi/16 + pm (x Phi' + Phi/2)/2] and L
    at w = x^2/4 (lam^2 = 1/4), Phi = E L(w): d2 + eta L + quartic w^2 L + pm 2w (d1 + L/2).
    quartic = -1, pm = 0 gives L3; quartic = 1, pm = +-1 the ladder combinations times sqrt2."""
    val, d1, d2 = sol.euler(w, derivs=True)
    return d2 + (eta + quartic * w * w) * val + pm * 2.0 * w * (d1 + 0.5 * val), val


@dataclass(frozen=True)
class LadderReport:
    sigma: int
    l3_ratio: float
    l3_expected: float
    l3_max_rel_dev: float
    lplus_norm_ratio: float
    lplus_expected: float
    lminus_annihilation: float


def ladder_check(gamma: float, n: int) -> LadderReport:
    """Apply the differential realization of the generators to Phi_n^gamma in
    the frame lam^2 = 1/4 and compare against the representation
    coefficients on Phi's w_grid(240), in w.  All comparisons hold up to the
    sign sigma of the median L3 ratio, which is measured here for this state."""
    lam = math.sqrt(_LADDER_LAMBDA_SQ)
    state = OscillatorState(gamma=gamma, n=n, lam=lam)
    sol, eta = phi(state), state.eta
    w = sol.w_grid(240)

    l3_val, val = _generator(sol, eta, w, -1.0, 0.0)
    psi = np.exp(0.5 * sol.power * np.log(w) - 0.5 * w) * val  # Phi up to scale
    mask = np.abs(psi) > 1e-9 * np.abs(psi).max()
    ratio = l3_val[mask] / (4.0 * w[mask] * val[mask])
    expected = gamma + n + 1.0
    median = float(np.median(ratio))
    sigma = 1 if median > 0 else -1
    l3_ratio = abs(median)
    l3_dev = float(np.max(np.abs(ratio * sigma - expected))) / expected

    # effective raising operator is the nominal "-" combination when sigma=-1;
    # the quadrature of the raised state, E^2 bracket^2/(32 w^2), checks the L+
    # coefficient independently; the phi norms are exact connection-formula sums
    h = lambda w: _generator(sol, eta, w, 1.0, sigma)[0] ** 2 / (32.0 * w * w)
    norm_raised = math.sqrt(oracle.quad_seminfinite(sol.integrand(h), 1e-11).value)
    upper = phi(OscillatorState(gamma=gamma, n=n + 1, lam=lam))
    lplus_ratio = norm_raised / math.exp(0.5 * upper.log_norm())
    lplus_expected = math.sqrt((n + 1.0) * (n + 2.0 * gamma + 2.0) / 2.0)

    # the lowered ground state, (E/x^2) bracket/sqrt2 with E/x^2 =
    # amplitude (4w)^(power/2 - 1) e^(-w/2), against its norm
    ground = phi(OscillatorState(gamma=gamma, n=0, lam=lam))
    w = ground.w_grid(240)
    log_c = ground.log_amplitude - 0.5 * (ground.log_norm() + math.log(2.0))
    lowered = np.exp(log_c + (0.5 * ground.power - 1.0) * np.log(4.0 * w) - 0.5 * w)
    lminus = float(np.max(np.abs(lowered * _generator(ground, eta, w, 1.0, -sigma)[0])))

    return LadderReport(sigma=sigma, l3_ratio=l3_ratio, l3_expected=expected,
                        l3_max_rel_dev=l3_dev, lplus_norm_ratio=lplus_ratio,
                        lplus_expected=lplus_expected, lminus_annihilation=lminus)
