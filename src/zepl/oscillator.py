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

__all__ = ["OscillatorState", "phi", "phi_eval", "residual_a5", "ladder_check",
           "eigenvalue_term", "LadderReport"]

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
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ValueError(f"state index must be a non-negative integer, got {self.n}")
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


def phi_eval(state: OscillatorState, x):
    """Value, first and second derivative of Phi at x > 0."""
    return phi(state)._derivs(x)


def residual_a5(state: OscillatorState) -> ResidualReport:
    """Residual of the oscillator equation as x^2 q = -eta + lam^4 x^4 - 4 lam^2 (g+n+1) x^2."""
    return phi(state).residual([(-state.eta, 0.0), (state.lam**4, 4.0),
                                (-eigenvalue_term(state), 2.0)])


def _apply_l3(state: OscillatorState, x):
    val, _, d2 = phi_eval(state, x)
    return d2 + state.eta / x**2 * val - x**2 / 16.0 * val, val


def _apply_ladder(state: OscillatorState, x, pm: float):
    """(1/sqrt2)[d2/dx2 + eta/x^2 + x^2/16 +- (x d/dx + 1/2)/2] Phi."""
    val, d1, d2 = phi_eval(state, x)
    core = d2 + state.eta / x**2 * val + x**2 / 16.0 * val
    return (core + pm * 0.5 * (x * d1 + 0.5 * val)) / math.sqrt(2.0)


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
    coefficients on Phi's grid.  All comparisons hold up to the sign sigma of
    the median L3 ratio, which is measured here for this state."""
    lam = math.sqrt(_LADDER_LAMBDA_SQ)
    state = OscillatorState(gamma=gamma, n=n, lam=lam)
    x = phi(state).grid()

    l3_val, val = _apply_l3(state, x)
    mask = np.abs(val) > 1e-9 * np.abs(val).max()
    ratio = l3_val[mask] / val[mask]
    expected = gamma + n + 1.0
    median = float(np.median(ratio))
    sigma = 1 if median > 0 else -1
    l3_ratio = abs(median)
    l3_dev = float(np.max(np.abs(ratio * sigma - expected))) / expected

    # effective raising operator is the nominal "-" combination when sigma=-1;
    # the quadrature of the raised state is the independent check of the L+
    # coefficient, the phi norms are exact Gauss-Laguerre sums
    raised = lambda xs: _apply_ladder(state, xs, float(sigma))
    norm_raised = math.sqrt(oracle.quad_seminfinite(lambda r: raised(r) ** 2, 1e-11).value)
    upper = phi(OscillatorState(gamma=gamma, n=n + 1, lam=lam))
    lplus_ratio = norm_raised / math.exp(0.5 * upper.log_norm())
    lplus_expected = math.sqrt((n + 1.0) * (n + 2.0 * gamma + 2.0) / 2.0)

    ground = OscillatorState(gamma=gamma, n=0, lam=lam)
    ground_phi = phi(ground)
    lowered_ground = _apply_ladder(ground, ground_phi.grid(), -float(sigma))
    lminus = float(np.max(np.abs(lowered_ground))) / math.exp(0.5 * ground_phi.log_norm())

    return LadderReport(sigma=sigma, l3_ratio=l3_ratio, l3_expected=expected,
                        l3_max_rel_dev=l3_dev, lplus_norm_ratio=lplus_ratio,
                        lplus_expected=lplus_expected, lminus_annihilation=lminus)
