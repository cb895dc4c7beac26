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

up to one global sign convention determined empirically (the realization
below annihilates the ground state with its nominal raising combination, so
the whole triple is reconciled by a single sign sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import oracle
from .closedform import ClosedFormSolution, ResidualReport, log_grid, positive_radii

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
    exp(-lam^2 x^2 / 2) L_n^(2 gamma + 1)(lam^2 x^2)."""
    g, n, lam = state.gamma, state.n, state.lam
    p = 2.0 * g + 1.5
    log_norm = 0.5 * (math.log(2.0 * lam) + math.lgamma(n + 1.0)
                      - math.lgamma(2.0 * g + n + 2.0))
    amp = math.exp(log_norm + p * math.log(lam))
    return ClosedFormSolution(amplitude=amp, power=p, rate=lam**2, shape=2.0,
                              degree=n, order=2.0 * g + 1.0,
                              normalized=True, norm_constant=amp)


def phi_eval(state: OscillatorState, x):
    """Value, first and second derivative of Phi at x > 0."""
    return phi(state)._derivs(x)


def default_grid(state: OscillatorState, num: int = 200) -> np.ndarray:
    return log_grid(1e-2 / state.lam, 10.0 / state.lam, num)


def residual_a5(state: OscillatorState, grid=None) -> ResidualReport:
    """Relative residual of the oscillator wave equation on a grid."""
    x = default_grid(state) if grid is None else positive_radii(grid)
    g, lam_sq = state.gamma, state.lam**2
    return phi(state).residual(x, [(4.0 * g * (g + 1.0) + 0.75) / x**2, lam_sq**2 * x**2,
                                   -4.0 * lam_sq * (g + state.n + 1.0)])


def _apply_l3(state: OscillatorState, x):
    val, _, d2 = phi_eval(state, x)
    return d2 + state.eta / x**2 * val - x**2 / 16.0 * val, val


def _apply_ladder(state: OscillatorState, x, pm: float):
    """(1/sqrt2)[d2/dx2 + eta/x^2 + x^2/16 +- (x d/dx + 1/2)/2] Phi."""
    val, d1, d2 = phi_eval(state, x)
    core = d2 + state.eta / x**2 * val + x**2 / 16.0 * val
    return (core + pm * 0.5 * (x * d1 + 0.5 * val)) / math.sqrt(2.0)


@lru_cache(maxsize=1)
def _global_sign() -> int:
    """Empirical sign reconciling the differential realization with the
    representation coefficients.

    With sigma = -1 the realized L3 acts as -(gamma+n+1) and the nominal
    raising/lowering pair acts with swapped roles; the choice that annihilates
    the ground state fixes sigma once for the whole suite.
    """
    state = OscillatorState(gamma=0.5, n=0, lam=math.sqrt(_LADDER_LAMBDA_SQ))
    x = default_grid(state)
    up = np.max(np.abs(_apply_ladder(state, x, +1.0)))
    dn = np.max(np.abs(_apply_ladder(state, x, -1.0)))
    return -1 if up < dn else +1


@dataclass(frozen=True)
class LadderReport:
    sigma: int
    l3_ratio: float
    l3_expected: float
    l3_max_rel_dev: float
    lplus_norm_ratio: float
    lplus_expected: float
    lminus_annihilation: float


def ladder_check(gamma: float, n: int, grid=None) -> LadderReport:
    """Apply the differential realization of the generators to Phi_n^gamma in
    the frame lam^2 = 1/4 and compare against the representation
    coefficients.  All comparisons hold up to the one global sign."""
    lam = math.sqrt(_LADDER_LAMBDA_SQ)
    state = OscillatorState(gamma=gamma, n=n, lam=lam)
    x = default_grid(state) if grid is None else np.asarray(grid, dtype=float)
    sigma = _global_sign()

    l3_val, val = _apply_l3(state, x)
    mask = np.abs(val) > 1e-9 * np.abs(val).max()
    ratio = l3_val[mask] / val[mask]
    expected = gamma + n + 1.0
    l3_ratio = float(np.median(ratio)) * sigma
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
    lowered_ground = _apply_ladder(ground, default_grid(ground), -float(sigma))
    lminus = (float(np.max(np.abs(lowered_ground)))
              / math.exp(0.5 * phi(ground).log_norm()))

    return LadderReport(sigma=sigma, l3_ratio=l3_ratio, l3_expected=expected,
                        l3_max_rel_dev=l3_dev, lplus_norm_ratio=lplus_ratio,
                        lplus_expected=lplus_expected, lminus_annihilation=lminus)
