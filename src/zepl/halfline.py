"""Half-line monomial-potential eigenproblem.

The equation

    [-d2/dx2 + x^(2(N+1)) - E x^N] psi(x) = 0,      x >= 0,  N != -2,

is the l = 0 specialization of the power-law family under

    mu = -1/2 + (N+2)^-1,      lam^2 = 2/|N+2|,

which yields the discrete spectrum E_n = (2n+1)|N+2| + 1 and eigenfunctions

    psi_n ~ [lam^(2/(N+2)) x  (N > -2)  or  1  (N < -2)]
            exp(-(lam^2/2) x^(N+2)) L_n^(1/|N+2|)(lam^2 x^(N+2)),

vanishing at the origin either through the prefactor or through the
essential singularity.  N = -1 and N = 0 are accepted here even though the
general family rejects the corresponding mu values (they are the S-wave
Coulomb and oscillator problems, treated explicitly by this reduction).

The Laguerre order is derived from the general wavefunction, giving
(2l+1)|mu+1/2| = 1/|N+2| at l = 0; the residual check below is the authority
for that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormSolution, ResidualReport, positive_radii

__all__ = ["HalfLineProblem", "spectrum", "eigenfunction", "residual_41"]


@dataclass(frozen=True)
class HalfLineProblem:
    """Monomial problem index N (N != -2) and state index n."""

    N: int
    n: int = 0

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N == -2:
            raise ValueError(f"N must be an integer different from -2, got {self.N!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ValueError("n must be a non-negative integer")

    @property
    def mu(self) -> float:
        return -0.5 + 1.0 / (self.N + 2)

    @property
    def lam_sq(self) -> float:
        return 2.0 / abs(self.N + 2)

    @property
    def omega(self) -> float:
        return 2 * self.n + 1 + 1.0 / abs(self.N + 2)

    @property
    def energy(self) -> float:
        return (2 * self.n + 1) * abs(self.N + 2) + 1.0


def spectrum(N: int, n: int) -> float:
    """E_n = (2n+1)|N+2| + 1."""
    return HalfLineProblem(N=N, n=n).energy


def eigenfunction(N: int, n: int, normalize: bool = True) -> ClosedFormSolution:
    """Closed-form eigenfunction with analytic derivatives.

    For N > -2 the norm is finite and the returned solution integrates to
    one; for N < -2 the solution tends to a constant at infinity and is
    returned unnormalized with unit amplitude.
    """
    prob = HalfLineProblem(N=N, n=n)
    lam_sq = prob.lam_sq
    if N > -2:
        power = 1.0
        amp = math.sqrt(lam_sq) ** (2.0 / (N + 2))
    else:
        power = 0.0
        amp = 1.0
    sol = ClosedFormSolution(amplitude=amp, power=power, rate=lam_sq,
                             shape=float(N + 2), degree=n,
                             order=1.0 / abs(N + 2))
    if not sol.norm_finite:
        return sol.scaled(1.0, notes=("unnormalized: psi tends to a constant at infinity",))
    if normalize:
        return sol.scaled(math.exp(-0.5 * sol.log_norm()), normalized=True)
    return sol


def residual_41(N: int, n: int, grid=None) -> ResidualReport:
    """Relative residual of [-d2/dx2 + x^(2N+2) - E_n x^N] psi = 0."""
    sol = eigenfunction(N, n, normalize=False)
    x = sol.grid() if grid is None else positive_radii(grid)
    return sol.residual(x, [x ** (2 * N + 2), -spectrum(N, n) * x ** float(N)])
