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

The eigenfunction is the paper's closed form at shape k = N+2 and l = 0,
whose Laguerre order (2l+1)/|k| is 1/|N+2|; the residual check below is the
authority for that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormSolution, ResidualReport, zero_energy_solution
from .specfn import check_index

__all__ = ["HalfLineProblem", "spectrum", "eigenfunction", "residual_41"]


@dataclass(frozen=True)
class HalfLineProblem:
    """Monomial problem index N (N != -2) and state index n."""

    N: int
    n: int = 0

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)) or self.N == -2:
            raise ValueError(f"N must be an integer different from -2, got {self.N!r}")
        check_index(self.n, "n")

    @property
    def mu(self) -> float:
        return -0.5 + 1.0 / (self.N + 2)

    @property
    def lam_sq(self) -> float:
        return 2.0 / abs(self.N + 2)

    @property
    def energy(self) -> float:
        return (2 * self.n + 1) * abs(self.N + 2) + 1.0


def spectrum(N: int, n: int) -> float:
    """E_n = (2n+1)|N+2| + 1."""
    return HalfLineProblem(N=N, n=n).energy


def eigenfunction(N: int, n: int) -> ClosedFormSolution:
    """Closed-form eigenfunction with analytic derivatives.

    For N > -2 the norm is finite and the returned solution integrates to
    one; for N < -2 the solution tends to a constant at infinity and is
    returned unnormalized with unit amplitude.
    """
    prob = HalfLineProblem(N=N, n=n)
    sol = zero_energy_solution(N + 2, math.sqrt(prob.lam_sq), 0, n)
    return sol.to_unit_norm() if sol.norm_finite else sol.scaled(
        0.0, notes=("unnormalized: psi tends to a constant at infinity",))


def residual_41(N: int, n: int) -> ResidualReport:
    """Residual of [-d2/dx2 + x^(2N+2) - E_n x^N] psi = 0 as x^2 q = x^(2N+4) - E_n x^(N+2)."""
    return eigenfunction(N, n).residual([(1.0, 2.0 * N + 4.0), (-spectrum(N, n), N + 2.0)])
