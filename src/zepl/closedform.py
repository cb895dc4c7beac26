"""Shared closed-form radial function and residual-report machinery.

Every exact solution in this package is the paper's zero-energy solution,

    psi(r) = amplitude * r^(l+1 or -l) * exp(-w/2) * L_n^((2l+1)/|k|)(w),
    w = lam^2 r^k,

built by ``zero_energy_solution``: the power-law family at k = 1/(mu+1/2),
the half line at k = N+2 and l = 0, the oscillator at k = 2 and
l = 2 gamma + 1/2, and the Dirac upper spinor at k = beta and n = 0.  Value and
the first two derivatives follow from the product/chain rule plus the
Laguerre derivative identity, so residual checks never touch finite
differences.  The squared norm is a Laguerre-weight integral of a
polynomial, which a Gauss rule computes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .specfn import laguerre, laguerre_deriv, laguerre_deriv2

__all__ = ["ClosedFormSolution", "ResidualReport", "zero_energy_solution", "positive_radii",
           "relative_residual", "count_sign_changes"]


def positive_radii(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radial argument must be positive")
    return r


@dataclass(frozen=True)
class ClosedFormSolution:
    """Evaluable radial function with analytic first and second derivatives."""

    amplitude: float
    power: float
    rate: float
    shape: float
    degree: int = 0
    order: float = 0.0
    normalized: bool = False
    notes: tuple[str, ...] = ()

    def _pieces(self, r):
        r = positive_radii(r)
        w = self.rate * r ** self.shape
        f = r ** self.power
        g = np.exp(-0.5 * w)
        h = laguerre(self.degree, self.order, w)
        return r, w, f, g, h

    def value(self, r):
        r, _, f, g, h = self._pieces(r)
        out = self.amplitude * f * g * h
        return out if out.ndim else float(out)

    __call__ = value

    def deriv(self, r):
        out = self._derivs(r)[1]
        return out if np.ndim(out) else float(out)

    def deriv2(self, r):
        out = self._derivs(r)[2]
        return out if np.ndim(out) else float(out)

    def _derivs(self, r):
        """(value, d/dr, d2/dr2) in one pass."""
        r, w, f, g, h = self._pieces(r)
        p, m = self.power, self.shape
        dw = self.rate * m * r ** (m - 1.0)
        d2w = self.rate * m * (m - 1.0) * r ** (m - 2.0)
        df = p * f / r
        d2f = p * (p - 1.0) * f / r**2
        dg = -0.5 * dw * g
        d2g = (0.25 * dw**2 - 0.5 * d2w) * g
        hp = laguerre_deriv(self.degree, self.order, w)
        hpp = laguerre_deriv2(self.degree, self.order, w)
        dh = hp * dw
        d2h = hpp * dw**2 + hp * d2w
        val = f * g * h
        d1 = df * g * h + f * dg * h + f * g * dh
        d2 = (
            d2f * g * h
            + f * d2g * h
            + f * g * d2h
            + 2.0 * (df * dg * h + df * g * dh + f * dg * dh)
        )
        a = self.amplitude
        return a * val, a * d1, a * d2

    @property
    def norm_finite(self) -> bool:
        """True when psi^2 is integrable on (0, inf): s > -1 in ``log_norm``."""
        return (2.0 * self.power + 1.0) / self.shape > 0.0

    def log_norm(self) -> float:
        """log of the integral of psi^2 over (0, inf); +inf when it diverges.

        With w = rate r^shape and s = (2 power + 1)/shape - 1 the integral is
        amplitude^2 rate^-(s+1) / |shape| times the integral of
        w^s e^-w L(w)^2, which is finite iff s > -1.  L^2 has degree
        2 degree, so the (degree+1)-node Gauss rule for the weight w^s e^-w is
        exact.  Its nodes are the eigenvalues of the Jacobi matrix (Golub and
        Welsch); its weights Gamma(n+s+2) / ((n+1)! x L_n^(s+1)(x)^2), n the
        degree, keep their relative accuracy where they are tiny, which the
        eigenvectors' first components do not (at degree 40 those put the
        norm off by a factor of 2e7).  Everything stays in logs: the weights
        sum to Gamma(s+1) and the amplitude may square to zero in floating
        point.
        """
        if not self.norm_finite:
            return math.inf
        n = self.degree
        s = (2.0 * self.power + 1.0) / self.shape - 1.0
        k = np.arange(n + 1, dtype=float)
        x = eigh_tridiagonal(2.0 * k + s + 1.0, np.sqrt(k[1:] * (k[1:] + s)),
                             eigvals_only=True)
        log_weights = -np.log(x) - 2.0 * np.log(np.abs(laguerre(n, s + 1.0, x)))
        top = float(log_weights.max())
        inner = np.exp(log_weights - top) @ laguerre(n, self.order, x) ** 2
        return (2.0 * math.log(abs(self.amplitude)) - (s + 1.0) * math.log(self.rate)
                - math.log(abs(self.shape)) + math.lgamma(n + s + 2.0)
                - math.lgamma(n + 2.0) + top + math.log(inner))

    def scaled(self, factor: float, **changes) -> "ClosedFormSolution":
        """This solution times ``factor``; a zero or non-finite amplitude
        would make psi vanish or blow up everywhere, so it is an error."""
        amplitude = self.amplitude * factor
        if amplitude == 0.0 or not math.isfinite(amplitude):
            raise ValueError(f"amplitude {amplitude:g} is outside the floats")
        return replace(self, amplitude=amplitude, **changes)

    def to_unit_norm(self) -> "ClosedFormSolution":
        """This solution scaled by exp(-log_norm()/2), so it integrates to one."""
        if not self.norm_finite:
            raise ValueError("the norm diverges: the solution cannot be normalized")
        log_factor = -0.5 * self.log_norm()
        return self.scaled(math.exp(log_factor) if log_factor < 709.0 else math.inf,
                           normalized=True)

    def grid(self, num: int = 240, w_lo: float = 1e-2,
             w_hi: float | None = None) -> np.ndarray:
        """Radii of a geometric grid in the Laguerre argument w = rate r^shape,
        where the zeros and turning points live; w_hi defaults to 30(degree+1)."""
        if w_hi is None:
            w_hi = 30.0 * (self.degree + 1)
        w = np.geomspace(w_lo, w_hi, num)
        return np.sort((w / self.rate) ** (1.0 / self.shape))

    def residual(self, r, q_terms) -> "ResidualReport":
        """Relative residual of psi'' = sum(q_terms) psi at the radii r, kept
        where |psi| is above 1e-12 of its peak on r."""
        val, _, d2 = self._derivs(r)
        mask = np.abs(val) > 1e-12 * np.abs(val).max()
        return relative_residual([d2] + [-q * val for q in q_terms], mask=mask)


def zero_energy_solution(shape: float, lam: float, l: float, n: int) -> ClosedFormSolution:
    """The paper's solution at unit amplitude: r^(l+1) for shape > 0, r^-l for
    shape < 0, times exp(-w/2) L_n^((2l+1)/|shape|)(w), w = lam^2 r^shape.
    l need not be an integer (the oscillator's is 2 gamma + 1/2)."""
    return ClosedFormSolution(amplitude=1.0, power=l + 1.0 if shape > 0 else -float(l),
                              rate=lam**2, shape=float(shape), degree=n,
                              order=(2.0 * l + 1.0) / abs(shape))


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise relative residuals of an identity on a grid."""

    residuals: np.ndarray
    max_residual: float
    masked_points: int


def relative_residual(terms, mask=None) -> ResidualReport:
    """Residual of sum(terms) == 0, normalized by sum of |term_i| per point.

    ``terms`` is a sequence of equal-length arrays; ``mask`` marks points to
    keep (True).  Points whose normalization is vanishingly small relative to
    the grid maximum are dropped: the identity is 0 == 0 there.  The check
    fails (max_residual = inf) when a term is not finite at a point the mask
    keeps, or when no point is left to check.
    """
    terms = [np.asarray(t, dtype=float) for t in terms]
    total = np.zeros_like(terms[0])
    scale = np.zeros_like(terms[0])
    for t in terms:
        total = total + t
        scale = scale + np.abs(t)
    wanted = np.ones(total.shape, bool) if mask is None else np.asarray(mask, dtype=bool)
    finite = np.isfinite(scale)
    peak = scale[finite].max() if finite.any() else 0.0
    keep = wanted & finite & (scale > 1e-12 * peak)
    rel = np.abs(total[keep]) / (scale[keep] + 1e-300)
    checked = rel.size > 0 and finite[wanted].all()
    max_rel = float(rel.max()) if checked else math.inf
    return ResidualReport(residuals=rel, max_residual=max_rel,
                          masked_points=int(total.size - keep.sum()))


def count_sign_changes(values) -> int:
    """Strict sign changes along a sampled curve, ignoring near-zero samples.
    A non-finite sample hides any sign it has, so it is an error."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot count sign changes through non-finite samples")
    s = np.sign(v[np.abs(v) > 1e-12 * np.abs(v).max(initial=0.0)])
    return int(np.sum(s[1:] * s[:-1] < 0))
