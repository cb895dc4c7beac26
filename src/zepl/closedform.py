"""Shared closed-form radial function and residual-report machinery.

Every exact solution in this package is the paper's zero-energy solution,

    psi(r) = amplitude * r^(l+1 or -l) * exp(-w/2) * L_n^((2l+1)/|k|)(w),
    w = lam^2 r^k,

built by ``zero_energy_solution``: the power-law family at k = 1/(mu+1/2),
the half line at k = N+2 and l = 0, the oscillator at k = 2 and
l = 2 gamma + 1/2, and the Dirac upper spinor at k = beta and n = 0.  psi is
formed in logs, as exp(log amplitude + power log r - w/2) times L(w), and
its derivatives use the Laguerre derivative identity, so residual checks
never touch finite differences.  The squared norm is a Laguerre-weight
integral of a polynomial, which a Gauss rule computes exactly.
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
    if r.min(initial=1.0) <= 0:
        raise ValueError("radial argument must be positive")
    return r


@dataclass(frozen=True)
class ClosedFormSolution:
    """Radial function with analytic derivatives; its amplitude is a log, so
    psi leaves the floats only where its own value does."""

    log_amplitude: float
    power: float
    rate: float
    shape: float
    degree: int = 0
    order: float = 0.0
    normalized: bool = False
    notes: tuple[str, ...] = ()

    @property
    def amplitude(self) -> float:  # 0.0 or inf where it leaves the floats
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_amplitude))

    def _log_envelope(self, r):
        """(r, w, log E) with E = amplitude r^power exp(-w/2), psi = E L(w)."""
        r = positive_radii(r)
        with np.errstate(over="ignore"):  # w = inf puts E at exactly 0
            w = self.rate * r ** self.shape
        return r, w, self.log_amplitude + self.power * np.log(r) - 0.5 * w

    def _terms(self, r, derivs: bool = True):
        """[psi, psi', psi''] in one pass, or [psi] alone.  With
        g = d log E/dr = power/r - w'/2, psi' = E (g L + L_r) and
        psi'' = E ((g^2 + g') L + 2 g L_r + L_rr), L_r = dL(w)/dr.  A point
        where E is 0 is exactly 0: L is evaluated at r = 1 in its place, not at
        its own w, which may be infinite."""
        r, w, log_env = self._log_envelope(r)
        env = np.exp(log_env)
        if not env.all():
            r, w = np.where(env > 0.0, r, 1.0), np.where(env > 0.0, w, self.rate)
        n, a, p, m = self.degree, self.order, self.power, self.shape
        h = laguerre(n, a, w)
        if not derivs:
            return [env * h]
        dw = self.rate * m * r ** (m - 1.0)
        g, hp = p / r - 0.5 * dw, laguerre_deriv(n, a, w)
        dh = hp * dw
        d2w = self.rate * m * (m - 1.0) * r ** (m - 2.0)
        d2h = laguerre_deriv2(n, a, w) * dw**2 + hp * d2w
        return [env * h, env * (g * h + dh),
                env * ((g * g - p / r**2 - 0.5 * d2w) * h + 2.0 * g * dh + d2h)]

    _derivs = _terms  # the name other modules call; value() goes to _terms directly

    def value(self, r):
        out = self._terms(r, derivs=False)[0]
        return out if out.ndim else float(out)

    __call__ = value

    def deriv(self, r):
        out = self._derivs(r)[1]
        return out if np.ndim(out) else float(out)

    def deriv2(self, r):
        out = self._derivs(r)[2]
        return out if np.ndim(out) else float(out)

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
        sum to Gamma(s+1).
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
        return (2.0 * self.log_amplitude - (s + 1.0) * math.log(self.rate)
                - math.log(abs(self.shape)) + math.lgamma(n + s + 2.0)
                - math.lgamma(n + 2.0) + top + math.log(inner))

    def scaled(self, log_factor: float, **changes) -> "ClosedFormSolution":
        """This solution times exp(log_factor); a non-finite log factor would
        make psi vanish or blow up everywhere, so it is an error."""
        if not math.isfinite(log_factor):
            raise ValueError(f"log amplitude factor {log_factor:g} is not finite")
        return replace(self, log_amplitude=self.log_amplitude + log_factor, **changes)

    def to_unit_norm(self) -> "ClosedFormSolution":
        """This solution scaled by exp(-log_norm()/2), so it integrates to one."""
        if not self.norm_finite:
            raise ValueError("the norm diverges: the solution cannot be normalized")
        return self.scaled(-0.5 * self.log_norm(), normalized=True)

    def unit_peak(self, r) -> "ClosedFormSolution":
        """This solution rescaled so its envelope peaks at 1 on the radii r."""
        return self.scaled(-float(self._log_envelope(r)[2].max()))

    def w_grid(self, num: int) -> np.ndarray:
        """Geometric grid in w = rate r^shape; psi = w^c e^(-w/2) L_n^a(w) up to
        scale, c = power/shape.  w runs from 1e-2 to 30(n+1), widened past L's
        zeros (below m + h, m = 2n + a + 1, h = 2 sqrt(n(n + a + 1))) and past
        the peak 2(c+n) of w^(c+n) e^(-w/2) by sqrt(80) of its widths
        2 sqrt(c+n), and raised to min((m - h)/4, 2c e^(-1 - 40/c)), where
        w^c e^(-w/2) is e^-40 below its peak."""
        n, a, c = self.degree, self.order, max(self.power / self.shape, 0.0)
        m, h = 2.0 * n + a + 1.0, 2.0 * math.sqrt(n * (n + a + 1.0))
        w_lo = max(1e-2, min(0.25 * (m - h), 2.0 * c * math.exp(-1.0 - 40.0 / c) if c else 0.0))
        w_hi = max(30.0 * (n + 1), m + h + 20.0, 2.0 * (c + n) + math.sqrt(320.0 * (c + n)))
        return np.geomspace(w_lo, w_hi, num)

    def grid(self) -> np.ndarray:
        """Radii of w_grid(240), ascending; ValueError where they leave the floats."""
        w = self.w_grid(240)
        if max(abs(math.log(v / self.rate)) for v in (w[0], w[-1])) >= 709.0 * abs(self.shape):
            raise ValueError("the grid's radii lie outside the floats")
        return np.sort((w / self.rate) ** (1.0 / self.shape))

    def residual(self, r, q_terms) -> "ResidualReport":
        """Relative residual of psi'' = sum(q_terms) psi at the radii r, kept
        where |psi| is above 1e-12 of its peak on r; checked on unit_peak(r)."""
        val, _, d2 = self.unit_peak(r)._derivs(r)
        mask = np.abs(val) > 1e-12 * np.abs(val).max()
        return relative_residual([d2] + [-q * val for q in q_terms], mask=mask)


def zero_energy_solution(shape: float, lam: float, l: float, n: int) -> ClosedFormSolution:
    """The paper's solution at unit amplitude: r^(l+1) for shape > 0, r^-l for
    shape < 0, times exp(-w/2) L_n^((2l+1)/|shape|)(w), w = lam^2 r^shape.
    l need not be an integer (the oscillator's is 2 gamma + 1/2)."""
    return ClosedFormSolution(log_amplitude=0.0, power=l + 1.0 if shape > 0 else -float(l),
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
    terms = np.asarray(terms, dtype=float)
    total, scale = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    wanted = np.ones(total.shape, bool) if mask is None else np.asarray(mask, dtype=bool)
    finite = np.isfinite(scale)
    peak = scale[finite & wanted].max(initial=0.0)
    keep = wanted & finite & (scale > 1e-12 * peak)
    rel = np.abs(total[keep]) / (scale[keep] + 1e-300)
    checked = rel.size > 0 and finite[wanted].all()
    max_rel = float(rel.max()) if checked else math.inf
    return ResidualReport(residuals=rel, max_residual=max_rel,
                          masked_points=int(total.size - keep.sum()))


def count_sign_changes(values) -> int:
    """Strict sign changes along a sampled curve, skipping exact zeros.
    A non-finite sample hides any sign it has, so it is an error."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot count sign changes through non-finite samples")
    s = np.sign(v[v != 0.0])
    return int(np.sum(s[1:] * s[:-1] < 0))
