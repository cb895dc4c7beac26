"""Shared closed-form radial function and residual-report machinery.

Every exact solution in this package is the paper's zero-energy solution,

    psi(r) = amplitude * r^(l+1 or -l) * exp(-w/2) * L_n^((2l+1)/|k|)(w),
    w = lam^2 r^k,

built by ``zero_energy_solution``: the power-law family at k = 1/(mu+1/2),
the half line at k = N+2 and l = 0, the oscillator at k = 2 and
l = 2 gamma + 1/2, and the Dirac upper spinor at k = beta and n = 0.  psi is
formed in logs, as exp(log amplitude + power log r - w/2) times L(w), and
its derivatives are stated once, in Euler form r^j d^j/dr^j, as functions of
w.  One recurrence gives L = L_n^a(w) and L_(n-1)^a(w), and Laguerre's own
identities give the rest: w L' = n L_n - (n+a) L_(n-1), and Laguerre's
equation w L'' = -(a+1-w) L' - n L.  Every equation a solution solves
is, times r^2, a sum of powers c r^e, so the residual is checked in w and
log r without finite differences or radii.  The squared norm is a
Laguerre-weight integral of a polynomial, which a Gauss rule computes exactly;
any other integral of psi is stated in u = log w by ``integrand``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .specfn import laguerre, laguerre_pair

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
    psi leaves the floats only where its own value does.  Its fields other
    than degree may also be (m, 1) columns, a stack of m solutions of one
    degree, which euler, w_grid and residual take in one array pass."""

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

    def euler(self, w, derivs: bool):
        """[L, r psi'/E, r^2 psi''/E] at w, psi = E L(w): functions of w alone.
        With g = d log E/dr, r g = power - shape w/2 and
        r^2 g' = -power - shape (shape-1) w/2; r L_r = shape w L' and
        r^2 L_rr = shape^2 w^2 L'' + shape (shape-1) w L'.  From one
        recurrence's L_n and L_(n-1): w L' = n L_n - (n+a) L_(n-1), and
        Laguerre's equation w L'' = -(a+1-w) L' - n L_n.  On a stack, w is
        (m, num) against the (m, 1) fields."""
        n, a, p, k = self.degree, self.order, self.power, self.shape
        if not derivs:
            return [laguerre(n, a, w)]
        h, h1 = laguerre_pair(n, a, w)
        rg, d1 = p - 0.5 * k * w, k * (n * h - (n + a) * h1)
        d2 = (k - 1.0) * d1 - k * ((a + 1.0 - w) * d1 + k * n * w * h)
        return [h, rg * h + d1, (rg * rg - p - 0.5 * k * (k - 1.0) * w) * h + 2.0 * rg * d1 + d2]

    def _terms(self, r, derivs: bool = True):
        """[psi, psi', psi''] in one pass, or [psi] alone (floats at a scalar r):
        euler(w) times E, E/r and E/r^2, E = amplitude r^power exp(-w/2).  A
        point where E is 0 is exactly 0: L is evaluated at r = 1 in its place,
        not at its own w, which may be infinite."""
        r = positive_radii(r)
        with np.errstate(over="ignore"):  # w = inf puts E at exactly 0
            w = self.rate * r ** self.shape
        env = np.exp(self.log_amplitude + self.power * np.log(r) - 0.5 * w)
        if not env.all():
            w = np.where(env > 0.0, w, self.rate)
        scales = (env, env / r, env / r / r) if derivs else (env,)
        out = [s * x for s, x in zip(scales, self.euler(w, derivs))]
        return out if r.ndim else [float(v) for v in out]

    _derivs = _terms  # the name other modules call; value() goes to _terms directly

    def value(self, r):
        return self._terms(r, derivs=False)[0]

    __call__ = value

    def deriv(self, r):
        return self._derivs(r)[1]

    def deriv2(self, r):
        return self._derivs(r)[2]

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

    def w_grid(self, num: int) -> np.ndarray:
        """Geometric grid in w = rate r^shape: exp of one shared linspace in
        log w, so a stack of solutions gets one (m, num) grid in one pass.
        psi = w^c e^(-w/2) L_n^a(w) up to scale, c = power/shape.  w runs
        from 1e-2 to 30(n+1), widened past L's zeros (below m + h,
        m = 2n + a + 1, h = 2 sqrt(n(n + a + 1))) and past the peak 2(c+n) of
        w^(c+n) e^(-w/2) by sqrt(80) of its widths 2 sqrt(c+n), and raised to
        min((m - h)/4, 2c e^(-1 - 40/c)), where w^c e^(-w/2) is e^-40 below
        its peak."""
        n, a, c = self.degree, self.order, self.power / self.shape
        c = np.where(c > 0.0, c, 0.0)  # +0.0, so that 40/c is +inf and the tail is 0
        m, h = 2.0 * n + a + 1.0, 2.0 * np.sqrt(n * (n + a + 1.0))
        with np.errstate(divide="ignore"):
            tail = 2.0 * c * np.exp(-1.0 - 40.0 / c)
        lo = np.log(np.maximum(1e-2, np.minimum(0.25 * (m - h), tail)))
        hi = np.log(np.maximum(np.maximum(30.0 * (n + 1), m + h + 20.0),
                               2.0 * (c + n) + np.sqrt(320.0 * (c + n))))
        return np.exp(lo + (hi - lo) * (np.arange(num) / (num - 1.0)))

    def integrand(self, h=None):
        """int E(r)^2 h(w) dr, E = amplitude r^power exp(-w/2), per unit u = log w
        for ``oracle.quad_seminfinite``, with no radius formed:
        exp(2 log_amplitude + (2 power + 1)(u - log rate)/shape - e^u) h(e^u)/|shape|.
        h defaults to L(w)^2, the squared norm of psi."""
        h = h or (lambda w: laguerre(self.degree, self.order, w) ** 2)
        s, log_rate = (2.0 * self.power + 1.0) / self.shape, math.log(self.rate)
        log_c = 2.0 * self.log_amplitude - math.log(abs(self.shape))
        return lambda u: np.exp(log_c + s * (u - log_rate) - np.exp(u)) * h(np.exp(u))

    def residual(self, monomials) -> "ResidualReport":
        """Relative residual of psi'' = q psi, r^2 q = sum of c r^e over the
        (c, e) pairs, on w_grid(240) with log r = (log w - log rate)/shape, so
        no radius is formed: points are weighted by E over its peak, r^e is
        exp(e log r), and points where |psi| is below 1e-12 of its peak drop.
        On a stack, c and e may be (m, 1) columns too; every peak is taken
        per solution, along the last axis."""
        w = self.w_grid(240)
        log_r = (np.log(w) - np.log(self.rate)) / self.shape
        log_env = self.power * log_r - 0.5 * w
        weight = np.exp(log_env - log_env.max(axis=-1, keepdims=True))
        val, _, d2 = self.euler(w, derivs=True)
        psi = weight * val
        mask = np.abs(psi) > 1e-12 * np.abs(psi).max(axis=-1, keepdims=True)
        return relative_residual([weight * d2, *(-c * np.exp(e * log_r) * psi
                                                 for c, e in monomials)], mask=mask)


def zero_energy_solution(shape: float, lam: float, l: float, n: int) -> ClosedFormSolution:
    """The paper's solution at unit amplitude: r^(l+1) for shape > 0, r^-l for
    shape < 0, times exp(-w/2) L_n^((2l+1)/|shape|)(w), w = lam^2 r^shape.
    l need not be an integer (the oscillator's is 2 gamma + 1/2).  shape,
    lam and l may be (m, 1) columns: a stack of m solutions of degree n."""
    return ClosedFormSolution(log_amplitude=0.0, power=(l + 1.0) * (shape > 0) - l * (shape < 0),
                              rate=lam**2, shape=1.0 * shape, degree=n,
                              order=(2.0 * l + 1.0) / abs(shape))


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise relative residuals of an identity on a grid.  For a stack of
    identities max_residual and masked_points are arrays over the stack and
    residuals holds the kept points of all of them."""

    residuals: np.ndarray
    max_residual: float
    masked_points: int


def relative_residual(terms, mask=None) -> ResidualReport:
    """Residual of sum(terms) == 0, normalized by sum of |term_i| per point.

    ``terms`` is a sequence of equal-shape arrays whose last axis is the
    points of one identity; leading axes, if any, index a stack of
    identities, each reduced along the last axis on its own.  ``mask`` marks
    points to keep (True).  Points whose normalization is vanishingly small
    relative to their identity's maximum are dropped: the identity is 0 == 0
    there.  An identity fails (max_residual = inf) when a term is not finite
    at a point the mask keeps, or when no point is left to check.
    """
    terms = np.asarray(terms, dtype=float)
    total, scale = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    if mask is not None:  # a scale of 0 drops a point
        scale = np.where(mask, scale, 0.0)
    # inf or nan where a kept term is not finite, which then keeps no point
    peak = scale.max(axis=-1, keepdims=True)
    keep = scale > 1e-12 * peak
    rel = np.abs(np.where(keep, total, 0.0)) / (scale + 1e-300)
    checked = keep.sum(axis=-1)
    max_rel = np.where(checked > 0, rel.max(axis=-1), np.inf)
    masked = total.shape[-1] - checked
    if max_rel.ndim == 0:  # one identity: plain numbers
        max_rel, masked = float(max_rel), int(masked)
    return ResidualReport(residuals=rel[keep], max_residual=max_rel, masked_points=masked)


def count_sign_changes(values) -> int:
    """Strict sign changes along a sampled curve, skipping exact zeros.
    A non-finite sample hides any sign it has, so it is an error."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot count sign changes through non-finite samples")
    s = np.sign(v[v != 0.0])
    return int(np.sum(s[1:] * s[:-1] < 0))
