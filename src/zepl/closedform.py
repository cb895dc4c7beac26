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
equation w L'' = -(a+1-w) L' - n L.  With p = power, k = shape and
rg = p - k w/2, that equation collapses the cross term of psi'' to
g r L_r - k^2 n w L, g = 2p - k a - 1, which is 0 for the paper's choice of
prefactor and order: r^2 psi''/E = (rg^2 - (rg + k^2 (n + 1/2) w)) L + g r L_r
(``euler``).  Every equation a solution solves
is, times r^2, a sum of powers c r^e, so the residual is checked in w and
log r without finite differences or radii.  The squared norm is a
Laguerre-weight integral of L^2, a finite sum of positive terms by Laguerre's
connection formula; any other integral of psi is stated in u = log w by
``integrand``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .specfn import laguerre, laguerre_pair

__all__ = ["ClosedFormSolution", "ResidualReport", "zero_energy_solution", "positive_radii",
           "relative_residual", "count_sign_changes"]


_BLOCK = 16384  # most points in one pass of ClosedFormSolution._terms; see its docstring


def positive_radii(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.min(initial=1.0) <= 0:
        raise ValueError("radial argument must be positive")
    return r


@dataclass(frozen=True)
class ClosedFormSolution:
    """Radial function with analytic derivatives; its amplitude is a log, so
    psi leaves the floats only where its own value does.  Its float fields
    may also be (m, 1) columns, a stack of m solutions of one degree, which
    euler, w_grid and residual take in one array pass."""

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
        With p = power, k = shape, a = order, h = L_n^a(w) and
        h1 = L_(n-1)^a(w) from one recurrence, rg = r E'/E = p - k w/2 and
        d1 = r L_r = k w L' = k (n h - (n+a) h1) (DLMF 18.9.14), so
        r psi'/E = rg h + d1.  Laguerre's equation turns r^2 L_rr plus the
        cross term 2 rg d1 into g d1 - k^2 n w h, g = 2p - k a - 1, so
            r^2 psi''/E = (rg^2 - p - (k(k-1)/2 + k^2 n) w) h + g d1
                        = (rg^2 - (rg + k^2 (n + 1/2) w)) h + g d1.
        The paper's solutions have g = 0 (p = l+1, k a = 2l+1 for k > 0;
        p = -l, k a = -(2l+1) for k < 0), so the two large terms that cancel
        to g d1 are never formed; g d1 is kept, since other fields are
        allowed.  The bracket is taken in its second form, which forms no
        difference of p and k w/2: at small k those cancel where psi peaks,
        and the first form read 1.1e-12 relative at (mu, l) = (1e5, 60).
        After the recurrence every step writes into h1 or one of three
        buffers.  On a stack, w is (m, num) against the (m, 1) fields; at a
        scalar w the terms are 0-d."""
        n, a, p, k = self.degree, self.order, self.power, self.shape
        if not derivs:
            return [laguerre(n, a, w)]
        shape = np.broadcast(w, a, p, k).shape  # w's own, except on a stack over l alone
        if np.shape(w) != shape:
            w = np.broadcast_to(w, shape)
        h, h1 = map(np.asarray, laguerre_pair(n, a, w))  # fresh, 0-d at a scalar w
        rg = np.multiply(w, -0.5 * k, out=np.empty(shape))
        rg += p
        d1 = np.multiply(h, n, out=np.empty(shape))
        h1 *= n + a
        d1 -= h1
        d1 *= k
        first = np.multiply(rg, h, out=h1)  # h1 is spent
        first += d1
        d1 *= 2.0 * p - k * a - 1.0  # g d1
        t = np.multiply(w, k * k * (n + 0.5))
        t += rg
        second = np.multiply(rg, rg, out=rg)  # rg is spent
        second -= t
        second *= h
        second += d1
        return [h, first, second]

    def _terms(self, r, derivs: bool = True):
        """[psi, psi', psi''], or [psi] alone (floats at a scalar r).  An r whose
        last axis is longer than _BLOCK points goes through ``_pointwise`` in
        blocks of that axis.  The outputs are allocated once, at the shape r
        broadcasts to against the float fields, and each block writes its
        products straight into their slices, with no per-block product or copy.
        In one pass over a 1e5-point grid each array is 800 KB, and the peak
        holds 8 of them (it held ~16 when the block size was chosen), far past
        a 2 MB L2 cache; at 16384 points they take 1 MB.  Of 4096,
        8192, 16384 and 32768 points, 16384 was fastest on a Xeon with 2 MB of
        L2 per core, with the recurrence in place as well as before it:
        smaller blocks pay numpy's per-call cost more often.  Every step is
        pointwise, so the blocks' outputs equal one pass's to the bit,
        provided no block is short: on rows of up to 2730 points numpy
        buffers a broadcast exponent, as a stack's shape is, into its SIMD
        power, which differs from its scalar power in the last bit.  So the
        blocks are of equal length, at least _BLOCK/2 points each."""
        r = positive_radii(r)
        num = r.shape[-1] if r.ndim else 0
        if num <= _BLOCK:
            return self._pointwise(r, derivs)
        stack = (getattr(self, f.name) for f in fields(self) if f.type == "float")
        shape = np.broadcast_shapes(r.shape, *map(np.shape, stack))
        out = [np.empty(shape) for _ in range(3 if derivs else 1)]
        count = -(-num // _BLOCK)
        bounds = [num * i // count for i in range(count + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            self._pointwise(r[..., lo:hi], derivs, [x[..., lo:hi] for x in out])
        return out

    def _pointwise(self, r, derivs: bool, out=None):
        """_terms on positive radii in one pass: euler(w) times E, E/r and
        E/r^2, E = amplitude r^power exp(-w/2), written into ``out`` where it
        is given; E/r and E/r^2 are formed in E's own buffer.  A point where
        E is 0 is exactly 0: L is evaluated at r = 1 in its place, not at its
        own w, which may be infinite."""
        with np.errstate(over="ignore"):  # w = inf puts E at exactly 0
            w = self.rate * r ** self.shape
        env = np.exp(self.log_amplitude + self.power * np.log(r) - 0.5 * w)
        if not env.all():
            w = np.where(env > 0.0, w, self.rate)
        terms = self.euler(w, derivs)
        out = out or [None] * len(terms)
        for i, term in enumerate(terms):
            if i:
                env /= r
            out[i] = np.multiply(env, term, out=out[i])
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
        w^s e^-w L(w)^2, which is finite iff s > -1.  Laguerre's connection
        formula (DLMF 18.18.18) writes L = L_n^a as sum_j c_(n-j) L_j^s,
        c_m = prod_(i<m) (d+i)/(i+1) with d = a - s, so orthogonality in
        w^s e^-w leaves sum_j c_(n-j)^2 Gamma(j+s+1)/j!, j = 0..n: positive
        terms, nothing cancels, and no Laguerre value is formed, so any degree
        has a finite norm.  Past the first i with d + i = 0 every c_m is 0 and
        the sum stops there (s = a, as on the oscillator, leaves one term).
        The terms are formed in logs with lgamma and summed by fsum relative
        to the largest.
        """
        if not self.norm_finite:
            return math.inf
        n, s1 = self.degree, (2.0 * self.power + 1.0) / self.shape  # s1 = s + 1
        d = self.order - (s1 - 1.0)
        logs, log_c = [], 0.0  # log c_m, m = n - j
        for m in range(n + 1):
            logs.append(2.0 * log_c + math.lgamma(n - m + s1) - math.lgamma(n - m + 1.0))
            if d + m == 0.0:
                break
            log_c += math.log(abs((d + m) / (m + 1.0)))
        top = max(logs)
        return (2.0 * self.log_amplitude - s1 * math.log(self.rate) - math.log(abs(self.shape))
                + top + math.log(math.fsum(math.exp(x - top) for x in logs)))

    def scaled(self, log_factor: float, **changes) -> "ClosedFormSolution":
        """This solution times exp(log_factor); a non-finite log factor would
        make psi vanish or blow up everywhere, so it is an error."""
        if not math.isfinite(log_factor):
            raise ValueError(f"log amplitude factor {log_factor:g} is not finite")
        return replace(self, log_amplitude=self.log_amplitude + log_factor, **changes)

    def to_unit_norm(self) -> "ClosedFormSolution":
        """This solution scaled by exp(-log_norm()/2), so it integrates to one;
        OverflowError where the norm's log leaves the floats (its factors
        rate^-(s+1) and Gamma(s+1) do together at s = 1.8e305, rate = 1e-308)."""
        if not self.norm_finite:
            raise ValueError("the norm diverges: the solution cannot be normalized")
        log_norm = self.log_norm()
        if not math.isfinite(log_norm):
            raise OverflowError("the norm leaves the float range")
        return self.scaled(-0.5 * log_norm, normalized=True)

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
        h defaults to L(w)^2, the squared norm of psi.  The envelope is formed
        first and h is evaluated only where it is positive: on the quadrature's
        2817-point scan, typically at a dozen points.  Elsewhere it reads 0,
        which is what the quadrature reads of 0 times h, even where h is not
        finite."""
        h = h or (lambda w: laguerre(self.degree, self.order, w) ** 2)
        s, log_rate = (2.0 * self.power + 1.0) / self.shape, math.log(self.rate)
        log_c = 2.0 * self.log_amplitude - math.log(abs(self.shape))

        def f(u):
            w = np.exp(u)
            env = np.exp(log_c + s * (u - log_rate) - w)
            live = env > 0.0
            if live.all():
                return env * h(w)
            out = np.zeros_like(env)
            out[live] = env[live] * h(w[live])
            return out
        return f

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
    lam and l may be (m, 1) columns: a stack of m solutions of degree n.
    A rate lam^2 of 0 or inf is an OverflowError: every log of psi takes
    log rate.  A subnormal rate is a rate."""
    try:
        rate = lam**2
    except OverflowError:  # a float's pow raises where numpy's square reads inf
        rate = math.inf
    ok = (rate > 0.0) & (rate < math.inf)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):  # np.all costs 5 us on a bool
        raise OverflowError(f"the rate lam^2 leaves the floats at lam = {lam}")
    return ClosedFormSolution(log_amplitude=0.0, power=(l + 1.0) * (shape > 0) - l * (shape < 0),
                              rate=rate, shape=1.0 * shape, degree=n,
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
