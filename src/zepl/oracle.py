"""Independent numerical verification tools.

Nothing in this module evaluates a closed-form solution from the rest of the
package: quantized couplings and energies are rediscovered from the bare
differential equations by double-sided shooting, and norms/orthogonality are
checked by the trapezoidal rule after a double-exponential map.  The only
shared knowledge is the problem statement itself (potential coefficients and
exponents).  Each level's search starts at the problem's own Bohr-Sommerfeld
estimate, a quadrature of the stated r^2 q; the level reported is always the
shooting root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import ODEintWarning, odeint
# not called here: perfbench/tracing.py wraps oracle.solve_ivp by name
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq

__all__ = [
    "QuadResult",
    "quad_seminfinite",
    "RadialODE",
    "Trajectory",
    "integrate_radial",
    "ShootingResult",
    "shoot_coupling",
    "shoot_energy_bender",
    "build_powerlaw_ode",
    "build_halfline_ode",
    "coupling_mismatch",
]

_T_CAP = 704.0  # exp() stays finite
_SCAN = np.linspace(-_T_CAP, _T_CAP, 2817)  # step 0.5 in sigma
_MAX_SAMPLES = 30_000  # samples beyond the scan
_LOG3 = math.log(3.0)
# lsoda's step budget for one sweep.  The longest sweep of the tests,
# `zepl verify --all` and perfbench's oracle_sweep takes 7463 steps (odeint's
# default budget is 500); a sweep that needs more than this has lost the
# problem, say to a huge r^2 q, and raises instead of running on.
_MAX_STEPS = 20_000
# the largest |mu| shot: a sweep spans about 60 |mu| in log r.  At 1e5 every
# l <= 3000 fits the step budget; at 1e6, l = 1000 does not
MU_REACH = 1e5
# midpoint nodes in phi on (0, pi) for the Bohr-Sommerfeld action
_PHI = (np.arange(64) + 0.5) * (math.pi / 64)
_PHI_COS, _PHI_SIN = np.cos(_PHI), np.sin(_PHI)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    converged: bool
    panels: int
    note: str = ""


def quad_seminfinite(h, tol: float = 1e-10, *, atol: float = 0.0) -> QuadResult:
    """Integrate f over (0, inf), given per unit log variable as h(u) = x f(x)
    at u = log x.  u = sigma - exp(-sigma) makes a tail e^(a u), u -> -inf,
    double-exponential however small a > 0 is: g(sigma) = h(u) (1 + exp(-sigma))
    is sampled once on |sigma| <= 704 (exp(-sigma) a float) in steps of 0.5.
    The window is the span of samples above 1e-3 tol max|g| / 1408, padded by
    one step: below that level the whole scan holds less than 1e-3 tol max|g|.
    On such a g the trapezoidal rule converges exponentially (Takahasi and Mori
    1974): the window's samples give the sum T_0.5, and the step is halved,
    adding the midpoints, until |T_h - T_2h| <= max(tol |T_h|, atol), the
    ``error`` (it overstates that of T_h).  ``converged=False`` comes with a
    note when the live span reaches an end of the scan (the tail is truncated,
    as for f = 1/x), when no sample is nonzero (any mass lies beyond the
    floats) or when 30 000 samples beyond the scan, counted in ``panels``, do
    not reach the tolerance.  ``h`` must accept ndarrays."""
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-13, 1e-6], got {tol}")

    def g(sigma):
        e = np.exp(-sigma)
        with np.errstate(all="ignore"):
            v = np.asarray(h(sigma - e), dtype=float) * (1.0 + e)
        return np.where(np.isfinite(v), v, 0.0)

    scan = g(_SCAN)
    peak = float(np.abs(scan).max())
    if not peak > 0.0:
        return QuadResult(0.0, 0.0, False, 0, "no nonzero sample: any mass lies beyond the floats")
    live = np.flatnonzero(np.abs(scan) > 1e-3 * tol * peak / (2.0 * _T_CAP))
    lo, hi = max(int(live[0]) - 1, 0), min(int(live[-1]) + 1, _SCAN.size - 1)
    # sums in units of peak: a divergent g reaches 1e305 at the scan's ends
    step, intervals, samples, error = 0.5, hi - lo, 0, math.inf
    total = step * float(np.sum(scan[lo:hi + 1] / peak))
    while peak * error > max(tol * peak * abs(total), atol):
        if samples + intervals > _MAX_SAMPLES:
            return QuadResult(peak * total, peak * error, False, samples,
                              "sample budget exhausted: 30 000 samples beyond the scan")
        mids = _SCAN[lo] + step * (np.arange(intervals) + 0.5)
        samples, step, intervals = samples + intervals, 0.5 * step, 2 * intervals
        total, previous = 0.5 * total + step * float(np.sum(g(mids) / peak)), total
        error = abs(total - previous)
    truncated = lo == 0 or hi == _SCAN.size - 1
    note = "window truncated: the integrand is live at an end of the floats" if truncated else ""
    return QuadResult(peak * total, peak * error, not truncated, samples, note)


# ---------------------------------------------------------------------------
# Radial initial-value integration in Pruefer variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialODE:
    """u'' = q(r, c) u on r > 0, stated in t = log r.

    ``r2q(t, c)`` is r^2 q, the only thing the Euler-scaled Pruefer equations
    evaluate; ``c`` is the shooting parameter (attractive coupling or spectral
    value).  ``ends(c)`` gives (t_inner, t_match, t_outer).  ``inner_slope``
    and ``outer_slope`` give r u'/u at the start of each sweep.  A start must
    have no zero of u beyond it (on its side of the domain): the sweep counts
    zeros from there.  ``guess(n)`` estimates the n-th level; shooting only
    starts its search there.
    """

    r2q: Callable[[float, float], float]
    ends: Callable[[float], tuple[float, float, float]]
    inner_slope: Callable[[float, float], float]
    outer_slope: Callable[[float, float], float]
    guess: Callable[[int], float]


@dataclass(frozen=True)
class Trajectory:
    """One sweep's end at the matching radius: u and du up to one positive
    factor, unit amplitude there.  ``end_theta`` is the Pruefer angle: it
    starts in [0, pi) and, as r grows, rises through a multiple of pi at each
    zero of u, so an inward sweep falls through them.  ``nfev`` counts
    right-hand-side evaluations."""

    end_u: float
    end_du: float
    end_theta: float
    nfev: int


def _wkb_slope(r2q, sign: float):
    """r u'/u of the first-order WKB form u = q^(-1/4) exp(sign * int sqrt(q)),
    which with Q = r^2 q is sign sqrt(Q) + 1/2 - Q'/(4Q), Q' = dQ/dt."""
    def slope(t, c):
        big_q = r2q(t, c)
        if big_q <= 0:
            raise ValueError(f"WKB start needs q > 0, got r^2 q = {big_q:g} at log r = {t:g}")
        h = 1e-5
        d_q = (r2q(t + h, c) - r2q(t - h, c)) / (2.0 * h)
        return sign * math.sqrt(big_q) + 0.5 - d_q / (4.0 * big_q)
    return slope


def integrate_radial(ode: RadialODE, coupling: float, direction: str = "outward") -> Trajectory:
    """One ``odeint`` (lsoda) call toward the matching radius in the
    Euler-scaled Pruefer variables u = rho sin(theta), r u' = rho cos(theta)
    with t = log r:

        theta'    = cos^2 - sin cos - r^2 q sin^2
        (log rho)' = cos^2 + (1 + r^2 q) sin cos

    The angle carries the node count and the log-amplitude cannot overflow,
    so one call covers the whole side with no renormalisation; lsoda's step
    loop runs in Fortran and calls back only for the right-hand side.  The
    matching point is kept at least log 3 inside both ends.  A sweep that
    stops early (more than 20 000 steps, or any other lsoda failure) or ends
    on a non-finite angle raises ``RuntimeError``."""
    if direction not in ("outward", "inward"):
        raise ValueError("direction must be 'outward' or 'inward'")
    t_inner, t_match, t_outer = ode.ends(coupling)
    t_match = min(max(t_match, t_inner + _LOG3), t_outer - _LOG3)
    if direction == "outward":
        t_from, slope = t_inner, ode.inner_slope(t_inner, coupling)
    else:
        t_from, slope = t_outer, ode.outer_slope(t_outer, coupling)
    theta0 = math.atan2(1.0, slope) % math.pi

    def rhs(t, y):
        r2q = ode.r2q(t, coupling)
        s, c = math.sin(y[0]), math.cos(y[0])
        return (c * c - s * c - r2q * s * s, c * c + (1.0 + r2q) * s * c)

    # the angle's global error grows with each oscillation; rtol 1e-12 keeps
    # the sixth level within about 1e-10 of its value.  log rho only scales u
    # and du; its loose absolute tolerance keeps it out of the step-size control
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)  # reported below instead
        y, info = odeint(rhs, (theta0, 0.0), (t_from, t_match), rtol=1e-12,
                         atol=(1e-12, 1e-6), mxstep=_MAX_STEPS, full_output=True,
                         tfirst=True)
    end_theta = float(y[-1, 0])
    if info["message"] != "Integration successful." or not math.isfinite(end_theta):
        raise RuntimeError(f"radial integration failed on log r in [{t_from:g}, {t_match:g}]: "
                           f"lsoda: {info['message']} End angle {end_theta:g}.")
    r_du = math.cos(end_theta)
    # where r itself underflows, du = (r du)/r is beyond the floats
    end_du = r_du * math.exp(-t_match) if t_match > -709.0 else math.copysign(math.inf, r_du)
    return Trajectory(math.sin(end_theta), end_du, end_theta, int(info["nfe"][-1]))


# ---------------------------------------------------------------------------
# Shooting in the attractive coupling / in the spectral parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShootingResult:
    values: list[float]
    node_counts: list[int]
    diagnostics: dict = field(default_factory=dict)


def _two_term_ode(k: float, a: float, b: float, l: int) -> RadialODE:
    """u'' = q u with r^2 q = l(l+1) + x (a x - b c), x = r^k, a, b > 0 and
    the shooting parameter c > 0: the power-law family's radial problem.

    The end where x -> 0 is a regular singular point: there the sweep starts
    on the bare power (r^(l+1) at the origin for k > 0, r^(-l) at infinity
    for k < 0) at x = 1e-12/(1 + b c), where both potential terms are below
    1e-12, negligible in the Euler-scaled equations, and the regular
    solution has no zero beyond the start.  The other end starts on WKB decay at
    x = max(36|k|/sqrt(a), 6 b c/a), which gives both a ~36 decay budget and
    clear dominance of the repulsive term.  The sides match at the bottom of
    q's negative well.  The guess is the Bohr-Sommerfeld estimate with
    Langer's l(l+1) -> (l+1/2)^2."""
    ll = l * (l + 1.0)

    def r2q(t, c):
        x = math.exp(k * t)
        return ll + x * (a * x - b * c)

    def log_x_match(c):
        # q = r^-2 r2q is stationary where a(k-1) x^2 - (b c (k-2)/2) x - l(l+1)
        # = 0 (linear at k = 1); at most one such root lies in a negative
        # region of q, and that is its well.  Without a well r^2 q has no
        # positive zero (l > 0) or only x = b c/a (l = 0).
        qa, qb = a * (k - 1.0), 0.5 * b * c * (k - 2.0)
        disc = qb * qb + 4.0 * qa * ll
        half = 0.5 * (qb + math.copysign(math.sqrt(disc), qb)) if disc >= 0.0 else 0.0
        for x in ((half / qa if qa else 0.0, -ll / half) if half else ()):
            if x > 0.0 and ll + x * (a * x - b * c) < 0.0:
                return math.log(x)
        return math.log(b * c / a)

    def ends(c):
        t_regular = math.log(1e-12 / (1.0 + b * abs(c))) / k
        t_wkb = math.log(max(36.0 * abs(k) / math.sqrt(a), 6.0 * b * c / a)) / k
        t_match = log_x_match(c) / k
        if k > 0:
            return t_regular, t_match, t_wkb
        # essential decay into the origin, algebraic r^(-l) branch at infinity
        return t_wkb, t_match, max(t_regular, t_match + math.log(9.5))

    c_meet = 2.0 * math.sqrt(a) * (l + 0.5) / b  # where the turning points meet

    def action(c):
        # int sqrt(-(r^2 q + 1/4)) dt between the turning points, the roots of
        # a x^2 - b c x + (l+1/2)^2 = 0; log x spans m -+ h, h = acosh(c/c_meet).
        # At log x = m - h cos(phi) the integrand is (l+1/2)/|k| h sin(phi)
        # sqrt((e^(h (1 - cos phi)) - 1) (1 - e^(-h (1 + cos phi)))), smooth and
        # periodic in phi, so the midpoint rule converges fast
        if not c > c_meet:
            return 0.0
        h = math.acosh(c / c_meet)
        v = _PHI_SIN * np.sqrt(np.expm1(h * (1.0 - _PHI_COS)) * -np.expm1(-h * (1.0 + _PHI_COS)))
        return (l + 0.5) * h * float(v.sum()) * (math.pi / _PHI.size) / abs(k)

    def guess(n):
        # the smallest c whose action, rising from 0 at c_meet, is (n + 1/2) pi
        target = (n + 0.5) * math.pi
        lo, hi = c_meet, 2.0 * c_meet
        while action(hi) < target:
            lo, hi = hi, 2.0 * hi
        return brentq(lambda c: action(c) - target, lo, hi, xtol=1e-15 * hi, rtol=1e-14)

    if k > 0:
        return RadialODE(r2q, ends, lambda t, c: l + 1.0, _wkb_slope(r2q, -1.0), guess)
    return RadialODE(r2q, ends, _wkb_slope(r2q, +1.0), lambda t, c: -float(l), guess)


def build_powerlaw_ode(mu: float, lam: float, l: int) -> RadialODE:
    """Zero-energy radial problem of the two-term power-law family with the
    attractive coefficient c left free as the shooting parameter: in
    x = r^k, k = 1/(mu + 1/2), r^2 q = l(l+1) + (lam k/2)^2 lam^2 x^2 - 2 c x."""
    if not (lam > 0 and l >= 0):
        raise ValueError(f"need lam > 0 and l >= 0, got lam = {lam}, l = {l}")
    mu = float(mu)
    if mu in (0.0, 0.5, -0.5):
        raise ValueError("mu in {0, +1/2, -1/2} is outside the family")
    k = 1.0 / (mu + 0.5)
    a = (lam * k / 2.0) ** 2 * lam**2
    if not a > 0.0:
        raise OverflowError(f"the repulsive coefficient underflows at mu = {mu:g}, lam = {lam:g}")
    return _two_term_ode(k, a, 2.0, l)


def coupling_mismatch(ode: RadialODE, coupling: float):
    """Scaled Wronskian of the two one-sided solutions at the matching radius,
    sin(theta_in - theta_out): zero exactly at a quantized parameter value,
    continuous in between."""
    out = integrate_radial(ode, coupling, "outward")
    inn = integrate_radial(ode, coupling, "inward")
    return math.sin(inn.end_theta - out.end_theta), out, inn


def _shoot(ode: RadialODE, count: int) -> ShootingResult:
    """The k-th level is the root of the phase (theta_out - theta_in)/pi - k.

    Off the spectrum the two angles never differ by a multiple of pi, so the
    phase passes k only at the k-th level, whatever the matching radius, and
    it rises with c (Sturm).  Each level is first swept at g/(1 + 1e-8) and
    g (1 + 1e-8) around its estimate g = ``ode.guess(k)``, skipping a probe
    that lies outside the bracket the earlier sweeps already make.  Where the
    probes leave the level unbracketed, the bracket doubles up from the
    highest coupling below it or halves down from the lowest one above it.
    brentq then finds the root between two swept ends; the estimate only
    places the bracket."""
    sweeps: dict[float, tuple[float, int]] = {}  # c -> (phase, nodes)
    rhs_evals = 0

    def phase(c):
        nonlocal rhs_evals
        if c not in sweeps:
            _, out, inn = coupling_mismatch(ode, c)
            rhs_evals += out.nfev + inn.nfev
            nodes = math.floor(out.end_theta / math.pi) - math.floor(inn.end_theta / math.pi)
            sweeps[c] = ((out.end_theta - inn.end_theta) / math.pi, nodes)
        return sweeps[c][0]

    def bracket(k):
        lo = max((c for c, s in sweeps.items() if s[0] < k), default=None)
        hi = min((c for c, s in sweeps.items() if s[0] >= k), default=None)
        return lo, hi

    values, nodes, fallback = [], [], 0
    for k in range(count):
        g = ode.guess(k)
        for c in (g / (1.0 + 1e-8), g * (1.0 + 1e-8)):
            lo, hi = bracket(k)
            if (lo is None or c > lo) and (hi is None or c < hi):
                phase(c)
        lo, hi = bracket(k)  # a probe was swept or lay outside: one end is known
        while hi is None:
            fallback += 1
            c = 2.0 * lo
            lo, hi = (c, None) if phase(c) < k else (lo, c)
        while lo is None:
            fallback += 1
            c = 0.5 * hi
            lo, hi = (c, hi) if phase(c) < k else (None, c)
        root = brentq(lambda c: phase(c) - k, lo, hi, xtol=1e-12 * g, rtol=1e-10)
        phase(root)
        values.append(float(root))
        nodes.append(sweeps[root][1])
    diagnostics = {"mismatch_evals": len(sweeps), "ode_sweeps": 2 * len(sweeps),
                   "rhs_evals": rhs_evals, "fallback_sweeps": fallback}
    return ShootingResult(values, nodes, diagnostics)


def shoot_coupling(mu, lam: float, l: int, count: int = 3) -> ShootingResult:
    """Recover the first ``count`` quantized attractive couplings of the
    two-term power-law problem at zero energy, holding the repulsive
    coefficient fixed at (lam k/2)^2 lam^2 / 2, k = 1/(mu + 1/2).  Node counts
    come from the Pruefer angles of the matched double-sided solution."""
    if not 1 <= count <= 6:
        raise ValueError(f"count must lie in 1..6, got {count}")
    mu, lam = float(mu), float(lam)
    ode = build_powerlaw_ode(mu, lam, l)
    return _shoot(ode, count)


def build_halfline_ode(n_power: int) -> RadialODE:
    """Half-line problem -psi'' + x^(2N+2) psi = E x^N psi with psi(0) = 0:
    in X = x^(N+2), x^2 q = X (X - E), the power-law problem at k = N+2 and
    l = 0 with the energy E as the shooting parameter."""
    if n_power < -1:
        raise ValueError("shooting supports N >= -1 (regular origin; N = -2 is excluded)")
    return _two_term_ode(int(n_power) + 2, 1.0, 1.0, 0)


def shoot_energy_bender(n_power: int, count: int = 2) -> ShootingResult:
    """Recover the first ``count`` quantized E values of the half-line
    monomial-potential problem from the phase of the matched solution."""
    if not 1 <= count <= 4:
        raise ValueError(f"count must lie in 1..4, got {count}")
    if n_power not in (-1, 0, 1, 3):
        raise ValueError("supported N values: -1, 0, 1, 3")
    return _shoot(build_halfline_ode(n_power), count)
