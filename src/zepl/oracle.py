"""Independent numerical verification tools.

Nothing in this module evaluates a closed-form solution from the rest of the
package: quantized couplings and energies are rediscovered from the bare
differential equations by double-sided shooting on a Pruefer angle scaled to
the wavenumber at the bottom of the problem's well, and norms/orthogonality
are checked by the trapezoidal rule after a double-exponential map.  The only
shared knowledge is the problem statement itself (potential coefficients and
exponents).  Each level's search starts at the problem's own Bohr-Sommerfeld
estimate with Langer's (l+1/2)^2, whose action the stated r^2 q gives in
closed form; the two probes around it are swept together, one lsoda call per
side with both Pruefer angles in its state.  The problem is an oscillator in
disguise, for which Langer-WKB is exact, so the estimate is the quantized
level to rounding; yet the level reported is always the shooting root, the
secant root of the phase across a bracket of swept couplings, read to lsoda's
noise floor and not certified below it (an estimate moved 1e-6 off gives the
same levels).  That floor is about 1e-10 relative over the whole
domain: at lam = 1 and two levels, at most 1.05e-10 at l <= 1 and mu = +-1e5,
+-1e4, -50, -5/2, -0.6, 1/4, 3/2 and 50 (4.6e-11 but at mu = -0.6, l = 0),
and at most 2.7e-10 at l <= 2 and mu from -0.4 to -0.49999 and from
-0.500005 to -0.51.  Levels up to the 20th, the most one search shoots, stay
within these floors on the same families (1.6e-10 on the first set).
"""

from __future__ import annotations

import math
import sys
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
# lsoda's step budget for one sweep, paired or not.  The longest pair of the
# tests, `zepl verify --all` and perfbench's oracle_sweep takes 5506 steps (the
# 20th level at (3/2, 1, 1)), the longest single one 5098, but for the tests'
# sweeps 2.5x and 3x past level 0 of (-50, 1, 2), near levels 186 and 248,
# which take up to 17 388 (odeint's default budget is 500).  A sweep that
# needs more than this has lost the problem, say to a huge r^2 q, and raises
# instead of running on.
_MAX_STEPS = 20_000
# the most levels one search shoots: the 20th is within 3e-10 of the closed forms
_MAX_COUNT = 20


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

    ``terms(t)`` gives (q0, w), the pencil r^2 q = q0 - c w that the
    Euler-scaled Pruefer equations evaluate; ``c`` is the shooting parameter
    (attractive coupling or spectral value).  ``ends(c)`` gives the sweep's
    frame (t_inner, t_match, t_outer, S): the match inside the two starts,
    and the scale S > 0 that weighs u against r u' in the angle.
    ``inner_slope`` and ``outer_slope`` give r u'/u at the start of each
    sweep, in closed form.  A start must have no zero of u beyond it (on its
    side of the domain): the sweep counts zeros from there.  ``guess(n)``
    estimates the n-th level; shooting only starts its search there.
    """

    terms: Callable[[float], tuple[float, float]]
    ends: Callable[[float], tuple[float, float, float, float]]
    inner_slope: Callable[[float, float], float]
    outer_slope: Callable[[float, float], float]
    guess: Callable[[int], float]


@dataclass(frozen=True)
class Trajectory:
    """One sweep's end at the matching radius: u and du up to one positive
    factor, with S^2 u^2 + (r du)^2 = 1 there, S the scale of the sweep's
    frame.  ``end_theta`` is the Pruefer angle: it starts in [0, pi) and, as r
    grows, rises through a multiple of pi at each zero of u, so an inward
    sweep falls through them.  ``nfev`` counts the call's right-hand-side
    evaluations, which the two sweeps of a pair share."""

    end_u: float
    end_du: float
    end_theta: float
    nfev: int


def integrate_radial(ode: RadialODE, coupling: float | tuple[float, ...],
                     direction: str = "outward") -> Trajectory | tuple[Trajectory, ...]:
    """One ``odeint`` (lsoda) call toward the matching radius of the
    Euler-scaled Pruefer angle theta, S u = rho sin(theta),
    r u' = rho cos(theta) with t = log r and S the scale of the sweep's frame:

        theta' = S cos^2 - sin cos - ((q0 - c w)/S) sin^2,   (q0, w) = terms(t)

    from atan2(S, r u'/u) at the start.  The angle passes a multiple of pi at
    each zero of u, whatever S, and alone carries the node count and the
    match: its equation does not involve rho, so one call covers the whole
    side with no renormalisation; lsoda's step loop runs in Fortran and calls
    back only for the right-hand side, which makes one ``terms(t)`` call and
    writes into one array that the sweep allocates and odeint copies at once.
    ``coupling`` is a float, which gives one ``Trajectory``, or a tuple of one
    or two couplings, which gives a tuple of them in the same order: a pair is
    swept in the same call, its two angles one state that lsoda steps
    together, each callback evaluating both.  A pair takes its frame, ends
    and scale, from ``ode.ends`` at its first coupling, so it should be two
    close couplings, such as the probes around a level.  A sweep that stops
    early (more than 20 000 steps, or any other lsoda failure), meets a
    non-finite angle or ends on one raises ``RuntimeError``."""
    if direction not in ("outward", "inward"):
        raise ValueError("direction must be 'outward' or 'inward'")
    couplings = coupling if isinstance(coupling, tuple) else (coupling,)
    if len(couplings) not in (1, 2):
        raise ValueError(f"a sweep takes one coupling or a pair, got {len(couplings)}")
    t_inner, t_match, t_outer, scale = ode.ends(couplings[0])
    if direction == "outward":
        t_from, start_slope = t_inner, ode.inner_slope
    else:
        t_from, start_slope = t_outer, ode.outer_slope
    theta0 = [math.atan2(scale, start_slope(t_from, c)) % math.pi for c in couplings]

    terms, sin, cos, inv = ode.terms, math.sin, math.cos, 1.0 / scale
    dtheta = np.empty(len(couplings))
    if len(couplings) == 1:
        (c1,) = couplings

        def rhs(t, y):
            q0, w = terms(t)
            s, c = sin(y[0]), cos(y[0])
            dtheta[0] = (scale * c - s) * c - (q0 - c1 * w) * inv * s * s
            return dtheta
    else:
        c1, c2 = couplings

        def rhs(t, y):
            q0, w = terms(t)
            a, b = y.tolist()
            sa, ca, sb, cb = sin(a), cos(a), sin(b), cos(b)
            dtheta[0] = (scale * ca - sa) * ca - (q0 - c1 * w) * inv * sa * sa
            dtheta[1] = (scale * cb - sb) * cb - (q0 - c2 * w) * inv * sb * sb
            return dtheta

    # the angle's global error grows with each oscillation; rtol 1e-12 keeps
    # the 20th level within about 3e-10 of its value
    failed = f"radial integration failed on log r in [{t_from:g}, {t_match:g}]"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)  # reported below instead
        try:
            y, info = odeint(rhs, theta0, (t_from, t_match), rtol=1e-12, atol=1e-12,
                             mxstep=_MAX_STEPS, full_output=True, tfirst=True)
        except ValueError as exc:  # math.sin of an infinite angle
            raise RuntimeError(f"{failed}: the right-hand side met a non-finite angle "
                               f"({exc}).") from exc
    end_thetas = y[-1].tolist()
    shown = next((v for v in end_thetas if not math.isfinite(v)), end_thetas[0])
    if info["message"] != "Integration successful." or not math.isfinite(shown):
        raise RuntimeError(f"{failed}: lsoda: {info['message']} End angle {shown:g}.")
    nfev = int(info["nfe"][-1])
    trajectories = []
    for end_theta in end_thetas:
        r_du = math.cos(end_theta)
        # where r itself underflows, du = (r du)/r is beyond the floats
        end_du = r_du * math.exp(-t_match) if t_match > -709.0 else math.copysign(math.inf, r_du)
        trajectories.append(Trajectory(math.sin(end_theta) * inv, end_du, end_theta, nfev))
    return tuple(trajectories) if isinstance(coupling, tuple) else trajectories[0]


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
    r^2 q, x = b c/(2a), kept log 3 in log x above the regular start.  The
    angle's scale S = max(1, |k|, sqrt(-r^2 q at the match)) is the
    wavenumber at the bottom of the well, where most of the oscillation
    happens, and at least that of log x where |k| > 1 (S = |k| below 1
    outruns lsoda's steps at |mu| = 1e5).  The WKB start's slope and the
    guess, the Bohr-Sommerfeld estimate with Langer's l(l+1) -> (l+1/2)^2
    (Langer 1937), are closed forms; in x the problem is the 3D oscillator,
    for which that estimate is exact."""
    ll = l * (l + 1.0)

    def terms(t):
        x = math.exp(k * t)
        return ll + a * x * x, b * x

    def ends(c):
        # in log x: the regular start, the bottom of r^2 q at b c/(2 a), kept
        # log 3 above that start, and the WKB start, at least 12x the bottom
        log_regular = math.log(1e-12 / (1.0 + b * abs(c)))
        log_match = max(math.log(b * c / (2.0 * a)), log_regular + _LOG3)
        log_wkb = math.log(max(36.0 * abs(k) / math.sqrt(a), 6.0 * b * c / a))
        t_ends = (log_regular / k, log_match / k, log_wkb / k)
        q0, w = terms(t_ends[1])
        scale = max(1.0, abs(k), math.sqrt(max(c * w - q0, 0.0)))
        return (*(t_ends if k > 0 else t_ends[::-1]), scale)

    def guess(n):
        # the action (1/|k|) int sqrt(b c x - a x^2 - (l+1/2)^2) dx/x between
        # the turning points, pi (b c/(2 sqrt(a)) - (l+1/2))/|k|, is (n+1/2) pi
        return math.sqrt(a) * ((2 * l + 1) + (2 * n + 1) * abs(k)) / b

    def wkb_slope(sign):
        # r u'/u of u = Q^(-1/4) exp(sign int sqrt(Q) dt), Q = r^2 q = q0 - c w
        # and Q' = dQ/dt = k (2 a x^2 - b c x); x >= 6 b c/a keeps Q >= 5 a x^2/6
        def slope(t, c):
            q0, w = terms(t)
            big_q = q0 - c * w
            return sign * math.sqrt(big_q) + 0.5 - k * (2.0 * (q0 - ll) - c * w) / (4.0 * big_q)
        return slope

    if k > 0:
        return RadialODE(terms, ends, lambda t, c: l + 1.0, wkb_slope(-1.0), guess)
    return RadialODE(terms, ends, wkb_slope(+1.0), lambda t, c: -float(l), guess)


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
    if not a >= sys.float_info.min:  # a subnormal a keeps too few digits to shoot
        raise OverflowError(f"the repulsive coefficient underflows at mu = {mu:g}, lam = {lam:g}")
    return _two_term_ode(k, a, 2.0, l)


def coupling_mismatch(ode: RadialODE, coupling: float | tuple[float, ...]):
    """Scaled Wronskian of the two one-sided solutions at the matching radius,
    sin(theta_in - theta_out): zero exactly at a quantized parameter value,
    continuous in between.  Returns (mismatch, outward, inward) for a float
    coupling and a tuple of them for a tuple of couplings, whose sweeps
    ``integrate_radial`` pairs."""
    outs = integrate_radial(ode, coupling, "outward")
    inns = integrate_radial(ode, coupling, "inward")
    if not isinstance(coupling, tuple):
        return math.sin(inns.end_theta - outs.end_theta), outs, inns
    return tuple((math.sin(inn.end_theta - out.end_theta), out, inn)
                 for out, inn in zip(outs, inns))


def _shoot(ode: RadialODE, count: int) -> ShootingResult:
    """The k-th level is the root of the phase (theta_out - theta_in)/pi - k.

    Off the spectrum the two angles never differ by a multiple of pi, so the
    phase passes k only at the k-th level, whatever the matching radius, and
    it rises with c (Sturm).  Each level is first swept at the probes
    g/(1 + 1e-8) and g (1 + 1e-8) around its estimate g = ``ode.guess(k)``,
    both in one paired call per side, skipping a probe that lies outside the
    bracket the earlier levels' sweeps already make.  Where the probes leave
    the level unbracketed, the bracket doubles up from the highest coupling
    below it or halves down from the lowest one above it.  The level is the
    secant root of the tightest bracket the sweeps make, and its node count is
    the floor difference of the two angles interpolated there; the estimate
    only places the bracket.  brentq only narrows: a bracket across which the
    secant could be off by more than 1e-10, one from the fallback or one over
    which the phase is steep.  The fallback and brentq sweep one coupling at a
    time.  Across the probes' 2e-8 a smooth phase is linear to within lsoda's
    noise, so a level is read to that noise floor, which the module docstring
    states, and is not certified below it."""
    # c -> (phase, theta_out, theta_in)
    sweeps: dict[float, tuple[float, float, float]] = {}
    rhs_evals = ode_sweeps = 0

    def sweep(couplings):
        nonlocal rhs_evals, ode_sweeps
        results = coupling_mismatch(ode, couplings)
        _, out, inn = results[0]
        rhs_evals += out.nfev + inn.nfev  # a pair shares its calls' callbacks
        ode_sweeps += 2
        for c, (_, out, inn) in zip(couplings, results):
            sweeps[c] = ((out.end_theta - inn.end_theta) / math.pi, out.end_theta, inn.end_theta)

    def phase(c):
        if c not in sweeps:
            sweep((c,))
        return sweeps[c][0]

    def bracket(k):
        lo = max((c for c, s in sweeps.items() if s[0] < k), default=None)
        hi = min((c for c, s in sweeps.items() if s[0] >= k), default=None)
        return lo, hi

    values, nodes, fallback, widest = [], [], 0, 0.0
    for k in range(count):
        g = ode.guess(k)
        lo, hi = bracket(k)
        probes = tuple(c for c in (g / (1.0 + 1e-8), g * (1.0 + 1e-8))
                       if (lo is None or c > lo) and (hi is None or c < hi))
        if probes:
            sweep(probes)
        lo, hi = bracket(k)  # a probe was swept or lay outside: one end is known
        while hi is None:
            fallback += 1
            c = 2.0 * lo
            lo, hi = (c, None) if phase(c) < k else (lo, c)
        while lo is None:
            fallback += 1
            c = 0.5 * hi
            lo, hi = (c, hi) if phase(c) < k else (None, c)
        # the secant root is off by about the bracket's relative width times
        # the phase change across it: below 1e-11 over the probes' 2e-8 where
        # the phase changes slowly, more where it is steep (by 1e-3 to 0.03
        # across them at level 1 of |mu| >= 1e4) and the whole width at a step
        if (hi / lo - 1.0) * min(1.0, sweeps[hi][0] - sweeps[lo][0]) > 1e-10:
            brentq(lambda c: phase(c) - k, lo, hi, xtol=1e-12 * g, rtol=1e-10)
            lo, hi = bracket(k)
        (p_lo, out_lo, in_lo), (p_hi, out_hi, in_hi) = sweeps[lo], sweeps[hi]
        w = (k - p_lo) / (p_hi - p_lo)
        values.append(lo + w * (hi - lo))
        nodes.append(math.floor((out_lo + w * (out_hi - out_lo)) / math.pi)
                     - math.floor((in_lo + w * (in_hi - in_lo)) / math.pi))
        widest = max(widest, hi / lo - 1.0)
    diagnostics = {"mismatch_evals": len(sweeps), "ode_sweeps": ode_sweeps,
                   "rhs_evals": rhs_evals, "fallback_sweeps": fallback,
                   "widest_bracket": widest}
    return ShootingResult(values, nodes, diagnostics)


def shoot_coupling(mu, lam: float, l: int, count: int = 3) -> ShootingResult:
    """Recover the first ``count`` quantized attractive couplings of the
    two-term power-law problem at zero energy, holding the repulsive
    coefficient fixed at (lam k/2)^2 lam^2 / 2, k = 1/(mu + 1/2).  Node counts
    come from the Pruefer angles of the matched double-sided solution."""
    if not 1 <= count <= _MAX_COUNT:
        raise ValueError(f"count must lie in 1..{_MAX_COUNT}, got {count}")
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
    if not 1 <= count <= _MAX_COUNT:
        raise ValueError(f"count must lie in 1..{_MAX_COUNT}, got {count}")
    return _shoot(build_halfline_ode(n_power), count)
