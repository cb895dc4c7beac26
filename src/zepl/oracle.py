"""Independent numerical verification tools.

Nothing in this module evaluates a closed-form solution from the rest of the
package: quantized couplings and energies are rediscovered from the bare
differential equations by double-sided shooting on a Pruefer angle scaled to
the wavenumber at the bottom of the problem's well, and norms/orthogonality
are checked by the trapezoidal rule after a double-exponential map.  The only
shared knowledge is the problem statement itself (potential coefficients and
exponents).  Each level's search starts at the problem's own Bohr-Sommerfeld
estimate with Langer's (l+1/2)^2, whose action the stated r^2 q gives in
closed form.  Every sweep is a pair of probes around a centre, one lsoda call
per side with both Pruefer angles in its state; the first pair is centred on
the estimate, and later ones on Newton steps of the monotone phase, until a
pair brackets the level itself.  A problem is four numbers, k, a, b and l
of the pencil r^2 q = l(l+1) + a x^2 - c b x in x = r^k, from which it works
out its frame, start slopes and estimate, and lsoda's one callback into
Python writes that pencil out.  The problem is an oscillator in disguise,
for which Langer-WKB is exact, so the estimate is the quantized level to
rounding; yet the level reported is always the shooting root, the secant
root of the phase across that pair, read to lsoda's noise floor and not
certified below it (an estimate moved 1e-6 off gives the same levels).
That floor is about 1e-10 relative over the whole domain: at lam = 1 and
two levels, at most 2.5e-11 at l <= 1 and mu = +-1e5, +-1e4, -50, -5/2,
-0.6, 1/4, 3/2 and 50, and at most 4.1e-11 at l <= 2 and mu from -0.4 to
-0.499995 and from -0.500005 to -0.51; at three levels, at most 1.5e-10 over
mu from -1e5 to 1e5 and l in {0, 1, 2, 20} (at mu = 1e5, l = 20).  Levels
up to the 20th, the most one search shoots, stay within 5.2e-11 on the
first two sets.
"""

from __future__ import annotations

import importlib
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

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

# loaded from scipy.integrate on first use, so that importing zepl takes numpy
# alone; solve_ivp is not called here, but perfbench/tracing.py wraps it by name
_SCIPY_NAMES = ("odeint", "ODEintWarning", "solve_ivp")


def __getattr__(name: str):
    """The scipy.integrate names above, imported at the first read of one of
    them (PEP 562) and stored in the module's globals, where later reads and
    monkeypatching find them.  A name already set there is kept."""
    if name not in _SCIPY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    integrate = importlib.import_module("scipy.integrate")
    for lazy in _SCIPY_NAMES:
        globals().setdefault(lazy, getattr(integrate, lazy))
    return globals()[name]


_T_CAP = 704.0  # exp() stays finite
_SCAN = np.linspace(-_T_CAP, _T_CAP, 2817)  # step 0.5 in sigma
_MAX_SAMPLES = 30_000  # samples beyond the scan
_AHEAD = 3  # halvings evaluated in one call of the integrand
_LOG3 = math.log(3.0)
# lsoda's step budget for one sweep.  The longest sweep of the tests, `zepl
# verify --all` and perfbench's oracle_sweep takes 5143 steps (a pair at
# (1e7, 1, 10)), but for the tests' sweeps 2.5x and 3x past level 0 of
# (-50, 1, 2), near levels 186 and 248, which take up to 17 573 (odeint's
# default budget is 500).  A sweep that needs more than this has lost the
# problem, say to a huge r^2 q, and raises instead of running on.
_MAX_STEPS = 20_000
# the most levels one search shoots: the 20th is within 3e-10 of the closed forms
_MAX_COUNT = 20
# pairs of sweeps per level: 1 on the probe path, 5 where the phase is steep at
# (1e7, 1, 10), and up to 13 from the tests' guesses off by a factor
_MAX_PAIRS = 40
# the largest N the half line shoots at every count: the 20th level of
# N = 1.5e101 is not read within _MAX_PAIRS pairs, nor level 0 of 5e101
_N_REACH = 10**101


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
    ``error`` (it overstates that of T_h).  One call of h evaluates the
    midpoints of the next three halvings, within the sample budget, so each
    call pays h's per-call cost over more points; the sums are still taken one
    halving at a time, and ``panels`` counts only the samples of the halvings
    the rule used.  ``converged=False`` comes with a note when the live span
    reaches an end of the scan (the tail is truncated, as for f = 1/x), when no
    sample is nonzero (any mass lies beyond the floats) or when 30 000 samples
    beyond the scan, counted in ``panels``, do not reach the tolerance.  ``h``
    must accept ndarrays and act on them pointwise."""
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
    ahead = []  # g at the midpoints of the coming halvings, one array per halving
    while peak * error > max(tol * peak * abs(total), atol):
        if samples + intervals > _MAX_SAMPLES:
            return QuadResult(peak * total, peak * error, False, samples,
                              "sample budget exhausted: 30 000 samples beyond the scan")
        if not ahead:
            ahead = _halvings(g, lo, step, intervals, _MAX_SAMPLES - samples)
        samples, step, intervals = samples + intervals, 0.5 * step, 2 * intervals
        total, previous = 0.5 * total + step * float(np.sum(ahead.pop(0) / peak)), total
        error = abs(total - previous)
    truncated = lo == 0 or hi == _SCAN.size - 1
    note = "window truncated: the integrand is live at an end of the floats" if truncated else ""
    return QuadResult(peak * total, peak * error, not truncated, samples, note)


def _halvings(g, lo: int, step: float, intervals: int, budget: int) -> list:
    """g at the midpoints of the next _AHEAD halvings of the window from
    _SCAN[lo], the first at ``step`` over ``intervals``, from one call of g:
    as many as ``budget`` samples hold, which the first must fit.  Each
    halving's midpoints are those it would form on its own, and g is
    pointwise, so every sum taken from them is the same to the bit."""
    mids = []
    while len(mids) < _AHEAD and intervals <= budget:
        mids.append(_SCAN[lo] + step * (np.arange(intervals) + 0.5))
        budget, step, intervals = budget - intervals, 0.5 * step, 2 * intervals
    return np.split(g(np.concatenate(mids)), np.cumsum([m.size for m in mids[:-1]]))


# ---------------------------------------------------------------------------
# Radial initial-value integration in Pruefer variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialODE:
    """u'' = q u on r > 0, stated in t = log r as the pencil

        r^2 q = q0 - c w,   q0 = l(l+1) + a x^2,   w = b x,   x = r^k = e^(k t),

    with a, b > 0 and the shooting parameter c > 0 (attractive coupling or
    spectral value): the power-law family's radial problem, and the half
    line's at k = N+2, a = b = 1 and l = 0.  The four numbers are the whole
    problem: the Euler-scaled Pruefer equations evaluate them, and every
    method works from them.  ``terms(t)`` gives (q0, w).  ``ends(c)`` gives
    the sweep's frame (t_inner, t_match, t_outer, S): the match inside the
    two starts, and the scale S > 0 that weighs u against r u' in the angle.
    ``inner_slope`` and ``outer_slope`` give r u'/u at the start of each
    sweep, in closed form.  A start must have no zero of u beyond it (on its
    side of the domain): the sweep counts zeros from there.  ``guess(n)``
    estimates the n-th level; shooting only starts its search there.

    The end where x -> 0 is a regular singular point, and the sweep starts
    there on the Frobenius series of the stated pencil (Pryce 1993; SLEIGN2
    starts a regular singular end the same way): u = r^s sum alpha_j x^j with
    s = l+1 (the origin, k > 0) or -l (infinity, k < 0), alpha_0 = 1 and
    D_j alpha_j = a alpha_(j-2) - b c alpha_(j-1), D_j = |k| j (2l+1 + |k| j)
    > 0, at x = 0.3 min(1, |k|)^4/(1 + b c/D_1 + sqrt(a/D_1)).  There every
    correction alpha_j x^j is at most about 0.3, so the regular solution has
    no zero beyond the start, and the sweep skips the decades of x where
    nothing happens.  The factor min(1, |k|)^4 keeps the start as flat in t
    as the bare power r^s at x = 1e-12 was where |k| is small: over the long
    stretch of t that a small |k| makes, an angle that drifts from the start
    can hold lsoda in its nonstiff method on steps bounded by stability until
    it runs out of them (35 of 3000 families with |mu| from 100 to 1e5 at a
    start of 1e-2/(...), none with the factor).  The other end starts on WKB
    decay at x = max(36|k|/sqrt(a), 6 b c/a), which gives both a ~36 decay
    budget and clear dominance of the repulsive term.  The sides match at the
    bottom of r^2 q, x = b c/(2a), kept log 3 in log x above the regular
    start.  The angle's scale S = max(1, |k|, sqrt(-r^2 q at the match)) is
    the wavenumber at the bottom of the well, where most of the oscillation
    happens, and at least that of log x where |k| > 1 (S = |k| below 1
    outruns lsoda's steps at |mu| = 1e5).  The WKB start's slope and the
    guess, the Bohr-Sommerfeld estimate with Langer's l(l+1) -> (l+1/2)^2
    (Langer 1937), are closed forms; in x the problem is the 3D oscillator,
    for which that estimate is exact.
    """

    k: float
    a: float
    b: float
    l: int

    @property
    def ll(self) -> float:
        return self.l * (self.l + 1.0)

    def terms(self, t: float) -> tuple[float, float]:
        x = math.exp(self.k * t)
        return self.ll + self.a * x * x, self.b * x

    def ends(self, c: float) -> tuple[float, float, float, float]:
        # in log x: the regular start, the bottom of r^2 q at b c/(2 a), kept
        # log 3 above that start, and the WKB start, at least 12x the bottom
        k, a, b, kk = self.k, self.a, self.b, abs(self.k)
        d1 = kk * (2 * self.l + 1 + kk)
        log_regular = math.log(0.3 * min(1.0, kk) ** 4
                               / (1.0 + b * abs(c) / d1 + math.sqrt(a / d1)))
        log_match = max(math.log(b * c / (2.0 * a)), log_regular + _LOG3)
        log_wkb = math.log(max(36.0 * kk / math.sqrt(a), 6.0 * b * c / a))
        t_ends = (log_regular / k, log_match / k, log_wkb / k)
        q0, w = self.terms(t_ends[1])
        scale = max(1.0, kk, math.sqrt(max(c * w - q0, 0.0)))
        return (*(t_ends if k > 0 else t_ends[::-1]), scale)

    def inner_slope(self, t: float, c: float) -> float:
        return self._frobenius_slope(t, c) if self.k > 0 else self._wkb_slope(t, c, 1.0)

    def outer_slope(self, t: float, c: float) -> float:
        return self._wkb_slope(t, c, -1.0) if self.k > 0 else self._frobenius_slope(t, c)

    def guess(self, n: int) -> float:
        # the action (1/|k|) int sqrt(b c x - a x^2 - (l+1/2)^2) dx/x between
        # the turning points, pi (b c/(2 sqrt(a)) - (l+1/2))/|k|, is (n+1/2) pi
        return math.sqrt(self.a) * ((2 * self.l + 1) + (2 * n + 1) * abs(self.k)) / self.b

    def _frobenius_slope(self, t: float, c: float) -> float:
        # r u'/u of the series, s + k sum j tau_j / sum tau_j, tau_j = alpha_j x^j
        # summed until two terms in a row are below 1e-17 of the sum
        k, a, b, l, kk = self.k, self.a, self.b, self.l, abs(self.k)
        x = math.exp(k * t)
        older, last, total, moment, j = 0.0, 1.0, 1.0, 0.0, 0
        while abs(older) + abs(last) > 1e-17 * abs(total):
            j += 1
            d_j = kk * j * (2 * l + 1 + kk * j)
            older, last = last, (a * x * older - b * c * last) * x / d_j
            total, moment = total + last, moment + j * last
        return (l + 1.0 if k > 0 else -float(l)) + k * moment / total

    def _wkb_slope(self, t: float, c: float, sign: float) -> float:
        # r u'/u of u = Q^(-1/4) exp(sign int sqrt(Q) dt), Q = r^2 q = q0 - c w
        # and Q' = dQ/dt = k (2 a x^2 - b c x); x >= 6 b c/a keeps Q >= 5 a x^2/6
        q0, w = self.terms(t)
        big_q, q_prime = q0 - c * w, self.k * (2.0 * (q0 - self.ll) - c * w)
        return sign * math.sqrt(big_q) + 0.5 - q_prime / (4.0 * big_q)


@dataclass(frozen=True)
class Trajectory:
    """One sweep's end at the matching radius.  ``end_theta`` is the Pruefer
    angle of (S u, r u'), S the scale of the sweep's frame, so r u'/u is
    S cot(end_theta) there: it starts in [0, pi) and, as r grows, rises
    through a multiple of pi at each zero of u, so an inward sweep falls
    through them.  ``nfev`` counts the call's right-hand-side evaluations,
    which the two sweeps of a pair share."""

    end_theta: float
    nfev: int


def integrate_radial(ode: RadialODE, coupling: float | tuple[float, ...],
                     direction: str = "outward") -> Trajectory | tuple[Trajectory, ...]:
    """One ``odeint`` (lsoda) call toward the matching radius of the
    Euler-scaled Pruefer angle theta, S u = rho sin(theta),
    r u' = rho cos(theta) with t = log r and S the scale of the sweep's frame:

        theta' = S cos^2 - sin cos - ((q0 - c w)/S) sin^2,   (q0, w) = ode.terms(t)

    from atan2(S, r u'/u) at the start.  The angle passes a multiple of pi at
    each zero of u, whatever S, and alone carries the node count and the
    match: its equation does not involve rho, so one call covers the whole
    side with no renormalisation; lsoda's step loop runs in Fortran and calls
    back only for the right-hand side.  That callback writes the pencil out,
    one ``exp`` and the arithmetic of ``ode.terms`` in the same operations,
    and writes both angles' rates through a memoryview into one array that
    the sweep allocates and odeint copies at once.  The angles are uncoupled,
    and lsoda is told so (a banded Jacobian of width 0), so a Jacobian costs
    it one extra callback, not two.  Every call sweeps a pair, two angles in
    one state that lsoda steps together; one coupling, a float or a 1-tuple,
    is swept as (c, c), and the result matches ``coupling``: one
    ``Trajectory`` or a tuple of them.
    A pair takes its frame, ends and scale, from ``ode.ends`` at its first
    coupling, so it should be two close couplings, such as a level's probes.
    A sweep that stops early (more than 20 000 steps, or any other lsoda
    failure), meets a non-finite angle or ends on one raises ``RuntimeError``."""
    if direction not in ("outward", "inward"):
        raise ValueError("direction must be 'outward' or 'inward'")
    couplings = coupling if isinstance(coupling, tuple) else (coupling,)
    if len(couplings) not in (1, 2):
        raise ValueError(f"a sweep takes one coupling or a pair, got {len(couplings)}")
    c1, c2 = couplings if len(couplings) == 2 else couplings * 2
    t_inner, t_match, t_outer, scale = ode.ends(c1)
    if direction == "outward":
        t_from, start_slope = t_inner, ode.inner_slope
    else:
        t_from, start_slope = t_outer, ode.outer_slope
    theta0 = [math.atan2(scale, start_slope(t_from, c)) % math.pi for c in (c1, c2)]
    odeint, odeint_warning = (globals().get(name) or __getattr__(name)
                              for name in ("odeint", "ODEintWarning"))

    # the pencil written out, in the operations and order of ``ode.terms``;
    # a memoryview writes a float without numpy's scalar conversion
    k, a, b, ll = ode.k, ode.a, ode.b, ode.ll
    exp, sin, cos, inv = math.exp, math.sin, math.cos, 1.0 / scale
    dtheta = np.empty(2)
    out = memoryview(dtheta)

    def rhs(t, y):
        x = exp(k * t)
        q0, w = ll + a * x * x, b * x
        y1, y2 = y.tolist()
        s1, co1, s2, co2 = sin(y1), cos(y1), sin(y2), cos(y2)
        out[0] = (scale * co1 - s1) * co1 - (q0 - c1 * w) * inv * s1 * s1
        out[1] = (scale * co2 - s2) * co2 - (q0 - c2 * w) * inv * s2 * s2
        return dtheta

    # the angle's global error grows with each oscillation; rtol 1e-12 keeps
    # the 20th level within about 3e-10 of its value
    failed = f"radial integration failed on log r in [{t_from:g}, {t_match:g}]"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", odeint_warning)  # reported below instead
        try:
            # ml = mu = 0: the Jacobian of two uncoupled angles is diagonal
            y, info = odeint(rhs, theta0, (t_from, t_match), ml=0, mu=0, rtol=1e-12,
                             atol=1e-12, mxstep=_MAX_STEPS, full_output=True, tfirst=True)
        except ValueError as exc:  # math.sin of an infinite angle
            raise RuntimeError(f"{failed}: the right-hand side met a non-finite angle "
                               f"({exc}).") from exc
    end_thetas = y[-1].tolist()[:len(couplings)]
    shown = next((v for v in end_thetas if not math.isfinite(v)), end_thetas[0])
    if info["message"] != "Integration successful." or not math.isfinite(shown):
        raise RuntimeError(f"{failed}: lsoda: {info['message']} End angle {shown:g}.")
    nfev = int(info["nfe"][-1])
    trajectories = tuple(Trajectory(theta, nfev) for theta in end_thetas)
    return trajectories if isinstance(coupling, tuple) else trajectories[0]


# ---------------------------------------------------------------------------
# Shooting in the attractive coupling / in the spectral parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShootingResult:
    values: list[float]
    node_counts: list[int]
    diagnostics: dict = field(default_factory=dict)


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
    return RadialODE(k, a, 2.0, l)


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
    it rises with c (Sturm).  Every sweep is a pair of probes centre/(1 + h)
    and centre (1 + h), one paired call per side, from centre =
    ``ode.guess(k)`` and h = 1e-8.  The first pair that brackets the level
    itself, tightly enough (below), gives it; else the next centre is the
    Newton step through the pair's two phases if that lies inside the
    bracket all sweeps make, and within a factor 2 of the nearest swept
    coupling while the bracket is open; if not, 2 lo or hi/2, or the closed
    bracket's secant root, with h at most an eighth of its relative width.
    Where levels crowd, as 1e-8 apart at (1e7, 1, 10), the phase is a
    staircase, which a bracket assembled from two pairs can straddle.  The
    level is the pair's secant root and its node count the floor difference
    of the two angles interpolated there; the estimate only places the
    first pair.  A level is read to lsoda's noise floor, which the module
    docstring states, and not certified below it.  One not read within
    _MAX_PAIRS pairs raises ``RuntimeError``, and a count outside
    1.._MAX_COUNT ``ValueError``."""
    if not 1 <= count <= _MAX_COUNT:
        raise ValueError(f"count must lie in 1..{_MAX_COUNT}, got {count}")
    # c -> (phase, theta_out, theta_in), over every level's sweeps
    sweeps: dict[float, tuple[float, float, float]] = {}
    values, nodes, pairs, rhs_evals, widest = [], [], 0, 0, 0.0
    for k in range(count):
        centre, h = ode.guess(k), 1e-8
        for _ in range(_MAX_PAIRS):
            a, b = centre / (1.0 + h), centre * (1.0 + h)
            for c, (_, out, inn) in zip((a, b), coupling_mismatch(ode, (a, b))):
                sweeps[c] = ((out.end_theta - inn.end_theta) / math.pi, out.end_theta,
                             inn.end_theta)
            rhs_evals += out.nfev + inn.nfev  # a pair shares its calls' callbacks
            pairs += 1
            (p_a, out_a, in_a), (p_b, out_b, in_b) = sweeps[a], sweeps[b]
            # the secant root is off by about the pair's relative width times
            # the phase change across it: below 1e-11 over the probes' 2e-8
            # where the phase changes slowly, more where it is steep (by 1e-3
            # to 0.03 across them at level 1 of |mu| >= 1e4) and the whole
            # width at a step
            if p_a < k <= p_b and (b / a - 1.0) * min(1.0, p_b - p_a) <= 1e-10:
                break
            lo = max((c for c, s in sweeps.items() if s[0] < k), default=None)
            hi = min((c for c, s in sweeps.items() if s[0] >= k), default=None)
            newton = a + (k - p_a) / (p_b - p_a) * (b - a) if p_b != p_a else math.nan
            if hi is None:
                centre = newton if lo < newton <= 2.0 * lo else 2.0 * lo
            elif lo is None:
                centre = newton if 0.5 * hi <= newton < hi else 0.5 * hi
            else:
                p_lo, p_hi = sweeps[lo][0], sweeps[hi][0]
                centre = (newton if lo < newton < hi
                          else lo + (k - p_lo) / (p_hi - p_lo) * (hi - lo))
                h = min(1e-8, (hi / lo - 1.0) / 8.0)
        else:
            raise RuntimeError(f"level {k} was not read within {_MAX_PAIRS} pairs of sweeps "
                               f"from its estimate {ode.guess(k):g}")
        w = (k - p_a) / (p_b - p_a)
        values.append(a + w * (b - a))
        nodes.append(math.floor((out_a + w * (out_b - out_a)) / math.pi)
                     - math.floor((in_a + w * (in_b - in_a)) / math.pi))
        widest = max(widest, b / a - 1.0)
    diagnostics = {"mismatch_evals": 2 * pairs, "rhs_evals": rhs_evals,
                   "fallback_sweeps": pairs - count, "widest_bracket": widest}
    return ShootingResult(values, nodes, diagnostics)


def shoot_coupling(mu, lam: float, l: int, count: int = 3) -> ShootingResult:
    """Recover the first ``count`` quantized attractive couplings of the
    two-term power-law problem at zero energy, holding the repulsive
    coefficient fixed at (lam k/2)^2 lam^2 / 2, k = 1/(mu + 1/2).  Node counts
    come from the Pruefer angles of the matched double-sided solution."""
    return _shoot(build_powerlaw_ode(mu, float(lam), l), count)


def build_halfline_ode(n_power: int) -> RadialODE:
    """Half-line problem -psi'' + x^(2N+2) psi = E x^N psi with psi(0) = 0:
    in X = x^(N+2), x^2 q = X (X - E), the power-law problem at k = N+2 and
    l = 0 with the energy E as the shooting parameter."""
    if isinstance(n_power, bool) or not isinstance(n_power, (int, np.integer)):
        raise ValueError(f"N must be an integer, got {n_power!r}")
    if n_power < -1:
        raise ValueError("shooting supports N >= -1 (regular origin; N = -2 is excluded)")
    return RadialODE(float(int(n_power) + 2), 1.0, 1.0, 0)


def shoot_energy_bender(n_power: int, count: int = 2) -> ShootingResult:
    """Recover the first ``count`` quantized E values of the half-line
    monomial-potential problem from the phase of the matched solution.  An
    N beyond 10**101, the measured reach of shooting, is refused before any
    sweep."""
    if n_power > _N_REACH:
        raise ValueError(f"N = {n_power} lies beyond the reach of shooting, N <= 10**101")
    return _shoot(build_halfline_ode(n_power), count)
