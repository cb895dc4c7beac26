"""Independent numerical verification tools.

Nothing in this module evaluates a closed-form solution from the rest of the
package: quantized couplings and energies are rediscovered from the bare
differential equations by double-sided shooting, and norms/orthogonality are
checked by adaptive quadrature.  The only shared knowledge is the problem
statement itself (potential coefficients and exponents).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
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

# 15-point Kronrod extension of 7-point Gauss, abscissae/weights on [-1, 1].
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])

_T_CAP = 704.0  # exp() stays finite
_CHUNK = 7.0


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    converged: bool
    panels: int
    note: str = ""

    def __float__(self):
        return self.value


def _gk_panel(g, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _KRONROD_NODES
    v = g(x)
    ik = half * float(np.dot(_KRONROD_WEIGHTS, v))
    ig = half * float(np.dot(_GAUSS_WEIGHTS, v))
    e = 200.0 * abs(ik - ig)
    err = e**1.5 if e < 1.0 else e
    return ik, max(err, 1e-16 * abs(ik))


def quad_seminfinite(f, tol: float = 1e-10, *, atol: float = 0.0,
                     max_panels: int = 2000) -> QuadResult:
    """Integrate f over (0, inf) with the substitution r = exp(t).

    The window in t grows outward until boundary chunks stop contributing,
    then panels are bisected adaptively (Gauss-Kronrod 7/15) until the summed
    error estimate drops below ``tol`` relative (or ``atol`` absolute).
    Integrands whose tails never become negligible (e.g. 1/r) come back with
    ``converged=False`` and the partial value.  ``f`` must accept ndarrays.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-13, 1e-6], got {tol}")

    def g(t):
        r = np.exp(t)
        with np.errstate(all="ignore"):
            v = np.asarray(f(r), dtype=float) * r
        return np.where(np.isfinite(v), v, 0.0)

    panels: list[tuple] = []  # (-err, a, b, value, err)

    def push(a, b):
        val, err = _gk_panel(g, a, b)
        heapq.heappush(panels, (-err, a, b, val, err))
        return val, err

    total = 0.0
    for k in range(4):
        val, _ = push(-_CHUNK + k * 3.5, -_CHUNK + (k + 1) * 3.5)
        total += val

    truncated = False
    for sign in (-1.0, 1.0):
        edge = _CHUNK * sign
        while True:
            nxt = edge + sign * _CHUNK
            if abs(nxt) > _T_CAP:
                truncated = True
                break
            a, b = (nxt, edge) if sign < 0 else (edge, nxt)
            val, err = push(a, b)
            total += val
            edge = nxt
            significant = abs(val) + err > max(tol * abs(total) * 1e-3, 1e-290)
            if abs(edge) >= 12 * _CHUNK and not significant:
                break

    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(p[4] for p in panels)
        if total_err <= max(tol * abs(total), atol):
            break
        if len(panels) >= max_panels:
            return QuadResult(total, total_err, False, len(panels),
                              "panel budget exhausted")
        _, a, b, _, _ = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        push(a, mid)
        push(mid, b)

    if truncated:
        return QuadResult(total, total_err, False, len(panels),
                          "window truncated before tail became negligible")
    return QuadResult(total, total_err, True, len(panels))


# ---------------------------------------------------------------------------
# Radial initial-value integration in Pruefer variables
# ---------------------------------------------------------------------------

def _wkb_from_q(q, r, coupling, sign):
    """First-order WKB start u = q^(-1/4) exp(sign * int sqrt(q));
    returns (1, u'/u) since overall scale is irrelevant."""
    qv = q(r, coupling)
    if qv <= 0:
        raise ValueError(f"WKB start needs q > 0, got {qv:g} at r = {r:g}")
    h = 1e-5 * r
    dq = (q(r + h, coupling) - q(r - h, coupling)) / (2.0 * h)
    return 1.0, sign * math.sqrt(qv) - dq / (4.0 * qv)


@dataclass
class RadialODE:
    """u'' = q(r, c) u on a positive domain with a matching radius.

    ``q`` bundles the centrifugal term and twice the potential; ``c`` is the
    shooting parameter (attractive coupling or spectral value).  Domain ends
    and the matching radius may depend on the parameter.  Start values default
    to the regular power u ~ r^origin_exponent at the inner end and to a
    first-order WKB decaying form at the outer end.  A start must have no zero
    of u beyond it (on its side of the domain): the sweep counts zeros from
    there.
    """

    q: Callable[[float, float], float]
    r_inner: Callable[[float], float] | float
    r_outer: Callable[[float], float] | float
    origin_exponent: float = 1.0
    match_radius: Callable[[float], float] | float | None = None
    inner_start: Callable[[float, float], tuple[float, float]] | None = None
    outer_start: Callable[[float, float], tuple[float, float]] | None = None

    def _resolve(self, bound, coupling):
        return float(bound(coupling)) if callable(bound) else float(bound)

    def inner_at(self, coupling):
        return self._resolve(self.r_inner, coupling)

    def outer_at(self, coupling):
        return self._resolve(self.r_outer, coupling)

    def match_at(self, coupling: float) -> float:
        lo, hi = self.inner_at(coupling), self.outer_at(coupling)
        if self.match_radius is None:
            raw = math.sqrt(lo * hi)
        else:
            raw = self._resolve(self.match_radius, coupling)
        return min(max(raw, 3.0 * lo), hi / 3.0)


@dataclass(frozen=True)
class Trajectory:
    """One sweep toward the matching radius.  ``u`` and ``du`` are the
    solution up to one positive factor, unit amplitude at the end.
    ``end_theta`` is the Pruefer angle there: it starts in [0, pi) and, as r
    grows, rises through a multiple of pi at each zero of u, so an inward
    sweep falls through them.  ``nfev`` counts right-hand-side evaluations."""

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    log_deriv: float
    end_u: float
    end_du: float
    end_theta: float
    nfev: int


def integrate_radial(ode: RadialODE, coupling: float, direction: str = "outward",
                     rtol: float = 1e-10) -> Trajectory:
    """One LSODA sweep toward the matching radius in the Euler-scaled Pruefer
    variables u = rho sin(theta), r u' = rho cos(theta) with t = log r:

        theta'    = cos^2 - sin cos - r^2 q sin^2
        (log rho)' = cos^2 + (1 + r^2 q) sin cos

    The angle carries the node count and the log-amplitude cannot overflow,
    so one call covers the whole side with no renormalisation."""
    if direction not in ("outward", "inward"):
        raise ValueError("direction must be 'outward' or 'inward'")
    r_match = ode.match_at(coupling)
    if direction == "outward":
        r_from = ode.inner_at(coupling)
        start = ode.inner_start or (lambda r, c: (1.0, ode.origin_exponent / r))
    else:
        r_from = ode.outer_at(coupling)
        start = ode.outer_start or (lambda r, c: _wkb_from_q(ode.q, r, c, -1.0))
    if min(r_from, r_match) <= 0:
        raise ValueError("domain must be positive")

    u0, du0 = start(r_from, coupling)
    theta0 = math.atan2(u0, r_from * du0) % math.pi

    def rhs(t, y):
        r = math.exp(t)
        r2q = r * r * ode.q(r, coupling)
        s, c = math.sin(y[0]), math.cos(y[0])
        return (c * c - s * c - r2q * s * s, c * c + (1.0 + r2q) * s * c)

    # log rho only scales u and du; its loose absolute tolerance keeps it out
    # of the step-size control
    sol = solve_ivp(rhs, (math.log(r_from), math.log(r_match)), [theta0, 0.0],
                    method="LSODA", rtol=rtol, atol=(1e-12, 1e-6))
    if not sol.success:
        raise RuntimeError(f"radial integration failed on [{r_from:g}, {r_match:g}]: "
                           f"{sol.message}")
    theta, log_rho = sol.y
    r = np.exp(sol.t)
    amplitude = np.exp(log_rho - log_rho[-1])
    end_theta = float(theta[-1])
    end_u, end_du = math.sin(end_theta), math.cos(end_theta) / r_match
    log_deriv = end_du / end_u if end_u != 0.0 else math.inf
    return Trajectory(r, amplitude * np.sin(theta), amplitude * np.cos(theta) / r,
                      log_deriv, end_u, end_du, end_theta, int(sol.nfev))


# ---------------------------------------------------------------------------
# Shooting in the attractive coupling / in the spectral parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShootingResult:
    values: list[float]
    node_counts: list[int]
    mismatches: list[float]
    diagnostics: dict = field(default_factory=dict)


def _golden_min(f, a, b, tol):
    phi = 2.0 / (1.0 + math.sqrt(5.0))
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f2 > f1:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _powerlaw_exponents(mu: float):
    if mu == 0.0 or mu == 0.5 or mu == -0.5:
        raise ValueError("mu in {0, +1/2, -1/2} is outside the family")
    p1 = -2.0 * (mu - 0.5) / (mu + 0.5)
    p2 = -2.0 * mu / (mu + 0.5)
    return p1, p2


def _match_radius_factory(c_rep, p1, p2, l):
    def match(coupling):
        r0 = (coupling / c_rep) ** (1.0 / (p1 - p2))
        grid = np.geomspace(r0 * 1e-4, r0 * 1e4, 600)
        veff = l * (l + 1) / grid**2 + 2.0 * (c_rep * grid**p1 - coupling * grid**p2)
        i = int(np.argmin(veff))
        if 0 < i < grid.size - 1 and veff[i] < 0:
            f = lambda r: l * (l + 1) / r**2 + 2.0 * (c_rep * r**p1 - coupling * r**p2)
            return _golden_min(f, grid[i - 1], grid[i + 1], 1e-10 * grid[i])
        crossings = np.nonzero(np.sign(veff[1:]) != np.sign(veff[:-1]))[0]
        if crossings.size >= 2:
            return math.sqrt(grid[crossings[0]] * grid[crossings[-1]])
        if crossings.size == 1:
            return float(grid[crossings[0]])
        return r0

    return match


def _power_end(coupling: float, beta: float) -> float:
    """r^beta = 1e-12 / (1 + 2|c|), kept above 1e-150: there both potential
    terms of r^2 q are negligible next to l(l+1), so the solution that is
    regular at that end has the fixed Pruefer angle of its bare power."""
    log_x = math.log(1e-12 / (1.0 + 2.0 * abs(coupling)))
    return math.exp(max(log_x / beta, -345.0))


def build_powerlaw_ode(mu: float, lam: float, l: int) -> RadialODE:
    """Zero-energy radial problem of the two-term power-law family with the
    attractive coefficient left free as the shooting parameter.

    In x = r^(+-beta) (sign of mu + 1/2), r^2 q = l(l+1) + 2 c_rep x^2 - 2 c x,
    so the end where x -> 0 is a regular singular point: there the sweep
    starts on the bare power (r^(l+1) at the origin above mu = -1/2, r^(-l)
    at infinity below), with no zero beyond the start.  The other end starts
    on WKB decay."""
    if not (lam > 0 and l >= 0):
        raise ValueError(f"need lam > 0 and l >= 0, got lam = {lam}, l = {l}")
    mu = float(mu)
    p1, p2 = _powerlaw_exponents(mu)
    c_rep = (lam / (2.0 * mu + 1.0)) ** 2 * lam**2 / 2.0
    beta = 1.0 / abs(mu + 0.5)
    match = _match_radius_factory(c_rep, p1, p2, l)

    def q(r, coupling):
        return l * (l + 1) / r**2 + 2.0 * (c_rep * r**p1 - coupling * r**p2)

    if mu > -0.5:
        # the outer radius guarantees both a ~36 decay budget and clear
        # dominance of the repulsive term (positive WKB argument)
        return RadialODE(q=q, r_inner=lambda D: _power_end(D, beta),
                         r_outer=lambda D: max((72.0 / lam**2) ** (1.0 / beta),
                                               (6.0 * D / c_rep) ** (1.0 / beta)),
                         origin_exponent=l + 1.0, match_radius=match)
    # essential decay into the origin, algebraic r^(-l) branch at infinity
    return RadialODE(q=q,
                     r_inner=lambda D: min((lam**2 / 72.0) ** (1.0 / beta),
                                           (c_rep / (6.0 * D)) ** (1.0 / beta)),
                     r_outer=lambda D: max(1.0 / _power_end(D, beta), 9.5 * match(D)),
                     match_radius=match,
                     inner_start=lambda r, c: _wkb_from_q(q, r, c, +1.0),
                     outer_start=lambda r, c: (1.0, -l / r))


def coupling_mismatch(ode: RadialODE, coupling: float, rtol: float = 1e-10):
    """Scaled Wronskian of the two one-sided solutions at the matching radius,
    sin(theta_in - theta_out): zero exactly at a quantized parameter value,
    continuous in between."""
    out = integrate_radial(ode, coupling, "outward", rtol=rtol)
    inn = integrate_radial(ode, coupling, "inward", rtol=rtol)
    return math.sin(inn.end_theta - out.end_theta), out, inn


def _shoot(ode: RadialODE, unit: float, count: int) -> ShootingResult:
    """The k-th level is the root of the phase (theta_out - theta_in)/pi - k.

    Off the spectrum the two angles never differ by a multiple of pi, so the
    phase passes k only at the k-th level, whatever the matching radius, and
    it rises with c (Sturm).  Each level is bracketed by doubling out from
    ``unit`` or from the couplings already swept, then solved by brentq."""
    sweeps: dict[float, tuple[float, float, int]] = {}  # c -> (phase, |mismatch|, nodes)
    rhs_evals = 0

    def phase(c):
        nonlocal rhs_evals
        if c not in sweeps:
            # the angle's global error grows with each oscillation; 1e-12
            # keeps the sixth level within about 1e-10 of its value
            mismatch, out, inn = coupling_mismatch(ode, c, rtol=1e-12)
            rhs_evals += out.nfev + inn.nfev
            nodes = math.floor(out.end_theta / math.pi) - math.floor(inn.end_theta / math.pi)
            sweeps[c] = ((out.end_theta - inn.end_theta) / math.pi, abs(mismatch), nodes)
        return sweeps[c][0]

    values, nodes, mism = [], [], []
    for k in range(count):
        lo = max((c for c, s in sweeps.items() if s[0] < k), default=None)
        hi = min((c for c, s in sweeps.items() if s[0] >= k), default=None)
        while hi is None:
            c = unit if lo is None else 2.0 * lo
            lo, hi = (c, None) if phase(c) < k else (lo, c)
        while lo is None:
            c = 0.5 * hi
            lo, hi = (c, hi) if phase(c) < k else (None, c)
        root = brentq(lambda c: phase(c) - k, lo, hi, xtol=1e-12 * unit, rtol=1e-10)
        phase(root)
        values.append(float(root))
        mism.append(sweeps[root][1])
        nodes.append(sweeps[root][2])
    diagnostics = {"mismatch_evals": len(sweeps), "ode_sweeps": 2 * len(sweeps),
                   "rhs_evals": rhs_evals}
    return ShootingResult(values, nodes, mism, diagnostics)


def shoot_coupling(mu, lam: float, l: int, count: int = 3) -> ShootingResult:
    """Recover the first ``count`` quantized attractive couplings of the
    two-term power-law problem at zero energy, holding the repulsive
    coefficient fixed at (lam/(2 mu + 1))^2 lam^2 / 2.  Node counts come from
    the Pruefer angles of the matched double-sided solution."""
    if not 1 <= count <= 6:
        raise ValueError(f"count must lie in 1..6, got {count}")
    mu, lam = float(mu), float(lam)
    ode = build_powerlaw_ode(mu, lam, l)
    return _shoot(ode, (lam / (2.0 * mu + 1.0)) ** 2, count)


def build_halfline_ode(n_power: int) -> RadialODE:
    """Half-line problem -psi'' + x^(2N+2) psi = E x^N psi with psi(0) = 0.

    For N >= -1, x^2 q -> 0 at the origin, so the sweep starts on psi ~ x at
    x = 1e-8; the outer start is WKB decay beyond the turning point
    x = E^(1/(N+2)).
    """
    if n_power == -2:
        raise ValueError("N = -2 is excluded")
    if n_power < -1:
        raise ValueError("shooting supports N >= -1 (regular origin)")
    N = int(n_power)

    def q(x, energy):
        return x ** (2 * N + 2) - energy * x**N

    def match(energy):
        return 0.55 * max(energy, 0.3) ** (1.0 / (N + 2))

    def outer(energy):
        return 1.2 * (36.0 * (N + 2) + 2.0 * energy) ** (1.0 / (N + 2))

    return RadialODE(q=q, r_inner=1e-8, r_outer=outer, origin_exponent=1.0,
                     match_radius=match)


def shoot_energy_bender(n_power: int, count: int = 2) -> ShootingResult:
    """Recover the first ``count`` quantized E values of the half-line
    monomial-potential problem from the phase of the matched solution."""
    if not 1 <= count <= 4:
        raise ValueError(f"count must lie in 1..4, got {count}")
    if n_power not in (-1, 0, 1, 3):
        raise ValueError("supported N values: -1, 0, 1, 3")
    return _shoot(build_halfline_ode(n_power), 0.25, count)
