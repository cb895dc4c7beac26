"""Independent checks of zepl's outputs, built from the paper's formulas.

Nothing here imports zepl.  Every function takes plain numbers or arrays that
the benchmark read off the program's results, recomputes the expected answer
with scipy and the paper's closed forms, and returns ``None`` when the result
is right or a one-line description of what is wrong.

The family (mu, lam, l, n) has, at zero energy,

    psi(r) = A r^p exp(-w/2) L_n^alpha(w),   w = lam^2 r^m,
    p = l + 1 (mu > -1/2) or -l (mu < -1/2),  m = 1/(mu + 1/2),
    alpha = (2l + 1)|mu + 1/2|,
    V_eff(r) = l(l+1)/r^2 + 2 (lam/(2mu+1))^2 [(lam^2/2) r^p1 - Omega r^p2],
    p1 = -2(mu - 1/2)/(mu + 1/2),  p2 = -2mu/(mu + 1/2),
    Omega = 2n + 1 + (2l + 1)|mu + 1/2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, roots_genlaguerre

LEVEL_TOL = 1e-6      # recovered coupling or energy, relative
NORM_TOL = 1e-8       # |norm - 1|
PSI_TOL = 1e-10       # max |psi - psi_ref| / max |psi_ref|
RESIDUAL_TOL = 1e-8   # wave-equation residual, relative per point


@dataclass(frozen=True)
class Shape:
    """Parameters of A r^p exp(-w/2) L_n^alpha(w) with w = rate r^m."""

    power: float
    rate: float
    shape: float
    degree: int
    order: float


def paper_shape(mu: float, lam: float, l: int, n: int) -> Shape:
    q = mu + 0.5
    return Shape(power=float(l + 1) if q > 0 else float(-l), rate=lam * lam,
                 shape=1.0 / q, degree=n, order=(2 * l + 1) * abs(q))


def omega(mu: float, l: int, n: int) -> float:
    return 2 * n + 1 + (2 * l + 1) * abs(mu + 0.5)


def coupling_level(mu: float, lam: float, l: int, n: int) -> float:
    """D_n = (lam/(2mu+1))^2 (2n + 1 + (2l+1)|mu + 1/2|)."""
    return (lam / (2.0 * mu + 1.0)) ** 2 * omega(mu, l, n)


def energy_level(N: int, n: int) -> float:
    """E_n = (2n + 1)|N + 2| + 1."""
    return (2 * n + 1) * abs(N + 2) + 1.0


def table_verdict(mu: float, l: int) -> tuple[bool, bool]:
    """(bounded, normalizable) at quantized n: only mu < -1/2 with l = 0
    is unbounded, and that case is also the only divergent norm."""
    ok = not (mu < -0.5 and l == 0)
    return ok, ok


def norm_exponent(s: Shape) -> float:
    """Exponent s' of the Gauss-Laguerre weight w^s' exp(-w); the norm is
    finite exactly when s' > -1."""
    return (2.0 * s.power + 1.0) / s.shape - 1.0


def gl_norm(amplitude: float, s: Shape) -> float:
    """Integral of psi^2 over (0, inf), exact with an (n+1)-node generalized
    Gauss-Laguerre rule; inf when the integral diverges."""
    expo = norm_exponent(s)
    if not expo > -1.0:
        return math.inf
    x, wts = roots_genlaguerre(s.degree + 1, expo)
    inner = float(np.dot(wts, eval_genlaguerre(s.degree, s.order, x) ** 2))
    return (amplitude**2 * s.rate ** (-(2.0 * s.power + 1.0) / s.shape)
            / abs(s.shape) * inner)


def radial_grid(s: Shape, num: int) -> np.ndarray:
    """Radii covering the Laguerre argument w from 1e-3 past the last node."""
    w = np.geomspace(1e-3, 4.0 * (s.degree + 1) + 2.0 * s.order + 40.0, num)
    return np.sort((w / s.rate) ** (1.0 / s.shape))


def psi(amplitude: float, s: Shape, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    w = s.rate * r**s.shape
    return amplitude * r**s.power * np.exp(-0.5 * w) * eval_genlaguerre(s.degree, s.order, w)


def psi_deriv(amplitude: float, s: Shape, r) -> np.ndarray:
    """d psi/dr from the product rule and dL_n^a/dw = -L_{n-1}^{a+1}."""
    r = np.asarray(r, dtype=float)
    w = s.rate * r**s.shape
    dw = s.rate * s.shape * r ** (s.shape - 1.0)
    lower = (eval_genlaguerre(s.degree - 1, s.order + 1.0, w) if s.degree > 0
             else np.zeros_like(w))
    return (psi(amplitude, s, r) * (s.power / r - 0.5 * dw)
            - amplitude * r**s.power * np.exp(-0.5 * w) * dw * lower)


def veff_terms(mu: float, lam: float, l: int, n: int, r) -> list[np.ndarray]:
    """The three terms of V_eff: centrifugal, repulsive, attractive."""
    r = np.asarray(r, dtype=float)
    q = mu + 0.5
    unit = (lam / (2.0 * mu + 1.0)) ** 2
    p1, p2 = -2.0 * (mu - 0.5) / q, -2.0 * mu / q
    return [l * (l + 1) / r**2, unit * lam**2 * r**p1, -2.0 * unit * omega(mu, l, n) * r**p2]


def veff(mu: float, lam: float, l: int, n: int, r) -> np.ndarray:
    a, b, c = veff_terms(mu, lam, l, n, r)
    return a + b + c


def sign_changes(values) -> int:
    v = np.asarray(values, dtype=float)
    v = v[np.abs(v) > 1e-12 * np.abs(v).max()]
    return int(np.sum(np.sign(v[1:]) != np.sign(v[:-1])))


# ---------------------------------------------------------------------------
# Checks: None when the program's result is right, else what is wrong
# ---------------------------------------------------------------------------

def check_levels(recovered, expected, tol: float = LEVEL_TOL) -> str | None:
    if len(recovered) != len(expected):
        return f"recovered {len(recovered)} levels, expected {len(expected)}"
    worst = max(abs(g - e) / abs(e) for g, e in zip(recovered, expected))
    if not worst < tol:
        return f"level off by {worst:.2e} relative: {list(recovered)} vs {list(expected)}"
    return None


def check_node_counts(counts, count: int) -> str | None:
    if list(counts) != list(range(count)):
        return f"node counts {list(counts)}, expected 0..{count - 1}"
    return None


def check_norm(value: float, tol: float = NORM_TOL) -> str | None:
    if not abs(value - 1.0) < tol:
        return f"norm {value!r} is not 1 within {tol:g}"
    return None


def check_finite_rule(finite: bool, s: Shape) -> str | None:
    expected = norm_exponent(s) > -1.0
    if bool(finite) != expected:
        return f"norm finite={finite}, the rule s > -1 says {expected}"
    return None


def check_psi(got, reference, tol: float = PSI_TOL) -> str | None:
    got, reference = np.asarray(got, float), np.asarray(reference, float)
    scale = np.abs(reference).max()
    err = np.abs(got - reference).max() / scale if scale > 0 else math.inf
    if not err < tol:
        return f"values off by {err:.2e} of their maximum"
    return None


def check_residual(mu: float, lam: float, l: int, n: int, r, psi_vals, d2_vals,
                   tol: float = RESIDUAL_TOL) -> str | None:
    """psi'' = V_eff psi, pointwise relative to the sum of the terms' sizes,
    on the points where psi is not negligible."""
    psi_vals, d2_vals = np.asarray(psi_vals, float), np.asarray(d2_vals, float)
    terms = [d2_vals] + [-t * psi_vals for t in veff_terms(mu, lam, l, n, r)]
    keep = np.abs(psi_vals) > 1e-8 * np.abs(psi_vals).max()
    total = sum(terms)[keep]
    scale = sum(np.abs(t) for t in terms)[keep]
    worst = float((np.abs(total) / scale).max()) if keep.any() else math.inf
    if not worst < tol:
        return f"wave-equation residual {worst:.2e}"
    return None


def check_veff(got, mu: float, lam: float, l: int, n: int, r,
               tol: float = 1e-12) -> str | None:
    """V_eff pointwise, relative to the sum of its terms' sizes."""
    terms = veff_terms(mu, lam, l, n, r)
    err = np.abs(np.asarray(got, float) - sum(terms)) / sum(np.abs(t) for t in terms)
    worst = float(err.max())
    if not worst < tol:
        return f"V_eff off by {worst:.2e} relative"
    return None


def check_verdict(bounded: bool, normalizable: bool, mu: float, l: int) -> str | None:
    expected = table_verdict(mu, l)
    if (bool(bounded), bool(normalizable)) != expected:
        return (f"bounded={bounded} normalizable={normalizable}, "
                f"the table says {expected[0]}/{expected[1]}")
    return None


def check_node_count(count: int, n: int) -> str | None:
    if count != n:
        return f"{count} interior nodes, expected {n}"
    return None


def check_degenerate(pairs, l: int, n: int) -> str | None:
    if (l, n) not in set(pairs):
        return f"({l}, {n}) missing from degenerate pairs {sorted(pairs)}"
    return None
