"""Special-function kernel: generalized Laguerre polynomials.

Everything here is stateless and safe to call from any thread.  Degrees stay
small (n <~ 50) in this package, so the upward three-term recurrence is the
right tool; no asymptotic machinery.
"""

from __future__ import annotations

import numpy as np

__all__ = ["laguerre", "laguerre_deriv"]


def _check_degree(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError(f"Laguerre degree must be a non-negative integer, got {n!r}")
    return int(n)


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x).

    Upward recurrence k*L_k = (2k-1+alpha-x)*L_{k-1} - (k-1+alpha)*L_{k-2},
    stable for the degrees used here.  Accepts scalar or ndarray x.
    """
    n = _check_degree(n)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("Laguerre argument must be finite")
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - x) * cur - (k - 1 + alpha) * prev) / k
    return cur if cur.ndim else float(cur)


def laguerre_deriv(n, alpha, x):
    """d/dx L_n^alpha(x) = -L_{n-1}^{alpha+1}(x); zero for the constant L_0."""
    n = _check_degree(n)
    x = np.asarray(x, dtype=float)
    if n == 0:
        z = np.zeros_like(x)
        return z if z.ndim else 0.0
    out = -laguerre(n - 1, alpha + 1.0, x)
    return out


def laguerre_deriv2(n, alpha, x):
    """Second derivative, L_{n-2}^{alpha+2}(x) for n >= 2, else zero."""
    n = _check_degree(n)
    x = np.asarray(x, dtype=float)
    if n < 2:
        z = np.zeros_like(x)
        return z if z.ndim else 0.0
    return laguerre(n - 2, alpha + 2.0, x)
