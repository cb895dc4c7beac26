"""Special-function kernel: generalized Laguerre polynomials.

Everything here is stateless and safe to call from any thread.  The upward
three-term recurrence is the one tool, with no asymptotic machinery and no
rescaling, and on the closed forms' grids it leaves the floats near n = 160
for some families: at (mu, lam, l) = (3/2, 1, 1), (-5/2, 1, 0) and
(1/4, 1, 2) the products of its values overflow in ``euler`` at n = 160.
ROADMAP item 3 owns the rescale, which goes into ``laguerre_pair``, the
kernel that ``ClosedFormSolution._terms`` calls once per block of points.
There is one copy of the recurrence: ``laguerre_pair`` returns the last two
degrees it passes through, (L_n^alpha, L_(n-1)^alpha) with L_(-1) = 0, from
which Laguerre's identities give the derivatives without another
recurrence; ``laguerre`` is its first entry.
"""

from __future__ import annotations

import numpy as np

__all__ = ["laguerre", "laguerre_pair"]


def _check_degree(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError(f"Laguerre degree must be a non-negative integer, got {n!r}")
    return int(n)


def laguerre_pair(n, alpha, x):
    """(L_n^alpha(x), L_(n-1)^alpha(x)), with L_(-1) = 0.

    Upward recurrence k*L_k = (2k-1+alpha-x)*L_{k-1} - (k-1+alpha)*L_{k-2},
    stable for the degrees used here.  Accepts scalar or ndarray x; both
    entries are floats at a scalar x and arrays of x's shape otherwise.
    """
    n = _check_degree(n)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("Laguerre argument must be finite")
    if n == 0:
        prev, cur = np.zeros_like(x), np.ones_like(x)
    else:  # L_0 = 1 takes x's shape only where it is returned
        prev, cur = np.ones_like(x) if n == 1 else 1.0, 1.0 + alpha - x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - x) * cur - (k - 1 + alpha) * prev) / k
    return (cur, prev) if cur.ndim else (float(cur), float(prev))


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x): ``laguerre_pair``'s first entry."""
    return laguerre_pair(n, alpha, x)[0]

