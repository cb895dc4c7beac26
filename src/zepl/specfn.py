"""Special-function kernel: generalized Laguerre polynomials.

Everything here is stateless and safe to call from any thread.  The upward
three-term recurrence (Gil, Segura and Temme, *Numerical Methods for
Special Functions*, SIAM 2007) is the one tool, with no asymptotic
machinery.  It runs in monic form,

    P_k = (x - (2k-1+alpha)) P_(k-1) - (k-1)(k-1+alpha) P_(k-2),

P_k = (-1)^k k! L_k^alpha, because there the coefficients are plain
numbers: a degree is four in-place array passes over three buffers
allocated once per call (x - c, times P_(k-1), d P_(k-2), the difference),
where the classical form k L_k = (2k-1+alpha-x) L_(k-1) - (k-1+alpha) L_(k-2)
takes five passes and allocates an array at each.  Left alone, P_k carries
k! and leaves the floats near k = 170, so before degrees 11, 19, 27, ...
both buffers are multiplied by the power of 2 nearest below 1/(c m), c the
scale they carry and m the product of the next eight k: a scalar the
recurrence carries, and the last step divides it out (below degree 11 the
buffers carry at most 10!, and small degrees skip the two passes).
Dividing ahead keeps the buffers no larger than L, where dividing by the
last eight k afterwards let them carry up to seven k more and overflow at
n = 158 on the grids below; a power of 2 makes the rescale exact, so that
``laguerre_pair(n)``'s second entry is ``laguerre(n - 1)`` to the bit.
The values still leave the floats where L does: on the closed forms'
grids of (mu, lam, l) = (3/2, 1, 1), (-5/2, 1, 0) and (1/4, 1, 2) at
n = 164 (at 162 with the classical form), and the products of its values
in ``euler`` already at n = 160.  ROADMAP item 3 owns the per-point
rescale that lifts that limit, an extension of the carried scale here.
There is one copy of the recurrence: ``laguerre_pair`` returns the last
two degrees it passes through, (L_n^alpha, L_(n-1)^alpha) with
L_(-1) = 0, from which Laguerre's identities give the derivatives without
another recurrence; ``laguerre`` is its first entry.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["laguerre", "laguerre_pair", "check_index"]

_RESCALE = 8  # degrees between rescales of the monic pair


def check_index(value, name: str) -> int:
    """value as an int where it is a non-negative integer, which a bool is not:
    the one check of every degree, state index and angular momentum."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def laguerre_pair(n, alpha, x):
    """(L_n^alpha(x), L_(n-1)^alpha(x)), with L_(-1) = 0.

    Accepts scalar or ndarray x, and alpha a number or an array that
    broadcasts against x; both entries are floats at a scalar x and fresh
    arrays otherwise.  x is never written.  Degrees 0 and 1 are their closed
    expressions; from degree 2 on, the monic recurrence of the module
    docstring runs in place, and the pair is restored as
    L_k = (-1)^k P_k/f_k, f_k the part of k! that P_k still carries.
    """
    n = check_index(n, "Laguerre degree")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("Laguerre argument must be finite")
    if n == 0:
        prev, cur = np.zeros_like(x), np.ones_like(x)
    elif n == 1:
        prev, cur = np.ones_like(x), 1.0 + alpha - x
    else:
        # P_1 and P_2 as 0-d arrays at a scalar x, so that out= can name them
        prev = np.asarray(x - (1.0 + alpha))
        cur = np.asarray(x - (3.0 + alpha))
        cur *= prev
        cur -= 1.0 + alpha
        spare, below, scale = np.empty_like(cur), 1.0, 2.0
        for k in range(3, n + 1):
            if k % _RESCALE == 3 and k > 3:  # degrees 11, 19, 27, ...
                step = 2.0 ** -math.frexp(scale * math.prod(range(k, k + _RESCALE)))[1]
                prev *= step
                cur *= step
                scale *= step
            np.subtract(x, 2 * k - 1 + alpha, out=spare)
            np.multiply(spare, cur, out=spare)
            np.multiply(prev, (k - 1) * (k - 1 + alpha), out=prev)
            np.subtract(spare, prev, out=spare)
            prev, cur, spare = cur, spare, prev
            below, scale = scale, scale * k
        sign = -1.0 if n % 2 else 1.0
        cur /= sign * scale
        prev /= -sign * below
    return (cur, prev) if cur.ndim else (float(cur), float(prev))


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x): ``laguerre_pair``'s first entry."""
    return laguerre_pair(n, alpha, x)[0]
