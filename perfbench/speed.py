"""Machine-speed samples, to put times from a noisy shared machine on one scale.

The machine this benchmark was built on shares its cores with other tenants:
the same work took 5.3 s in one run and 8.0 s in the next, and a fixed
kernel's time moved with it.  ``SpeedProbe`` times a fixed kernel that does
not touch zepl every ``INTERVAL_S`` seconds from a SIGALRM handler, so
samples land inside long operations too.  ``python_kernel`` is the mix of
zepl's interpreter-bound paths (scipy's RK45 on a small ODE, numpy on small
arrays, dict and str work); ``array_kernel`` is arithmetic on 1e5-point
arrays, whose speed moves differently.  An operation's time is multiplied by
``reference_s / kernel time`` averaged over the samples around it, which,
with evenly spaced samples, integrates the operation's time on the scale of
a machine where the kernel takes ``reference_s``.  The handler's own time is
subtracted first.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

INTERVAL_S = 0.25
_X = np.geomspace(0.01, 50.0, 240)
_BIG = np.geomspace(1e-3, 80.0, 100_000)


def python_kernel() -> None:
    """Interpreter-bound work, like shooting, quadrature and small grids."""
    solve_ivp(lambda t, y: (y[1], -y[0]), (0.0, 4.0), [1.0, 0.0], rtol=1e-9)
    for _ in range(20):
        _X**1.5 * np.exp(-0.5 * _X) * (1.5 - _X)
    table = {}
    for i in range(3000):
        table[i % 97] = (i, str(i))


def array_kernel() -> None:
    """Arithmetic on 1e5-point arrays, like tabulating a wavefunction."""
    prev, cur = np.ones_like(_BIG), 2.5 - _BIG
    for k in range(2, 6):
        prev, cur = cur, ((2 * k - 0.5 - _BIG) * cur - (k - 0.5) * prev) / k
    _BIG**1.5 * np.exp(-0.5 * _BIG)


# (kernel, its usual time on the machine the reference figures come from)
PYTHON_SCALE = (python_kernel, 2.3e-3)
ARRAY_SCALE = (array_kernel, 2.2e-3)


class SpeedProbe:
    def __init__(self, kernel, reference_s: float):
        self.kernel, self.reference_s = kernel, reference_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        """Best of three kernel runs, so one interruption does not count."""
        start = time.perf_counter()
        best = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.kernel()
            best.append(time.perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.kernel_s.append(min(best))

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def busy(self, t0: float, t1: float) -> float:
        """Time the samples took inside [t0, t1]."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        return sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scale(self, t0: float, t1: float) -> float:
        """Mean of reference_s / kernel time over the samples inside
        [t0, t1] and the nearest one on each side."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1) + 1
        return statistics.fmean(self.reference_s / k for k in self.kernel_s[lo:hi])
