"""Seeded inputs for the four workloads.  Plain parameters only: nothing here
imports zepl, and the same seed always gives the same inputs.

Every round of a workload runs the same list of operations, so the share of
failed operations is the same in every run.  Operations that fail today do so
on fixed inputs (``FAULT_CASES``); seeded draws that would run into those
faults are set aside by ``clear_of_faults`` and counted by ``faults.py``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from refcheck import paper_shape, radial_grid

# The 315-family verify matrix, with exact rational mu.
MATRIX_MU = (Fraction(-5, 2), Fraction(-3, 2), Fraction(-3, 4), Fraction(1, 6),
             Fraction(1, 4), Fraction(3, 2), Fraction(5, 2))
MATRIX_L = (0, 1, 2)
MATRIX_N = (0, 1, 2, 3, 4)
MATRIX_LAM = (0.7, 1.0, 2.0)

# Family draws: mu = k/40 with |mu| <= 5, kept 0.05 from {0, +-1/2};
# l <= 4, n <= 20, lam in [0.5, 2].  A fixed count is drawn for each l and
# side of mu = -1/2, so every seed runs the same mix of regimes.  The cell
# l = 0, mu < -1/2 (divergent norm) is left to the matrix: there norm()
# runs quad_seminfinite for 0.01 s or 0.6 s depending on the draw, which
# would make the round's cost depend on the seed.
FAMILY_CELLS = tuple((l, below) for l in range(5) for below in (True, False)
                     if l > 0 or not below)
FAMILY_DRAWS_PER_CELL = 14   # x 9 cells = 126 draws
FAMILY_F2_MARGIN = 0.15      # |mu + 1/2| below ~0.12 overflows w (fault F2)
SCAN_DECADES = 5             # classify scans turning_scale * 10^(+-5) (fault F1)
F1_MARGIN_DECADES = 1        # keep the well this far inside the scan window

# Operations that fail at every run because of a named program fault.
FAULT_CASES = (
    # F1: the well sits outside classify's scan window, so bounded=False.
    ("F1", Fraction(41, 10), 0.93, 1, 9),
    ("F1", Fraction(3, 2), 1.0, 1, 40),
    ("F1", Fraction(-17, 4), 1.7, 3, 18),
    # F2: w = lam^2 r^(1/(mu+1/2)) overflows and the Laguerre kernel raises.
    ("F2", Fraction(-29, 50), 1.0, 1, 5),
    ("F2", Fraction(-9, 20), 1.3, 2, 7),
)

# Shooting cases that verify --all never runs: mu < -1/2 (other start
# conditions, match-radius scan on every inward sweep), |mu| < 1/2, and N = 1.
ORACLE_COUPLING_CASES = ((-0.75, 1), (-1.5, 1), (-2.5, 2), (0.25, 0))
ORACLE_LAM_RANGE = (0.8, 1.25)
ORACLE_COUNT = 3
ORACLE_ENERGY_N = 1
ORACLE_ENERGY_COUNT = 2
ORACLE_REPEATS = 2   # each op twice per round, so op_p50_ms rests on two samples

# Dense tabulation: one family per n below (the Laguerre recurrence costs
# O(n) per point, so n is fixed and the seed draws mu, lam and l), with
# |mu + 1/2| >= 0.2, l <= 4, lam in [0.5, 2] and a finite norm.
GRID_N = (10, 14, 18, 22, 26, 30)
GRID_POINTS = 100_000


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def matrix_families() -> list[tuple]:
    return [(mu, lam, l, n) for mu in MATRIX_MU for l in MATRIX_L
            for n in MATRIX_N for lam in MATRIX_LAM]


def _well_in_window(mu: float, lam: float, l: int, n: int) -> bool:
    """True when the well of V_eff and the barrier beyond it both lie at least
    F1_MARGIN_DECADES inside classify's scan window.  Uses
    r^2 V_eff = l(l+1) + (b^2 lam^4/4) s^2 - (b^2 lam^2 Omega_b/2) s,
    s = r^(+-b), which is negative between the roots of the quadratic."""
    if l == 0 or abs(mu) < 0.5:
        return True  # classify decides these without scanning
    q = mu + 0.5
    b = 1.0 / abs(q)
    sign = 1.0 if q > 0 else -1.0
    a2 = b * b * lam**4 / 4.0
    a1 = b * b * lam**2 * (2 * n + 1 + (2 * l + 1) / b) / 2.0
    a0 = float(l * (l + 1))
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc <= 0:
        return False
    s_lo, s_hi = (a1 - math.sqrt(disc)) / (2 * a2), (a1 + math.sqrt(disc)) / (2 * a2)
    s = np.geomspace(s_lo, s_hi, 2001)[1:-1]
    r = s ** (sign / b)
    well = r[np.argmin((a0 + a2 * s * s - a1 * s) / r**2)]
    outer = (s_hi if sign > 0 else s_lo) ** (sign / b)
    # turning scale: attractive over repulsive coefficient, to the power
    # 1/(p1 - p2) = mu + 1/2
    r0 = (2.0 * (2 * n + 1 + (2 * l + 1) * abs(q)) / lam**2) ** q
    inside = 10.0 ** (SCAN_DECADES - F1_MARGIN_DECADES)
    return r0 / inside < well and outer < r0 * inside


def _draw(rng: random.Random, l: int, below: bool) -> tuple:
    ks = range(-200, -20) if below else range(-19, 201)
    while True:
        mu = Fraction(rng.choice(ks), 40)
        if min(abs(mu), abs(mu - Fraction(1, 2)), abs(mu + Fraction(1, 2))) >= Fraction(1, 20):
            break
    return (mu, round(rng.uniform(0.5, 2.0), 6), l, rng.randint(0, 20))


def clear_of_faults(mu, lam: float, l: int, n: int) -> bool:
    """False when a known fault (F1 or F2) would make the family fail."""
    return abs(float(mu) + 0.5) >= FAMILY_F2_MARGIN and _well_in_window(float(mu), lam, l, n)


def family_draws(seed: int) -> tuple[list[tuple], list[tuple]]:
    """(kept draws, draws set aside because a known fault would fail them).
    Each l and each side of mu = -1/2 gets the same number of kept draws."""
    rng = _rng(seed, "family_sweep")
    kept, aside = [], []
    for l, below in FAMILY_CELLS:
        got = 0
        while got < FAMILY_DRAWS_PER_CELL:
            fam = _draw(rng, l, below)
            if clear_of_faults(*fam):
                kept.append(fam)
                got += 1
            else:
                aside.append(fam)
    return kept, aside


def family_inputs(seed: int) -> list[tuple]:
    """One round: the matrix, the seeded draws, then the fault cases.
    Entries are (label, mu, lam, l, n); label is None or the fault name."""
    kept, _ = family_draws(seed)
    return ([(None, *f) for f in matrix_families()] + [(None, *f) for f in kept]
            + list(FAULT_CASES))


def oracle_inputs(seed: int) -> list[tuple]:
    """One round: each coupling case at a seeded lam, plus the energy case,
    each ORACLE_REPEATS times in seeded order.  Entries are
    ("coupling", mu, lam, l, count) or ("energy", N, count)."""
    rng = _rng(seed, "oracle_sweep")
    ops = [("coupling", mu, round(rng.uniform(*ORACLE_LAM_RANGE), 6), l, ORACLE_COUNT)
           for mu, l in ORACLE_COUPLING_CASES]
    ops.append(("energy", ORACLE_ENERGY_N, ORACLE_ENERGY_COUNT))
    ops *= ORACLE_REPEATS
    rng.shuffle(ops)
    return ops


def grid_inputs(seed: int) -> list[tuple]:
    """(mu, lam, l, n, r_grid) for each tabulated family; the grid spans the
    Laguerre argument w from 1e-3 to well past the last node."""
    rng = _rng(seed, "grid_tabulate")
    out = []
    for n in GRID_N:
        while True:
            mu = Fraction(rng.randint(-200, 200), 40)
            l = rng.randint(0, 4)
            if (abs(mu + Fraction(1, 2)) >= Fraction(1, 5)
                    and min(abs(mu), abs(mu - Fraction(1, 2))) >= Fraction(1, 20)
                    and not (mu < Fraction(-1, 2) and l == 0)):
                break
        lam = round(rng.uniform(0.5, 2.0), 6)
        grid = radial_grid(paper_shape(float(mu), lam, l, n), GRID_POINTS)
        out.append((mu, lam, l, n, grid))
    return out
