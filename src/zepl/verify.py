"""Named verification suites: every closed form against its equation and
against the independent oracle, at pinned tolerances.

Each suite returns a list of CheckResult rows; the acceptance registry maps
stable suite names to (description, runner).  The CLI ``verify`` subcommand
and the test suite both drive these.  The two matrix suites check the
(mu, lam, l, n) matrix as stacks of families: the wave-equation residual in
one array pass per degree n, the coordinate-map identity in one pass, each
the formula of the one-family check with a leading family axis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dirac, halfline, oracle, oscillator, powerlaw, specfn

__all__ = ["CheckResult", "ACCEPTANCE", "run_suite", "suite_names"]

RESIDUAL_TOL = 1e-8
PCT_TOL = 1e-10
ORACLE_TOL = 1e-6
NORM_TOL = 1e-8
ORTHO_TOL = 1e-9
LADDER_TOL = 1e-6
THETA_TOL = 1e-12
REDUCED_FORM_TOL = 1e-12

MU_MATRIX = (-2.5, -1.5, -0.75, 1.0 / 6.0, 0.25, 1.5, 2.5)
L_MATRIX = (0, 1, 2)
N_MATRIX = (0, 1, 2, 3, 4)
LAMBDA_MATRIX = (0.7, 1.0, 2.0)


@dataclass(frozen=True)
class CheckResult:
    """One verdict.  ``scales`` is False for rows whose tolerance is not an
    accuracy: pass/fail flags (value 0 or 1 against 0.5) and the runtime
    limit, which ``verify --tolerance-scale`` must leave alone."""

    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""
    scales: bool = True

    @staticmethod
    def from_max(name, value, tolerance, detail="", scales=True):
        return CheckResult(name, float(value), float(tolerance),
                           bool(value < tolerance), detail, scales)

    @staticmethod
    def flag(name, ok, detail=""):
        return CheckResult(name, float(not ok), 0.5, bool(ok), detail, scales=False)


def _families():
    for mu in MU_MATRIX:
        for l in L_MATRIX:
            for n in N_MATRIX:
                for lam in LAMBDA_MATRIX:
                    yield powerlaw.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)


def _worst_over_matrix(maxima) -> tuple[float, powerlaw.PowerLawFamily | None]:
    """Largest per-family max_residual over the matrix, from maxima(families),
    and the first family where it occurs."""
    families = list(_families())
    per_family = maxima(families)
    i = int(np.argmax(per_family))
    return (float(per_family[i]), families[i]) if per_family[i] > 0.0 else (0.0, None)


def suite_zero_energy() -> list[CheckResult]:
    """Wave-equation residual of the closed form over the full matrix."""
    worst, fam = _worst_over_matrix(powerlaw.schrodinger_residual_maxima)
    return [CheckResult.from_max("powerlaw.schrodinger_residual[matrix]", worst,
                                 RESIDUAL_TOL, detail=f"worst at {fam}")]


def suite_pct_identity() -> list[CheckResult]:
    """Coordinate-map identity reproducing the potential and gamma."""
    worst, fam = _worst_over_matrix(powerlaw.pct_identity_maxima)
    return [CheckResult.from_max("powerlaw.pct_identity[matrix]", worst,
                                 PCT_TOL, detail=f"worst at {fam}")]


def suite_degeneracy() -> list[CheckResult]:
    mu = Fraction(3, 2)
    got11 = powerlaw.degenerate_pairs(mu, 11, l_max=6)
    got13 = powerlaw.degenerate_pairs(mu, 13, l_max=6)
    ok11 = got11 == {(0, 4), (1, 2), (2, 0)}
    ok13 = got13 == {(0, 5), (1, 3), (2, 1)}
    return [
        CheckResult.flag("powerlaw.degenerate_pairs[omega=11]", ok11,
                         detail=str(sorted(got11))),
        CheckResult.flag("powerlaw.degenerate_pairs[omega=13]", ok13,
                         detail=str(sorted(got13))),
    ]


# Expected (bounded, normalizable) per regime and l at quantized couplings.
def _table1_expected(mu: float, l: int) -> tuple[bool, bool]:
    if mu < -0.5:
        return (l > 0, l > 0)
    return (True, True)


def suite_table1() -> list[CheckResult]:
    checks = []
    mismatches = []
    for mu in (-1.5, -0.75, 1.0 / 6.0, 0.25, 1.5, 2.5):
        for l in (0, 1, 2):
            fam = powerlaw.PowerLawFamily(mu=mu, lam=1.0, l=l, n=0)
            rep = powerlaw.classify(fam)
            exp_b, exp_n = _table1_expected(mu, l)
            if rep.bounded != exp_b or rep.normalizable != exp_n:
                mismatches.append((mu, l, rep.bounded, rep.normalizable))
            if abs(mu) > 0.5 and l > 0 and rep.condition.status != "satisfied":
                mismatches.append((mu, l, "condition", rep.condition.status))
    checks.append(CheckResult("powerlaw.classify[table-grid]", float(len(mismatches)),
                              0.5, not mismatches, detail=str(mismatches), scales=False))
    # condition-violated sub-rows, constructed with a sub-quantized coupling
    for mu, scale in ((1.5, 0.7), (-1.5, 0.6)):
        fam = powerlaw.PowerLawFamily(mu=mu, lam=1.0, l=1, n=0)
        rep = powerlaw.classify(fam, coupling_scale=scale)
        ok = (not rep.bounded) and rep.normalizable and rep.condition.status == "violated"
        checks.append(CheckResult.flag(
            f"powerlaw.classify[violated-row mu={mu:+g}]", ok,
            detail=f"bounded={rep.bounded} normalizable={rep.normalizable} "
                   f"condition={rep.condition.status}"))
    return checks


def suite_special_case() -> list[CheckResult]:
    """mu = 3/2: repulsive-Coulomb form of the potential and wavefunction."""
    worst_v, worst_psi = 0.0, 0.0
    for lam in LAMBDA_MATRIX:
        for l, n in ((0, 0), (1, 2), (2, 4)):
            fam = powerlaw.PowerLawFamily(mu=1.5, lam=lam, l=l, n=n)
            z = lam**4 / 32.0
            r = np.geomspace(0.5, 50.0, 200) / z
            v = powerlaw.potential_eval(fam, r)
            v_ref = z / r - math.sqrt(z / 2.0) * (2 * l + n + 1.5) / r**1.5
            worst_v = max(worst_v, float(np.max(np.abs(v - v_ref) / np.abs(v_ref))))
            psi = powerlaw.wavefunction(fam).value(r)
            ref = ((z * r) ** (l + 1) * np.exp(-2.0 * np.sqrt(2.0 * z * r))
                   * specfn.laguerre(n, 4 * l + 2, 4.0 * np.sqrt(2.0 * z * r)))
            good = np.abs(ref) > 1e-6 * np.abs(ref).max()
            ratio = psi[good] / ref[good]
            worst_psi = max(worst_psi, float(ratio.std() / abs(ratio.mean())))
    return [
        CheckResult.from_max("powerlaw.potential[mu=3/2 coulomb form]", worst_v, 1e-12),
        CheckResult.from_max("powerlaw.wavefunction[mu=3/2 ratio variation]", worst_psi, 1e-10),
    ]


def suite_oracle_coupling() -> list[CheckResult]:
    """Shooting recovery of the quantized attractive couplings (no closed
    form enters); runtime is part of the criterion."""
    t0 = time.perf_counter()
    res = oracle.shoot_coupling(1.5, 1.0, 1, count=3)
    elapsed = time.perf_counter() - t0
    predicted = [(2 * n + 7) / 16.0 for n in range(3)]
    err = max(abs(v - p) / p for v, p in zip(res.values, predicted)) if len(res.values) == 3 else math.inf
    nodes_ok = res.node_counts == [0, 1, 2]
    spacing = [b - a for a, b in zip(res.values, res.values[1:])]
    spacing_err = max(abs(s - 0.125) for s in spacing) if spacing else math.inf
    return [
        CheckResult.from_max("oracle.shoot_coupling[mu=3/2 l=1 D_n]", err, ORACLE_TOL,
                             detail=f"recovered={res.values}"),
        CheckResult.flag("oracle.shoot_coupling[node counts]", nodes_ok,
                         detail=str(res.node_counts)),
        CheckResult.from_max("oracle.shoot_coupling[spacing 2(lam/(2mu+1))^2]",
                             spacing_err, ORACLE_TOL),
        CheckResult.from_max("oracle.shoot_coupling[runtime s]", elapsed, 60.0,
                             scales=False),
    ]


def suite_dirac() -> list[CheckResult]:
    pairs = ((0.5, 0), (0.5, 1), (3.0, 1), (-0.5, 1))
    worst_theta = worst_res = worst_norm = worst_reduced = worst_n = 0.0
    for beta, l in pairs:
        fam = dirac.DiracFamily(beta=beta, lam=1.0, l=l)
        worst_theta = max(worst_theta, dirac.lower_component_relative(fam))
        worst_res = max(worst_res, dirac.residual_33(fam).max_residual)
        worst_reduced = max(worst_reduced, dirac.reduced_form_agreement(fam))
        worst_norm = max(worst_norm, abs(dirac.spinor_norm(fam).value - 1.0))
        worst_n = max(worst_n, abs(fam.n))
    return [
        CheckResult.from_max("dirac.lower_component[theta == 0]", worst_theta, THETA_TOL),
        CheckResult.from_max("dirac.residual_33[matrix]", worst_res, RESIDUAL_TOL),
        CheckResult.from_max("dirac.reduced_form_agreement", worst_reduced, REDUCED_FORM_TOL),
        CheckResult.from_max("dirac.norm[C_l formula vs quadrature]", worst_norm, NORM_TOL,
                             detail="quadrature is the independent check of the closed-form C_l"),
        CheckResult.flag("dirac.correspondence[n forced to 0]", worst_n < 1e-12,
                         detail=f"max |n| = {worst_n:.1e}"),
    ]


def suite_halfline() -> list[CheckResult]:
    worst = max(halfline.residual_41(N, n).max_residual
                for N in (-3, -1, 0, 1, 3) for n in range(4))
    checks = [CheckResult.from_max("halfline.residual[matrix]", worst, RESIDUAL_TOL)]
    for N in (0, -1):
        res = oracle.shoot_energy_bender(N, count=2)
        expected = [halfline.spectrum(N, n) for n in range(2)]
        err = (max(abs(v - e) / e for v, e in zip(res.values, expected))
               if len(res.values) == 2 else math.inf)
        checks.append(CheckResult.from_max(
            f"oracle.shoot_energy[N={N}]", err, ORACLE_TOL,
            detail=f"recovered={res.values}"))
    return checks


def suite_oscillator() -> list[CheckResult]:
    worst_ortho = 0.0
    for gamma, lam in ((0.5, 1.0), (1.75, 0.6)):
        fns = [oscillator.phi(oscillator.OscillatorState(gamma, n, lam)) for n in range(6)]
        for m in range(6):
            for n in range(m, 6):
                a, b = fns[m], fns[n]  # psi_m psi_n = E_m^2 L_m L_n A_n/A_m
                h = lambda w, a=a, b=b: math.exp(b.log_amplitude - a.log_amplitude) * (
                    specfn.laguerre(a.degree, a.order, w) * specfn.laguerre(b.degree, b.order, w))
                val = oracle.quad_seminfinite(a.integrand(h), 1e-11, atol=1e-12).value
                target = 1.0 if m == n else 0.0
                worst_ortho = max(worst_ortho, abs(val - target))
    worst_res = max(oscillator.residual_a5(oscillator.OscillatorState(*s)).max_residual
                    for s in ((0.5, 0, 1.0), (0.5, 3, 1.0), (2.25, 4, 0.7), (1.75, 2, 0.6)))
    worst_ladder = 0.0
    sigmas = set()
    for gamma, n in ((0.5, 0), (0.5, 2), (1.75, 1), (2.25, 3)):
        rep = oscillator.ladder_check(gamma, n)
        sigmas.add(rep.sigma)
        worst_ladder = max(worst_ladder, rep.l3_max_rel_dev,
                           abs(rep.lplus_norm_ratio / rep.lplus_expected - 1.0),
                           rep.lminus_annihilation)
    sigma_ok = len(sigmas) == 1
    return [
        CheckResult.from_max("oscillator.orthonormality[m,n<=5]", worst_ortho, ORTHO_TOL),
        CheckResult.from_max("oscillator.residual[matrix]", worst_res, RESIDUAL_TOL),
        CheckResult.from_max("oscillator.ladder[coefficients]", worst_ladder, LADDER_TOL),
        CheckResult.flag("oscillator.ladder[single global sign]", sigma_ok,
                         detail=f"sigma={sorted(sigmas)}"),
    ]


def suite_exceptional() -> list[CheckResult]:
    """Unbounded-but-normalizable bookkeeping around mu = -3/2, l = 1, n = 0."""
    fam = powerlaw.PowerLawFamily(mu=-1.5, lam=1.0, l=1, n=0)
    nr = powerlaw.norm(fam)
    checks = [CheckResult("powerlaw.norm[mu=-3/2 l=1 finite]",
                          abs((nr.value or math.inf) - 1.0), 1e-9,
                          bool(nr.finite and abs(nr.value - 1.0) < 1e-9))]
    rep = powerlaw.classify(fam)
    ok_quantized = rep.bounded and rep.normalizable and rep.condition.status == "satisfied"
    checks.append(CheckResult.flag("powerlaw.classify[mu=-3/2 l=1 quantized]",
                                   ok_quantized,
                                   detail=f"bounded={rep.bounded} cond={rep.condition.status}"))
    # when the necessary condition fails (sub-quantized coupling) the same
    # family reports unbounded while staying normalizable: the exceptional
    # combination is emitted by one report
    rep2 = powerlaw.classify(fam, coupling_scale=0.6)
    ok_exc = ((not rep2.bounded) and rep2.normalizable
              and rep2.condition.status == "violated")
    checks.append(CheckResult.flag("powerlaw.classify[exceptional combination]",
                                   ok_exc,
                                   detail=f"bounded={rep2.bounded} "
                                          f"normalizable={rep2.normalizable} "
                                          f"cond={rep2.condition.status}"))
    l0 = powerlaw.norm(powerlaw.PowerLawFamily(mu=-1.5, lam=1.0, l=0, n=0))
    checks.append(CheckResult.flag("powerlaw.norm[mu=-3/2 l=0 divergent]",
                                   not l0.finite))
    return checks


def suite_specfn() -> list[CheckResult]:
    checks = []
    l2 = specfn.laguerre(2, 1.0, 2.0)
    checks.append(CheckResult.from_max("specfn.laguerre[L2^1(2) = -1]",
                                       abs(l2 + 1.0), 1e-14))
    q = oracle.quad_seminfinite(lambda t: np.exp(3.0 * t - np.exp(2.0 * t)), 1e-12)
    checks.append(CheckResult.from_max("oracle.quad[gaussian moment]",
                                       abs(q.value - math.sqrt(math.pi) / 4.0), 1e-11))
    return checks


ACCEPTANCE: dict[str, tuple[str, callable]] = {
    "zero_energy": ("1. wave-equation residual < 1e-8 over the family matrix",
                    suite_zero_energy),
    "pct_identity": ("2. coordinate-map identity < 1e-10 over the matrix",
                     suite_pct_identity),
    "degeneracy": ("3. degenerate (l, n) sets at mu = 3/2", suite_degeneracy),
    "table1": ("4. boundedness/normalizability table over the mu/l grid",
               suite_table1),
    "special_case": ("5. mu = 3/2 repulsive-Coulomb closed forms", suite_special_case),
    "oracle_coupling": ("6. shooting recovers D_n = (2n+7)/16 with node counts",
                        suite_oracle_coupling),
    "dirac": ("7. spinor suite: theta == 0, residual, norm, n = 0", suite_dirac),
    "halfline": ("8. half-line residuals and energy shooting", suite_halfline),
    "oscillator": ("9. orthonormality, wave-equation residual, ladder", suite_oscillator),
    "exceptional": ("10. exceptional-state norm and verdict bookkeeping",
                    suite_exceptional),
}

_EXTRA_SUITES = {
    "specfn": ("special-function kernel spot checks", suite_specfn),
}


def suite_names() -> list[str]:
    return list(ACCEPTANCE) + list(_EXTRA_SUITES)


def run_suite(name: str) -> list[CheckResult]:
    table = {**ACCEPTANCE, **_EXTRA_SUITES}
    if name not in table:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(table)}")
    return table[name][1]()

