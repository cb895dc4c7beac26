import ast
import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from zepl import oracle, powerlaw


# --- quadrature ---------------------------------------------------------------
# quad_seminfinite takes x f(x) at t = log x: these are integrals of f over x > 0

def test_quad_exponential():
    q = oracle.quad_seminfinite(lambda t: np.exp(t - np.exp(t)), 1e-10)
    assert q.converged
    assert q.value == pytest.approx(1.0, rel=1e-10)


def test_quad_gaussian_moment():
    q = oracle.quad_seminfinite(lambda t: np.exp(3.0 * t - np.exp(2.0 * t)), 1e-12)
    assert q.converged
    assert q.value == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-11)


def test_quad_divergent_flags():
    q = oracle.quad_seminfinite(lambda t: np.ones_like(t), 1e-8)
    assert not q.converged
    assert "truncated" in q.note or "budget" in q.note


def test_quad_tol_validated():
    for bad in (1e-14, 1e-5, 0.0):
        with pytest.raises(ValueError):
            oracle.quad_seminfinite(lambda t: np.exp(t - np.exp(t)), bad)


def test_quad_self_consistency_on_tol_halving():
    f = lambda t: np.exp(4.0 * t - 1.7 * np.exp(t))
    coarse = oracle.quad_seminfinite(f, 1e-8)
    fine = oracle.quad_seminfinite(f, 5e-9)
    assert abs(coarse.value - fine.value) <= coarse.error + fine.error


def test_quad_shifted_scale():
    # mass far from r ~ 1 must still be found by the window expansion
    q = oracle.quad_seminfinite(lambda t: np.exp(t - (t - 15.0) ** 2), 1e-9)
    assert q.converged
    assert q.value == pytest.approx(math.sqrt(math.pi) * math.exp(15.0 + 0.25), rel=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [3e-4, 1e-6])
def test_quad_reaches_a_slow_tail_at_the_origin(a):
    # x^(a-1) e^-x decays like e^(a t) as t -> -inf: in t alone the window
    # reaches the end of the scan, read 0.19 and 7e-4 of Gamma(a), unconverged
    q = oracle.quad_seminfinite(lambda t: np.exp(a * t - np.exp(t)), 1e-10)
    assert q.converged and q.value == pytest.approx(math.gamma(a), rel=1e-10)


@pytest.mark.filterwarnings("error")
def test_quad_all_zero_integrand_is_unconverged():
    # no sample is nonzero: whatever mass there is lies beyond the floats
    q = oracle.quad_seminfinite(lambda t: np.zeros_like(t), 1e-10)
    assert not q.converged and q.value == 0.0
    assert "beyond the floats" in q.note


@pytest.mark.filterwarnings("error")
def test_quad_error_estimate_is_scale_free():
    f = lambda t: np.exp(4.0 * t - 1.7 * np.exp(t))
    q, tiny = (oracle.quad_seminfinite(lambda t, s=s: s * f(t), 1e-10) for s in (1.0, 1e-20))
    assert q.converged and tiny.converged and q.panels == tiny.panels
    assert tiny.error / q.error == pytest.approx(1e-20, rel=1e-6)


@pytest.mark.parametrize("mu, lam, l, n, scan_sum",
                         [(1.5, 1.0, 0, 40, 0.17), (1.5, 1.0, 2, 5, 1.10)])
def test_quad_refines_the_scan_step(mu, lam, l, n, scan_sum):
    # the trapezoid sum at the scan's step 0.5 misses these unit norms by far;
    # halving the step must reach them
    h = powerlaw.wavefunction(powerlaw.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)).integrand()
    sigma = np.linspace(-704.0, 704.0, 2817)
    with np.errstate(all="ignore"):
        g = np.asarray(h(sigma - np.exp(-sigma))) * (1.0 + np.exp(-sigma))
    assert 0.5 * np.sum(g[np.isfinite(g)]) == pytest.approx(scan_sum, abs=0.01)
    q = oracle.quad_seminfinite(h, 1e-10)
    assert q.converged and q.panels > 0 and abs(q.value - 1.0) <= 1e-10


@pytest.mark.filterwarnings("error")
def test_quad_budget_that_cannot_be_met_is_unconverged():
    # a kink: the trapezoidal rule converges only like step^2, so the sample
    # budget runs out long before 1e-10
    start = time.perf_counter()
    q = oracle.quad_seminfinite(lambda t: np.exp(t - np.exp(t)) * np.abs(t - 0.3), 1e-10)
    assert time.perf_counter() - start < 0.5
    assert not q.converged and "budget" in q.note
    assert 0 < q.panels <= 30_000 and q.error > 1e-10 * abs(q.value)


def test_quad_result_holds_python_scalars():
    # the JSON envelope and perfbench's counters serialize these fields
    for q in (oracle.quad_seminfinite(lambda t: np.exp(t - np.exp(t)), 1e-10),
              oracle.quad_seminfinite(lambda t: np.ones_like(t), 1e-8)):
        assert type(q.panels) is int and type(q.value) is float and type(q.error) is float


# --- radial integration ---------------------------------------------------------

def _constant_ode(r2q):
    return oracle.RadialODE(r2q=lambda t, c: r2q,
                            ends=lambda c: (math.log(1e-3), 0.0, math.log(10.0)),
                            inner_slope=lambda t, c: 1.0, outer_slope=lambda t, c: 0.0,
                            guess=lambda n: 1.0)


def test_free_particle_log_derivative():
    # u'' = 0 from the regular start u ~ r: log-derivative 1/r, 1 at r = 1
    ode = _constant_ode(0.0)
    traj = oracle.integrate_radial(ode, 0.0, "outward")
    assert traj.end_du / traj.end_u == pytest.approx(1.0, abs=1e-8)
    assert math.floor(traj.end_theta / math.pi) == 0  # no zero on the way


def test_inward_direction_and_renormalization():
    # u'' = u with the WKB decaying outer start: u ~ e^(-r), log-derivative -1;
    # 59 units of decay leave the unit-amplitude end finite
    r2q = lambda t, c: math.exp(2.0 * t)
    ode = oracle.RadialODE(r2q=r2q, ends=lambda c: (math.log(0.1), 0.0, math.log(60.0)),
                           inner_slope=lambda t, c: 1.0,
                           outer_slope=oracle._wkb_slope(r2q, -1.0), guess=lambda n: 1.0)
    traj = oracle.integrate_radial(ode, 0.0, "inward")
    assert traj.end_du / traj.end_u == pytest.approx(-1.0, rel=1e-6)
    assert math.isfinite(traj.end_u) and math.isfinite(traj.end_du)


def test_direction_validated():
    ode = _constant_ode(0.0)
    with pytest.raises(ValueError):
        oracle.integrate_radial(ode, 0.0, "sideways")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r2q, reason", [(math.nan, "End angle nan"), (-1e12, "Excess work")])
def test_a_sweep_that_cannot_finish_raises(r2q, reason):
    # a nan r^2 q used to end on a nan angle silently; -1e12 turns the angle
    # about 1e6 times per unit of log r and used to run for minutes with no
    # step budget.  lsoda's warning is not let out: the error says it
    with pytest.raises(RuntimeError, match=rf"log r in \[-6.90776, 0\]: .*{reason}"):
        oracle.integrate_radial(_constant_ode(r2q), 0.0, "outward")


# --- coupling shooting -----------------------------------------------------------

def test_mismatch_brackets_each_root():
    ode = oracle.build_powerlaw_ode(1.5, 1.0, 1)
    d0 = 7.0 / 16.0
    lo = oracle.coupling_mismatch(ode, d0 - 0.02)[0]
    hi = oracle.coupling_mismatch(ode, d0 + 0.02)[0]
    at = oracle.coupling_mismatch(ode, d0)[0]
    assert lo * hi < 0
    assert abs(at) < 1e-7


def test_shoot_coupling_l0():
    res = oracle.shoot_coupling(1.5, 1.0, 0, count=2)
    predicted = [(2 * n + 3) / 16.0 for n in range(2)]
    assert len(res.values) == 2
    for got, want in zip(res.values, predicted):
        assert got == pytest.approx(want, rel=1e-6)
    assert res.node_counts == [0, 1]
    assert res.values == sorted(res.values)


def test_shoot_coupling_below_branch():
    res = oracle.shoot_coupling(-1.5, 1.0, 1, count=2)
    predicted = [(2 * n + 4) / 4.0 for n in range(2)]
    for got, want in zip(res.values, predicted):
        assert got == pytest.approx(want, rel=1e-6)
    assert res.node_counts == [0, 1]


def test_shoot_coupling_count_capped():
    with pytest.raises(ValueError):
        oracle.shoot_coupling(1.5, 1.0, 1, count=7)


# --- spectral shooting -----------------------------------------------------------

def test_shoot_energy_quartic_plus_linear():
    res = oracle.shoot_energy_bender(1, count=2)
    assert res.values[0] == pytest.approx(4.0, rel=1e-6)
    assert res.values[1] == pytest.approx(10.0, rel=1e-6)
    assert res.node_counts == [0, 1]


def test_shoot_energy_validation():
    with pytest.raises(ValueError):
        oracle.shoot_energy_bender(2, count=2)
    with pytest.raises(ValueError):
        oracle.shoot_energy_bender(0, count=9)


# --- Pruefer-angle search ------------------------------------------------------

def _coupling_levels(mu, lam, l, count):
    unit = (lam / (2.0 * mu + 1.0)) ** 2
    return [unit * (2 * n + 1 + (2 * l + 1) * abs(mu + 0.5)) for n in range(count)]


def test_start_angle_counts_zeros_inside_the_start_radius():
    # the n = 5 level at (1/4, 1, 0) must not be skipped for the n = 6 one
    res = oracle.shoot_coupling(0.25, 1.0, 0, count=6)
    expected = [(4.0 / 9.0) * (2 * n + 1.75) for n in range(6)]
    for got, want in zip(res.values, expected, strict=True):
        assert abs(got - want) < 1e-9
    assert res.node_counts == list(range(6))


@pytest.mark.parametrize("mu, lam, l, count", [
    (1.5, 1.0, 1, 6), (-2.5, 1.0, 2, 6), (-0.75, 1.0, 2, 6), (1.0 / 6.0, 2.0, 1, 6)])
def test_shoot_coupling_at_count_cap(mu, lam, l, count):
    res = oracle.shoot_coupling(mu, lam, l, count=count)
    for got, want in zip(res.values, _coupling_levels(mu, lam, l, count), strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == list(range(count))


@pytest.mark.parametrize("n_power", [-1, 0, 1, 3])
def test_shoot_energy_at_count_cap(n_power):
    res = oracle.shoot_energy_bender(n_power, count=4)
    expected = [(2 * n + 1) * abs(n_power + 2) + 1.0 for n in range(4)]
    for got, want in zip(res.values, expected, strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == [0, 1, 2, 3]


@pytest.mark.parametrize("mu, l, coupling", [(1.5, 1, 0.5), (-1.5, 1, 2.2), (0.25, 0, 3.0)])
def test_mismatch_is_the_scaled_wronskian(mu, l, coupling):
    ode = oracle.build_powerlaw_ode(mu, 1.0, l)
    mismatch, out, inn = oracle.coupling_mismatch(ode, coupling)
    t_inner, t_match, t_outer = ode.ends(coupling)
    assert t_inner + math.log(3.0) < t_match < t_outer - math.log(3.0)  # no clamp
    rm = math.exp(t_match)
    w = out.end_du * inn.end_u - inn.end_du * out.end_u
    scale = math.sqrt((out.end_u**2 + (rm * out.end_du) ** 2)
                      * (inn.end_u**2 + (rm * inn.end_du) ** 2))
    assert mismatch == pytest.approx(w * rm / scale, abs=1e-12)
    assert abs(mismatch) > 1e-3  # off the spectrum


def test_shooting_diagnostics_count_the_work():
    res = oracle.shoot_energy_bender(0, count=2)
    diag = res.diagnostics
    assert set(diag) == {"mismatch_evals", "ode_sweeps", "rhs_evals", "fallback_sweeps"}
    assert all(isinstance(v, int) for v in diag.values())
    assert diag["mismatch_evals"] > 0 and diag["fallback_sweeps"] == 0
    assert diag["ode_sweeps"] == 2 * diag["mismatch_evals"]
    assert diag["rhs_evals"] > diag["ode_sweeps"]


@pytest.mark.parametrize("shoot, args, count", [
    (oracle.shoot_coupling, (-0.75, 1.0, 1), 3), (oracle.shoot_coupling, (-1.5, 1.0, 1), 3),
    (oracle.shoot_coupling, (-2.5, 1.0, 2), 3), (oracle.shoot_coupling, (0.25, 1.0, 0), 3),
    (oracle.shoot_coupling, (1.5, 1.0, 1), 3), (oracle.shoot_energy_bender, (1,), 2),
    (oracle.shoot_energy_bender, (-1,), 2), (oracle.shoot_energy_bender, (0,), 2)])
def test_the_estimate_brackets_each_level(shoot, args, count):
    # the two probes around the Bohr-Sommerfeld estimate bracket every level:
    # no doubling or halving, and brentq needs about two more sweeps
    diag = shoot(*args, count=count).diagnostics
    assert diag["fallback_sweeps"] == 0
    assert diag["mismatch_evals"] <= 5 * count


@pytest.mark.parametrize("mu, lam, l, factors", [
    (1.5, 1.0, 1, (0.1, 0.7, 1.3, 3.0)), (-2.5, 1.0, 2, (0.1, 0.7, 1.3, 3.0)),
    (0.25, 1.0, 0, (0.1, 0.7, 1.3, 3.0)), (-50.0, 1.0, 2, (0.7, 1.3))])
def test_the_estimate_only_places_the_bracket(mu, lam, l, factors):
    # a guess off by a factor costs fallback sweeps, never a different level
    ode = oracle.build_powerlaw_ode(mu, lam, l)
    want = oracle._shoot(ode, 3)
    for f in factors:
        res = oracle._shoot(dataclasses.replace(ode, guess=lambda n: f * ode.guess(n)), 3)
        assert res.diagnostics["fallback_sweeps"] > 0
        for got, ref in zip(res.values, want.values, strict=True):
            assert got == pytest.approx(ref, rel=1e-10)
        assert res.node_counts == [0, 1, 2]


def test_oracle_imports_nothing_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("zepl")
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "zepl" for a in node.names)


def test_one_builder_states_every_shooting_problem():
    # the power-law and half-line problems are both _two_term_ode's
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    builders = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "RadialODE"):
                    builders.add(fn.name)
    assert builders == {"_two_term_ode"}


# --- the problem stated in t = log r ---------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, lam, l, count", [
    (-20.0, 1.0, 2, 3), (50.0, 1.0, 1, 2), (50.0, 1.0, 2, 2), (-50.0, 1.0, 1, 2),
    (-50.0, 1.0, 2, 2), (-50.0, 1e-3, 1, 1)])
def test_shoot_coupling_where_r_is_extreme(mu, lam, l, count):
    # the well of (-20, 1, 2) sits at r ~ 3e-41, and a match point far from it
    # can miscount nodes; at |mu| = 50 the regular start r = x^(1/k) lies
    # outside the float range, and at (-50, 1e-3) so does the match point
    res = oracle.shoot_coupling(mu, lam, l, count=count)
    for got, want in zip(res.values, _coupling_levels(mu, lam, l, count), strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == list(range(count))


def _scan_argmin(f, lo, hi, points):
    t = np.linspace(lo, hi, points)
    v = f(t)
    return t, v, int(np.argmin(v))


def test_match_point_is_the_bottom_of_the_well():
    wells = 0
    for mu in (-10.0, -3.0, -1.5, -0.75, -0.3, 0.2, 0.25, 0.75, 1.5, 4.0, 10.0):
        # q = l(l+1)/r^2 + 2 (c_rep r^p1 - c r^p2), in t = log r
        p1, p2 = -2.0 * (mu - 0.5) / (mu + 0.5), -2.0 * mu / (mu + 0.5)
        unit = (1.0 / (2.0 * mu + 1.0)) ** 2
        c_rep = unit / 2.0
        for l in (0, 1, 3):
            ode = oracle.build_powerlaw_ode(mu, 1.0, l)
            for c in (0.5 * unit, 2.0 * unit, 8.0 * unit, 30.0 * unit):
                def q(t):
                    return (l * (l + 1) * np.exp(-2.0 * t)
                            + 2.0 * (c_rep * np.exp(p1 * t) - c * np.exp(p2 * t)))
                t_inner, t_match, t_outer = ode.ends(c)
                t, v, i = _scan_argmin(q, t_inner, t_outer, 4001)
                if not (0 < i < t.size - 1 and v[i] < 0):
                    continue  # no negative well
                t, v, i = _scan_argmin(q, t[i - 1], t[i + 1], 1001)
                assert t_match == pytest.approx(t[i], abs=2.0 * (t[1] - t[0]))
                wells += 1
    assert wells > 50
