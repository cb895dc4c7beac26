import ast
import dataclasses
import math
import os
import subprocess
import sys
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


@pytest.mark.parametrize("h,tol", [
    (lambda t: np.exp(t - np.exp(t)), 1e-13),
    (lambda t: np.exp(t - np.exp(t)) * np.cos(40.0 * np.exp(t)) ** 2, 1e-12),
    (lambda t: np.exp(t - np.exp(t)) * np.abs(t - 0.3), 1e-10),
    (lambda t: np.ones_like(t), 1e-8),
    (powerlaw.wavefunction(powerlaw.PowerLawFamily(-0.58, 1.0, 1, 5)).integrand(), 1e-10),
], ids=["exponential", "oscillating", "kink-budget", "truncated", "norm"])
def test_quad_halvings_taken_ahead_change_no_bit(monkeypatch, h, tol):
    # one call of h evaluates three halvings; one halving per call, as the
    # rule took them before, gives the same value, error and panels to the bit
    calls = []
    batched = oracle.quad_seminfinite(lambda t: calls.append(t.size) or h(t), tol)
    assert calls[0] == oracle._SCAN.size and sum(calls[1:]) <= oracle._MAX_SAMPLES
    monkeypatch.setattr(oracle, "_AHEAD", 1)
    assert oracle.quad_seminfinite(h, tol) == batched
    # only the last call's halvings may go unused
    assert batched.panels <= sum(calls[1:]) < batched.panels + calls[-1]


def test_quad_result_holds_python_scalars():
    # the JSON envelope and perfbench's counters serialize these fields
    for q in (oracle.quad_seminfinite(lambda t: np.exp(t - np.exp(t)), 1e-10),
              oracle.quad_seminfinite(lambda t: np.ones_like(t), 1e-8)):
        assert type(q.panels) is int and type(q.value) is float and type(q.error) is float


# --- radial integration ---------------------------------------------------------

class _FixedEnds(oracle.RadialODE):
    # a pencil swept on ends of its own, from the start slopes of u = r and u = 1
    def ends(self, c):
        return math.log(1e-3), 0.0, math.log(10.0), 1.0

    def inner_slope(self, t, c):
        return 1.0

    def outer_slope(self, t, c):
        return 0.0


def _constant_ode(r2q):
    # the pencil r^2 q = l(l+1) + x (a x - b c) at k = 0, a = r2q, b = l = 0
    return _FixedEnds(k=0.0, a=r2q, b=0.0, l=0)


def test_free_particle_log_derivative():
    # u'' = 0 from the regular start u ~ r: r u'/u = S cot(theta) is 1 at r = 1
    ode = _constant_ode(0.0)
    traj = oracle.integrate_radial(ode, 0.0, "outward")
    assert 1.0 / math.tan(traj.end_theta) == pytest.approx(1.0, abs=1e-8)
    assert math.floor(traj.end_theta / math.pi) == 0  # no zero on the way


def test_inward_direction_and_renormalization():
    # u'' = u from the decaying outer start u = e^(-r), whose r u'/u is -r:
    # the angle carries no amplitude, so 59 units of decay need no rescaling
    # r^2 q = r^2 is the pencil at k = a = 1, b = l = 0
    class Decaying(oracle.RadialODE):
        def ends(self, c):
            return math.log(0.1), 0.0, math.log(60.0), 1.0

        def outer_slope(self, t, c):
            return -math.exp(t)

    traj = oracle.integrate_radial(Decaying(k=1.0, a=1.0, b=0.0, l=0), 0.0, "inward")
    assert 1.0 / math.tan(traj.end_theta) == pytest.approx(-1.0, rel=1e-6)


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


@pytest.mark.parametrize("mu, lam, l", [
    (1.5, 1.0, 1), (-1.5, 1.0, 1), (0.25, 1.0, 0), (-2.5, 1.0, 2), (-50.0, 1.0, 2)])
@pytest.mark.parametrize("direction", ["outward", "inward"])
def test_a_pair_sweeps_as_its_couplings_do_alone(mu, lam, l, direction):
    # a pair shares the ends of its first coupling; at those ends each angle
    # is the one its coupling gives alone, swept as the pair (c, c).  The two
    # differ only by lsoda's steps, chosen for both angles at once: up to
    # 1.1e-9 at (-50, 1, 2), where a sweep is itself about 3e-9 from one at
    # rtol 1e-13
    ode = oracle.build_powerlaw_ode(mu, lam, l)

    class Shared(oracle.RadialODE):  # any coupling on the frame of the pair's first
        def ends(self, c):
            return super().ends(pair[0])

    shared = Shared(**dataclasses.asdict(ode))
    for n in range(3):
        g = ode.guess(n)
        pair = (g / (1.0 + 1e-8), g * (1.0 + 1e-8))
        swept = oracle.integrate_radial(ode, pair, direction)
        assert isinstance(swept, tuple) and len(swept) == 2
        assert swept[0].nfev == swept[1].nfev
        for c, traj in zip(pair, swept, strict=True):
            alone = oracle.integrate_radial(shared, c, direction)
            assert isinstance(alone, oracle.Trajectory)
            assert traj.end_theta == pytest.approx(alone.end_theta, abs=2e-9)


def test_a_sweep_that_meets_an_infinite_angle_raises():
    # r^2 q = -r^400 is 0 to the floats below log r = -2 and -inf from 1.77
    # (x^2 overflows) to 3.55 (x does).  The angle sits still at its start,
    # so lsoda's steps grow until one lands at log r = 2.28, past the match:
    # the angle turns infinite inside lsoda, where math.sin of it raised
    # "ValueError: math domain error" from the right-hand side
    ode = dataclasses.replace(_constant_ode(0.0), k=200.0, a=-1.0)
    with pytest.raises(RuntimeError, match=r"non-finite angle \(math domain error\)"):
        oracle.integrate_radial(ode, 0.0, "outward")


@pytest.mark.filterwarnings("error")
def test_energy_mode_refuses_n_beyond_its_reach():
    # N = 10**110 ran into an infinite angle, and 10**102 to 10**108 spent 40
    # pairs of sweeps on level 0; 10**101 shoots at every count up to 20
    for n_power in (10**101 + 1, 10**110):
        with pytest.raises(ValueError, match=rf"N = {n_power} lies beyond the reach"):
            oracle.shoot_energy_bender(n_power, 1)
    res = oracle.shoot_energy_bender(10**101, 1)
    assert res.values[0] == pytest.approx(10**101 + 3, rel=1e-9) and res.node_counts == [0]


def test_a_pair_that_cannot_finish_raises_as_one_sweep_does():
    ode = _constant_ode(math.nan)
    with pytest.raises(RuntimeError) as alone:
        oracle.integrate_radial(ode, 0.0, "outward")
    with pytest.raises(RuntimeError) as pair:
        oracle.integrate_radial(ode, (0.0, 1.0), "outward")
    assert str(pair.value) == str(alone.value)
    assert str(alone.value).endswith("log r in [-6.90776, 0]: "
                                     "lsoda: Integration successful. End angle nan.")


def test_a_sweep_takes_one_coupling_or_a_pair():
    ode = _constant_ode(0.0)
    (traj,) = oracle.integrate_radial(ode, (0.0,), "outward")
    assert traj == oracle.integrate_radial(ode, 0.0, "outward")
    for couplings in ((), (0.0, 0.5, 1.0)):
        with pytest.raises(ValueError):
            oracle.integrate_radial(ode, couplings, "outward")


@pytest.mark.parametrize("ode", [
    oracle.build_powerlaw_ode(1.5, 1.0, 1), oracle.build_powerlaw_ode(-2.5, 0.858201, 2),
    oracle.build_powerlaw_ode(0.25, 1.123718, 0), oracle.build_halfline_ode(1)],
    ids=["3/2-1-1", "-5/2-0.858201-2", "1/4-1.123718-0", "N=1"])
def test_the_written_out_pencil_is_the_pruefer_equation_of_its_terms(monkeypatch, ode):
    # integrate_radial writes r^2 q out in its right-hand side.  The Pruefer
    # equation theta' = S cos^2 - sin cos - (r^2 q/S) sin^2 built on
    # ode.terms, in the same floating-point operations, swept by odeint with
    # the arguments integrate_radial passed, ends on the same angles with the
    # same callbacks, to the bit
    odeint, passed = oracle.odeint, []

    def recording(rhs, y0, t, **kwargs):
        passed.append((y0, t, kwargs))
        return odeint(rhs, y0, t, **kwargs)

    monkeypatch.setattr(oracle, "odeint", recording)
    for n in range(3):
        pair = (ode.guess(n) / (1.0 + 1e-8), ode.guess(n) * (1.0 + 1e-8))
        scale = ode.ends(pair[0])[3]

        def pruefer(t, y):
            q0, w = ode.terms(t)
            return [(scale * math.cos(theta) - math.sin(theta)) * math.cos(theta)
                    - (q0 - c * w) * (1.0 / scale) * math.sin(theta) * math.sin(theta)
                    for theta, c in zip(y, pair)]

        for direction in ("outward", "inward"):
            swept = oracle.integrate_radial(ode, pair, direction)
            y0, t, kwargs = passed.pop()
            y, info = odeint(pruefer, y0, t, **kwargs)
            assert [traj.end_theta for traj in swept] == y[-1].tolist()
            assert swept[0].nfev == info["nfe"][-1]


def test_a_first_sweep_through_an_odeint_set_beforehand_runs():
    # integrate_radial read ODEintWarning as a global that only the module
    # __getattr__ loads: with odeint set first, as a monkeypatch or a tracer
    # sets it, the first sweep of a fresh interpreter raised NameError
    src = str(Path(oracle.__file__).resolve().parents[1])
    code = ("from scipy.integrate import odeint; from zepl import oracle\n"
            "oracle.odeint = odeint; oracle.shoot_coupling(1.5, 1.0, 1, count=1)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


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
        oracle.shoot_coupling(1.5, 1.0, 1, count=21)


# --- spectral shooting -----------------------------------------------------------

def test_shoot_energy_quartic_plus_linear():
    res = oracle.shoot_energy_bender(1, count=2)
    assert res.values[0] == pytest.approx(4.0, rel=1e-6)
    assert res.values[1] == pytest.approx(10.0, rel=1e-6)
    assert res.node_counts == [0, 1]


def test_shoot_energy_validation():
    with pytest.raises(ValueError):
        oracle.shoot_energy_bender(-3, count=2)  # N = -2 and below: no regular origin
    for n_power in (1.5, True):  # int() shot N = 1 for both
        with pytest.raises(ValueError, match=rf"^N must be an integer, got {n_power!r}$"):
            oracle.shoot_energy_bender(n_power, count=2)
    with pytest.raises(ValueError):
        oracle.shoot_energy_bender(0, count=21)


def test_a_problem_changed_in_one_number_is_the_new_problem_throughout():
    # the frame, start slopes and estimate are worked out from k, a, b and l,
    # so the half line of N = 1 moved to k = 4 is that of N = 2.  When they
    # were closures over the builder's own copy of the numbers, this swept
    # N = 2's right-hand side on N = 1's frame and estimate and read 4.872
    # and 12.68, with no error
    res = oracle._shoot(dataclasses.replace(oracle.build_halfline_ode(1), k=4.0), 2)
    assert res.values == pytest.approx([5.0, 13.0], abs=1e-9)
    assert res.node_counts == [0, 1]


@pytest.mark.parametrize("n_power", [2, 50, 100_000])
def test_shoot_energy_at_any_n(n_power):
    # in log x the half line is one problem for every N >= -1
    res = oracle.shoot_energy_bender(n_power, count=4)
    expected = [(2 * n + 1) * (n_power + 2) + 1.0 for n in range(4)]
    for got, want in zip(res.values, expected, strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == [0, 1, 2, 3]


# --- the regular start ----------------------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, l", [(mu, l) for mu in (-1e5, -50.0, -2.5, -0.75, -0.5001, 0.25,
                                                      1.5, 1e5) for l in (0, 2, 20)]
                         + [(None, n_power) for n_power in (-1, 0, 3)])
def test_the_frobenius_start_states_the_ode(mu, l):
    # the regular end starts on the series of the stated pencil, not on the
    # bare power r^s at x = 1e-12/(1 + b c).  From there r u'/u obeys the
    # Riccati form of u'' = q u in t = log r, s' = r^2 q + s - s^2, stable
    # toward the series start; at rtol 1e-13 it lands within 1.3e-12 of the
    # series' angle (the angle's own equation carries 5e-11 near mu = -1/2)
    odeint = oracle.odeint
    if mu is None:
        ode, k, b, l = oracle.build_halfline_ode(l), l + 2, 1.0, 0
    else:
        ode, k, b = oracle.build_powerlaw_ode(mu, 1.0, l), 1.0 / (mu + 0.5), 2.0
    for c in (ode.guess(0), 3.0 * ode.guess(2)):
        t_inner, _, t_outer, scale = ode.ends(c)
        t_start, slope = (t_inner, ode.inner_slope) if k > 0 else (t_outer, ode.outer_slope)
        x_start = math.exp(k * t_start)
        assert x_start <= 0.3
        bare = 1e-12 * min(1.0, x_start) / (1.0 + b * c)

        def riccati(t, y):
            q0, w = ode.terms(t)
            return [q0 - c * w + y[0] - y[0] ** 2]

        y = odeint(riccati, [l + 1.0 if k > 0 else -float(l)], [math.log(bare) / k, t_start],
                   rtol=1e-13, atol=1e-13, mxstep=50_000, tfirst=True)
        assert math.atan2(scale, slope(t_start, c)) == pytest.approx(
            math.atan2(scale, y[-1][0]), abs=1e-11)


def test_the_frobenius_start_takes_floats_of_a_huge_int_k():
    # the half line passes the int k = N + 2: D_j formed in ints overflowed
    # the float conversion ("int too large to convert to float") at N = 10**200
    ode = oracle.build_halfline_ode(10**200)
    t_inner = ode.ends(ode.guess(0))[0]
    assert math.isfinite(ode.inner_slope(t_inner, ode.guess(0)))


def test_the_shooting_work_is_pinned():
    # lsoda's callbacks are deterministic: oracle_sweep's five problems at
    # lam = 1 and verify's three shooting calls took 30 869 from the bare power
    # at x = 1e-12 (20 625 + 10 244), 23 623 from the series, and take 23 326
    # with lsoda told that the two angles are uncoupled
    calls = [(oracle.shoot_coupling, (mu, 1.0, l, 3))
             for mu, l in ((-0.75, 1), (-1.5, 1), (-2.5, 2), (0.25, 0), (1.5, 1))]
    calls += [(oracle.shoot_energy_bender, (n_power, 2)) for n_power in (1, 0, -1)]
    assert sum(shoot(*args).diagnostics["rhs_evals"] for shoot, args in calls) <= 24_800


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, l", [(-0.500005, 0), (-0.5001, 0), (-0.5001, 1), (-0.5001, 2)])
def test_levels_next_to_minus_half_reach_1e_10(mu, l):
    # from the bare power these read 2.65e-10 to 2.67e-10; from the series
    # at most 1.4e-11
    res = oracle.shoot_coupling(mu, 1.0, l, count=2)
    for got, want in zip(res.values, _coupling_levels(mu, 1.0, l, 2), strict=True):
        assert got == pytest.approx(want, rel=1e-10)
    assert res.node_counts == [0, 1]


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


@pytest.mark.parametrize("mu, lam, l, count", [(1.5, 1.0, 1, 20), (-0.75, 1.0, 2, 20)])
def test_shoot_coupling_at_count_cap(mu, lam, l, count):
    res = oracle.shoot_coupling(mu, lam, l, count=count)
    for got, want in zip(res.values, _coupling_levels(mu, lam, l, count), strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == list(range(count))


@pytest.mark.parametrize("n_power", [-1, 3])
def test_shoot_energy_at_count_cap(n_power):
    res = oracle.shoot_energy_bender(n_power, count=20)
    expected = [(2 * n + 1) * abs(n_power + 2) + 1.0 for n in range(20)]
    for got, want in zip(res.values, expected, strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == list(range(20))


@pytest.mark.parametrize("mu, l, coupling", [(1.5, 1, 0.5), (-1.5, 1, 2.2), (0.25, 0, 3.0)])
def test_mismatch_is_the_scaled_wronskian(mu, l, coupling):
    # the angle is Pruefer's for (S u, r u'), S the scale of the sweep's frame:
    # each side's end is u = sin(theta)/S, r u' = cos(theta) up to a positive
    # factor, so the Wronskian r W = r (u_out' u_in - u_in' u_out) comes out
    # divided by S.  Here S is the wavenumber at the bottom of the well,
    # x = b c/(2a), where -r^2 q = (b c)^2/(4a) - l(l+1), b = 2 and a = k^2/4
    ode = oracle.build_powerlaw_ode(mu, 1.0, l)
    mismatch, out, inn = oracle.coupling_mismatch(ode, coupling)
    s = ode.ends(coupling)[3]
    k = 1.0 / (mu + 0.5)
    well = math.sqrt(coupling**2 / (k * k / 4.0) - l * (l + 1.0))
    assert s == pytest.approx(well, rel=1e-12) and s > max(1.0, abs(k))
    (u_out, r_du_out), (u_in, r_du_in) = (
        (math.sin(traj.end_theta) / s, math.cos(traj.end_theta)) for traj in (out, inn))
    r_w = r_du_out * u_in - r_du_in * u_out
    norm = math.sqrt(((s * u_out) ** 2 + r_du_out**2) * ((s * u_in) ** 2 + r_du_in**2))
    assert mismatch == pytest.approx(s * r_w / norm, abs=1e-12)
    assert abs(mismatch) > 1e-3  # off the spectrum


def test_shooting_diagnostics_count_the_work():
    res = oracle.shoot_energy_bender(0, count=2)
    diag = res.diagnostics
    assert set(diag) == {"mismatch_evals", "rhs_evals", "fallback_sweeps", "widest_bracket"}
    widest = diag.pop("widest_bracket")
    assert isinstance(widest, float) and 0.0 < widest <= 3e-8
    assert all(isinstance(v, int) for v in diag.values())
    assert diag["mismatch_evals"] > 0 and diag["fallback_sweeps"] == 0
    # every level is on the probe path: its two couplings take one paired
    # odeint call per side
    assert diag["mismatch_evals"] == 4
    assert diag["rhs_evals"] > diag["mismatch_evals"]


@pytest.mark.parametrize("args, most_evals, worst", [
    ((1.5, 1.0, 1, 3), 5_400, 1e-11), ((0.25, 1.0, 0, 20), 75_000, 1e-10)])
def test_a_scale_matched_to_the_well_saves_callbacks(args, most_evals, worst):
    # lsoda's callbacks are deterministic: with S = max(1, |k|) these took
    # 6040 and 138 670, and the 20th level at (1/4, 1, 0) was off by 7.8e-10
    res = oracle.shoot_coupling(*args)
    assert res.diagnostics["rhs_evals"] <= most_evals
    for got, want in zip(res.values, _coupling_levels(*args), strict=True):
        assert got == pytest.approx(want, rel=worst)


@pytest.mark.parametrize("factor, most_evals", [(2.0, 30_000), (2.5, 65_000), (3.0, 65_000)])
def test_a_sweep_deep_in_the_spectrum_finishes(factor, most_evals):
    # at (-50, 1, 2) the levels are 0.8 % of the coupling apart, so 2.5x level
    # 0 lies past level 186; with S = max(1, |k|) lsoda ran out of its 20 000
    # steps there and at 3x, and took 44 062 callbacks at 2x
    mu, lam, l = -50.0, 1.0, 2
    unit = (lam / (2.0 * mu + 1.0)) ** 2
    c = factor * _coupling_levels(mu, lam, l, 1)[0]
    _, out, inn = oracle.coupling_mismatch(oracle.build_powerlaw_ode(mu, lam, l), c)
    assert out.nfev + inn.nfev <= most_evals
    # the phase lies between the levels around c, level n at
    # (2n + 1 + (2l + 1)|mu + 1/2|) unit
    below = math.floor((c / unit - 1.0 - (2 * l + 1) * abs(mu + 0.5)) / 2.0)
    assert math.floor((out.end_theta - inn.end_theta) / math.pi) == below


def _off_guess(mu, lam, l, f):
    class OffGuess(oracle.RadialODE):
        def guess(self, n):
            return f * super().guess(n)

    return OffGuess(**dataclasses.asdict(oracle.build_powerlaw_ode(mu, lam, l)))


@pytest.mark.parametrize("shoot, args, calls", [
    (oracle.shoot_coupling, (1.5, 1.0, 1, 3), 6), (oracle.shoot_energy_bender, (0, 2), 4),
    (oracle._shoot, (_off_guess(1.5, 1.0, 1, 0.1), 3), None),
    (oracle._shoot, (_off_guess(-2.5, 1.0, 2, 3.0), 3), None),
    (oracle._shoot, (_off_guess(-50.0, 1.0, 2, 1.3), 3), None),
    (oracle.shoot_coupling, (1e7, 1.0, 10, 3), None)])
def test_a_level_on_the_probe_path_takes_one_paired_call_per_side(monkeypatch, shoot, args,
                                                                   calls):
    # both probes of a level go into one odeint call per side, and the
    # diagnostics count those calls and their callbacks.  Off the probe path,
    # from a guess off by a factor or where the phase is steep, every sweep
    # is still a pair of couplings in one call per side
    states, callbacks = [], 0
    odeint = oracle.odeint

    def counting(rhs, y0, *rest, **kwargs):
        def counted(*xs):
            nonlocal callbacks
            callbacks += 1
            return rhs(*xs)
        states.append(len(y0))
        return odeint(counted, y0, *rest, **kwargs)

    monkeypatch.setattr(oracle, "odeint", counting)
    diag = shoot(*args).diagnostics
    calls = calls or len(states)
    assert states == [2] * calls and calls % 2 == 0
    assert diag["mismatch_evals"] == calls
    assert diag["rhs_evals"] == callbacks
    assert diag["fallback_sweeps"] == calls // 2 - args[-1]


@pytest.mark.parametrize("shoot, args, count", [
    (oracle.shoot_coupling, (-0.75, 1.0, 1), 3), (oracle.shoot_coupling, (-1.5, 1.0, 1), 3),
    (oracle.shoot_coupling, (-2.5, 1.0, 2), 3), (oracle.shoot_coupling, (0.25, 1.0, 0), 3),
    (oracle.shoot_coupling, (1.5, 1.0, 1), 3), (oracle.shoot_energy_bender, (1,), 2),
    (oracle.shoot_energy_bender, (-1,), 2), (oracle.shoot_energy_bender, (0,), 2)])
def test_the_estimate_brackets_each_level(shoot, args, count):
    # the two probes around the Bohr-Sommerfeld estimate bracket every level:
    # no doubling or halving, and no sweep beyond the probes
    diag = shoot(*args, count=count).diagnostics
    assert diag["fallback_sweeps"] == 0
    assert diag["mismatch_evals"] == 2 * count
    assert diag["widest_bracket"] <= 3e-8


# the callbacks that a search by doubling, halving and brentq took on each
# row's guesses below, 1 078 214 over the 22 of them
_OFF_GUESS_EVALS = {1.5: 201_178, -2.5: 207_701, 0.25: 167_387, -50.0: 501_948}


@pytest.mark.parametrize("mu, lam, l, factors", [
    (1.5, 1.0, 1, (0.1, 0.7, 1 - 1e-6, 1 + 1e-6, 1.3, 3.0)),
    (-2.5, 1.0, 2, (0.1, 0.7, 1 - 1e-6, 1 + 1e-6, 1.3, 3.0)),
    (0.25, 1.0, 0, (0.1, 0.7, 1 - 1e-6, 1 + 1e-6, 1.3, 3.0)),
    (-50.0, 1.0, 2, (0.7, 1 - 1e-6, 1 + 1e-6, 1.3))])
def test_the_estimate_only_places_the_bracket(mu, lam, l, factors):
    # a guess off by a factor costs more pairs of sweeps, never a different
    # level: the last pair brackets the level itself, as tight as the probes.
    # The estimate is the level to rounding, so 1 -+ 1e-6, 100x the probes'
    # width, shows the level reported is the phase's root and not the estimate
    ode = oracle.build_powerlaw_ode(mu, lam, l)
    want = oracle._shoot(ode, 3)
    rhs_evals = 0
    for f in factors:
        res = oracle._shoot(_off_guess(mu, lam, l, f), 3)
        assert res.diagnostics["fallback_sweeps"] > 0
        assert res.diagnostics["widest_bracket"] <= 3e-8
        for got, ref in zip(res.values, want.values, strict=True):
            assert got == pytest.approx(ref, rel=1e-10)
        assert res.node_counts == [0, 1, 2]
        rhs_evals += res.diagnostics["rhs_evals"]
    assert rhs_evals <= _OFF_GUESS_EVALS[mu]


def test_a_level_not_read_within_the_pair_budget_raises(monkeypatch):
    # from 0.1x the estimate level 0 at (3/2, 1, 1) takes more than 3 pairs
    monkeypatch.setattr(oracle, "_MAX_PAIRS", 3)
    with pytest.raises(RuntimeError, match=r"level 0 was not read within 3 pairs of sweeps"):
        oracle._shoot(_off_guess(1.5, 1.0, 1, 0.1), 3)


def test_oracle_imports_nothing_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("zepl")
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "zepl" for a in node.names)


def test_one_builder_states_every_shooting_problem():
    # the power-law and half-line problems are both RadialODE's four numbers,
    # from which it states its frame, estimate and start slopes in closed
    # form, and the search reads every level from its own pairs of sweeps: no
    # root finder anywhere
    assert [f.name for f in dataclasses.fields(oracle.RadialODE)] == ["k", "a", "b", "l"]
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    builders, called = set(), {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            names = {getattr(node.func, "id", getattr(node.func, "attr", None))
                     for node in ast.walk(fn) if isinstance(node, ast.Call)}
            called[fn.name] = names
            if "RadialODE" in names:
                builders.add(fn.name)
    assert builders == {"build_powerlaw_ode", "build_halfline_ode"}
    root_finders = {"brentq", "brenth", "bisect", "newton", "root_scalar", "fsolve",
                    "ridder", "toms748", "root"}
    assert not set().union(*called.values()) & root_finders
    modules = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names}
    modules |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(m.startswith("scipy.optimize") for m in modules)


# --- the problem stated in log x -------------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, lam, l, count", [
    (-20.0, 1.0, 2, 3), (50.0, 1.0, 1, 2), (50.0, 1.0, 2, 2), (-50.0, 1.0, 1, 2),
    (-50.0, 1.0, 2, 2), (-50.0, 1e-3, 1, 1), (100.0, 1.0, 0, 2), (-0.55, 1.0, 20, 3),
    (1e5, 1.0, 0, 3), (-1e5, 1.0, 0, 3), (-0.45, 1.0, 20, 3),
    (-0.501, 1.0, 0, 2), (-0.501, 1.0, 1, 2), (-0.501, 1.0, 2, 2),
    (-0.5001, 1.0, 0, 2), (-0.5001, 1.0, 1, 2), (-0.5001, 1.0, 2, 2)])
def test_shoot_coupling_where_r_is_extreme(mu, lam, l, count):
    # the well of (-20, 1, 2) sits at r ~ 3e-41, and a match point far from it
    # can miscount nodes; at |mu| = 50 the regular start r = x^(1/k) lies
    # outside the float range, and at (-50, 1e-3) so does the match point.  At
    # |mu| >= 100 and at l = 20 near -1/2 the phase stepped by 1 across the
    # probes' bracket when the match was the bottom of q in log r: 3 levels
    # took 33 mismatch evaluations at (100, 1, 0) and (+-1e5, 1, 0) and 44 at
    # (-0.45, 1, 20), and the node count read at a brentq root past the step
    # was one too high at (-0.55, 1, 20).  Just below -1/2 the match clamp,
    # stated in log r, sent lsoda where exp(k t) overflows
    res = oracle.shoot_coupling(mu, lam, l, count=count)
    for got, want in zip(res.values, _coupling_levels(mu, lam, l, count), strict=True):
        assert got == pytest.approx(want, rel=1e-9)
    assert res.node_counts == list(range(count))
    assert res.diagnostics["mismatch_evals"] <= 2 * count + 2


def test_match_point_is_the_bottom_of_the_well():
    # r^2 q = l(l+1) + x (a x - b c) is lowest at x = b c/(2a); in log x the
    # match is kept log 3 above the regular start, and the WKB start lies at
    # least 12x above the bottom.  The angle's scale is the wavenumber
    # sqrt(-r^2 q) there, at least max(1, |k|)
    cases = clamped = deep = 0
    for mu in (-1e5, -10.0, -1.5, -0.75, -0.5001, -0.4999, -0.3, 0.25, 1.5, 10.0, 1e5):
        k = 1.0 / (mu + 0.5)
        a = (k / 2.0) ** 2
        for l in (0, 1, 3):
            ode = oracle.build_powerlaw_ode(mu, 1.0, l)
            unit = (1.0 / (2.0 * mu + 1.0)) ** 2
            for c in (1e-14 * unit, 0.5 * unit, 2.0 * unit, 30.0 * unit):
                *t_ends, scale = ode.ends(c)
                log_x = [k * t for t in t_ends]
                if k < 0:
                    log_x.reverse()
                lo, match, hi = log_x
                s = np.linspace(lo, hi, 20001)
                with np.errstate(over="ignore"):
                    x = np.exp(s)
                    bottom = s[np.argmin(x * (a * x - 2.0 * c))]
                want = max(bottom, lo + math.log(3.0))
                assert match == pytest.approx(want, abs=2.0 * (s[1] - s[0]))
                assert match <= hi - math.log(3.0)
                xm = math.exp(match)
                well = math.sqrt(max(xm * (2.0 * c - a * xm) - l * (l + 1.0), 0.0))
                assert scale == pytest.approx(max(1.0, abs(k), well), rel=1e-9)
                clamped += want > bottom
                deep += well > max(1.0, abs(k))
                cases += 1
    assert cases == 132 and clamped > 0 and deep > 0
