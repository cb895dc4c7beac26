"""The operations each workload times, and the checks of their results.

``run_*`` calls only zepl and returns what the program produced; it is the
timed part.  ``check_*`` runs afterwards, outside the timing and the trace,
and compares those results with ``refcheck``, which never imports zepl.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
from pathlib import Path

import jsonschema

import inputs
import refcheck as rc
from zepl import cli, oracle, powerlaw

SUITES = ("zero_energy", "pct_identity", "degeneracy", "table1", "special_case",
          "oracle_coupling", "dirac", "halfline", "oscillator", "exceptional",
          "specfn")
CHECK_POINTS = 400
# norm() re-measures the norm with quad_seminfinite, whose error estimate can
# miss 1e-8 (see README); the 1e-8 check is on the Gauss-Laguerre norm.
NORM_VALUE_TOL = 1e-6
PCT_TOL = 1e-10       # the tolerance verify pins for pct_identity_check


# --- verify_all: one op is `zepl verify --all`, in-process ------------------

def prepare_verify(_seed: int) -> list:
    """verify --all has no inputs; the first calls go through the CLI on the
    two cheapest suites, and the schema validator is built."""
    for suite in ("specfn", "degeneracy"):
        run_verify(suite)
    _validator()
    return [None]


def run_verify(suite=None) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--suite", suite] if suite else ["verify", "--all"])
    return code, buf.getvalue()


@functools.cache
def _validator():
    schema_path = Path(cli.__file__).with_name("schemas") / "output.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def check_verify(_item, result) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    errors = [e.message for e in _validator().iter_errors(doc)]
    if errors:
        return f"schema: {errors[0]}"
    if tuple(doc["parameters"]["suites"]) != SUITES:
        return f"suites {doc['parameters']['suites']}"
    rows = doc["results"]
    bad = [r["name"] for r in rows if not (r["value"] < r["tolerance"] and r["passed"])]
    if bad or not doc["passed"]:
        return f"rows over tolerance: {bad}"
    levels = {
        "oracle.shoot_coupling[mu=3/2 l=1 D_n]":
            [rc.coupling_level(1.5, 1.0, 1, n) for n in range(3)],
        "oracle.shoot_energy[N=0]": [rc.energy_level(0, n) for n in range(2)],
        "oracle.shoot_energy[N=-1]": [rc.energy_level(-1, n) for n in range(2)],
    }
    by_name = {r["name"]: r for r in rows}
    for name, expected in levels.items():
        if name not in by_name:
            return f"row {name} missing"
        recovered = ast.literal_eval(by_name[name]["detail"].removeprefix("recovered="))
        problem = rc.check_levels(recovered, expected)
        if problem:
            return f"{name}: {problem}"
    return None


# --- oracle_sweep: one op is one shooting call -----------------------------

def prepare_oracle(seed: int) -> list:
    """First calls: one mismatch evaluation on each kind of shooting problem."""
    items = inputs.oracle_inputs(seed)
    for item in dict.fromkeys(items):
        if item[0] == "coupling":
            _, mu, lam, l, _ = item
            ode = oracle.build_powerlaw_ode(mu, lam, l)
            oracle.coupling_mismatch(ode, rc.coupling_level(mu, lam, l, 0))
        else:
            oracle.coupling_mismatch(oracle.build_halfline_ode(item[1]),
                                     rc.energy_level(item[1], 0))
    return items


def run_oracle(item):
    if item[0] == "coupling":
        _, mu, lam, l, count = item
        return oracle.shoot_coupling(mu, lam, l, count=count)
    _, N, count = item
    return oracle.shoot_energy_bender(N, count=count)


def check_oracle(item, res) -> str | None:
    if item[0] == "coupling":
        _, mu, lam, l, count = item
        expected = [rc.coupling_level(mu, lam, l, n) for n in range(count)]
    else:
        _, N, count = item
        expected = [rc.energy_level(N, n) for n in range(count)]
    return (rc.check_levels(res.values, expected)
            or rc.check_node_counts(res.node_counts, count))


# --- family_sweep: one op is a full study of one family --------------------

def prepare_family(seed: int) -> list:
    items = inputs.family_inputs(seed)
    run_family(items[0])
    return items


def run_family(item):
    _, mu, lam, l, n = item
    fam = powerlaw.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
    return (powerlaw.wavefunction(fam), powerlaw.norm(fam),
            powerlaw.schrodinger_residual(fam), powerlaw.pct_identity_check(fam),
            powerlaw.classify(fam), powerlaw.interior_node_count(fam),
            powerlaw.degenerate_pairs(fam.mu, fam.omega, l + 2))


def check_family(item, result) -> str | None:
    _, mu, lam, l, n = item
    mu = float(mu)
    sol, nrm, resid, pct, rep, nodes, pairs = result
    shape = rc.paper_shape(mu, lam, l, n)
    r = rc.radial_grid(shape, CHECK_POINTS)
    values = sol.value(r)
    finite = rc.norm_exponent(shape) > -1.0
    problem = (rc.check_finite_rule(nrm.finite, shape)
               or (rc.check_norm(rc.gl_norm(sol.amplitude, shape)) if finite else None)
               or (rc.check_norm(nrm.value, tol=NORM_VALUE_TOL) if finite else None)
               or rc.check_psi(values, rc.psi(sol.amplitude, shape, r))
               or rc.check_residual(mu, lam, l, n, r, values, sol.deriv2(r))
               or rc.check_verdict(rep.bounded, rep.normalizable, mu, l)
               or rc.check_node_count(nodes, n)
               or rc.check_degenerate(pairs, l, n))
    if problem is None and not (resid.max_residual < rc.RESIDUAL_TOL
                                and pct.max_residual < PCT_TOL):
        problem = f"reported residuals {resid.max_residual:.2e} / {pct.max_residual:.2e}"
    return problem


# --- grid_tabulate: one op tabulates a built wavefunction on ~1e5 points ---

def prepare_grid(seed: int) -> list[tuple]:
    """Set-up builds the normalised wavefunction of each family; the first
    call evaluates it on a few points."""
    items = []
    for mu, lam, l, n, r in inputs.grid_inputs(seed):
        fam = powerlaw.PowerLawFamily(mu=mu, lam=lam, l=l, n=n)
        items.append((fam, powerlaw.wavefunction(fam), r))
    fam, sol, r = items[0]
    run_grid((fam, sol, r[::1000]))
    return items


def run_grid(item):
    fam, sol, r = item
    return (sol.value(r), sol.deriv(r), sol.deriv2(r),
            powerlaw.effective_potential_eval(fam, r))


def check_grid(item, result) -> str | None:
    """Node count on every point; the pointwise checks on every tenth point,
    which keeps checking cheaper than the operation."""
    fam, sol, r = item
    mu, lam, l, n = float(fam.mu), fam.lam, fam.l, fam.n
    values, d1, d2, v_eff = result
    shape = rc.paper_shape(mu, lam, l, n)
    every = slice(None, None, 10)
    r, sub = r[every], values[every]
    return (rc.check_node_count(rc.sign_changes(values), n)
            or rc.check_norm(rc.gl_norm(sol.amplitude, shape))
            or rc.check_psi(sub, rc.psi(sol.amplitude, shape, r))
            or rc.check_psi(d1[every], rc.psi_deriv(sol.amplitude, shape, r))
            or rc.check_residual(mu, lam, l, n, r, sub, d2[every])
            or rc.check_veff(v_eff[every], mu, lam, l, n, r))
