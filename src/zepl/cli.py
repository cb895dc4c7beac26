"""Command-line front end: machine-readable tables and figure data.

Exit codes: 0 success, 1 verification failure (a residual or agreement check
above tolerance), 2 parameter/validation error, 3 I/O error.  Output is a
single JSON document (validating against schemas/output.schema.json) or CSV
rows with a stable header, to stdout or --output.  The only environment
knob is ZEPL_OUTPUT_DIR, which relative --output paths are joined against.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import __version__, dirac, halfline, oracle, powerlaw, verify

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class ValidationError(Exception):
    pass


# the options that state a problem's numbers, named when one leaves the floats
_PROBLEM_OPTIONS = (("mu", "--mu"), ("lam", "--lambda"), ("beta", "--beta"), ("N", "--N"),
                    ("coupling_scale", "--coupling-scale"))


def finite_float(text: str) -> float:
    """The type of every float option: inf and nan are refused."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ValidationError(f"cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"{text!r} is not a finite number")
    return value


def parse_rational(text: str):
    """'3/2' parses exactly (Fraction); plain integers stay exact; anything
    else is a finite_float."""
    text = text.strip()
    if "/" not in text and not text.lstrip("+-").isdigit():
        return finite_float(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse number {text!r}") from exc


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, so JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(doc: dict, rows: list[dict], args) -> None:
    """Write the JSON envelope (non-finite numbers as null) or the CSV rows
    for this command."""
    if args.format == "json":
        payload = json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        payload = buf.getvalue()
    if args.output:
        path = args.output
        outdir = os.environ.get("ZEPL_OUTPUT_DIR")
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _envelope(command: str, parameters: dict, results, passed: bool | None = None) -> dict:
    doc = {"command": command, "version": __version__,
           "parameters": parameters, "results": results}
    if passed is not None:
        doc["passed"] = passed
    return doc


def _num(value):
    if isinstance(value, Fraction):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.all and args.suite:
        raise ValidationError("--all runs every suite; it cannot be combined with --suite")
    scale = args.tolerance_scale
    if not scale > 0:
        raise ValidationError("--tolerance-scale must be positive")
    names = args.suite or verify.suite_names()
    checks = [c for name in names for c in verify.run_suite(name)]
    # flags and the runtime limit keep their own tolerance and verdict
    rows = [{"name": c.name, "value": c.value,
             "tolerance": c.tolerance * scale if c.scales else c.tolerance,
             "passed": bool(c.value < c.tolerance * scale) if c.scales else c.passed,
             "detail": c.detail}
            for c in checks]
    passed = all(r["passed"] for r in rows)
    doc = _envelope("verify", {"suites": names, "tolerance_scale": scale},
                    rows, passed=passed)
    _emit(doc, rows, args)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _family_from(args) -> powerlaw.PowerLawFamily:
    return powerlaw.PowerLawFamily(mu=args.mu, lam=args.lam, l=args.l, n=args.n)


def _cmd_classify(args) -> int:
    fam = _family_from(args)
    rep = powerlaw.classify(fam, coupling_scale=args.coupling_scale)
    result = {
        "mu": _num(fam.mu), "lambda": fam.lam, "l": fam.l, "n": fam.n,
        "coupling_scale": rep.coupling_scale,
        "limit_origin": rep.limit_origin, "limit_infinity": rep.limit_infinity,
        "bounded": rep.bounded, "normalizable": rep.normalizable,
        "condition_status": rep.condition.status,
        "condition_rhs": rep.condition.rhs,
        "well": None if rep.well is None else asdict(rep.well),
    }
    row = {k: (json.dumps(v) if isinstance(v, dict) else v) for k, v in result.items()}
    _emit(_envelope("classify", vars_of(args, "mu", "lam", "l", "n", "coupling_scale"),
                    result), [row], args)
    return EXIT_OK


def _cmd_degeneracy(args) -> int:
    pairs = sorted(powerlaw.degenerate_pairs(args.mu, args.omega, args.l_max))
    result = {"pairs": [list(p) for p in pairs]}
    rows = [{"l": l, "n": n} for l, n in pairs]
    _emit(_envelope("degeneracy", vars_of(args, "mu", "omega", "l_max"), result),
          rows, args)
    return EXIT_OK


def _cmd_potential(args) -> int:
    fam = _family_from(args)
    if not (args.r_min > 0 and args.r_max > args.r_min):
        raise ValidationError("need 0 < r-min < r-max")
    if args.points < 1:
        raise ValidationError("--points must be at least 1")
    r = np.geomspace(args.r_min, args.r_max, args.points)
    v = powerlaw.potential_eval(fam, r)
    veff = powerlaw.effective_potential_eval(fam, r)
    mapped = powerlaw.map_parameters(fam)
    rows = [{"r": float(a), "v": float(b), "v_eff": float(c)}
            for a, b, c in zip(r, v, veff)]
    result = {"gamma": mapped.gamma, "energy": mapped.energy,
              "terms": asdict(mapped.terms), "samples": rows}
    beyond = int(np.count_nonzero(~(np.isfinite(v) & np.isfinite(veff))))
    if beyond:  # written as null in JSON
        result["note"] = (f"v or v_eff is null on {beyond} of {len(rows)} samples: there it is "
                          "+inf or -inf, a term of the potential being beyond the floats")
    _emit(_envelope("potential", vars_of(args, "mu", "lam", "l", "n",
                                         "r_min", "r_max", "points"), result),
          rows, args)
    return EXIT_OK


def _check_tolerance(args) -> None:
    if not args.tolerance > 0:
        raise ValidationError("--tolerance must be positive")


def _cmd_dirac(args) -> int:
    _check_tolerance(args)
    fam = dirac.DiracFamily(beta=args.beta, lam=args.lam, l=args.l, alpha_fs=args.alpha_fs)
    sol = dirac.upper_spinor(fam)
    theta = dirac.lower_component_relative(fam)
    res = dirac.residual_33(fam).max_residual
    agree = dirac.reduced_form_agreement(fam)
    result = {
        "nu": fam.nu, "kappa": fam.kappa, "coupling": fam.coupling,
        "n": dirac.correspondence(fam.beta, fam.l, fam.lam).n,
        "c_l": sol.c_l, "normalized": sol.normalized, "notes": list(sol.notes),
        "theta_max_rel": theta, "residual_33_max": res,
        "reduced_form_agreement": agree,
    }
    if sol.normalized:  # a quadrature miss is no norm: null, with its note
        quad = dirac.spinor_norm(fam)
        result["norm_quadrature"] = quad.value if quad.converged else None
        if not quad.converged:
            result["notes"].append(quad.note)
    row = {k: (json.dumps(v) if isinstance(v, list) else v) for k, v in result.items()}
    passed = theta < verify.THETA_TOL and res < args.tolerance and agree < verify.REDUCED_FORM_TOL
    _emit(_envelope("dirac", vars_of(args, "beta", "lam", "l", "alpha_fs"),
                    result, passed=passed), [row], args)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_bender(args) -> int:
    if args.N == -2:
        raise ValidationError("N = -2 is excluded")
    if args.n_max < 0:
        raise ValidationError("--n-max must be at least 0")
    _check_tolerance(args)
    rows = [{"n": n, "energy": halfline.spectrum(args.N, n),
             "residual_max": halfline.residual_41(args.N, n).max_residual}
            for n in range(args.n_max + 1)]
    passed = max(r["residual_max"] for r in rows) < args.tolerance
    _emit(_envelope("bender", vars_of(args, "N", "n_max"), rows, passed=passed),
          rows, args)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_oracle(args) -> int:
    coupling_mode = args.mu is not None
    if coupling_mode == (args.N is not None):
        raise ValidationError("give either --mu (coupling mode) or --N (energy mode)")
    _check_tolerance(args)
    if coupling_mode:
        args.lam = 1.0 if args.lam is None else args.lam
        args.l = 0 if args.l is None else args.l
        predicted = [powerlaw.map_parameters(powerlaw.PowerLawFamily(
            mu=args.mu, lam=args.lam, l=args.l, n=n)).terms.attractive_coeff
            for n in range(args.count)]
        params = vars_of(args, "mu", "lam", "l", "count")
        named = f"--mu {float(args.mu):g} --l {args.l}"
    else:
        if args.lam is not None or args.l is not None:
            raise ValidationError("energy mode (--N) takes neither --lambda nor --l")
        predicted = [halfline.spectrum(args.N, n) for n in range(args.count)]
        params = vars_of(args, "N", "count")
        named = f"--N {args.N}"
    try:
        res = (oracle.shoot_coupling(args.mu, args.lam, args.l, count=args.count)
               if coupling_mode else oracle.shoot_energy_bender(args.N, count=args.count))
    except RuntimeError as exc:  # a large |mu|, l or N lengthens a sweep or breaks lsoda
        raise ValidationError(f"{named}: a shooting sweep failed ({exc})") from exc
    rows = [{"index": i, "recovered": got, "predicted": pred,
             "rel_err": abs(got - pred) / abs(pred), "node_count": nodes}
            for i, (got, pred, nodes)
            in enumerate(zip(res.values, predicted, res.node_counts, strict=True))]
    worst = max(r["rel_err"] for r in rows)
    passed = worst < args.tolerance and res.node_counts == list(range(args.count))
    result = {"mode": "coupling" if coupling_mode else "energy",
              "levels": rows, "diagnostics": res.diagnostics}
    _emit(_envelope("oracle", params, result, passed=passed), rows, args)
    return EXIT_OK if passed else EXIT_VERIFICATION


# --- figures ---------------------------------------------------------------

def _veff_rows(case: str, fam: powerlaw.PowerLawFamily, scale: float,
               points: int) -> list[dict]:
    terms = powerlaw.map_parameters(fam).terms.scaled(scale)
    r0 = terms.turning_scale
    r = np.geomspace(r0 * 1e-3, r0 * 1e3, points)
    v = powerlaw.effective_potential_eval(fam, r, coupling_scale=scale)
    return [{"case": case, "r": float(a), "v_eff": float(b)} for a, b in zip(r, v)]


def _subcritical_scale(fam: powerlaw.PowerLawFamily) -> float:
    cond = powerlaw.bound_condition(fam)
    if cond.rhs is None:
        raise ValidationError("no well-existence condition in this regime")
    omega_crit = 2 * cond.rhs + 1 + (2 * fam.l + 1) / fam.beta
    if omega_crit <= 0:
        raise ValidationError(
            f"condition cannot be violated for l = {fam.l}: critical coupling is negative")
    return 0.9 * omega_crit / fam.omega


def _cmd_figures(args) -> int:
    which = args.which
    lam, n, points = args.lam, args.n, args.points
    if points < 1:
        raise ValidationError("--points must be at least 1")
    if which == 1:
        try:
            lo, hi, step = (float(tok) for tok in args.mu_range.split(":"))
        except ValueError as exc:
            raise ValidationError("--mu-range must look like -4:4:0.01") from exc
        if not (hi > lo and step > 0):
            raise ValidationError("--mu-range must satisfy lo < hi, step > 0")
        mus = np.arange(lo, hi + step / 2, step)
        rows = []
        for mu in mus:
            if min(abs(mu), abs(mu - 0.5), abs(mu + 0.5)) < 1e-9:
                continue
            p1, p2 = powerlaw.exponent_pair(float(mu))
            rows.append({"mu": float(mu), "p1": p1, "p2": p2})
        _emit(_envelope("figures", {"which": 1, "mu_range": args.mu_range}, rows),
              rows, args)
        return EXIT_OK

    if args.l < 1:
        raise ValidationError(f"figures 2-4 draw their l > 0 cases at --l >= 1, got {args.l}")
    if which in (2, 4):
        default, regime = (1.5, "mu > 1/2") if which == 2 else (-1.5, "mu < -1/2")
        mu = float(args.mu) if args.mu is not None else default
        if not (mu > 0.5 if which == 2 else mu < -0.5):
            raise ValidationError(f"figure {which} requires {regime}")
        fam_a = powerlaw.PowerLawFamily(mu=mu, lam=lam, l=0, n=n)
        fam_bc = powerlaw.PowerLawFamily(mu=mu, lam=lam, l=args.l, n=n)
        rows = (_veff_rows("a", fam_a, 1.0, points)
                + _veff_rows("b", fam_bc, 1.0, points)
                + _veff_rows("c", fam_bc, _subcritical_scale(fam_bc), points))
    elif which == 3:
        mu = float(args.mu) if args.mu is not None else 1.0 / 6.0
        if not 0.0 < mu < 0.5:
            raise ValidationError("figure 3 requires 0 < mu < 1/2 for case (a)")
        mu_neg = args.mu_negative
        if not -0.5 < mu_neg < 0.0:
            raise ValidationError("--mu-negative must lie in (-1/2, 0) for case (b)")
        rows = (_veff_rows("a", powerlaw.PowerLawFamily(mu=mu, lam=lam, l=0, n=n), 1.0, points)
                + _veff_rows("b", powerlaw.PowerLawFamily(mu=mu_neg, lam=lam, l=0, n=n), 1.0, points)
                + _veff_rows("c", powerlaw.PowerLawFamily(mu=mu, lam=lam, l=args.l, n=n), 1.0, points))
    else:
        raise ValidationError("--which must be 1, 2, 3 or 4")
    params = {"which": which, "mu": _num(args.mu) if args.mu is not None else None,
              "lambda": lam, "l": args.l, "n": n}
    _emit(_envelope("figures", params, rows), rows, args)
    return EXIT_OK


def vars_of(args, *names) -> dict:
    out = {}
    for name in names:
        out["lambda" if name == "lam" else name] = _num(getattr(args, name))
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output", help="write to this path instead of stdout "
                                     "(relative paths join ZEPL_OUTPUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zepl",
        description="Zero-energy power-law solutions: closed forms, "
                    "classification, and independent numerical verification.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run verification suites; exit 1 on any failure")
    sp.add_argument("--suite", action="append", choices=verify.suite_names(),
                    help="run only this suite (repeatable); default: every suite")
    sp.add_argument("--all", action="store_true", help="run every suite (the default)")
    sp.add_argument("--tolerance-scale", type=finite_float, default=1.0,
                    help="multiply every check tolerance by this factor")
    _add_common(sp)
    sp.set_defaults(run=_cmd_verify)

    sp = sub.add_parser("classify", help="boundedness/normalizability report")
    sp.add_argument("--mu", type=parse_rational, required=True)
    sp.add_argument("--lambda", dest="lam", type=finite_float, default=1.0)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--coupling-scale", type=finite_float, default=1.0,
                    help="scale the attractive coefficient (sub-quantized shapes)")
    _add_common(sp)
    sp.set_defaults(run=_cmd_classify)

    sp = sub.add_parser("degeneracy", help="(l, n) pairs sharing one potential")
    sp.add_argument("--mu", type=parse_rational, required=True)
    sp.add_argument("--omega", type=parse_rational, required=True)
    sp.add_argument("--l-max", type=int, default=6)
    _add_common(sp)
    sp.set_defaults(run=_cmd_degeneracy)

    sp = sub.add_parser("potential", help="tabulate V and the effective potential")
    sp.add_argument("--mu", type=parse_rational, required=True)
    sp.add_argument("--lambda", dest="lam", type=finite_float, default=1.0)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--r-min", type=finite_float, default=1e-2)
    sp.add_argument("--r-max", type=finite_float, default=1e2)
    sp.add_argument("--points", type=int, default=200)
    _add_common(sp)
    sp.set_defaults(run=_cmd_potential)

    sp = sub.add_parser("dirac", help="rest-mass-energy spinor branch")
    sp.add_argument("--beta", type=finite_float, required=True)
    sp.add_argument("--lambda", dest="lam", type=finite_float, default=1.0)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--alpha-fs", type=finite_float, default=dirac.FINE_STRUCTURE_DEFAULT)
    sp.add_argument("--tolerance", type=finite_float, default=verify.RESIDUAL_TOL)
    _add_common(sp)
    sp.set_defaults(run=_cmd_dirac)

    sp = sub.add_parser("bender", help="half-line monomial spectrum E_n = (2n+1)|N+2|+1")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--n-max", type=int, default=3)
    sp.add_argument("--tolerance", type=finite_float, default=verify.RESIDUAL_TOL)
    _add_common(sp)
    sp.set_defaults(run=_cmd_bender)

    sp = sub.add_parser("oracle", help="shooting recovery of couplings or energies")
    sp.add_argument("--mu", type=parse_rational, help="coupling mode")
    sp.add_argument("--N", type=int, help="energy mode")
    sp.add_argument("--lambda", dest="lam", type=finite_float,
                    help="coupling mode only (default 1)")
    sp.add_argument("--l", type=int, help="coupling mode only (default 0)")
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--tolerance", type=finite_float, default=verify.ORACLE_TOL)
    _add_common(sp)
    sp.set_defaults(run=_cmd_oracle)

    sp = sub.add_parser("figures", help="curve data for the four summary figures")
    sp.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4))
    sp.add_argument("--mu", type=parse_rational)
    sp.add_argument("--mu-negative", type=finite_float, default=-0.25,
                    help="mu for figure 3 case (b), in (-1/2, 0)")
    sp.add_argument("--mu-range", default="-4:4:0.01", help="lo:hi:step for figure 1")
    sp.add_argument("--lambda", dest="lam", type=finite_float, default=1.0)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--points", type=int, default=400)
    _add_common(sp)
    sp.set_defaults(run=_cmd_figures)

    return p


# a negative number, fraction or range such as -3/4, -1e-8 or -4:4:0.01
_DASH_VALUE = re.compile(r"-\.?\d[\d.eE+\-/:]*")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ['--mu', '-3/4'] as ['--mu=-3/4'] so argparse does not read
    a value starting with '-' as an option."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _DASH_VALUE.fullmatch(tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    """Run one command.  Bad input, whether refused by the parser's types,
    by this module or by the library's own domain checks (ValueError, or
    OverflowError where a value leaves the floats, which names the options
    that state the problem), is one error line and exit 2."""
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError:
        given = " ".join(f"{option} {getattr(args, dest)}" for dest, option in _PROBLEM_OPTIONS
                         if getattr(args, dest, None) is not None)
        print(f"error: {given}: the problem's numbers leave the float range", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
