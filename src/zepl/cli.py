"""Command-line front end: machine-readable tables and figure data.

Exit codes: 0 success, 1 verification failure (a residual or agreement check
above tolerance), 2 parameter/validation error, 3 I/O error.  Output is a
single JSON document (validating against schemas/output.schema.json) or CSV
rows with a stable header, to stdout or --output.  The only environment
knob is ZEPL_OUTPUT_DIR, which relative --output paths are joined against.

Each option is checked in one place: the options that state a problem by
the library, which refuses it with ValueError or OverflowError, and the
options only this module reads by their argparse type.  Each runner returns
its document's parts, and ``main`` alone writes it and picks the exit code.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2, not a usage block; subparsers inherit
        raise ValidationError(f"{self.prog}: {message}")


# the options that state a problem's numbers, named when one leaves the floats
_PROBLEM_OPTIONS = (("mu", "--mu"), ("lam", "--lambda"), ("beta", "--beta"), ("N", "--N"),
                    ("coupling_scale", "--coupling-scale"))


def finite_float(text: str) -> float:
    """The type of every float option: inf and nan are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def parse_rational(text: str):
    """'3/2' parses exactly (Fraction); plain integers stay exact; anything
    else is a finite_float."""
    text = text.strip()
    if "/" not in text and not text.lstrip("+-").isdigit():
        return finite_float(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


MU_RANGE_SAMPLES = 10**5  # the most samples --mu-range may ask for


def mu_range(text: str) -> tuple[float, float, float]:
    """The type of --mu-range: lo:hi:step with lo < hi, step > 0 and at most
    MU_RANGE_SAMPLES samples."""
    try:
        lo, hi, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} does not look like -4:4:0.01") from None
    if not (hi > lo and 0 < step < math.inf):
        raise argparse.ArgumentTypeError(f"{text!r} does not satisfy lo < hi, step > 0")
    if (hi - lo) / step + 0.5 > MU_RANGE_SAMPLES:  # np.arange runs to hi + step/2
        raise argparse.ArgumentTypeError(
            f"{text!r} asks for more than {MU_RANGE_SAMPLES} samples")
    return lo, hi, step


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


def _row(result: dict) -> dict:
    """A one-row command's result as its CSV row, lists and dicts as JSON."""
    return {k: json.dumps(v) if isinstance(v, (list, dict)) else v for k, v in result.items()}


# ---------------------------------------------------------------------------
# Subcommand runners: each returns (parameters, results, rows, passed), the
# envelope's parameters and results, the CSV rows and the verdict (None for
# a command that checks nothing), which main writes
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> tuple:
    names = args.suite or verify.suite_names()
    rows = [{"name": c.name, "value": c.value, "tolerance": c.tolerance,
             "passed": c.passed, "detail": c.detail}
            for name in names for c in verify.run_suite(name)]
    return {"suites": names}, rows, rows, all(r["passed"] for r in rows)


def _family_from(args) -> powerlaw.PowerLawFamily:
    return powerlaw.PowerLawFamily(mu=args.mu, lam=args.lam, l=args.l, n=args.n)


def _cmd_classify(args) -> tuple:
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
    return (vars_of(args, "mu", "lam", "l", "n", "coupling_scale"), result, [_row(result)],
            None)


def _cmd_degeneracy(args) -> tuple:
    pairs = sorted(powerlaw.degenerate_pairs(args.mu, args.omega, args.l_max))
    return (vars_of(args, "mu", "omega", "l_max"), {"pairs": [list(p) for p in pairs]},
            [{"l": l, "n": n} for l, n in pairs], None)


def _cmd_potential(args) -> tuple:
    fam = _family_from(args)
    if not (args.r_min > 0 and args.r_max > args.r_min):
        raise ValidationError("need 0 < r-min < r-max")
    if args.points < 1:
        raise ValidationError("--points must be at least 1")
    r = np.geomspace(args.r_min, args.r_max, args.points)
    v = fam.terms.value(r)
    veff = powerlaw.effective_potential_eval(fam, r)
    rows = [{"r": float(a), "v": float(b), "v_eff": float(c)}
            for a, b, c in zip(r, v, veff)]
    result = {"gamma": fam.gamma, "energy": 0.0, "terms": asdict(fam.terms), "samples": rows}
    beyond = int(np.count_nonzero(~(np.isfinite(v) & np.isfinite(veff))))
    if beyond:  # written as null in JSON
        result["note"] = (f"v or v_eff is null on {beyond} of {len(rows)} samples: there it is "
                          "+inf or -inf, a term of the potential being beyond the floats")
    return (vars_of(args, "mu", "lam", "l", "n", "r_min", "r_max", "points"), result, rows,
            None)


def _cmd_dirac(args) -> tuple:
    fam = dirac.DiracFamily(beta=args.beta, lam=args.lam, l=args.l)
    agree = dirac.reduced_form_agreement(fam)  # first: it refuses |beta| > 1e3
    phi = dirac.upper_spinor(fam)
    theta = dirac.lower_component_relative(fam)
    res = dirac.residual_33(fam).max_residual
    log_c = fam.log_c_l
    try:  # C_l reads 0.0 where it underflows and inf (null) where it overflows
        c_l = None if log_c is None else math.exp(log_c)
    except OverflowError:
        c_l = math.inf
    result = {
        "nu": fam.nu, "kappa": fam.kappa, "coupling": fam.coupling, "n": fam.n,
        "c_l": c_l, "log_c_l": log_c, "normalized": phi.normalized, "notes": list(phi.notes),
        "theta_max_rel": theta, "residual_33_max": res,
        "reduced_form_agreement": agree,
    }
    if phi.normalized:  # a quadrature miss is no norm: null, with its note
        quad = dirac.spinor_norm(fam)
        result["norm_quadrature"] = quad.value if quad.converged else None
        if not quad.converged:
            result["notes"].append(quad.note)
    passed = (theta < verify.THETA_TOL and res < verify.RESIDUAL_TOL
              and agree < verify.REDUCED_FORM_TOL)
    return vars_of(args, "beta", "lam", "l"), result, [_row(result)], passed


def _cmd_bender(args) -> tuple:
    if args.n_max < 0:
        raise ValidationError("--n-max must be at least 0")
    rows = []
    for n in range(args.n_max + 1):
        energy = halfline.spectrum(args.N, n)
        with np.errstate(all="ignore"):  # past the floats the residual reads inf: refused below
            res = halfline.residual_41(args.N, n).max_residual
        if not math.isfinite(res):
            raise ValidationError(f"--N {args.N}: at n = {n} the eigenfunction's residual "
                                  "leaves the float range")
        rows.append({"n": n, "energy": energy, "residual_max": res})
    return (vars_of(args, "N", "n_max"), rows, rows,
            max(r["residual_max"] for r in rows) < verify.RESIDUAL_TOL)


def _cmd_oracle(args) -> tuple:
    coupling_mode = args.mu is not None
    if coupling_mode == (args.N is not None):
        raise ValidationError("give either --mu (coupling mode) or --N (energy mode)")
    if coupling_mode:
        args.lam = 1.0 if args.lam is None else args.lam
        args.l = 0 if args.l is None else args.l
        predicted = [powerlaw.PowerLawFamily(mu=args.mu, lam=args.lam, l=args.l,
                                             n=n).terms.attractive_coeff
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
    passed = worst < verify.ORACLE_TOL and res.node_counts == list(range(args.count))
    result = {"mode": "coupling" if coupling_mode else "energy",
              "levels": rows, "diagnostics": res.diagnostics}
    return params, result, rows, passed


# --- figures ---------------------------------------------------------------

def _veff_rows(case: str, fam: powerlaw.PowerLawFamily, scale: float,
               points: int) -> list[dict]:
    r0 = fam.terms.scaled(scale).turning_scale(fam.k)
    lo, hi = r0 * 1e-3, r0 * 1e3
    if not (lo > 0.0 and hi < math.inf):
        raise OverflowError("the figure's radii leave the floats")
    r = np.geomspace(lo, hi, points)
    v = powerlaw.effective_potential_eval(fam, r, coupling_scale=scale)
    return [{"case": case, "r": float(a), "v_eff": float(b)} for a, b in zip(r, v)]


def _subcritical_scale(fam: powerlaw.PowerLawFamily) -> float:
    """0.9 of the coupling scale that takes Omega to omega(mu, l, rhs), where
    n_eff meets the condition's rhs: an Omega > 0 at l > 0, exactly 0 at l = 0."""
    cond = powerlaw.bound_condition(fam)
    if not cond.applicable:  # |mu| < 1/2 or l = 0, which figures 2 and 4 refuse first
        raise ValidationError("no well-existence condition in this regime")
    return 0.9 * powerlaw.omega(fam.mu, fam.l, cond.rhs) / fam.omega


def _cmd_figures(args) -> tuple:
    which = args.which
    lam, n, points = args.lam, args.n, args.points
    if points < 1:
        raise ValidationError("--points must be at least 1")
    if which == 1:
        lo, hi, step = args.mu_range
        rows = []
        for mu in np.arange(lo, hi + step / 2, step):
            if min(abs(mu), abs(mu - 0.5), abs(mu + 0.5)) < 1e-9:
                continue
            p1, p2 = powerlaw.exponent_pair(float(mu))
            rows.append({"mu": float(mu), "p1": p1, "p2": p2})
        # the parsed range, each number in its shortest form: -4:4:0.01 stays
        text = ":".join(repr(x).removesuffix(".0") for x in args.mu_range)
        return {"which": 1, "mu_range": text}, rows, rows, None

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
    else:
        mu = float(args.mu) if args.mu is not None else 1.0 / 6.0
        if not 0.0 < mu < 0.5:
            raise ValidationError("figure 3 requires 0 < mu < 1/2 for case (a)")
        mu_neg = args.mu_negative
        if not -0.5 < mu_neg < 0.0:
            raise ValidationError("--mu-negative must lie in (-1/2, 0) for case (b)")
        rows = (_veff_rows("a", powerlaw.PowerLawFamily(mu=mu, lam=lam, l=0, n=n), 1.0, points)
                + _veff_rows("b", powerlaw.PowerLawFamily(mu=mu_neg, lam=lam, l=0, n=n), 1.0, points)
                + _veff_rows("c", powerlaw.PowerLawFamily(mu=mu, lam=lam, l=args.l, n=n), 1.0, points))
    params = {"which": which, "mu": _num(args.mu) if args.mu is not None else None,
              "lambda": lam, "l": args.l, "n": n}
    return params, rows, rows, None


def vars_of(args, *names) -> dict:
    out = {}
    for name in names:
        out["lambda" if name == "lam" else name] = _num(getattr(args, name))
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="zepl",
        description="Zero-energy power-law solutions: closed forms, "
                    "classification, and independent numerical verification.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)  # every command's output options
    out.add_argument("--format", choices=("json", "csv"), default="json")
    out.add_argument("--output", help="write to this path instead of stdout "
                                      "(relative paths join ZEPL_OUTPUT_DIR)")
    family = argparse.ArgumentParser(add_help=False)  # a power-law family
    family.add_argument("--mu", type=parse_rational, required=True)
    family.add_argument("--lambda", dest="lam", type=finite_float, default=1.0)
    family.add_argument("--l", type=int, default=0)
    family.add_argument("--n", type=int, default=0)

    def command(name, run, help, parents=()):
        sp = sub.add_parser(name, help=help, parents=[*parents, out])
        sp.set_defaults(run=run)
        return sp

    sp = command("verify", _cmd_verify, "run verification suites; exit 1 on any failure")
    suites = sp.add_mutually_exclusive_group()
    suites.add_argument("--suite", action="append", choices=verify.suite_names(),
                        help="run only this suite (repeatable); default: every suite")
    suites.add_argument("--all", action="store_true", help="run every suite (the default)")

    sp = command("classify", _cmd_classify, "boundedness/normalizability report", [family])
    sp.add_argument("--coupling-scale", type=finite_float, default=1.0,
                    help="scale the attractive coefficient (sub-quantized shapes)")

    sp = command("degeneracy", _cmd_degeneracy, "(l, n) pairs sharing one potential")
    sp.add_argument("--mu", type=parse_rational, required=True)
    sp.add_argument("--omega", type=parse_rational, required=True)
    sp.add_argument("--l-max", type=int, default=6)

    sp = command("potential", _cmd_potential, "tabulate V and the effective potential",
                 [family])
    sp.add_argument("--r-min", type=finite_float, default=1e-2)
    sp.add_argument("--r-max", type=finite_float, default=1e2)
    sp.add_argument("--points", type=int, default=200)

    sp = command("dirac", _cmd_dirac, "rest-mass-energy spinor branch")
    sp.add_argument("--beta", type=finite_float, required=True)
    sp.add_argument("--lambda", dest="lam", type=finite_float, default=1.0)
    sp.add_argument("--l", type=int, default=0)

    sp = command("bender", _cmd_bender, "half-line monomial spectrum E_n = (2n+1)|N+2|+1")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--n-max", type=int, default=3)

    sp = command("oracle", _cmd_oracle, "shooting recovery of couplings or energies")
    sp.add_argument("--mu", type=parse_rational, help="coupling mode")
    sp.add_argument("--N", type=int, help="energy mode")
    sp.add_argument("--lambda", dest="lam", type=finite_float,
                    help="coupling mode only (default 1)")
    sp.add_argument("--l", type=int, help="coupling mode only (default 0)")
    sp.add_argument("--count", type=int, default=3)

    sp = command("figures", _cmd_figures, "curve data for the four summary figures")
    sp.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4))
    sp.add_argument("--mu", type=parse_rational)
    sp.add_argument("--mu-negative", type=finite_float, default=-0.25,
                    help="mu for figure 3 case (b), in (-1/2, 0)")
    sp.add_argument("--mu-range", type=mu_range, default="-4:4:0.01",
                    help="lo:hi:step for figure 1")
    sp.add_argument("--lambda", dest="lam", type=finite_float, default=1.0)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--points", type=int, default=400)

    return p


# a negative number, fraction or range such as -3/4, -1e-8 or -4:4:0.01, or
# -inf, -nan or -Infinity, which the float types refuse by name
_DASH_VALUE = re.compile(r"-(\.?\d[\d.eE+\-/:]*|inf|infinity|nan)", re.IGNORECASE)


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
    """Run one command and write its document; exit 1 where its verdict is
    a failure.  Bad input, whether refused by the parser's types, by this
    module or by the library's own domain checks (ValueError, or
    OverflowError where a value leaves the floats, which names the options
    that state the problem), is one error line and exit 2."""
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    args = None
    try:
        args = build_parser().parse_args(argv)
        parameters, results, rows, passed = args.run(args)
        _emit(_envelope(args.command, parameters, results, passed), rows, args)
        return EXIT_OK if passed is None or passed else EXIT_VERIFICATION
    except SystemExit as exc:  # --help and --version
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
