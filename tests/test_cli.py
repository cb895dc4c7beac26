import argparse
import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from zepl import cli, dirac, halfline, oracle, powerlaw, verify


@pytest.fixture(scope="module")
def schema():
    text = resources.files("zepl").joinpath("schemas/output.schema.json").read_text()
    return json.loads(text)


def run_json(capsys, argv):
    code = cli.main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def run_csv(capsys, argv):
    code = cli.main(argv)
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    return code, rows


def test_importing_the_cli_loads_no_scipy():
    # the oracle imports scipy.integrate at its first sweep, so a command that
    # does not shoot starts on numpy alone; a fresh interpreter shows it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, zepl.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_degeneracy_example(capsys, schema):
    code, doc = run_json(capsys, ["degeneracy", "--mu", "3/2", "--omega", "11"])
    assert code == 0
    assert doc["results"]["pairs"] == [[0, 4], [1, 2], [2, 0]]
    jsonschema.validate(doc, schema)


def test_classify_example(capsys, schema):
    code, doc = run_json(capsys, ["classify", "--mu", "-3/4", "--l", "0"])
    assert code == 0
    assert doc["results"]["bounded"] is False
    assert doc["results"]["normalizable"] is False
    jsonschema.validate(doc, schema)


def test_figures_one_csv_excludes_special_mu(capsys):
    code, rows = run_csv(capsys, ["figures", "--which", "1",
                                  "--mu-range", "-1:1:0.25", "--format", "csv"])
    assert code == 0
    assert list(rows[0].keys()) == ["mu", "p1", "p2"]
    mus = [float(r["mu"]) for r in rows]
    for excluded in (-0.5, 0.0, 0.5):
        assert all(abs(m - excluded) > 1e-9 for m in mus)


def test_figures_case_blocks(capsys):
    code, rows = run_csv(capsys, ["figures", "--which", "2", "--format", "csv",
                                  "--points", "50"])
    assert code == 0
    assert list(rows[0].keys()) == ["case", "r", "v_eff"]
    assert {r["case"] for r in rows} == {"a", "b", "c"}


def test_figures_regime_validation(capsys):
    assert cli.main(["figures", "--which", "4", "--mu", "3/2"]) == 2
    assert cli.main(["figures", "--which", "2", "--mu", "-3/2"]) == 2
    assert cli.main(["figures", "--which", "1", "--mu-range", "oops"]) == 2
    capsys.readouterr()


def test_unknown_arguments_rejected(capsys):
    assert cli.main(["classify", "--mu", "3/2", "--bogus", "1"]) == 2
    assert cli.main(["oracle", "--count", "2"]) == 2  # neither --mu nor --N
    assert cli.main(["oracle", "--mu", "3/2", "--N", "0"]) == 2
    capsys.readouterr()


def test_bender_json(capsys, schema):
    code, doc = run_json(capsys, ["bender", "--N", "0", "--n-max", "2"])
    assert code == 0 and doc["passed"] is True
    energies = [row["energy"] for row in doc["results"]]
    assert energies == [3.0, 7.0, 11.0]
    jsonschema.validate(doc, schema)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["--N", "-3", "--n-max", "200"], ["--N", "0", "--n-max", "170"],
                                  ["--N", "1", "--n-max", "400"], ["--N", "-3", "--n-max", "10000"]],
                         ids=["N-3-200", "N0-170", "N1-400", "N-3-10000"])
def test_bender_stops_at_the_first_degree_past_the_floats(capsys, argv):
    # the rows past that degree read residual_max null with RuntimeWarnings and
    # exit 1, or the norm's non-finite log ended in a ValueError; --n-max 10000
    # ran for minutes.  Now the first such degree is one error line, exit 2,
    # and every degree below it passes.  The norm is finite at every degree,
    # so the residual is what leaves the floats
    code = cli.main(["bender", *argv, "--format", "csv"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    match = re.fullmatch(rf"error: --N {argv[1]}: at n = (\d+) the eigenfunction's residual "
                         r"leaves the float range\n", err)
    first = int(match[1])
    assert 40 < first < int(argv[3])
    code, rows = run_csv(capsys, ["bender", argv[0], argv[1], "--n-max", str(first - 1),
                                  "--format", "csv"])
    assert code == 0 and len(rows) == first
    assert all(float(row["residual_max"]) < verify.RESIDUAL_TOL for row in rows)


def test_a_norm_past_the_floats_is_an_overflow():
    # rate^-(s+1) and Gamma(s+1) are each finite here, their product is not:
    # s + 1 = 3(mu + 1/2) = 1.8e305 and rate = lam^2 = 1e-308
    with pytest.raises(OverflowError, match="norm"):
        powerlaw.wavefunction(powerlaw.PowerLawFamily(mu=6e304, lam=1e-154))


@pytest.mark.filterwarnings("error")
def test_the_norm_is_finite_at_a_degree_bender_refuses():
    # the Gauss-Laguerre norm of the N = 1 eigenfunction left the floats before
    # degree 200, where L at its nodes overflowed; the connection-formula sum
    # forms no Laguerre value, so bender's refusal there is the residual's
    sol = halfline.eigenfunction(1, 200)
    assert sol.normalized and math.isfinite(sol.log_amplitude)
    assert sol.log_norm() == pytest.approx(0.0, abs=1e-12)


def test_dirac_json(capsys, schema):
    code, doc = run_json(capsys, ["dirac", "--beta", "0.5", "--l", "1"])
    assert code == 0 and doc["passed"] is True
    assert doc["parameters"] == {"beta": 0.5, "lambda": 1.0, "l": 1}
    assert doc["results"]["kappa"] == -2
    assert doc["results"]["n"] == 0
    assert doc["results"]["norm_quadrature"] == pytest.approx(1.0, abs=1e-8)
    jsonschema.validate(doc, schema)


def test_dirac_where_the_gamma_function_overflows(capsys, schema):
    # C_l needs Gamma(260) here, which overflows a float; it is formed in logs
    code, doc = run_json(capsys, ["dirac", "--beta", "0.05", "--lambda", "3", "--l", "5"])
    assert code == 0 and doc["passed"] is True
    assert 0.0 < doc["results"]["c_l"] < 1e-200
    jsonschema.validate(doc, schema)


def test_dirac_where_c_l_underflows(capsys, schema):
    # log C_l = -896.5, so c_l reads 0.0; the spinor is scaled in logs, and
    # normalized it peaks near e^-5 at r = 1.3e5
    code, doc = run_json(capsys, ["dirac", "--beta", "0.5", "--l", "90"])
    assert code == 0 and doc["passed"] is True
    assert doc["results"]["c_l"] == 0.0
    assert doc["results"]["norm_quadrature"] == pytest.approx(1.0, abs=1e-8)
    jsonschema.validate(doc, schema)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", ["0.01", "1e-3"])
def test_dirac_reports_log_c_l_where_c_l_underflows(capsys, schema, beta):
    # c_l read 0.0 beside "normalized": true, like a failed normalization;
    # log C_l = log|beta|/2 - lgamma(5/beta)/2 at kappa = -2 and lam = 1
    code, doc = run_json(capsys, ["dirac", "--beta", beta, "--l", "1"])
    res = doc["results"]
    expected = 0.5 * (math.log(float(beta)) - math.lgamma(5.0 / float(beta)))
    assert code == 0 and doc["passed"] is True and res["normalized"] is True
    assert res["c_l"] == 0.0 and res["log_c_l"] == pytest.approx(expected, rel=1e-14)
    jsonschema.validate(doc, schema)


@pytest.mark.filterwarnings("error")
def test_dirac_where_c_l_overflows(capsys, schema):
    # log C_l = 10806: math.exp raised OverflowError, and the command exited 2
    # with "the problem's numbers leave the float range"; c_l is inf, written null
    code, doc = run_json(capsys, ["dirac", "--beta", "0.01", "--lambda", "1e50"])
    res = doc["results"]
    assert code == 0 and doc["passed"] is True and res["normalized"] is True
    assert res["c_l"] is None and res["log_c_l"] == pytest.approx(10806.02, abs=0.01)
    assert res["residual_33_max"] < 1e-12 and abs(res["norm_quadrature"] - 1.0) < 1e-9
    jsonschema.validate(doc, schema)


def test_dirac_norm_row_names_the_independent_check():
    row = next(c for c in verify.suite_dirac() if c.name.startswith("dirac.norm"))
    assert row.passed and "independent check of the closed-form C_l" in row.detail


def test_verify_suite_and_schema(capsys, schema):
    code, doc = run_json(capsys, ["verify", "--suite", "specfn", "--suite", "degeneracy"])
    assert code == 0 and doc["passed"] is True
    jsonschema.validate(doc, schema)
    assert all(row["passed"] for row in doc["results"])


def test_verify_failure_exit_code(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "specfn",
                                  "--tolerance-scale", "1e-20"])
    assert code == 1
    assert doc["passed"] is False


def test_potential_csv(capsys):
    code, rows = run_csv(capsys, ["potential", "--mu", "3/2", "--lambda", "2",
                                  "--points", "10", "--format", "csv"])
    assert code == 0
    assert list(rows[0].keys()) == ["r", "v", "v_eff"]
    assert len(rows) == 10


def test_potential_writes_the_maps_parameters(capsys):
    code, doc = run_json(capsys, ["potential", "--mu", "3/2", "--lambda", "2", "--l", "1",
                                  "--n", "2"])
    res = doc["results"]
    assert code == 0 and res["gamma"] == 2.5 and res["energy"] == 0.0
    assert res["terms"] == {"repulsive_coeff": 0.5, "repulsive_exponent": -1.0,
                            "attractive_coeff": 2.75, "attractive_exponent": -1.5}


@pytest.mark.filterwarnings("error")
def test_potential_takes_the_dominant_term_where_both_leave_the_floats(capsys):
    # p1 = -20002 and p2 = -10002: below r = 1 both terms overflow, and
    # c1 r^p1 - c2 r^p2 read inf - inf = nan with four RuntimeWarnings
    code, rows = run_csv(capsys, ["potential", "--mu", "-0.5001", "--format", "csv"])
    r, v, v_eff = (np.array([float(row[k]) for row in rows]) for k in ("r", "v", "v_eff"))
    assert code == 0 and not np.isnan(v).any() and not np.isnan(v_eff).any()
    assert np.all(v[r < 0.9] == np.inf) and np.all(np.isfinite(v[r > 1.1]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["potential", "--mu", "2.5", "--r-min", "1e-300"],
    ["potential", "--mu", "7/3", "--l", "100000", "--r-max", "1e300"],
    ["figures", "--which", "2", "--lambda", "1e40", "--mu-negative", "-0.4999"]],
    ids=["l0-r-min-1e-300", "l-1e5-r-max-1e300", "figure-2-lambda-1e40"])
def test_the_effective_potential_takes_the_dominant_term_beyond_the_floats(capsys, schema,
                                                                           argv):
    # V_eff read 0/0 from l(l+1)/r^2 at l = 0 where r^2 underflows, overflowed
    # in r^2 at l = 1e5, and read inf - inf at lambda = 1e40: RuntimeWarnings
    # on exit 0.  Where the sum leaves the floats it is the dominant term's inf
    code, doc = run_json(capsys, argv)
    assert code == 0
    jsonschema.validate(doc, schema)
    if argv[0] == "potential":
        for row in doc["results"]["samples"]:
            if row["v"] is None:
                assert row["v_eff"] is None
            elif argv[2] == "2.5":  # at l = 0, V_eff is 2 V exactly
                assert row["v_eff"] == 2.0 * row["v"]


def test_potential_json_notes_the_samples_it_writes_as_null(capsys, schema):
    # V is +inf below r = 1 at mu = -0.5001; null alone cannot tell that from
    # a failed evaluation, so the schema asks for the note
    code, doc = run_json(capsys, ["potential", "--mu", "-0.5001"])
    samples = doc["results"]["samples"]
    nulls = sum(s["v"] is None or s["v_eff"] is None for s in samples)
    assert code == 0 and nulls == 99
    assert doc["results"]["note"].startswith(f"v or v_eff is null on 99 of {len(samples)} samples")
    jsonschema.validate(doc, schema)
    del doc["results"]["note"]
    with pytest.raises(jsonschema.ValidationError, match="'note' is a required property"):
        jsonschema.validate(doc, schema)
    code, doc = run_json(capsys, ["potential", "--mu", "3/2"])
    assert "note" not in doc["results"]
    jsonschema.validate(doc, schema)


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZEPL_OUTPUT_DIR", str(tmp_path))
    code = cli.main(["degeneracy", "--mu", "3/2", "--omega", "11",
                     "--output", "pairs.json"])
    assert code == 0
    doc = json.loads((tmp_path / "pairs.json").read_text())
    assert doc["results"]["pairs"] == [[0, 4], [1, 2], [2, 0]]
    capsys.readouterr()


def test_io_error_exit_code(capsys):
    code = cli.main(["degeneracy", "--mu", "3/2", "--omega", "11",
                     "--output", "/nonexistent-dir/zepl-out.json"])
    assert code == 3
    capsys.readouterr()


def test_oracle_csv_header(capsys):
    code, rows = run_csv(capsys, ["oracle", "--N", "0", "--count", "1",
                                  "--format", "csv"])
    assert code == 0
    assert list(rows[0].keys()) == ["index", "recovered", "predicted",
                                    "rel_err", "node_count"]


@pytest.mark.parametrize("argv", [
    ["oracle", "--mu", "3/2", "--count", "21"],
    ["oracle", "--N", "0", "--count", "21"],
    ["oracle", "--mu", "3/2", "--l", "-1"],
    ["bender", "--N", "0", "--n-max", "-1"],
    ["potential", "--mu", "3/2", "--points", "0"],
    ["figures", "--which", "2", "--points", "0"],
    ["oracle", "--mu", "3/2", "--tolerance", "-1"],
    ["bender", "--N", "0", "--tolerance", "0"],
    ["dirac", "--beta", "0.5", "--tolerance", "-1"],
    ["oracle", "--mu", "3/2", "--tolerance", "-1e-8"],
    ["dirac", "--beta", "0.5", "--tolerance", "-1e-8"],
    ["bender", "--N", "0", "--tolerance", "-1e-8"],
    ["verify", "--suite", "specfn", "--tolerance-scale", "-1e-3"],
    ["verify", "--all", "--suite", "specfn"],
    ["dirac", "--beta", "1e6"],
    ["dirac", "--beta", "1e17"],
    ["classify", "--mu", "abc"],
    ["classify", "--mu", "1/0"],
    ["classify", "--mu", "3/2", "--coupling-scale", "-1"],
    ["oracle", "--mu", "3/2", "--lambda", "1e300", "--count", "1"],
    ["degeneracy", "--mu", "3/2", "--omega", "1e400"],
    ["classify", "--mu", "3/2", "--lambda", "inf"],
    ["classify", "--mu", "3/2", "--coupling-scale", "inf"],
    ["potential", "--mu", "3/2", "--r-max", "1e400"],
    ["dirac", "--beta", "0.5", "--l", "1", "--alpha-fs", "inf"],  # no such option
    ["bender", "--N", "1", "--tolerance", "inf"],
    ["verify", "--suite", "specfn", "--tolerance-scale", "inf"],
    ["oracle", "--mu", "1e10", "--count", "1"],
    ["oracle", "--mu", "-1e10", "--l", "1", "--count", "1"],
    ["figures", "--which", "2", "--l", "-3"],
    ["figures", "--which", "3", "--l", "0"],
    ["oracle", "--N", str(10**110), "--count", "1"],
    ["oracle", "--N", str(10**130), "--count", "1"],
    ["classify"],
    ["oracle", "--mu", "3/2", "--bogus", "1"],
    ["bender", "--N", "-2"],
    ["figures", "--which", "1", "--mu-range", "-4:4:1e-12"],
    ["figures", "--which", "1", "--mu-range", "0:1e300:1e-300"],
], ids=["oracle-count-21", "oracle-energy-count-21", "oracle-negative-l",
        "bender-negative-n-max", "potential-zero-points", "figures-zero-points",
        "oracle-negative-tolerance", "bender-zero-tolerance", "dirac-negative-tolerance",
        "oracle-exponent-tolerance", "dirac-exponent-tolerance",
        "bender-exponent-tolerance", "verify-exponent-tolerance-scale",
        "verify-all-with-suite", "dirac-beta-1e6", "dirac-beta-1e17",
        "classify-mu-not-a-number", "classify-mu-1-over-0",
        "classify-negative-coupling-scale", "oracle-lambda-1e300", "degeneracy-omega-1e400",
        "classify-lambda-inf", "classify-coupling-scale-inf", "potential-r-max-1e400",
        "dirac-alpha-fs-inf", "bender-tolerance-inf", "verify-tolerance-scale-inf",
        "oracle-mu-1e10", "oracle-mu-minus-1e10", "figures-negative-l", "figures-zero-l",
        "oracle-N-1e110", "oracle-N-1e130", "classify-without-mu", "oracle-unknown-option",
        "bender-N-minus-2", "figures-mu-range-8e12-samples", "figures-mu-range-1e600-samples"])
def test_bad_input_is_a_one_line_validation_error(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv, option", [
    (["classify", "--mu", "3/2", "--lambda", "inf"], "--lambda"),
    (["classify", "--mu", "abc"], "--mu"),
    (["dirac", "--beta", "0.5", "--tolerance", "-1"], "--tolerance"),
    (["verify", "--suite", "specfn", "--tolerance-scale", "0"], "--tolerance-scale"),
    (["figures", "--which", "1", "--mu-range", "oops"], "--mu-range"),
    (["classify", "--mu", "-inf"], "--mu"),
    (["classify", "--mu", "-Infinity"], "--mu"),
    (["figures", "--which", "3", "--mu-negative", "-nan"], "--mu-negative"),
], ids=["lambda-inf", "mu-abc", "tolerance-minus-1", "tolerance-scale-0", "mu-range-oops",
        "mu-minus-inf", "mu-minus-Infinity", "mu-negative-minus-nan"])
def test_a_type_error_names_its_option(capsys, argv, option):
    # the types raised their own error, whose line named the value alone, as
    # "error: 'inf' is not a finite number"; -inf, -Infinity and -nan did not
    # reach the type: "expected one argument"
    code = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1
    assert err[0].startswith(f"error: zepl {argv[0]}: argument {option}: '{argv[-1]}' ")


def test_mu_range_takes_at_most_1e5_samples():
    # -4:4:1e-12 asked numpy for 58 TiB: an _ArrayMemoryError traceback, exit 1
    lo, hi, step = cli.mu_range("0:99999:1")
    assert len(np.arange(lo, hi + step / 2, step)) == cli.MU_RANGE_SAMPLES
    with pytest.raises(argparse.ArgumentTypeError, match="more than 100000 samples"):
        cli.mu_range("0:100000:1")


@pytest.mark.parametrize("given, echoed", [(["--mu-range", "-1:1:0.25"], "-1:1:0.25"),
                                           ([], "-4:4:0.01")], ids=["given", "default"])
def test_figure_one_echoes_its_range(capsys, schema, given, echoed):
    code, doc = run_json(capsys, ["figures", "--which", "1", *given])
    assert code == 0 and doc["parameters"]["mu_range"] == echoed
    jsonschema.validate(doc, schema)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, l", [("1e16", "1"), ("1e40", "3"), ("-1e40", "3")])
def test_classify_reports_a_well_at_mu_beyond_4e15(capsys, schema, mu, l):
    # k = 1/(mu + 1/2) was formed as p2 + 2, which cancels to 0 here: a
    # ZeroDivisionError traceback, exit 1
    code, doc = run_json(capsys, ["classify", "--mu", mu, "--l", l])
    well = doc["results"]["well"]
    assert code == 0 and well["found_negative_minimum"] and well["r_min"] is None
    # r_min is past the floats, and its log is reported in its place
    assert math.isfinite(well["log_r_min"]) and abs(well["log_r_min"]) >= 709.0
    jsonschema.validate(doc, schema)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("which, mu, named", [
    ("2", "1e40", "1e+40"), ("4", "-1e40", "-1e+40"), ("4", "-300", "-300"),
    ("2", "108", "108"), ("4", "-114", "-114")])
def test_figures_whose_radii_leave_the_floats_are_refused_by_name(capsys, which, mu, named):
    # the turning radius divided by p1 - p2, which cancels to 0 at 1e40: a
    # ZeroDivisionError traceback, exit 1.  At -300 it underflowed to 0, and
    # at 108 and -114 its window of 10^(+-3) left the floats: numpy's
    # "Geometric sequence cannot include zero" or an overflow warning
    code = cli.main(["figures", "--which", which, "--mu", mu])
    assert code == 2 and capsys.readouterr().err.splitlines() == [
        f"error: --mu {named} --lambda 1.0: the problem's numbers leave the float range"]


def test_main_alone_writes_the_document_and_picks_the_exit_code():
    # each runner wrote its own envelope and returned its own exit code
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    callers = {"_emit": set(), "_envelope": set()}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                callers[node.func.id].add(fn.name)
            if fn.name.startswith("_cmd_") and isinstance(node, ast.Name):
                assert not node.id.startswith("EXIT_"), f"{fn.name} names {node.id}"
    assert callers == {"_emit": {"main"}, "_envelope": {"main"}}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", ["1e-300", "-1e-300", "1e-154"])
def test_a_dirac_coupling_whose_square_leaves_the_floats_is_refused_first(capsys, beta):
    # the reduced equation's r^(2 beta) coefficient is the coupling squared.
    # At 1e-300 the refusal came from reduced_form_agreement, after four
    # RuntimeWarnings from residual_33; at 1e-154 the square is subnormal and
    # the checks failed, exit 1.  Now the family refuses it, before any sum
    code = cli.main(["dirac", "--beta", beta])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1
    assert err[0] == (f"error: --lambda 1.0 --beta {float(beta):g}: "
                      "the problem's numbers leave the float range")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["--beta", "1e154"], ["--beta", "1e154", "--l", "3"],
                                  ["--beta", "2000"]], ids=["1e154", "1e154-l3", "2000"])
def test_dirac_refuses_beta_beyond_1e3_before_any_check_runs(capsys, argv):
    # upper_spinor, lower_component_relative and residual_33 ran before
    # reduced_form_agreement refused |beta| > 1e3: at 1e154 four
    # RuntimeWarnings came first, a traceback with exit 1 under -W error
    code = cli.main(["dirac", *argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("error: ")
    assert "|beta| > 1e3" in err[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["dirac", "--beta", "1e-3"],
                                  ["dirac", "--beta", "0.01", "--lambda", "1000"]],
                         ids=["beta-1e-3", "beta-0.01-lambda-1000"])
def test_dirac_checks_where_the_grid_radii_leave_the_floats(capsys, schema, argv):
    # phi's mass lies beyond |log r| = 704, where the quadrature in r found no
    # nonzero sample or a truncated window and wrote null; in log w it converges
    code, doc = run_json(capsys, argv)
    res = doc["results"]
    assert code == 0 and doc["passed"] is True
    assert res["residual_33_max"] < 1e-12 and abs(res["norm_quadrature"] - 1.0) < 1e-9
    jsonschema.validate(doc, schema)


def test_dirac_writes_null_with_the_note_for_an_unconverged_norm(capsys, schema, monkeypatch):
    miss = oracle.QuadResult(0.5, 0.1, False, 30_000, "sample budget exhausted")
    monkeypatch.setattr(dirac, "spinor_norm", lambda family: miss)
    code, doc = run_json(capsys, ["dirac", "--beta", "0.5", "--l", "1"])
    res = doc["results"]
    assert code == 0 and doc["passed"] is True
    assert res["norm_quadrature"] is None and "sample budget exhausted" in res["notes"]
    jsonschema.validate(doc, schema)


@pytest.mark.parametrize("mu", ["1e10", "-1e10"])
def test_oracle_refuses_mu_beyond_the_reach_of_shooting_by_name(capsys, mu):
    # lsoda ran out of steps here: a RuntimeError traceback with exit 1
    assert cli.main(["oracle", "--mu", mu, "--l", "1", "--count", "1"]) == 2
    assert f"--mu {float(mu):g} --l 1: " in capsys.readouterr().err


def test_a_sweep_that_outruns_its_steps_is_refused_by_name(capsys):
    # l = 10000 takes the inward sweep past its step budget: a RuntimeError
    # traceback with exit 1
    assert cli.main(["oracle", "--mu", "-1e5", "--l", "10000", "--count", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --mu -100000 --l 10000: ")
    assert "a shooting sweep failed (" in err[0] and "Excess work done" in err[0]


def test_an_energy_sweep_that_outruns_its_steps_is_refused_by_name(capsys, monkeypatch):
    def outrun(n_power, count):
        raise RuntimeError("radial integration failed")

    monkeypatch.setattr(oracle, "shoot_energy_bender", outrun)
    assert cli.main(["oracle", "--N", "3", "--count", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --N 3: a shooting sweep failed (radial integration failed)"]


@pytest.mark.parametrize("argv", [["--mu", "-0.499995", "--l", "0", "--count", "2"],
                                  ["--mu", "1e7", "--l", "10", "--count", "3"],
                                  ["--mu", "-0.4999999", "--count", "2"],
                                  ["--mu", "-0.50000001", "--count", "2"],
                                  ["--N", "100000000", "--count", "2"]],
                         ids=["mu-near-minus-half", "mu-1e7", "mu-minus-0.4999999",
                              "mu-minus-0.50000001", "N-1e8"])
def test_oracle_shoots_near_minus_half_and_beyond_mu_1e5(capsys, argv):
    # near -1/2 level 1 read 2.65e-6 against ORACLE_TOL, exit 1; |mu| > 1e5
    # was refused before shooting.  The WKB start's slope was a finite
    # difference: at -0.4999999 it failed with "math domain error", and at
    # -0.50000001 and N = 1e8 it left the floats
    code, doc = run_json(capsys, ["oracle", *argv])
    assert code == 0 and doc["passed"] is True
    assert max(row["rel_err"] for row in doc["results"]["levels"]) < 1e-9


def test_an_infinite_number_is_refused_by_name(capsys):
    assert cli.main(["degeneracy", "--mu", "3/2", "--omega", "1e400"]) == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["oracle", "--mu", "3/2", "--lambda", "1e300", "--count", "1"], "--lambda 1e+300"),
    (["potential", "--mu", "3/2", "--lambda", "1e200"], "--lambda 1e+200"),
    (["figures", "--which", "2", "--lambda", "1e300"], "--lambda 1e+300"),
    (["dirac", "--beta", "0.5", "--lambda", "1e300"], "--lambda 1e+300"),
    (["classify", "--mu", "1e300"], "--mu 1e+300"),
    (["oracle", "--mu", "1e300", "--count", "1"], "--mu 1e+300"),
    (["dirac", "--beta", "0.5", "--l", "1", "--lambda", "1e-170"], "--lambda 1e-170"),
    (["dirac", "--beta", "-3", "--l", "1", "--lambda", "1e-300"], "--lambda 1e-300"),
    (["oracle", "--mu", "3/2", "--lambda", "1e-80", "--count", "2"], "--lambda 1e-80"),
    (["oracle", "--N", str(10**309), "--count", "2"], f"--N {10**309}"),
], ids=["oracle-lambda", "potential-lambda", "figures-lambda", "dirac-lambda",
        "classify-mu", "oracle-mu", "dirac-lambda-1e-170",
        "dirac-negative-beta-lambda-1e-300", "oracle-lambda-1e-80", "oracle-N"])
def test_a_value_beyond_the_floats_is_refused_by_name(capsys, argv, named):
    # these printed Python's bare "(34, 'Numerical result out of range')", blamed
    # the term coefficients, or (oracle --mu 1e300) ended in a ZeroDivisionError;
    # oracle --lambda 1e-80 shot a subnormal repulsive coefficient to a 2e-3
    # error and exit 1
    code = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1
    assert err[0].startswith("error: ") and named in err[0] and "float range" in err[0]


def test_energy_mode_names_only_the_half_line_options(capsys):
    # --lambda states no part of the half-line problem, yet its default 1.0
    # was named: "error: --lambda 1.0 --N 100000000: ..."
    code = cli.main(["oracle", "--N", str(10**309), "--count", "2"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --N {10**309}: the problem's numbers leave the float range"]


@pytest.mark.parametrize("extra", [["--lambda", "5"], ["--l", "3"], ["--lambda", "5", "--l", "3"]],
                         ids=["lambda", "l", "both"])
def test_energy_mode_refuses_the_coupling_mode_options(capsys, extra):
    # both were accepted and ignored: exit 0 with a passed half-line check
    assert cli.main(["oracle", "--N", "2", "--count", "1", *extra]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: energy mode (--N) takes neither --lambda nor --l"]


def test_coupling_mode_defaults_lambda_and_l(capsys, schema):
    code, doc = run_json(capsys, ["oracle", "--mu", "3/2", "--count", "1"])
    assert code == 0 and doc["parameters"]["lambda"] == 1.0 and doc["parameters"]["l"] == 0
    jsonschema.validate(doc, schema)


def test_json_writes_non_finite_numbers_as_null(capsys, schema):
    row = {"name": "suite.residual", "value": float("inf"), "tolerance": 1e-8,
           "passed": False, "detail": ""}
    doc = cli._envelope("verify", {"suites": ["x"], "nan": float("nan")},
                        [row, {**row, "value": -np.inf}], passed=False)
    cli._emit(doc, [], argparse.Namespace(format="json", output=None))
    text = capsys.readouterr().out
    out = json.loads(text, parse_constant=pytest.fail)
    assert out["parameters"]["nan"] is None
    assert [r["value"] for r in out["results"]] == [None, None]
    assert out["results"][0]["tolerance"] == 1e-8
    jsonschema.validate(out, schema)


def test_oracle_matches_in_the_well_at_mu_minus_20(capsys):
    code, doc = run_json(capsys, ["oracle", "--mu", "-20", "--l", "2", "--count", "3"])
    assert code == 0
    assert [row["node_count"] for row in doc["results"]["levels"]] == [0, 1, 2]


def test_tolerance_scale_does_not_pass_failed_flags(capsys, monkeypatch):
    failed = [verify.CheckResult.flag("suite.flag", False),
              verify.CheckResult.from_max("suite.runtime s", 61.0, 60.0, scales=False),
              verify.CheckResult.from_max("suite.residual", 2e-8, 1e-8)]
    monkeypatch.setattr(verify, "run_suite", lambda name: failed)
    code, doc = run_json(capsys, ["verify", "--suite", "specfn",
                                  "--tolerance-scale", "3"])
    assert code == 1 and doc["passed"] is False
    rows = {r["name"]: r for r in doc["results"]}
    assert rows["suite.flag"]["passed"] is False
    assert rows["suite.flag"]["tolerance"] == 0.5
    assert rows["suite.runtime s"]["passed"] is False
    assert rows["suite.runtime s"]["tolerance"] == 60.0
    assert rows["suite.residual"]["passed"] is True  # accuracy rows do scale


def test_oracle_json_carries_shooting_diagnostics(capsys, schema):
    code, doc = run_json(capsys, ["oracle", "--N", "-1", "--count", "1"])
    assert code == 0
    diag = doc["results"]["diagnostics"]
    for key in ("mismatch_evals", "rhs_evals"):
        assert isinstance(diag[key], int) and diag[key] > 0
    jsonschema.validate(doc, schema)
