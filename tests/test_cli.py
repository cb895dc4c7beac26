import argparse
import csv
import io
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from zepl import cli, dirac, oracle, verify


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


def test_dirac_json(capsys, schema):
    code, doc = run_json(capsys, ["dirac", "--beta", "0.5", "--l", "1",
                                  "--alpha-fs", "1.0"])
    assert code == 0 and doc["passed"] is True
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


@pytest.mark.filterwarnings("error")
def test_potential_takes_the_dominant_term_where_both_leave_the_floats(capsys):
    # p1 = -20002 and p2 = -10002: below r = 1 both terms overflow, and
    # c1 r^p1 - c2 r^p2 read inf - inf = nan with four RuntimeWarnings
    code, rows = run_csv(capsys, ["potential", "--mu", "-0.5001", "--format", "csv"])
    r, v, v_eff = (np.array([float(row[k]) for row in rows]) for k in ("r", "v", "v_eff"))
    assert code == 0 and not np.isnan(v).any() and not np.isnan(v_eff).any()
    assert np.all(v[r < 0.9] == np.inf) and np.all(np.isfinite(v[r > 1.1]))


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
    ["dirac", "--beta", "0.5", "--l", "1", "--alpha-fs", "inf"],
    ["bender", "--N", "1", "--tolerance", "inf"],
    ["verify", "--suite", "specfn", "--tolerance-scale", "inf"],
    ["oracle", "--mu", "1e10", "--count", "1"],
    ["oracle", "--mu", "-1e10", "--l", "1", "--count", "1"],
    ["figures", "--which", "2", "--l", "-3"],
    ["figures", "--which", "3", "--l", "0"],
    ["oracle", "--N", str(10**110), "--count", "1"],
    ["oracle", "--N", str(10**130), "--count", "1"],
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
        "oracle-N-1e110", "oracle-N-1e130"])
def test_bad_input_is_a_one_line_validation_error(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")


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
    for key in ("mismatch_evals", "ode_sweeps", "rhs_evals"):
        assert isinstance(diag[key], int) and diag[key] > 0
    jsonschema.validate(doc, schema)
