import argparse
import csv
import io
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from zepl import cli, verify


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
    ["oracle", "--mu", "3/2", "--count", "7"],
    ["oracle", "--N", "0", "--count", "5"],
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
], ids=["oracle-count-7", "oracle-energy-count-5", "oracle-negative-l",
        "bender-negative-n-max", "potential-zero-points", "figures-zero-points",
        "oracle-negative-tolerance", "bender-zero-tolerance", "dirac-negative-tolerance",
        "oracle-exponent-tolerance", "dirac-exponent-tolerance",
        "bender-exponent-tolerance", "verify-exponent-tolerance-scale",
        "verify-all-with-suite"])
def test_bad_input_is_a_one_line_validation_error(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")


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
