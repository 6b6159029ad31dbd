"""Command-line driver: argument handling, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from krallzeros import identities
from krallzeros.cli import main
from krallzeros.identities import Cell, IdentityReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestFamilyCommand:
    def test_krall_laguerre_linear(self, capsys):
        code, out = run(capsys, "family", "--family", "krall-laguerre", "--alpha", "1", "--n", "1",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["members"][1]["coefficients"] == ["1", "-2"]

    def test_degree_zero_constant(self, capsys):
        code, out = run(capsys, "family", "--family", "krall-legendre", "--alpha", "2", "--n", "0",
                        "--format", "json")
        assert code == 0
        members = json.loads(out)["members"]
        assert len(members) == 1 and len(members[0]["coefficients"]) == 1

    def test_krall_jacobi_mass_constant(self, capsys):
        code, out = run(capsys, "family", "--family", "krall-jacobi", "--alpha", "0",
                        "--m-param", "1", "--n", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["members"][0]["coefficients"] == ["1"]

    def test_rational_strings(self, capsys):
        code, out = run(capsys, "family", "--family", "krall-legendre", "--alpha", "1/2", "--n", "2",
                        "--format", "json")
        assert code == 0
        # degree-2 member of the half-parameter family has fractional coefficients
        coeffs = json.loads(out)["members"][2]["coefficients"]
        assert coeffs == ["-7/4", "0", "9/4"]

    def test_float_mode(self, capsys):
        code, out = run(capsys, "family", "--family", "krall-laguerre", "--alpha", "1", "--n", "1",
                        "--mode", "float", "--format", "json")
        assert code == 0
        assert json.loads(out)["members"][1]["coefficients"] == ["1", "-2"]

    def test_missing_parameters_exit_2(self, capsys):
        assert main(["family", "--family", "krall-laguerre", "--n", "1"]) == 2
        assert main(["family", "--family", "all", "--n", "1"]) == 2


class TestZerosCommand:
    def test_single_zero(self, capsys):
        code, out = run(capsys, "zeros", "--family", "krall-legendre", "--alpha", "1", "--n", "1",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["zeros"] == [0.0]

    def test_laguerre_half(self, capsys):
        code, out = run(capsys, "zeros", "--family", "krall-laguerre", "--alpha", "1", "--n", "1",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["zeros"] == [0.5]

    def test_legendre_pair(self, capsys):
        code, out = run(capsys, "zeros", "--family", "krall-legendre", "--alpha", "1", "--n", "2",
                        "--format", "json")
        payload = json.loads(out)
        assert payload["zeros"][0] == pytest.approx(-0.81650, abs=5e-6)
        assert payload["zeros"][1] == pytest.approx(0.81650, abs=5e-6)
        assert max(payload["residuals"]) < 1e-14


class TestMatrixCommand:
    def test_first_derivative_on_two_nodes(self, capsys):
        code, out = run(capsys, "matrix", "--kind", "ztilde", "--order", "1", "--nodes", "-1,1",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "c1,c2"
        assert [float(v) for v in lines[2].split(",")] == [-0.5, 0.5]
        assert [float(v) for v in lines[3].split(",")] == [-0.5, 0.5]

    def test_diagonal_spectral_matrix(self, capsys):
        code, out = run(capsys, "matrix", "--kind", "dtau", "--family", "krall-laguerre",
                        "--alpha", "1", "--n", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)["data"]
        assert data[0][0] == 0.0 and data[1][1] == 4.0 and data[2][2] == 10.0
        assert data[0][1] == data[1][0] == 0.0

    def test_one_node_collocation_matrix(self, capsys):
        code, out = run(capsys, "matrix", "--kind", "dc", "--family", "krall-legendre",
                        "--alpha", "1", "--n", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["data"] == [[0.0]]

    def test_simplified_and_weights(self, capsys):
        code, out = run(capsys, "matrix", "--kind", "dc-simplified", "--family", "krall-jacobi",
                        "--alpha", "1", "--m-param", "2", "--n", "3", "--format", "json")
        assert code == 0
        code, out = run(capsys, "matrix", "--kind", "lambda", "--family", "krall-laguerre",
                        "--alpha", "2", "--n", "3", "--format", "json")
        assert code == 0
        diag = json.loads(out)["data"]
        assert all(diag[i][i] > 0 for i in range(3))

    def test_transition_pair(self, capsys):
        code, out_l = run(capsys, "matrix", "--kind", "l", "--family", "krall-legendre",
                          "--alpha", "1", "--n", "3", "--format", "json")
        assert code == 0
        code, out_li = run(capsys, "matrix", "--kind", "linv", "--family", "krall-legendre",
                           "--alpha", "1", "--n", "3", "--format", "json")
        assert code == 0
        import numpy as np

        l_mat = np.array(json.loads(out_l)["data"])
        li_mat = np.array(json.loads(out_li)["data"])
        assert np.max(np.abs(l_mat @ li_mat - np.eye(3))) < 1e-10

    def test_transition_pair_on_given_nodes(self, capsys):
        # -1, 0, 1 are not the zeros of the degree-3 Hermite member: the
        # pair comes from the inner products, and still inverts exactly
        pair = []
        for kind in ("l", "linv"):
            code, out = run(capsys, "matrix", "--kind", kind, "--family", "hermite", "--nodes", "-1,0,1",
                            "--n", "3", "--format", "json")
            assert code == 0
            pair.append(json.loads(out))
        assert pair[0]["note"] == "inner-product expansion of the Lagrange basis on 3 given nodes"
        l_mat, li_mat = pair[0]["data"], pair[1]["data"]
        assert l_mat[0] == [0.25, 0.5, 0.25]
        assert [[sum(l_mat[i][k] * li_mat[k][j] for k in range(3)) for j in range(3)] for i in range(3)] == [
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
        ]

    def test_simplified_rejects_given_nodes(self, capsys):
        code = main(["matrix", "--kind", "dc-simplified", "--family", "krall-legendre", "--alpha", "1",
                     "--nodes", "1,2,3", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "only at the family zeros" in captured.err

    def test_overflowing_nodes_exit_2(self, capsys):
        code = main(["matrix", "--kind", "z", "--order", "1", "--nodes", "0,1e308,-1e308"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "overflow double precision" in captured.err


class TestVerifyCommand:
    def test_eigenpair_sweep_all_families(self, capsys):
        code, out = run(capsys, "verify", "--suite", "thm1", "--family", "all", "--n", "2..4",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["pass"] is True
        assert payload["summary"]["max_residual"] < 1e-8
        assert len(payload["reports"]) == 10 * 3

    def test_rowsum_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "rowsum", "--family", "krall-jacobi",
                        "--alpha", "1", "--m-param", "2", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["rowsum_residual"] < 1e-9

    def test_variant_discrimination(self, capsys):
        code, out = run(capsys, "verify", "--suite", "klag-main", "--variant", "both", "--n", "4",
                        "--format", "json", "--always-wrap")
        assert code == 0
        payload = json.loads(out)
        for report in payload["reports"]:
            assert report["summary"]["extras"]["verdict"] == "corrected"
            assert report["summary"]["extras"]["printed_residual"] > 1e-7
            assert report["summary"]["extras"]["corrected_residual"] < 1e-7

    def test_failure_exit_code_and_worst_cell(self, capsys):
        code, out = run(capsys, "verify", "--suite", "fourth-order", "--family", "krall-laguerre",
                        "--alpha", "1", "--n", "6", "--tolerance", "1e-30")
        assert code == 1
        assert "worst cell" in out

    def test_failing_report_without_cells_names_itself(self, capsys):
        # spectrum reports carry no per-cell results; the failing one must still be named
        code, out = run(capsys, "verify", "--suite", "spectrum", "--family", "krall-legendre",
                        "--alpha", "1", "--n", "4", "--tolerance", "1e-30")
        assert code == 1
        assert out.splitlines()[-1].startswith("worst cell: spectrum krall-legendre N=4 residual=")

    def test_worst_cell_comes_from_a_failing_report(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all", "--family", "krall-legendre",
                        "--alpha", "1", "--n", "4", "--tolerance", "1e-30", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        failing = [r for r in payload["reports"] if not r["summary"]["pass"]]
        worst = payload["summary"]["worst_cell"]
        # the diffmat report has no cells and the largest residual of the failing reports
        assert worst["identity"] == "diffmat-agreement"
        assert worst["residual"] == max(r["summary"]["max_residual"] for r in failing)
        assert (worst["family"], worst["N"]) == ("krall-legendre", 4)

    def test_suite_family_conflict(self, capsys):
        assert main(["verify", "--suite", "kleg-main", "--family", "krall-jacobi",
                     "--alpha", "1", "--m-param", "1", "--n", "3"]) == 2

    @pytest.mark.parametrize("suite, family", [
        ("fourth-order", ["--family", "hermite"]),
        ("kleg-main", ["--family", "krall-laguerre", "--alpha", "1"]),
        ("klag-main", ["--family", "krall-jacobi", "--alpha", "1", "--m-param", "1"]),
        ("kjac-main", ["--family", "krall-legendre", "--alpha", "1"]),
    ])
    def test_suite_family_conflict_strict(self, capsys, suite, family):
        # a lone suite on a family it does not cover is an error, not an empty pass
        assert main(["verify", "--suite", suite, *family, "--n", "4"]) == 2
        assert f"suite {suite} applies to" in capsys.readouterr().err

    def test_all_skips_suites_that_do_not_apply(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all", "--family", "hermite", "--n", "2",
                        "--format", "json")
        assert code == 0
        identities_run = {r["meta"]["identity"] for r in json.loads(out)["reports"]}
        assert "fourth-order-zeros" not in identities_run and "eigenpair" in identities_run

    def test_nan_cell_after_the_first_fails(self, capsys, monkeypatch):
        values = Cell.values_float

        def poisoned(cell):
            rows = [list(row) for row in values.func(cell)]
            rows[1][0] = math.nan  # reaches cell (m=1, n=1), the second one reported
            return rows

        monkeypatch.setattr(Cell, "values_float", property(poisoned))
        code, out = run(capsys, "verify", "--suite", "fourth-order", "--family", "krall-legendre",
                        "--alpha", "1", "--n", "3", "--format", "json", "--always-wrap")
        assert code == 1
        payload = json.loads(out)
        report = payload["reports"][0]
        assert math.isfinite(report["results"][0]["residual"])
        assert math.isnan(report["summary"]["max_residual"]) and report["summary"]["pass"] is False
        assert math.isnan(payload["summary"]["max_residual"]) and payload["summary"]["pass"] is False
        worst = payload["summary"]["worst_cell"]
        assert (worst["identity"], worst["m"], worst["n"]) == ("fourth-order-zeros", 1, 1)
        assert math.isnan(worst["residual"])

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "everything", "--n", "3"]) == 2

    def test_reports_round_trip(self, capsys):
        code, out = run(capsys, "verify", "--suite", "spectrum", "--family", "krall-legendre",
                        "--alpha", "1", "--n", "3..4", "--format", "json")
        assert code == 0
        for blob in json.loads(out)["reports"]:
            report = IdentityReport.from_dict(blob)
            assert report.to_dict() == blob

    def test_deterministic_output(self, capsys):
        args = ("verify", "--suite", "diffmat", "--family", "krall-laguerre", "--alpha", "1",
                "--n", "5", "--format", "json", "--seed", "7")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second
        assert json.loads(first)["meta"]["seed"] == 7


class TestOutputFile:
    def test_atomic_write(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["verify", "--suite", "quadrature", "--family", "krall-legendre",
                     "--alpha", "1", "--n", "4", "--format", "json", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["summary"]["pass"] is True
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_csv_report(self, tmp_path, capsys):
        target = tmp_path / "cells.csv"
        code = main(["verify", "--suite", "similarity", "--family", "krall-laguerre",
                     "--alpha", "2", "--n", "3", "--format", "csv", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "identity,family,params,N,variant,max_residual,pass"
        assert lines[2].startswith("similarity,krall-laguerre,alpha=2,3")


def test_report_command_small_range(capsys):
    code, out = run(capsys, "report", "--n", "2..3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["pass"] is True
    identities = {r["meta"]["identity"] for r in payload["reports"]}
    assert {"eigenpair", "operator-power", "fourth-order-zeros", "spectrum",
            "similarity", "quadrature", "diffmat-agreement"} <= identities


def test_report_builds_each_cell_once(capsys, monkeypatch):
    calls = []
    real = identities.zeros

    def counting(p, spec=None):
        calls.append((spec, p.degree))
        return real(p, spec)

    monkeypatch.setattr(identities, "zeros", counting)
    code, out = run(capsys, "report", "--n", "2..4", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["reports"]) == 10 * 3 * 9
    assert len(calls) == 30 and len(set(calls)) == 30  # 10 specs x N = 2..4


def test_module_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "krallzeros", "verify", "--suite", "eigenpair", "--family", "hermite", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout
