"""Command-line driver: argument handling, formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krallzeros import FamilySpec, build_family, cli, families, identities, matrices, rootfinding
from krallzeros.cli import _dumps, main
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
        # every coefficient of every degree in double range is the exact one rounded once
        code, out = run(capsys, "family", "--family", "krall-legendre", "--alpha", "1", "--n", "26",
                        "--mode", "float", "--format", "json")
        assert code == 0
        exact = build_family(FamilySpec("krall-legendre", alpha=1), 26)
        printed = [[float(c) for c in row["coefficients"]] for row in json.loads(out)["members"]]
        assert printed == [[float(c) for c in p.coeffs] for p in exact]

    def test_overflowing_float_table_exit_2(self, capsys):
        code = main(["family", "--family", "hermite", "--n", "400", "--mode", "float"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "degree-263 coefficients overflow double precision" in captured.err

    def test_underflowing_leading_coefficient_exit_2(self, capsys):
        """laguerre(0) has leading coefficient (-1)^n / n!, which rounds to 0.0 from degree 178 on."""
        code = main(["family", "--family", "laguerre", "--alpha", "0", "--n", "200", "--mode", "float"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "degree-178 leading coefficient underflows double precision" in captured.err
        # up to degree 177 every row keeps all its coefficients
        code, out = run(capsys, "family", "--family", "laguerre", "--alpha", "0", "--n", "177",
                        "--mode", "float", "--format", "json")
        assert code == 0
        assert [len(row["coefficients"]) for row in json.loads(out)["members"]] == list(range(1, 179))

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
        assert captured.err == "error: --nodes is not read by --kind dc-simplified\n"

    def test_weights_on_given_nodes_may_be_negative(self, capsys):
        # interpolatory weights off the zeros: some negative, still summing to m_0 = 1 + alpha
        code, out = run(capsys, "matrix", "--kind", "lambda", "--family", "krall-legendre", "--alpha", "2",
                        "--nodes", "0.125,0.375,0.625,0.875", "--format", "json")
        assert code == 0
        weights = [row[j] for j, row in enumerate(json.loads(out)["data"])]
        assert min(weights) < 0 and math.isclose(math.fsum(weights), 3.0)

    def test_given_nodes_set_n(self, capsys):
        for n in ([], ["--n", "3"], ["--n-range", "3..3"]):
            code, out = run(capsys, "matrix", "--kind", "dc", "--family", "hermite", "--nodes", "-1,0,1",
                            *n, "--format", "json")
            assert code == 0 and json.loads(out)["shape"] == [3, 3]
        for n in (["--n", "4"], ["--n", "2..3"]):
            code = main(["matrix", "--kind", "linv", "--family", "hermite", "--nodes", "-1,0,1", *n])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "disagrees with the 3 given nodes" in captured.err

    def test_overflowing_nodes_exit_2(self, capsys):
        code = main(["matrix", "--kind", "z", "--order", "1", "--nodes", "0,1e308,-1e308"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "overflow double precision" in captured.err

    def test_overflowing_alternative_powers_exit_2(self, capsys):
        code = main(["matrix", "--kind", "z", "--order", "4", "--method", "alternative",
                     "--nodes", "0,1e80,2e80,3e80"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "overflows double precision" in captured.err


@pytest.mark.parametrize("option, value", [("--n", "2..x"), ("--n-range", "x..3"), ("--n", "1.5")])
def test_malformed_degree_names_the_option_and_value(capsys, option, value):
    code = main(["verify", "--suite", "eigenpair", "--family", "hermite", option, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {option} value {value!r} is not an integer or a range like 2..12\n"


@pytest.mark.parametrize("argv, culprit", [
    (["verify", "--suite", "power", "--family", "krall-legendre", "--alpha", "1", "--n", "8", "--exponent", "200"],
     "mu^200 leaves double range"),
    (["matrix", "--kind", "z", "--nodes", "0,1e400"], "--nodes value 1e400 is outside double range"),
    (["verify", "--suite", "eigenpair", "--family", "krall-legendre", "--alpha", "1e400", "--n", "3"],
     "the degree-3 member's coefficients overflow double precision"),
    (["zeros", "--family", "hermite", "--n", "300"], "the degree-300 member's coefficients overflow double precision"),
    # every zero is certified at N = 204; p', p'', p''' there, which the closed form reads, leave double range
    (["matrix", "--kind", "dc-simplified", "--family", "hermite", "--n", "204"],
     "error: p', p'' and p''' of the degree-204 node polynomial overflow double precision\n"),
], ids=["power-exponent", "matrix-nodes", "alpha", "zeros-degree", "dc-simplified-derivatives"])
def test_double_overflow_exits_2(capsys, argv, culprit):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert culprit in captured.err


@pytest.mark.parametrize("kind, message", [
    ("lambda", "weight 39 is -5.597e-61 <= 0; precision exhausted: the 192-bit refined zeros of the degree-40 "
     "member of krall-laguerre(alpha=1)"),
    ("l", "||L L_inv - I||_inf = 4.038e+00 above 1e-10; precision exhausted: the 192-bit refined zeros of the "
     "degree-40 member of krall-laguerre(alpha=1) or the 2^-512 grid of the pair"),
])
def test_exhausted_precision_at_the_zeros_exits_1(capsys, kind, message):
    argv = ["matrix", "--kind", kind, "--family", "krall-laguerre", "--alpha", "1", "--n", "40", "--format", "json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_z_on_the_family_zeros_is_diffmat_there(capsys):
    code, out = run(capsys, "matrix", "--kind", "z", "--order", "2", "--family", "hermite", "--n", "5",
                    "--format", "json")
    hermite = FamilySpec("hermite")
    expected = matrices.diffmat(2, rootfinding.zeros(build_family(hermite, 5)[5], hermite)).data.tolist()
    assert code == 0 and json.loads(out)["data"] == expected


def test_report_without_degrees_runs_the_default_grid(capsys):
    code, out = run(capsys, "report", "--format", "json")
    assert code == 0 and json.loads(out)["meta"]["n_values"] == list(range(2, 13))


@pytest.mark.parametrize("nodes, culprit", [
    ("1,abc", "--nodes value 'abc' is not a finite number"),
    ("1,inf", "--nodes value 'inf' is not a finite number"),
    ("0.1,0.1", "--nodes points 0.1 and 0.1 closer than 1e-10"),
], ids=["literal", "infinite", "coincident"])
def test_bad_nodes_name_the_option_and_value(capsys, nodes, culprit):
    code = main(["matrix", "--kind", "dc", "--family", "hermite", "--nodes", nodes])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {culprit}\n"


@pytest.mark.parametrize("option", ["--alpha", "--beta", "--m-param"])
def test_zero_denominator_parameter_names_the_option_and_value(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--family", "laguerre", option, "1/0", "--n", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {option}: invalid rational value '1/0': zero denominator" in captured.err


@pytest.mark.parametrize("argv, culprit", [
    (["report", "--family", "hermite", "--n", "2", "--format", "csv"], "unrecognized arguments: --family hermite"),
    (["verify", "--suite", "eigenpair", "--family", "all", "--alpha", "3", "--n", "2"],
     "error: --alpha 3 is read only with a single --family"),
    (["verify", "--suite", "eigenpair", "--m-param", "1/2", "--n", "2"],
     "error: --m-param 1/2 is read only with a single --family"),
    (["family", "--family", "hermite", "--n", "2", "--tolerance", "1e-3"], "unrecognized arguments: --tolerance 1e-3"),
    (["zeros", "--family", "hermite", "--n", "2", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["matrix", "--kind", "dc", "--family", "hermite", "--n", "2", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["zeros", "--family", "hermite", "--n", "2..4"], "error: --n value '2..4' spans 3 degrees; zeros takes one"),
    (["family", "--family", "hermite", "--n-range", "1..2"],
     "error: --n-range value '1..2' spans 2 degrees; family takes one"),
    (["matrix", "--kind", "lambda", "--family", "hermite", "--n", "3..5"],
     "error: --n value '3..5' spans 3 degrees; matrix takes one"),
    (["matrix", "--kind", "dtau", "--family", "hermite", "--n", "0"], "error: need n >= 1"),
    *((["matrix", "--kind", kind, "--family", "hermite", "--n", "0"], "error: need n >= 1")
      for kind in ("z", "dc", "dc-simplified", "l", "linv", "lambda")),
    (["matrix", "--kind", "l", "--family", "hermite", "--nodes", "0.1,0.2", "--n", "0"], "error: need n >= 1"),
    (["zeros", "--family", "hermite", "--n", "0"], "error: need n >= 1"),
    (["verify", "--suite", "spectrum", "--family", "hermite", "--n", "0..3"], "error: need n >= 1"),
    (["report", "--n", "-1"], "error: need n >= 1"),
    (["family", "--family", "hermite", "--n", "-1"], "error: need n >= 0"),
    (["verify", "--suite", "eigenpair", "--family", "hermite"], "error: --n (or --n-range) is required\n"),
    (["verify", "--suite", "eigenpair", "--family", "hermite", "--n", "5..3"], "error: empty range '5..3'\n"),
    *((["matrix", "--kind", kind, "--family", "hermite", "--nodes", "-1,0,1"],
       f"error: --nodes is not read by --kind {kind}\n") for kind in ("dtau", "dc-simplified")),
], ids=["report-family", "verify-all-alpha", "verify-no-family-m-param", "family-tolerance", "zeros-seed",
        "matrix-seed", "zeros-range", "family-range", "matrix-range", "dtau-n0", "z-n0", "dc-n0",
        "dc-simplified-n0", "l-n0", "linv-n0", "lambda-n0", "nodes-n0", "zeros-n0", "verify-n0", "report-negative",
        "family-negative", "verify-no-n", "verify-empty-range", "dtau-nodes", "dc-simplified-nodes"])
def test_options_a_command_does_not_read_exit_2(capsys, argv, culprit):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an option the command does not take
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert culprit in captured.err


@pytest.mark.parametrize("argv, culprit", [
    (["matrix", "--kind", "dc", "--family", "hermite", "--n", "2", "--order", "4", "--method", "explicit"],
     "error: --order is not read by --kind dc"),
    (["matrix", "--kind", "dc", "--family", "hermite", "--n", "2", "--method", "explicit"],
     "error: --method is not read by --kind dc"),
    (["matrix", "--kind", "dtau", "--family", "hermite", "--n", "2", "--formula", "fourth-order"],
     "error: --formula is not read by --kind dtau"),
    (["matrix", "--kind", "z", "--nodes", "-1,1", "--family", "krall-jacobi"],
     "error: --family is not read by --kind z on given --nodes"),
    (["matrix", "--kind", "ztilde", "--nodes", "-1,1", "--alpha", "3"],
     "error: --alpha is not read by --kind ztilde on given --nodes"),
    (["verify", "--suite", "eigenpair", "--family", "hermite", "--n", "2", "--exponent", "9"],
     "error: --exponent is not read by --suite eigenpair"),
    (["verify", "--suite", "power", "--family", "hermite", "--n", "2", "--variant", "printed"],
     "error: --variant is not read by --suite power"),
    (["verify", "--suite", "thm1", "--family", "hermite", "--n", "2", "--seed", "5"],
     "error: --seed is not read by --suite thm1"),
    (["verify", "--suite", "eigenpair", "--family", "hermite", "--n", "3", "--n-range", "2..3"],
     "error: --n and --n-range both give the degrees; give one"),
], ids=["dc-order", "dc-method", "dtau-formula", "z-nodes-family", "ztilde-nodes-alpha", "eigenpair-exponent",
        "power-variant", "thm1-seed", "n-and-n-range"])
def test_options_the_kind_or_suite_does_not_read_exit_2(capsys, argv, culprit):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert culprit in captured.err


@pytest.mark.parametrize("option, value, kind", [("--tolerance", "nan", "float"), ("--tolerance", "-1", "float"),
                                                 ("--seed", "-1", "int")])
def test_bad_tolerance_or_seed_names_the_option_and_value(capsys, option, value, kind):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "eigenpair", "--family", "hermite", "--n", "3", option, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {option}: invalid {kind} value '{value}': must be a number >= 0" in captured.err


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
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for report in payload["reports"]:
            assert report["summary"]["extras"]["verdict"] == "corrected"
            assert report["summary"]["extras"]["printed_residual"] > 1e-7
            assert report["summary"]["extras"]["corrected_residual"] < 1e-7

    def test_both_variants_fail_with_the_coinciding_readings(self, capsys):
        # the krall-legendre readings coincide, so the verdict is "identical"; it passes only if they do
        code, out = run(capsys, "verify", "--suite", "kleg-main", "--family", "krall-legendre", "--alpha", "1",
                        "--n", "6", "--variant", "both", "--tolerance", "1e-30", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["extras"]["verdict"] == "identical" and payload["summary"]["pass"] is False

    def test_report_fails_a_wrong_family_diagonal(self, capsys, monkeypatch):
        real = matrices._family_diag
        monkeypatch.setattr(matrices, "_family_diag", lambda *args: real(*args) * (1 + 1e-3))
        code, out = run(capsys, "report", "--n", "4..6", "--format", "json")
        assert code == 1
        reports = [r for r in json.loads(out)["reports"] if r["meta"]["identity"] in ("kleg-main", "kjac-main")]
        assert len(reports) == 7 * 3
        assert all(not r["summary"]["pass"] and r["summary"]["max_residual"] > 1e-7 for r in reports)

    @pytest.mark.parametrize("shift, expected", [(0.0, 0), (1e-3, 1)], ids=["exact", "shifted"])
    @pytest.mark.parametrize("alpha", ["1/2", "1", "2"])
    def test_klag_both_variants_at_one_node(self, capsys, monkeypatch, alpha, shift, expected):
        # one node: no off-diagonal term, and both readings state C_11 = mu_0
        real = matrices._family_diag
        monkeypatch.setattr(matrices, "_family_diag", lambda *args: real(*args) + shift)
        code, out = run(capsys, "verify", "--suite", "klag-main", "--family", "krall-laguerre", "--alpha", alpha,
                        "--n", "1", "--variant", "both", "--format", "json")
        assert code == expected
        extras = json.loads(out)["summary"]["extras"]
        assert extras["verdict"] == "identical"
        assert (extras["printed_residual"] > 1e-7) == (extras["corrected_residual"] > 1e-7) == bool(shift)

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
                        "--alpha", "1", "--n", "3..4", "--format", "json")  # two reports: the wrapped form
        assert code == 1
        payload = json.loads(out)
        report = payload["reports"][0]
        assert math.isfinite(report["results"][0]["residual"])
        assert math.isnan(report["summary"]["max_residual"]) and report["summary"]["pass"] is False
        assert math.isnan(payload["summary"]["max_residual"]) and payload["summary"]["pass"] is False
        worst = payload["summary"]["worst_cell"]
        assert (worst["identity"], worst["N"], worst["m"], worst["n"]) == ("fourth-order-zeros", 3, 1, 1)
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

    @pytest.mark.parametrize("name, reason", [("missing/x.json", "No such file or directory"),
                                              ("taken", "Is a directory")])
    def test_unwritable_target_exits_2_and_leaves_nothing(self, tmp_path, capsys, name, reason):
        (tmp_path / "taken").mkdir()
        target = tmp_path / name
        code = main(["zeros", "--family", "hermite", "--n", "3", "--format", "json", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --out {target}: {reason}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"] and not any((tmp_path / "taken").iterdir())

    ZEROS = ["zeros", "--family", "hermite", "--n", "3", "--format", "json"]

    def test_symlink_keeps_pointing_at_its_target(self, tmp_path, capsys):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("old")
        link.symlink_to(real)
        assert main(self.ZEROS + ["--out", str(link)]) == 0
        assert main(self.ZEROS) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == capsys.readouterr().out.rstrip("\n")  # stdout gets a final newline
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    def test_fifo_is_written_not_replaced(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader first, so opening for writing does not block
        try:
            assert main(self.ZEROS + ["--out", str(fifo)]) == 0
            received = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert main(self.ZEROS) == 0
        assert received == capsys.readouterr().out.rstrip("\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_new_file_takes_the_umask_and_an_existing_one_keeps_its_mode(self, tmp_path, capsys):
        new, existing = tmp_path / "new.json", tmp_path / "existing.json"
        existing.write_text("old")
        existing.chmod(0o604)
        umask = os.umask(0o027)
        try:
            assert main(self.ZEROS + ["--out", str(new)]) == 0
            assert main(self.ZEROS + ["--out", str(existing)]) == 0
        finally:
            os.umask(umask)
        capsys.readouterr()
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
        assert stat.S_IMODE(existing.stat().st_mode) == 0o604 and existing.read_text() == new.read_text()

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


class TestNegativeParameters:
    """Parameters in (-1, 0) given as a separate token, which argparse would read as an option."""

    CASES = [
        ("laguerre", ["--alpha", "-1/2"]),
        ("jacobi", ["--alpha", "-1/2", "--beta", "-1/3"]),
        ("krall-jacobi", ["--alpha", "-1/2", "--m-param", "1"]),
    ]

    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "eigenpair", "--n", "3"],
        ["zeros", "--n", "4"],
        ["family", "--n", "3"],
        ["matrix", "--kind", "dc", "--n", "3"],
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("family, params", CASES, ids=[c[0] for c in CASES])
    def test_space_separated_form(self, capsys, command, family, params):
        code, out = run(capsys, *command, "--family", family, *params, "--format", "json")
        assert code == 0
        joined = [f"{name}={value}" for name, value in zip(params[::2], params[1::2])]
        assert run(capsys, *command, "--family", family, *joined, "--format", "json") == (0, out)

    def test_parameters_reach_the_family(self, capsys):
        code, out = run(capsys, "family", "--family", "jacobi", "--alpha", "-1/2", "--beta", "-1e-1", "--n", "0",
                        "--format", "json")
        assert code == 0 and json.loads(out)["family"] == "jacobi(alpha=-1/2, beta=-1/10)"

    def test_nodes_after_a_negative_parameter(self, capsys):
        code, out = run(capsys, "matrix", "--kind", "linv", "--family", "laguerre", "--alpha", "-1/2",
                        "--n", "2", "--nodes", "-1,1", "--format", "json")
        assert code == 0 and json.loads(out)["shape"] == [2, 2]


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


def severity(residual):
    """The reference sort key: NaN above every number, inf included."""
    return (True, 0.0) if math.isnan(residual) else (False, residual)


def worst_cell_reference(reports):
    failing = [r for r in reports if not r.passed]
    if failing:
        entries = [(r, c) for r in failing for c in r.cells or [{"residual": r.max_residual}]]
    else:
        entries = [(r, c) for r in reports for c in r.cells]
    worst = max(entries, key=lambda rc: severity(rc[1]["residual"]), default=None)
    return None if worst is None else (worst[0], worst[1]["residual"], worst[1].get("m"))


# fresh objects, so that equal residuals (ties, 0.0 and -0.0, NaNs) can be told apart by identity
residuals = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 0.5, 2.0]).map(lambda v: float(repr(v)))


@given(st.lists(st.tuples(st.lists(residuals, max_size=4), residuals, st.booleans()), max_size=4))
def test_worst_residual_and_worst_cell_match_the_severity_key(drawn):
    """The first NaN, else the first largest value: the element the severity-keyed max picks."""
    values = [v for cells, _, _ in drawn for v in cells]
    if values:
        assert identities.worst_residual(iter(values)) is max(values, key=severity)
    else:
        assert repr(identities.worst_residual(iter(values))) == "0.0"
    reports = [
        IdentityReport("eigenpair", "hermite", {}, n, 1e-8, "exact", top, passed,
                       cells=[{"m": m, "n": 1, "residual": v} for m, v in enumerate(cells)])
        for n, (cells, top, passed) in enumerate(drawn)
    ]
    expected, worst = worst_cell_reference(reports), cli._worst_cell(reports)
    if expected is None:
        assert worst is None
    else:
        report, residual, m = expected
        assert worst["N"] == report.n and worst["residual"] is residual and worst.get("m") == m


def test_warm_memos_do_not_change_the_report(capsys):
    argv = ("report", "--format", "json", "--n", "2..5")
    cold = run(capsys, *argv)
    assert cold[0] == 0
    assert run(capsys, *argv) == cold
    assert run(capsys, "verify", "--suite", "all", "--family", "hermite", "--n", "7")[0] == 0
    assert run(capsys, *argv) == cold
    identities.get_cell.cache_clear()
    families.family_record.cache_clear()
    rootfinding.zeros.cache_clear()
    assert run(capsys, *argv) == cold


def test_module_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "krallzeros", "verify", "--suite", "eigenpair", "--family", "hermite", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


_TEXT = st.text(st.one_of(
    st.sampled_from('{}[]",: \\\n\r\t\x00\x1f\x7f\u2028\ud800\udfff\u00e9\u4e2d\U0001f600'),
    st.characters(exclude_categories=()),  # includes lone surrogates
))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**200), 10**4000]),
    st.floats(),  # NaN, +-inf, -0.0
    _TEXT,
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats()),
    st.builds(_Str, _TEXT),
)
_KEYS = st.one_of(_TEXT, st.integers(), st.floats(), st.booleans(), st.none(), st.builds(_Str, _TEXT))
_RECORD = st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=4)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4).map(_Dict),
        st.lists(_RECORD, min_size=1, max_size=4),  # the record case
        # record lists broken by an empty dict, a nested value, a non-dict or a dict subclass
        st.lists(st.one_of(_RECORD, st.just({}), st.dictionaries(_TEXT, children, min_size=1, max_size=2),
                           children, _RECORD.map(_Dict)), min_size=1, max_size=4),
    )


_REPORT = {
    "meta": {"suite": "all", "families": ["hermite"], "n_values": [2, 3], "tolerance": None, "seed": 1},
    "reports": [
        {
            "meta": {"identity": "eigenpair", "family": "hermite", "params": {}, "N": 2, "tolerance": 1e-08,
                     "arithmetic": "exact", "variant": None, "seed": None},
            "results": [{"identity": "eigenpair", "m": 0, "n": 1, "residual": 0.0, "pass": True},
                        {"identity": "eigenpair", "m": 1, "n": 2, "residual": -0.0, "pass": False}],
            "summary": {"max_residual": float("nan"), "pass": True,
                        "eigenpairs": [{"m": 0, "eigenvalue": 0.0, "residual": 0.0},
                                       {"m": 1, "eigenvalue": float("inf"), "residual": 1e-300}],
                        "notes": ["nodes: family zeros", "x}, {\n"], "extras": {}},
        },
    ],
    "summary": {"max_residual": 0.0, "pass": True, "worst_cell": None, "reports": 1},
}


@settings(max_examples=100)
@given(st.recursive(_SCALARS, _containers, max_leaves=40))
@example(_REPORT)
@example([{"a": 1}, {}, {"b": 2}])  # an empty record
@example([{"a": 1}, {"b": [2]}])  # a nested value
@example([{"a": 1}, 3, {"b": 2}])  # a non-dict element
@example([{"a": 1}, _Dict(b=2)])  # a dict subclass
@example({1: [], 1.5: {}, True: (), None: "", float("nan"): -0.0, 2**70: _Int(7)})  # non-str keys
@example(["}," + "\n" + "    {", {"k": "},\n    {"}])
def test_dumps_matches_json_dumps_with_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


_RECORDS = [{"identity": "fourth-order", "m": i, "n": i + 1, "residual": i / 7, "pass": True} for i in range(5000)]


# CPython's C encoder returns its output in chunks of at most 100,000 pieces,
# so each of these comes back from one C call as more than one chunk.
@pytest.mark.parametrize("value", [
    [i / 7 for i in range(60000)],
    {str(i): i for i in range(60000)},
    _RECORDS,
    {"results": _RECORDS, "notes": ["x"]},
], ids=["floats", "scalar-dict", "records", "nested-records"])
def test_dumps_matches_json_dumps_past_the_c_chunk_size(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [object(), [1, {2j: 3}], {"a": [1, {(): 2}]}, {"a": {1, 2}}, (b"x",)])
def test_dumps_raises_as_json_dumps_does(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        _dumps(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("argv", [
    ("report", "--n", "2..4"),
    ("verify", "--suite", "eigenpair", "--family", "krall-laguerre", "--alpha", "1", "--n", "5"),
    ("family", "--family", "krall-jacobi", "--alpha", "1", "--m-param", "2", "--n", "4"),
    ("family", "--family", "laguerre", "--alpha", "1/2", "--n", "3", "--mode", "float"),
    ("zeros", "--family", "krall-legendre", "--alpha", "1", "--n", "6"),
    ("matrix", "--kind", "dc", "--family", "hermite", "--n", "4"),
])
def test_json_output_is_json_dumps_with_indent_2(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# ---------------------------------------------------------------------------
# one writer for the three formats
# ---------------------------------------------------------------------------


def _above(low, high):
    """Rationals in (low, high], as a string the command line reads."""
    return st.fractions(min_value=low, max_value=high, max_denominator=4).filter(lambda v: v > low).map(str)


admissible_options = st.one_of(
    st.just(["--family", "hermite"]),
    st.builds(lambda a: ["--family", "laguerre", "--alpha", a], _above(-1, 4)),
    st.builds(lambda a, b: ["--family", "jacobi", "--alpha", a, "--beta", b], _above(-1, 4), _above(-1, 4)),
    st.builds(lambda a: ["--family", "krall-legendre", "--alpha", a], _above(0, 4)),
    st.builds(lambda a: ["--family", "krall-laguerre", "--alpha", a], _above(0, 4)),
    st.builds(lambda a, m: ["--family", "krall-jacobi", "--alpha", a, "--m-param", m], _above(-1, 4), _above(0, 4)),
)

TEXT_REPORT = re.compile(r"(PASS|FAIL) (\S+) +(\S+)\((.*)\) N=(\d+)(?: variant=(\S+))? max_residual=")


@settings(max_examples=10)
@given(admissible_options, st.integers(2, 4), st.sampled_from([[], ["--tolerance", "1e-30"]]))
def test_json_csv_and_text_show_the_same_reports(options, n, tolerance):
    """The same exit code and, report by report, the same identity, family, N, variant, pass and residual."""

    def run_in(fmt):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["verify", "--suite", "all", *options, *tolerance, "--n", str(n), "--format", fmt])
        return code, out.getvalue()

    (code, out), (csv_code, csv_out), (text_code, text_out) = map(run_in, ("json", "csv", "text"))
    assert code == csv_code == text_code
    payload = json.loads(out)
    reports = payload["reports"] if "reports" in payload else [payload]
    csv_rows = list(csv.DictReader(csv_out.splitlines()[1:]))
    text_rows = [TEXT_REPORT.match(line) for line in text_out.splitlines()[: len(reports)]]
    assert len(csv_rows) == len(reports) and all(text_rows)
    for report, row, line in zip(reports, csv_rows, text_rows):
        meta, summary = report["meta"], report["summary"]
        shown = (meta["identity"], meta["family"], str(meta["N"]), meta["variant"] or "", str(summary["pass"]))
        assert (row["identity"], row["family"], row["N"], row["variant"], row["pass"]) == shown
        assert line.group(2, 3, 5) == shown[:3] and (line.group(6) or "") == shown[3]
        assert line.group(1) == ("PASS" if summary["pass"] else "FAIL")
        residual = float(row["max_residual"])
        assert residual == summary["max_residual"] or math.isnan(residual) and math.isnan(summary["max_residual"])


def test_json_builds_no_csv_or_text(capsys, monkeypatch):
    """JSON output never formats a CSV cell: the rows of the other formats are built only when asked for."""

    def refuse(x):
        raise AssertionError("a CSV or text row was built for --format json")

    monkeypatch.setattr(cli, "_fmt", refuse)
    code, out = run(capsys, "verify", "--suite", "all", "--n", "2..3", "--format", "json")
    assert code == 0 and json.loads(out)["summary"]["pass"] is True


def test_help_shows_the_defaults_an_omitted_option_takes():
    """Every option in DEFAULTS ends its help with the value it takes when omitted."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    shown = set()
    for command in commands.values():
        for action in command._actions:
            if action.dest in cli.DEFAULTS:
                omitted = cli.DEFAULTS[action.dest] if action.default is None else action.default
                assert (action.help % vars(action)).endswith(f" ({omitted})"), action.dest
                shown.add(action.dest)
    assert shown == set(cli.DEFAULTS)
