"""Acceptance suite: one test per criterion, with the pinned tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one status line per
criterion. The family grid used throughout is the desk-scale one: the
Legendre- and Laguerre-type Krall families at alpha in {1, 2} and the
Jacobi-type family at (alpha, M) in {0, 1} x {1, 2}.
"""

import time
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from krallzeros import (
    FamilySpec,
    build_family,
    collocation_rep,
    collocation_rep_simplified,
    diffmat,
    discriminate_variants,
    eigenvalue,
    equally_spaced_nodes,
    inner_product,
    operator_of,
    quadrature_exactness,
    christoffel_numbers,
    similarity_check,
    spectrum_report,
    verify_power,
    verify_eigenpairs,
    zeros,
)

GRID = (
    [FamilySpec("krall-legendre", alpha=a) for a in (F(1), F(2))]
    + [FamilySpec("krall-laguerre", alpha=a) for a in (F(1), F(2))]
    + [FamilySpec("krall-jacobi", alpha=a, mass=m) for a, m in product((F(0), F(1)), (F(1), F(2)))]
)

CLASSICAL = [
    FamilySpec("hermite"),
    FamilySpec("laguerre", alpha=0),
    FamilySpec("laguerre", alpha=1),
    FamilySpec("jacobi", alpha=0, beta=0),
    FamilySpec("jacobi", alpha=1, beta=2),
]


def _report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_exact_eigenfunction_relation():
    start = time.perf_counter()
    for spec in GRID:
        fam = build_family(spec, 12)
        op = operator_of(spec)
        for nu in range(13):
            image = op.apply(fam[nu])
            assert image == eigenvalue(spec, nu) * fam[nu], (spec.label(), nu)
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 5.0,
            f"eigenfunction relation exact for all families, nu <= 12 ({elapsed:.2f}s < 5s)")


def test_criterion_2_exact_orthogonality():
    start = time.perf_counter()
    for spec in GRID:
        fam = build_family(spec, 12)
        for m in range(13):
            for n in range(m + 1, 13):
                assert inner_product(fam[m], fam[n], spec) == 0, (spec.label(), m, n)
    elapsed = time.perf_counter() - start
    _report(2, elapsed < 5.0,
            f"orthogonality exact for all pairs m < n <= 12 ({elapsed:.2f}s < 5s)")


def test_criterion_3_eigenpair_sweep():
    start = time.perf_counter()
    worst = 0.0
    worst_rowsum = 0.0
    for spec in GRID:
        for n in range(2, 13):
            report = verify_eigenpairs(spec, n, tolerance=1e-8, rowsum_tolerance=1e-9)
            worst = max(worst, report.max_residual)
            worst_rowsum = max(worst_rowsum, report.rowsum_residual)
            assert report.passed, (spec.label(), n, report.max_residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and worst_rowsum < 1e-9 and elapsed < 10.0
    _report(3, ok,
            f"eigenpair sweep N=2..12: max scaled residual {worst:.2e} < 1e-8, "
            f"row sums {worst_rowsum:.2e} < 1e-9 ({elapsed:.2f}s < 10s)")


def test_criterion_4_transition_consistency():
    worst_inverse = 0.0
    worst_similarity = 0.0
    for spec in GRID:
        for n in range(2, 13):
            res = similarity_check(spec, n)
            worst_inverse = max(worst_inverse, res["inverse_residual"])
            worst_similarity = max(worst_similarity, res["similarity_residual"])
    ok = worst_inverse < 1e-10 and worst_similarity < 1e-8
    _report(4, ok,
            f"transition pair: ||L Linv - I|| {worst_inverse:.2e} < 1e-10, "
            f"similarity residual {worst_similarity:.2e} < 1e-8")


def test_criterion_5_gaussian_quadrature_exactness():
    worst = 0.0
    for spec in GRID:
        for n in range(2, 13):
            nodes = zeros(build_family(spec, n)[n], spec)
            assert all(lam > 0 for lam in christoffel_numbers(nodes, spec))
            residual, _ = quadrature_exactness(nodes, spec)
            worst = max(worst, residual)
    _report(5, worst < 1e-10,
            f"quadrature exact on monomials k <= 2N-1, N <= 12: max residual {worst:.2e} < 1e-10, "
            "all weights positive")


def test_criterion_6_differentiation_cross_validation():
    worst_z = 0.0
    worst_dc = 0.0
    for spec in GRID:
        for n in (3, 8, 12):
            member = build_family(spec, n)[n]
            nodes = zeros(member, spec)
            for k in (1, 2, 3, 4):
                rec = diffmat(k, nodes, "recursive").data
                scale = max(1.0, float(np.max(np.abs(rec))))
                alt = diffmat(k, nodes, "alternative").data
                worst_z = max(worst_z, float(np.max(np.abs(rec - alt))) / scale)
                scaled = diffmat(k, nodes, leading=float(member.coeffs[-1])).data
                worst_z = max(worst_z, float(np.max(np.abs(rec - scaled))) / scale)
                if k <= 2:
                    exp = diffmat(k, nodes, "explicit").data
                    worst_z = max(worst_z, float(np.max(np.abs(rec - exp))) / scale)
            general = collocation_rep(operator_of(spec), nodes).data
            for formula in ("family", "fourth-order"):
                simplified = collocation_rep_simplified(spec, nodes, formula=formula).data
                scale = max(1.0, float(np.max(np.abs(general))))
                worst_dc = max(worst_dc, float(np.max(np.abs(general - simplified))) / scale)
    ok = worst_z < 1e-11 and worst_dc < 1e-10
    _report(6, ok,
            f"differentiation matrices agree across constructions ({worst_z:.2e} < 1e-11); "
            f"simplified collocation forms match assembly ({worst_dc:.2e} < 1e-10)")


def test_criterion_7_spectrum_on_equally_spaced_nodes():
    worst = 0.0
    for spec in GRID:
        for n in range(2, 9):
            nodes = equally_spaced_nodes(spec, n)
            report = spectrum_report(spec, n, nodes=nodes, tolerance=1e-6)
            worst = max(worst, report.max_residual)
            assert report.passed, (spec.label(), n)
    _report(7, worst < 1e-6,
            f"spectrum independent of nodes: equally spaced mismatch {worst:.2e} < 1e-6 for N <= 8")


def test_criterion_8_squared_operator_eigenpairs():
    worst = 0.0
    for spec in GRID:
        for n in range(2, 9):
            report = verify_power(spec, n, exponent=2, tolerance=1e-6)
            worst = max(worst, report.max_residual)
            assert report.passed, (spec.label(), n)
    _report(8, worst < 1e-6,
            f"squared collocation matrix keeps the eigenpairs: max residual {worst:.2e} < 1e-6 for N <= 8")


def test_criterion_9_trailing_factor_discrimination():
    verdicts = set()
    for alpha in (F(1), F(2)):
        spec = FamilySpec("krall-laguerre", alpha=alpha)
        for n in range(2, 13):
            outcome = discriminate_variants(spec, n, tolerance=1e-7)
            assert outcome["printed"].passed != outcome["corrected"].passed, (alpha, n)
            verdicts.add(outcome["verdict"])
    ok = verdicts == {"corrected"}
    _report(9, ok,
            f"exactly one trailing-factor reading survives at 1e-7 and it is the same "
            f"everywhere: {sorted(verdicts)}")


def test_criterion_10_classical_closed_forms():
    worst = 0.0
    for spec in CLASSICAL:
        for n in range(2, 11):
            nodes = zeros(build_family(spec, n)[n], spec)
            general = collocation_rep(operator_of(spec), nodes).data
            closed = collocation_rep_simplified(spec, nodes).data
            scale = max(1.0, float(np.max(np.abs(general))))
            worst = max(worst, float(np.max(np.abs(general - closed))) / scale)
    _report(10, worst < 1e-10,
            f"classical two-term closed form matches assembly at the families' zeros: "
            f"{worst:.2e} < 1e-10 for N <= 10")
