"""Root finding: node accuracy, error paths, derivative caches, refinement."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from krallzeros import (
    FamilySpec,
    NodeSet,
    NonRealRootError,
    NonSimpleRootError,
    Polynomial,
    RootfindingError,
    build_family,
    rootfinding,
    zeros,
)

KLEG1 = FamilySpec("krall-legendre", alpha=1)
KLAG1 = FamilySpec("krall-laguerre", alpha=1)
KJAC12 = FamilySpec("krall-jacobi", alpha=1, mass=2)


def test_single_zero_at_origin():
    fam = build_family(KLEG1, 1)
    nodes = zeros(fam[1], KLEG1)
    assert nodes.nodes == (0.0,)


def test_krall_laguerre_linear_zero():
    fam = build_family(KLAG1, 1)
    nodes = zeros(fam[1], KLAG1)
    assert nodes.nodes[0] == pytest.approx(0.5, abs=1e-15)


def test_krall_legendre_quadratic_zeros():
    # degree-2 member is (3(alpha+1)/2) x^2 - (alpha+3)/2
    fam = build_family(KLEG1, 2)
    nodes = zeros(fam[2], KLEG1)
    expected = math.sqrt(2.0 / 3.0)
    assert nodes.nodes[0] == pytest.approx(-expected, abs=1e-14)
    assert nodes.nodes[1] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("spec", [KLEG1, KLAG1, KJAC12])
def test_nodes_real_simple_in_hull(spec):
    fam = build_family(spec, 12)
    nodes = zeros(fam[12], spec)
    xs = np.array(nodes.nodes)
    assert len(xs) == 12
    assert np.all(np.diff(xs) > 1e-10)
    lo, hi = spec.hull()
    assert np.all(xs >= lo - 1e-9) and np.all(xs <= hi + 1e-9)


@pytest.mark.parametrize("spec", [KLEG1, KLAG1, KJAC12])
def test_sign_change_count(spec):
    n = 9
    member = build_family(spec, n)[n].to_float()
    xs = zeros(build_family(spec, n)[n], spec).nodes
    grid = np.linspace(min(xs) - 0.1, max(xs) + 0.1, 20001)
    vals = np.array([member(g) for g in grid])
    signs = np.sign(vals)
    signs = signs[signs != 0]  # a grid point may land exactly on a zero
    changes = int(np.sum(signs[:-1] != signs[1:]))
    assert changes == n


@pytest.mark.parametrize("spec", [KLEG1, KLAG1])
def test_residuals_below_coefficient_scale(spec):
    member = build_family(spec, 10)[10]
    nodes = zeros(member, spec)
    cf = [float(c) for c in member.coeffs]
    for x in nodes.nodes:
        scale = sum(abs(c) * abs(x) ** k for k, c in enumerate(cf))
        assert abs(float(member(F(x)))) <= 1e-14 * max(1.0, scale)


def test_newton_polish_idempotent():
    member = build_family(KLAG1, 8)[8]
    nodes = zeros(member, KLAG1)
    deriv = member.derivative()
    for x in nodes.nodes:
        step = float(member(F(x)) / deriv(F(x)))
        assert abs(step) < 1e-14 * abs(x) + 1e-14


def test_derivative_caches_match_exact_evaluation():
    member = build_family(KJAC12, 6)[6]
    nodes = zeros(member, KJAC12)
    for k, cache in ((1, nodes.d1), (2, nodes.d2), (3, nodes.d3)):
        d = member.derivative(k)
        for x, cached in zip(nodes.nodes, cache):
            assert cached == float(d(F(x)))


def test_complex_pair_rejected():
    with pytest.raises(NonRealRootError):
        zeros(Polynomial([F(1), F(0), F(1)]))  # x^2 + 1


def test_double_root_rejected():
    # (x - 1)^2 (x - 3)
    p = Polynomial([F(-3), F(7), F(-5), F(1)])
    with pytest.raises(NonSimpleRootError):
        zeros(p)


def test_hull_violation_rejected():
    # zero at 2 does not belong to [-1, 1]
    with pytest.raises(RootfindingError):
        zeros(Polynomial([F(-2), F(1)]), KLEG1)


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        zeros(Polynomial([F(3)]))


def test_float_coefficients_supported():
    nodes = zeros(Polynomial([-1.0, 0.0, 1.0]))
    assert nodes.nodes == pytest.approx((-1.0, 1.0))


class TestRefined:
    def test_refinement_reduces_residual(self):
        member = build_family(KLAG1, 9)[9]
        nodes = zeros(member, KLAG1)
        refined = nodes.refined()
        for x_float, x_exact in zip(nodes.nodes, refined):
            assert abs(float(x_exact) - x_float) < 1e-13 * max(1.0, abs(x_float))
            # the rational iterate sits far below double-precision residuals
            assert abs(member(x_exact)) < F(1, 10**40)

    def test_refinement_cached(self, monkeypatch):
        nodes = zeros(build_family(KLEG1, 4)[4], KLEG1)
        first, steps = nodes.refined(), []
        real = rootfinding._newton_refine
        monkeypatch.setattr(rootfinding, "_newton_refine", lambda *args: steps.append(args) or real(*args))
        again = nodes.refined()
        assert again == first and again is not first and steps == []

    def test_from_points_refined_is_exact(self):
        ns = NodeSet.from_points([-0.5, 0.25, 3.0])
        assert ns.refined() == [F(-0.5), F(0.25), F(3.0)]


class TestFromPoints:
    def test_monic_node_polynomial(self):
        ns = NodeSet.from_points([1.0, 2.0])
        assert ns.poly.coeffs == (F(2), F(-3), F(1))  # (x-1)(x-2)

    def test_duplicate_points_rejected(self):
        with pytest.raises(NonSimpleRootError):
            NodeSet.from_points([1.0, 1.0 + 1e-12])

    @pytest.mark.parametrize("points", [[0.0, float("inf")], [float("nan"), 1.0]])
    def test_non_finite_points_rejected(self, points):
        with pytest.raises(ValueError, match="points must be finite"):
            NodeSet.from_points(points)

    def test_overflowing_derivatives_rejected(self):
        # psi'(0) = -1e616
        with pytest.raises(ValueError, match="overflow double precision"):
            NodeSet.from_points([0.0, 1e308, -1e308])

    def test_caches_are_node_polynomial_derivatives(self):
        ns = NodeSet.from_points([-1.0, 1.0])
        # psi = x^2 - 1: psi' = 2x, psi'' = 2, psi''' = 0
        assert ns.d1 == (-2.0, 2.0)
        assert ns.d2 == (2.0, 2.0)
        assert ns.d3 == (0.0, 0.0)
