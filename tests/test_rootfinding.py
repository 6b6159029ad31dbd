"""Root finding: node accuracy, the half-ulp certificate, error paths, derivative caches, refinement."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_kernel import specs_by_family

from krallzeros import (
    FamilySpec,
    NodeSet,
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
    for k, cache in enumerate(nodes.derivatives(), 1):
        d = member.derivative(k)
        for x, cached in zip(nodes.nodes, cache):
            assert cached == float(d(F(x)))


def sign_at(p, x):
    """The sign of p at the rational x, from the exact Fraction value."""
    value = p(x)
    return (value > 0) - (value < 0)


def assert_correctly_rounded(p, xs):
    """Each x is the double nearest a zero of p: p changes sign across [x - ulp/2, x + ulp/2] or vanishes at an end."""
    for x in xs:
        below = (F(math.nextafter(x, -math.inf)) + F(x)) / 2
        above = (F(x) + F(math.nextafter(x, math.inf))) / 2
        assert sign_at(p, below) * sign_at(p, above) <= 0, x


@given(st.one_of(*specs_by_family), st.integers(1, 60))
@example(FamilySpec("hermite"), 3)  # an exact zero at 0, where Newton stops at +-1e-32
@example(FamilySpec("krall-legendre", alpha=2), 15)  # the same
@example(FamilySpec("krall-jacobi", alpha=0, mass=1), 21)  # the companion matrix's first failures
@example(FamilySpec("krall-jacobi", alpha=1, mass=2), 24)
@example(FamilySpec("hermite"), 204)  # p', p'', p''' at these zeros leave double range; the zeros do not
def test_zeros_are_certified(spec, n):
    """The zeros of p_N and p_(N+1) are correctly rounded, interlace strictly and lie inside the hull."""
    lower, upper = build_family(spec, n + 1)[n:]
    xs, ys = zeros(lower, spec).nodes, zeros(upper, spec).nodes
    assert len(xs) == n and len(ys) == n + 1
    assert_correctly_rounded(lower, xs)
    assert_correctly_rounded(upper, ys)
    merged = [ys[0]] + [v for pair in zip(xs, ys[1:]) for v in pair]
    assert all(a < b for a, b in zip(merged, merged[1:]))
    lo, hi = spec.hull()
    assert lo <= ys[0] and ys[-1] <= hi


@pytest.mark.parametrize("spec, n", [(FamilySpec("hermite"), 3), (FamilySpec("krall-legendre", alpha=2), 15)])
def test_exact_zero_is_positive_zero(spec, n):
    xs = zeros(build_family(spec, n)[n], spec).nodes
    assert math.copysign(1.0, xs[n // 2]) == 1.0 and xs[n // 2] == 0.0


def test_finish_moves_to_the_nearest_double():
    a = [-2, 0, 1]  # x^2 - 2
    root = math.sqrt(2.0)  # correctly rounded
    for x in (root, math.nextafter(root, 0.0), root + 5 * math.ulp(root), 1.5, 1.0):
        assert rootfinding._finish(a, x) == root
    assert rootfinding._finish([0, -3, 0, 2], 1e-32) == 0.0  # 2 x^3 - 3 x at +1e-32


def test_finish_without_a_sign_change_raises():
    with pytest.raises(RootfindingError, match="keeps one sign"):
        rootfinding._finish([1, -2, 1], 1.0)  # (x - 1)^2


def test_two_guesses_on_one_zero_rejected(monkeypatch):
    real = rootfinding._jacobi_eigenvalues

    def collapsed(spec, n):
        guesses = real(spec, n)
        guesses[1] = guesses[0]
        return guesses

    monkeypatch.setattr(rootfinding, "_jacobi_eigenvalues", collapsed)
    with pytest.raises(NonSimpleRootError, match="half-ulp bracket"):
        zeros(build_family(KLEG1, 4)[4], KLEG1)


def test_narrowed_hull_rejected(monkeypatch):
    monkeypatch.setattr(FamilySpec, "hull", lambda self: (0.5, 1.0))
    with pytest.raises(RootfindingError, match="support hull"):
        zeros(build_family(KJAC12, 6)[6], KJAC12)


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        zeros(build_family(KLEG1, 0)[0], KLEG1)


def test_non_member_rejected():
    with pytest.raises(ValueError, match="member"):
        zeros(Polynomial([F(-1, 2), F(1)]), KLEG1)  # zero at 1/2, but not p_1


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
        assert ns.derivatives() == ((-2.0, 2.0), (2.0, 2.0), (0.0, 0.0))
