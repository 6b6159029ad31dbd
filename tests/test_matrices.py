"""Matrices: differentiation, collocation, spectral, weights, transition."""

from fractions import Fraction as F

import numpy as np
import pytest

from krallzeros import (
    DiffOperator,
    FamilySpec,
    InversionConsistencyError,
    NodeSet,
    Polynomial,
    PositivityError,
    build_family,
    christoffel,
    christoffel_numbers,
    collocation_rep,
    collocation_rep_simplified,
    diffmat,
    eigenvalue,
    inner_product,
    matrices,
    moment,
    operator_of,
    quadrature_exactness,
    similarity_check,
    tau_rep,
    transition,
    transition_general,
    zeros,
)

KLEG1 = FamilySpec("krall-legendre", alpha=1)
KLAG1 = FamilySpec("krall-laguerre", alpha=1)
KLAG2 = FamilySpec("krall-laguerre", alpha=2)
KJAC12 = FamilySpec("krall-jacobi", alpha=1, mass=2)
KRALL_SPECS = [KLEG1, KLAG1, KLAG2, KJAC12]
CLASSICAL_SPECS = [
    FamilySpec("hermite"),
    FamilySpec("laguerre", alpha=1),
    FamilySpec("jacobi", alpha=1, beta=2),
]


def family_nodes(spec, n):
    return zeros(build_family(spec, n)[n], spec)


def rel_gap(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


class TestDiffmat:
    def test_two_symmetric_nodes(self):
        for h in (1.0, 0.35):
            z1 = diffmat(1, NodeSet.from_points([-h, h])).data
            expected = np.array([[-1.0, 1.0], [-1.0, 1.0]]) / (2 * h)
            assert np.allclose(z1, expected, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constants_annihilated(self, k):
        nodes = family_nodes(KLAG1, 7)
        z = diffmat(k, nodes).data
        assert np.max(np.abs(z @ np.ones(7))) < 1e-9 * max(1.0, np.max(np.abs(z)))

    def test_second_equals_first_squared(self):
        nodes = family_nodes(KLEG1, 8)
        z1 = diffmat(1, nodes).data
        z2 = diffmat(2, nodes).data
        assert rel_gap(z1 @ z1, z2) < 1e-11

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constructions_agree(self, spec, k):
        nodes = family_nodes(spec, 10)
        rec = diffmat(k, nodes, "recursive").data
        alt = diffmat(k, nodes, "alternative").data
        assert rel_gap(rec, alt) < 1e-11
        if k <= 2:
            exp = diffmat(k, nodes, "explicit").data
            assert rel_gap(rec, exp) < 1e-11

    def test_leading_coefficient_cancels(self):
        member = build_family(KLAG1, 9)[9]
        nodes = zeros(member, KLAG1)
        for k in (1, 3):
            base = diffmat(k, nodes).data
            scaled = diffmat(k, nodes, leading=float(member.coeffs[-1])).data
            assert rel_gap(base, scaled) < 1e-11

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_on_low_degree_polynomials(self, seed):
        rng = np.random.default_rng(seed)
        nodes = family_nodes(KJAC12, 9)
        x = nodes.as_array()
        q = rng.standard_normal(9)  # degree 8 <= N-1
        vals = np.polynomial.polynomial.polyval(x, q)
        deriv = q
        for k in (1, 2, 3, 4):
            deriv = np.polynomial.polynomial.polyder(deriv)
            target = np.polynomial.polynomial.polyval(x, deriv)
            got = diffmat(k, nodes).data @ vals
            scale = max(1.0, float(np.max(np.abs(target))))
            assert np.max(np.abs(got - target)) <= 1e-9 * scale

    def test_bad_arguments(self):
        nodes = NodeSet.from_points([0.0, 1.0])
        with pytest.raises(ValueError):
            diffmat(5, nodes)
        with pytest.raises(ValueError):
            diffmat(3, nodes, "explicit")
        with pytest.raises(ValueError):
            diffmat(1, nodes, "magic")

    @pytest.mark.parametrize("method", ["explicit", "recursive", "alternative"])
    def test_coincident_nodes_rejected(self, method):
        with pytest.raises(ValueError, match="nodes must be distinct"):
            diffmat(1, [0.0, 1.0, 1.0], method)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_node_rejected(self, bad):
        with pytest.raises(ValueError, match="nodes must be finite"):
            diffmat(1, [0.0, bad, 1.0])

    @pytest.mark.parametrize("method", ["explicit", "recursive", "alternative"])
    def test_overflowing_spread_rejected(self, method):
        # psi'(x_m) reaches 2e400: every construction divides by it
        with pytest.raises(ValueError, match="overflows double precision"):
            diffmat(1, [0.0, 1e200, -1e200], method)


class TestCollocation:
    def test_first_derivative_operator(self):
        nodes = family_nodes(KLEG1, 5)
        op = DiffOperator(((1, Polynomial([F(1)])),))
        assert rel_gap(collocation_rep(op, nodes).data, diffmat(1, nodes).data) == 0.0

    def test_zero_operator(self):
        nodes = family_nodes(KLEG1, 4)
        assert np.all(collocation_rep(DiffOperator(()), nodes).data == 0.0)

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    @pytest.mark.parametrize("formula", ["family", "fourth-order"])
    def test_simplified_matches_general(self, spec, formula):
        for n in (3, 8, 12):
            nodes = family_nodes(spec, n)
            general = collocation_rep(operator_of(spec), nodes).data
            simplified = collocation_rep_simplified(spec, nodes, formula=formula).data
            assert rel_gap(general, simplified) < 1e-10, (spec.label(), formula, n)

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_row_sums_vanish(self, spec):
        nodes = family_nodes(spec, 6)
        d = collocation_rep_simplified(spec, nodes).data
        assert np.max(np.abs(d.sum(axis=1))) < 1e-9 * max(1.0, np.max(np.abs(d)))

    @pytest.mark.parametrize("spec", CLASSICAL_SPECS)
    def test_classical_closed_form(self, spec):
        for n in (4, 10):
            nodes = family_nodes(spec, n)
            general = collocation_rep(operator_of(spec), nodes).data
            closed = collocation_rep_simplified(spec, nodes).data
            assert rel_gap(general, closed) < 1e-10

    def test_hermite_diagonal_value(self):
        # sigma = 1, tau = -2x: diagonal is -tau(x)(tau(x))/6... exercised
        # against the assembled matrix entry by entry above; spot-check one
        # closed-form diagonal number here.
        spec = FamilySpec("hermite")
        nodes = family_nodes(spec, 6)
        d = collocation_rep_simplified(spec, nodes).data
        x0 = nodes.nodes[0]
        expected = (-2.0 * x0) * (-2.0 * x0) / -6.0 + (6 - 1) * (-2.0) / 3.0
        assert d[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_no_flags_for_interior_zeros(self):
        rep = collocation_rep_simplified(KLAG1, family_nodes(KLAG1, 8))
        assert rep.flagged == ()


class TestTauRep:
    @pytest.mark.parametrize("spec", KRALL_SPECS + CLASSICAL_SPECS)
    def test_diagonal_eigenvalues(self, spec):
        n = 7
        rep = tau_rep(operator_of(spec), spec, n)
        expected = np.diag([float(eigenvalue(spec, m)) for m in range(n)])
        assert np.array_equal(rep.data, expected)  # exact expansion, rounded once

    def test_zero_operator(self):
        rep = tau_rep(DiffOperator(()), KLEG1, 5)
        assert np.all(rep.data == 0.0)

    def test_upper_triangular_for_degree_preserving_operator(self):
        # x d/dx keeps degrees, so entries below the diagonal vanish exactly
        op = DiffOperator(((1, Polynomial([F(0), F(1)])),))
        rep = tau_rep(op, KLAG1, 6)
        assert np.all(rep.data[np.tril_indices(6, -1)] == 0.0)


class TestChristoffel:
    def test_single_node_weight_is_total_mass(self):
        for alpha in (F(1), F(3)):
            spec = FamilySpec("krall-legendre", alpha=alpha)
            nodes = family_nodes(spec, 1)
            lam = christoffel(nodes, spec).data
            assert lam[0, 0] == pytest.approx(float(1 + alpha), abs=1e-15)

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_weights_sum_to_total_mass(self, spec):
        for n in (2, 7):
            nodes = family_nodes(spec, n)
            lams = christoffel_numbers(nodes, spec)
            assert sum(lams) == pytest.approx(float(moment(spec, 0)), rel=1e-13)

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_positive(self, spec):
        nodes = family_nodes(spec, 9)
        assert all(lam > 0 for lam in christoffel_numbers(nodes, spec))

    def test_positivity_violation_detected(self):
        # nodes outside the support force a negative interpolatory weight
        bad = NodeSet.from_points([0.8, 0.9, 0.99, 2.5])
        with pytest.raises(PositivityError, match="; nodes or moments are corrupted$"):
            christoffel(bad, KLEG1)

    @pytest.mark.parametrize("spec", KRALL_SPECS + CLASSICAL_SPECS)
    def test_gaussian_exactness(self, spec):
        nodes = family_nodes(spec, 8)
        worst, per_k = quadrature_exactness(nodes, spec)
        assert len(per_k) == 16
        assert worst < 1e-10


class TestTransition:
    def test_scalar_case(self):
        nodes = family_nodes(KLEG1, 1)
        l_rep, li_rep = transition(nodes, KLEG1)
        fam0 = build_family(KLEG1, 0)[0]
        assert li_rep.data[0, 0] == pytest.approx(float(fam0(F(nodes.nodes[0]))))
        assert l_rep.data[0, 0] * li_rep.data[0, 0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_inverse_pair(self, spec):
        for n in (3, 8, 12):
            nodes = family_nodes(spec, n)
            l_rep, li_rep = transition(nodes, spec)
            prod = l_rep.data @ li_rep.data
            assert np.max(np.abs(prod - np.eye(n))) < 1e-10, (spec.label(), n)

    def test_diagonal_factor_is_christoffel(self):
        n = 5
        nodes = family_nodes(KLAG1, n)
        l_rep, _ = transition(nodes, KLAG1)
        lams = christoffel(nodes, KLAG1).data.diagonal()
        fam = build_family(KLAG1, n - 1)
        norms = [float(inner_product(p, p, KLAG1)) for p in fam]
        p_matrix = np.array([[float(fam[j](F(x))) / norms[j] for x in nodes.nodes] for j in range(n)])
        assert np.allclose(l_rep.data, p_matrix * lams, rtol=1e-12, atol=1e-15)

    def test_wrong_nodes_detected(self):
        spaced = NodeSet.from_points(list(np.linspace(-0.9, 0.9, 4)))
        residual = matrices._transition_pair(build_family(KLEG1, 3), spaced, KLEG1)[2]
        with pytest.raises(InversionConsistencyError) as caught:
            transition(spaced, KLEG1)
        assert str(caught.value) == (
            f"||L L_inv - I||_inf = {residual:.3e} above 1e-10; nodes are not accurate zeros for {KLEG1.label()}"
        )

    def test_exhausted_precision_named_at_the_zeros(self):
        hermite, n = FamilySpec("hermite"), 50
        nodes = family_nodes(hermite, n)
        residual = matrices._transition_pair(build_family(hermite, n - 1), nodes, hermite)[2]
        with pytest.raises(InversionConsistencyError) as caught:
            transition(nodes, hermite)
        assert str(caught.value) == (
            f"||L L_inv - I||_inf = {residual:.3e} above 1e-10; precision exhausted: the 192-bit refined zeros "
            "of the degree-50 member of hermite or the 2^-512 grid of the pair"
        )

    @pytest.mark.parametrize("spec, exact", [(KLEG1, False), (KJAC12, False), (FamilySpec("hermite"), True)])
    def test_exact_residual_only_past_the_double_bound(self, spec, exact, monkeypatch):
        calls = []
        real = matrices._inverse_residual
        monkeypatch.setattr(matrices, "_inverse_residual", lambda *args: calls.append(1) or real(*args))
        transition(family_nodes(spec, 20), spec)
        assert bool(calls) == exact

    def test_general_construction_any_nodes(self):
        spaced = NodeSet.from_points(list(np.linspace(-0.9, 0.9, 5)))
        l_rep, li_rep = transition_general(spaced, KLEG1)
        assert np.max(np.abs(l_rep.data @ li_rep.data - np.eye(5))) < 1e-10

    def test_general_matches_gaussian_shortcut_at_zeros(self):
        nodes = family_nodes(KJAC12, 6)
        l_short, _ = transition(nodes, KJAC12)
        l_gen, _ = transition_general(nodes, KJAC12)
        assert rel_gap(l_short.data, l_gen.data) < 1e-12


def similarity_residual(a_coll, a_tau, l_rep, li_rep):
    """||A_coll L_inv - L_inv A_tau||_inf / max(1, ||A_tau||_inf) in doubles, for the pair (L, L_inv)."""
    ac, at, li = a_coll.data, a_tau.data, li_rep.data
    assert l_rep.data.shape == li.shape
    return np.linalg.norm(ac @ li - li @ at, np.inf) / max(1.0, np.linalg.norm(at, np.inf))


class TestSimilarity:
    def test_identity_operator(self):
        # order-zero extension: the representations of the identity are both I
        n = 5
        nodes = family_nodes(KLEG1, n)
        op = DiffOperator(((0, Polynomial([F(1)])),))
        a_coll = collocation_rep(op, nodes)
        a_tau = tau_rep(op, KLEG1, n)
        l_rep, li_rep = transition(nodes, KLEG1)
        assert similarity_residual(a_coll, a_tau, l_rep, li_rep) < 1e-12

    def test_float_residual_compact_family(self):
        n = 8
        nodes = family_nodes(KLEG1, n)
        a_coll = collocation_rep(operator_of(KLEG1), nodes)
        a_tau = tau_rep(operator_of(KLEG1), KLEG1, n)
        l_rep, li_rep = transition(nodes, KLEG1)
        assert similarity_residual(a_coll, a_tau, l_rep, li_rep) < 1e-8

    def test_arbitrary_nodes_with_general_transition(self):
        n = 5
        spaced = NodeSet.from_points(list(np.linspace(-0.85, 0.9, n)))
        l_rep, li_rep = transition_general(spaced, KLEG1)
        a_coll = collocation_rep(operator_of(KLEG1), spaced)
        a_tau = tau_rep(operator_of(KLEG1), KLEG1, n)
        assert similarity_residual(a_coll, a_tau, l_rep, li_rep) < 1e-8

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_exact_check(self, spec):
        for n in (3, 12):
            res = similarity_check(spec, n)
            assert res["inverse_residual"] < 1e-10
            assert res["similarity_residual"] < 1e-8


class TestMatrixRep:
    def test_provenance_note(self):
        nodes = family_nodes(KLAG1, 4)
        rep = collocation_rep_simplified(KLAG1, nodes)
        assert "closed form" in rep.note
        assert rep.kind == "collocation"
        assert rep.size == 4
