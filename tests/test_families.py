"""Families: coefficient tables, moments, operators, eigen relations."""

from fractions import Fraction as F

import pytest

from krallzeros import (
    DiffOperator,
    FamilySpec,
    ParameterError,
    Polynomial,
    build_family,
    eigenvalue,
    inner_product,
    moment,
    operator_of,
)

KLEG1 = FamilySpec("krall-legendre", alpha=1)
KLAG1 = FamilySpec("krall-laguerre", alpha=1)
KJAC01 = FamilySpec("krall-jacobi", alpha=0, mass=1)

SAMPLE_SPECS = [
    FamilySpec("krall-legendre", alpha=F(1, 2)),
    KLEG1,
    FamilySpec("krall-laguerre", alpha=2),
    KLAG1,
    KJAC01,
    FamilySpec("krall-jacobi", alpha=1, mass=2),
    FamilySpec("hermite"),
    FamilySpec("laguerre", alpha=F(1, 2)),
    FamilySpec("jacobi", alpha=1, beta=2),
]


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).degree == -1

    def test_arithmetic(self):
        p = Polynomial([1, 2])  # 1 + 2x
        q = Polynomial([0, 0, 3])  # 3x^2
        assert (p * q).coeffs == (0, 0, 3, 6)
        assert (p + q).coeffs == (1, 2, 3)
        assert (p - p).degree == -1
        assert (2 * p).coeffs == (2, 4)

    def test_derivative_and_eval(self):
        p = Polynomial([F(1), F(0), F(3)])  # 1 + 3x^2
        assert p.derivative().coeffs == (F(0), F(6))
        assert p(F(2)) == 13
        assert p.derivative(2).coeffs == (F(6),)


class TestFamilySpec:
    def test_parameter_coercion(self):
        spec = FamilySpec("krall-laguerre", alpha=0.5)
        assert spec.alpha == F(1, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "krall-legendre", "alpha": 0},
            {"family": "krall-laguerre", "alpha": -1},
            {"family": "krall-jacobi", "alpha": -2, "mass": 1},
            {"family": "krall-jacobi", "alpha": 0, "mass": 0},
            {"family": "krall-jacobi", "alpha": 0},
            {"family": "jacobi", "alpha": 1},
            {"family": "hermite", "alpha": 1},
            {"family": "laguerre", "alpha": 1, "mass": 1},
            {"family": "nonsense", "alpha": 1},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            FamilySpec(**kwargs)


class TestBuildFamily:
    def test_krall_legendre_degree_one(self):
        for alpha in (F(1), F(2), F(1, 2)):
            fam = build_family(FamilySpec("krall-legendre", alpha=alpha), 1)
            assert fam[1].coeffs == (F(0), alpha)

    def test_krall_laguerre_degree_one(self):
        fam = build_family(KLAG1, 1)
        assert fam[1].coeffs == (F(1), F(-2))

    def test_krall_jacobi_degree_zero(self):
        for mass in (F(1), F(3)):
            fam = build_family(FamilySpec("krall-jacobi", alpha=1, mass=mass), 0)
            assert fam[0].coeffs == (mass,)

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_degree_zero_constant_and_degrees_exact(self, spec):
        fam = build_family(spec, 8)
        assert fam[0].degree == 0
        for nu, p in enumerate(fam):
            assert p.degree == nu


class TestMoments:
    def test_odd_legendre_moments_vanish(self):
        for k in (1, 3, 7):
            assert moment(FamilySpec("krall-legendre", alpha=3), k) == 0

    def test_examples(self):
        assert moment(FamilySpec("krall-laguerre", alpha=2), 0) == F(3, 2)
        assert moment(FamilySpec("krall-legendre", alpha=3), 2) == 2
        assert moment(KJAC01, 0) == 2  # Beta(1,1) + 1/M = 1 + 1
        assert moment(KJAC01, 1) == F(1, 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            moment(KLEG1, -1)

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_mass_positive(self, spec):
        assert moment(spec, 0) > 0

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_hankel_positive_definite(self, spec):
        # leading principal minors of [m_{i+j}] up to order 6, exact
        for order in range(1, 7):
            h = [[moment(spec, i + j) for j in range(order)] for i in range(order)]
            assert _det_exact(h) > 0, (spec.label(), order)



def _det_exact(rows):
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


class TestInnerProduct:
    def test_examples(self):
        one = Polynomial([F(1)])
        x = Polynomial([F(0), F(1)])
        assert inner_product(one, one, KLAG1) == 2
        assert inner_product(x, x, FamilySpec("krall-legendre", alpha=3)) == 2

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_orthogonality_exact(self, spec):
        fam = build_family(spec, 12)
        for m in range(13):
            for n in range(m + 1, 13):
                assert inner_product(fam[m], fam[n], spec) == 0, (spec.label(), m, n)

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_norms_positive(self, spec):
        fam = build_family(spec, 6)
        for p in fam:
            assert inner_product(p, p, spec) > 0


class TestOperators:
    def test_krall_laguerre_coefficients(self):
        op = operator_of(KLAG1)
        assert op.coefficient(4).coeffs == (0, 0, 1)  # x^2
        assert op.coefficient(3).coeffs == (0, 4, -2)  # -2x(x-2)
        assert op.coefficient(2).coeffs == (0, -8, 1)  # x[x - 2(alpha+3)]
        assert op.coefficient(1).coeffs == (-2, 4)  # 2[(alpha+1)x - alpha]

    def test_krall_legendre_coefficients(self):
        op = operator_of(FamilySpec("krall-legendre", alpha=2))
        assert op.coefficient(4).coeffs == (1, 0, -2, 0, 1)  # (1 - x^2)^2
        assert op.coefficient(3).coeffs == (0, -8, 0, 8)  # 8x(x^2 - 1)
        assert op.coefficient(2).coeffs == (-20, 0, 20)  # 4(3+alpha)(x^2-1)
        assert op.coefficient(1).coeffs == (0, 16)  # 8 alpha x

    def test_krall_jacobi_coefficients(self):
        op = operator_of(FamilySpec("krall-jacobi", alpha=1, mass=2))
        assert op.coefficient(4).coeffs == (0, 0, 1, -2, 1)  # x^2 (x-1)^2
        assert op.coefficient(3).coeffs == (0, 4, -14, 10)
        assert op.coefficient(2).coeffs == (0, -22, 28)
        assert op.coefficient(1).coeffs == (-4, 24)

    def test_classical_two_terms(self):
        op = operator_of(FamilySpec("hermite"))
        assert op.coefficient(2).coeffs == (1,)
        assert op.coefficient(1).coeffs == (0, -2)
        assert op.max_order == 2

    def test_degree_condition_enforced(self):
        with pytest.raises(ValueError):
            DiffOperator(((1, Polynomial([0, 0, 1])),))  # deg 2 coeff on d/dx


class TestEigenvalues:
    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_zero_at_degree_zero(self, spec):
        assert eigenvalue(spec, 0) == 0

    def test_examples(self):
        assert eigenvalue(KLAG1, 2) == 10
        assert eigenvalue(KLEG1, 1) == 8
        assert eigenvalue(KJAC01, 1) == 8
        assert eigenvalue(FamilySpec("hermite"), 3) == -6
        assert eigenvalue(FamilySpec("laguerre", alpha=1), 4) == -4
        assert eigenvalue(FamilySpec("jacobi", alpha=1, beta=2), 2) == -12


class TestApplyOperator:
    def test_constant_killed_without_zero_order_term(self):
        op = operator_of(KLAG1)
        assert op.apply(Polynomial([F(5)])).degree == -1

    def test_krall_laguerre_degree_one(self):
        fam = build_family(KLAG1, 1)
        image = operator_of(KLAG1).apply(fam[1])
        assert image.coeffs == (F(4), F(-8))  # mu_1 * (1 - 2x) with mu_1 = 4

    def test_hermite_degree_two(self):
        spec = FamilySpec("hermite")
        fam = build_family(spec, 2)
        image = operator_of(spec).apply(fam[2])
        assert image == eigenvalue(spec, 2) * fam[2]

    @pytest.mark.parametrize("spec", SAMPLE_SPECS)
    def test_eigenfunction_relation_exact(self, spec):
        fam = build_family(spec, 12)
        op = operator_of(spec)
        for nu in range(13):
            assert op.apply(fam[nu]) == eigenvalue(spec, nu) * fam[nu], (spec.label(), nu)

    @pytest.mark.parametrize("spec", [KLEG1, KLAG1, KJAC01])
    def test_degree_preserved(self, spec):
        # deg(D p) <= deg(p) for arbitrary p, not only eigenfunctions
        op = operator_of(spec)
        for p in (Polynomial([F(3), F(-1), F(2), F(7), F(1)]), Polynomial([F(2), F(5)])):
            assert op.apply(p).degree <= p.degree


class TestFactoredForms:
    """The operators are defined by factored weighted expressions; the expanded
    coefficient lists must agree with expanding those factorizations."""

    @pytest.mark.parametrize("alpha", [F(1), F(2), F(1, 2)])
    def test_krall_legendre_expansion(self, alpha):
        # d^2[b u''] + 4 d[c u'] with b = (1-x^2)^2, c = alpha (x^2-1) - 2
        b = Polynomial([F(1), F(0), F(-2), F(0), F(1)])
        c = Polynomial([-alpha - 2, F(0), alpha])
        expect = {
            4: b,
            3: 2 * b.derivative(),
            2: b.derivative(2) + 4 * c,
            1: 4 * c.derivative(),
        }
        op = operator_of(FamilySpec("krall-legendre", alpha=alpha))
        for order, coeff in expect.items():
            assert op.coefficient(order) == coeff

    @pytest.mark.parametrize("alpha", [F(1), F(2), F(1, 2)])
    def test_krall_laguerre_expansion(self, alpha):
        # e^x (d^2[g e^{-x} u''] - d[c e^{-x} u']); (q e^{-x})' = (q' - q) e^{-x}
        def weighted_derivative(q):
            return q.derivative() - q

        g = Polynomial([F(0), F(0), F(1)])
        c = Polynomial([F(2), 2 * alpha + 2])
        g1 = weighted_derivative(g)
        g2 = weighted_derivative(g1)
        expect = {
            4: g,
            3: 2 * g1,
            2: g2 - c,
            1: -weighted_derivative(c),
        }
        op = operator_of(FamilySpec("krall-laguerre", alpha=alpha))
        for order, coeff in expect.items():
            assert op.coefficient(order) == coeff

    @pytest.mark.parametrize("alpha,mass", [(F(0), F(1)), (F(1), F(2)), (F(2), F(1))])
    def test_krall_jacobi_expansion(self, alpha, mass):
        # integer alpha keeps the weighted factors polynomial:
        # (1-x)^{-alpha} (d^2[w4 u''] + d[w2 u'])
        one_minus_x = Polynomial([F(1), F(-1)])

        def power(p, k):
            out = Polynomial([F(1)])
            for _ in range(k):
                out = out * p
            return out

        a = int(alpha)
        w4 = power(one_minus_x, a + 4) - 2 * power(one_minus_x, a + 3) + power(one_minus_x, a + 2)
        w2 = (2 * alpha + 2 + 2 * mass) * power(one_minus_x, a + 2) - (
            2 * alpha + 4 + 2 * mass
        ) * power(one_minus_x, a + 1)
        op = operator_of(FamilySpec("krall-jacobi", alpha=alpha, mass=mass))
        # compare by applying both forms to test polynomials, exactly
        for k in range(7):
            u = Polynomial([F(0)] * k + [F(1)])  # x^k
            factored = (w4 * u.derivative(2)).derivative(2) + (w2 * u.derivative()).derivative()
            expanded = power(one_minus_x, a) * op.apply(u)
            assert factored == expanded, (alpha, mass, k)
