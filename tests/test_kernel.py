"""The exact integer kernel and the float differentiation matrices against loop references.

Each exact reduction (Horner, the Gaussian moment sums, L L_inv, the
D p_m products behind the eigenpair, power and similarity checks, the
exact collocation rows, the Christoffel numbers, the squared norms and the
Newton refinement of the nodes, the node polynomial of NodeSet.from_points
and the Jacobi coefficient expansion) runs on integers over common
denominators. The float differentiation matrices are whole-array numpy
operations. The references below are the plain Fraction loops and the
entry-by-entry float loops these replaced, and the coefficient loops that
rebuilt every Pochhammer product; results must be equal, as rationals or
bit for bit as doubles, over random inputs.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krallzeros import DiffOperator, FamilySpec, MomentFunctional, NodeSet, Polynomial, build_family, families, matrices, zeros
from krallzeros.families import FAMILIES, common_denominator, inner_product, squared_norm, squared_norms
from krallzeros.identities import Cell, _diffmat_report, _eigenpairs, _params_dict, _power, _similarity, worst_residual
from krallzeros.matrices import (
    _inverse_residual,
    _quadrature_residuals,
    _transition_exact,
    christoffel_numbers,
    collocation_exact,
    collocation_rep,
    diffmat,
    diffmats_exact,
    node_poly_derivatives,
)
from krallzeros.rootfinding import DEFAULT_REFINE_BITS, _newton_refine, _round_div

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=1 << 20)
scalars = st.one_of(st.integers(-10**6, 10**6), rationals)


def _above(low, high, max_denominator=4):
    """Rationals in (low, high]."""
    return st.fractions(min_value=low, max_value=high, max_denominator=max_denominator).filter(lambda v: v > low)


specs_by_family = (
    st.just(FamilySpec("hermite")),
    st.builds(lambda a: FamilySpec("laguerre", alpha=a), _above(-1, 4)),
    st.builds(lambda a, b: FamilySpec("jacobi", alpha=a, beta=b), _above(-1, 4), _above(-1, 4)),
    st.builds(lambda a: FamilySpec("krall-legendre", alpha=a), _above(0, 4)),
    st.builds(lambda a: FamilySpec("krall-laguerre", alpha=a), _above(0, 4)),
    st.builds(lambda a, m: FamilySpec("krall-jacobi", alpha=a, mass=m), _above(-1, 4), _above(0, 4)),
)
specs = st.one_of(*specs_by_family)
cells = st.builds(Cell, specs, st.integers(1, 8))


# ---------------------------------------------------------------------------
# plain-Fraction references
# ---------------------------------------------------------------------------


def horner_reference(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def quadrature_reference(lams, xq, spec):
    mom = MomentFunctional(spec)
    n = len(xq)
    residuals = []
    powers = [F(1)] * n
    for k in range(2 * n):
        if k > 0:
            powers = [p * x for p, x in zip(powers, xq)]
        approx = sum((lam * p for lam, p in zip(lams, powers)), F(0))
        mk = mom(k)
        residuals.append(float(abs(approx - mk) / max(F(1), abs(mk))))
    return residuals


def inverse_reference(l_mat, l_inv):
    n = len(l_mat)
    worst = F(0)
    for m in range(n):
        total = F(0)
        for j in range(n):
            entry = sum(l_mat[m][k] * l_inv[k][j] for k in range(n))
            if m == j:
                entry -= 1
            total += abs(entry)
        worst = max(worst, total)
    return float(worst)


def eigen_cells_reference(tag, matrix, values, mus, tolerance):
    n = len(matrix)
    cells, eigenpairs = [], []
    for m, mu in enumerate(mus):
        pv = values[m]
        scale = max(F(1), abs(mu) * max(abs(v) for v in pv))
        rows = []
        for i in range(n):
            r = float(abs(sum(matrix[i][k] * pv[k] for k in range(n)) - mu * pv[i]) / scale)
            cells.append({"identity": tag, "m": m, "n": i + 1, "residual": r, "pass": r <= tolerance})
            rows.append(r)
        eigenpairs.append({"m": m, "eigenvalue": float(mu), "residual": worst_residual(rows)})
    return worst_residual(c["residual"] for c in cells), cells, eigenpairs


def float_cells_reference(tag, matrix, values, mus, tolerance):
    n = len(matrix)
    cells, eigenpairs = [], []
    for m, mu in enumerate(mus):
        pv = values[m]
        scale = max(1.0, abs(mu) * max(abs(v) for v in pv))
        rows = []
        for i in range(n):
            r = float(abs(math.fsum(matrix[i][k] * pv[k] for k in range(n)) - mu * pv[i]) / scale)
            cells.append({"identity": tag, "m": m, "n": i + 1, "residual": r, "pass": r <= tolerance})
            rows.append(r)
        eigenpairs.append({"m": m, "eigenvalue": float(mu), "residual": worst_residual(rows)})
    return worst_residual(c["residual"] for c in cells), cells, eigenpairs


def eigenpairs_reference(cell, tolerance, rowsum_tolerance):
    max_residual, cells, eigenpairs = eigen_cells_reference(
        "eigenpair", cell.dc_exact, cell.values_exact, cell.mus, tolerance
    )
    rowsum = worst_residual(float(abs(sum(row))) for row in cell.dc_exact)
    return cell.report(
        "eigenpair", tolerance, "exact", max_residual,
        passed=max_residual <= tolerance and rowsum <= rowsum_tolerance,
        cells=cells, eigenpairs=eigenpairs,
        rowsum_residual=rowsum, rowsum_tolerance=rowsum_tolerance, rowsum_passed=rowsum <= rowsum_tolerance,
    )


def power_reference(cell, exponent, tolerance, arithmetic):
    n = cell.n
    if arithmetic == "exact":
        dc, pv, mus, total, cells_of = cell.dc_exact, cell.values_exact, cell.mus, sum, eigen_cells_reference
    else:
        dc, pv, total, cells_of = cell.dc_float.tolist(), cell.values_float, math.fsum, float_cells_reference
        mus = [float(mu) for mu in cell.mus]
    power = dc
    for _ in range(exponent - 1):
        power = [[total(power[i][k] * dc[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    max_residual, cells, eigenpairs = cells_of("operator-power", power, pv, [mu**exponent for mu in mus], tolerance)
    params = _params_dict(cell.spec, exponent=exponent)
    return cell.report(
        "operator-power", tolerance, arithmetic, max_residual, params=params, cells=cells, eigenpairs=eigenpairs
    )


def similarity_reference(cell):
    n, mus = cell.n, cell.mus
    l_mat, l_inv = _transition_exact(cell.family, cell.lams, cell.nodes.refined(cell.bits), cell.spec)
    dc, pv = cell.dc_exact, cell.values_exact
    worst = F(0)
    for m in range(n):
        total = F(0)
        for j in range(n):
            total += abs(sum(dc[m][k] * pv[j][k] for k in range(n)) - pv[j][m] * mus[j])
        worst = max(worst, total)
    denom = max(F(1), max(abs(v) for v in mus))
    return {"inverse_residual": inverse_reference(l_mat, l_inv), "similarity_residual": float(worst / denom)}


def round_binary(x, bits):
    scale = 1 << bits
    return F(round(x * scale), scale)


def newton_reference(poly, x0, bits):
    deriv = poly.derivative()
    x = F(x0)
    tol = F(1, 1 << bits)
    for _ in range(12):
        fx = poly(x)
        dfx = deriv(x)
        if dfx == 0:
            break
        step = fx / dfx
        x = round_binary(x - step, bits)
        if abs(step) <= tol * max(1, abs(x)):
            break
    return x


def refined_reference(nodes, bits):
    exact = Polynomial([F(c) for c in nodes.poly.coeffs])
    return [newton_reference(exact, x, bits) for x in nodes.nodes]


def elementary_symmetric_reference(values, dmax, zero, one):
    e = [zero] * (dmax + 1)
    e[0] = one
    for v in values:
        for d in range(min(dmax, len(values)), 0, -1):
            e[d] = e[d] + v * e[d - 1]
    return e


def node_poly_derivatives_reference(x, kmax, leading=1.0):
    """The per-node loop: psi^(k)(x_m) = k! pi_m e_(k-1)(1 / (x_m - x_j), j != m)."""
    n = len(x)
    pd = np.zeros((kmax + 1, n))
    pi = np.zeros(n)
    for m in range(n):
        others = np.delete(x, m)
        pim = leading * np.prod(x[m] - others) if n > 1 else leading
        recips = 1.0 / (x[m] - others)
        e = elementary_symmetric_reference(recips, kmax, 0.0, 1.0)
        pi[m] = pim
        for k in range(1, kmax + 1):
            pd[k, m] = math.factorial(k) * pim * e[k - 1]
    return pd, pi


def diffmat_explicit_reference(k, x):
    n = len(x)
    pi = np.array([np.prod(x[m] - np.delete(x, m)) if n > 1 else 1.0 for m in range(n)])
    z = np.zeros((n, n))
    for m in range(n):
        for j in range(n):
            if m == j and k == 1:
                z[m, j] = math.fsum(1.0 / (x[m] - x[i]) for i in range(n) if i != m)
            elif m == j:
                z[m, j] = math.fsum(
                    1.0 / ((x[m] - x[i]) * (x[m] - x[p]))
                    for i in range(n)
                    if i != m
                    for p in range(n)
                    if p not in (m, i)
                )
            elif k == 1:
                z[m, j] = pi[m] / pi[j] / (x[m] - x[j])
            else:
                s = math.fsum(1.0 / (x[m] - x[i]) for i in range(n) if i not in (m, j))
                z[m, j] = 2.0 * pi[m] / pi[j] / (x[m] - x[j]) * s
    return z


def diffmat_reference(k, x, method, leading=1.0):
    """The entry-by-entry loops of the three constructions."""
    if method == "explicit":
        return diffmat_explicit_reference(k, x)
    n = len(x)
    pd, pi = node_poly_derivatives_reference(x, k + 1, leading)
    z = np.zeros((n, n))
    for m in range(n):
        for j in range(n):
            if m == j:
                z[m, j] = pd[k + 1, j] / ((k + 1) * pi[j])
            elif method == "recursive":
                a = 1.0 / (x[m] - x[j])
                zprev = 0.0  # off-diagonal entry of Z^(0) = I
                for kk in range(1, k + 1):
                    zprev = a * (pd[kk, m] / pi[j] - kk * zprev)
                z[m, j] = zprev
            else:
                acc = 0.0
                for i in range(1, k + 1):
                    acc += (
                        (-1) ** (k - i) * math.factorial(k) / math.factorial(i) * pd[i, m] / (x[m] - x[j]) ** (k - i + 1)
                    )
                z[m, j] = acc / pi[j]
    return z


def from_points_reference(points):
    """Node polynomial by Fraction products on the raw doubles, its derivatives evaluated exactly."""
    pts = sorted(float(p) for p in points)
    poly = Polynomial([F(1)])
    for p in pts:
        poly = poly * Polynomial([-F(p), F(1)])
    caches = [tuple(float(poly.derivative(k)(F(x))) for x in pts) for k in (1, 2, 3)]
    return poly, caches


def coeffs_jacobi_reference(nu, alpha, beta):
    """Running Pochhammer products, ((x - 1) / 2)^s expanded term by term in Fractions."""
    c = [F(0)] * (nu + 1)
    falls = [F(1)] * (nu + 1)
    for s in range(nu - 1, -1, -1):
        falls[s] = falls[s + 1] * (alpha + s + 1)
    rise = F(1)
    for s in range(nu + 1):
        pref = falls[s] / math.factorial(nu - s) * rise / (math.factorial(s) * 2**s)
        for t in range(s + 1):
            c[t] += pref * (math.comb(s, t) * (-1) ** (s - t))
        rise *= alpha + beta + nu + 1 + s
    return c


def diffmats_reference(kmax, xq):
    n = len(xq)
    pis, tables = [], []
    for m in range(n):
        pim = F(1)
        recips = []
        for j in range(n):
            if j != m:
                pim *= xq[m] - xq[j]
                recips.append(1 / (xq[m] - xq[j]))
        pis.append(pim)
        tables.append(elementary_symmetric_reference(recips, kmax + 1, F(0), F(1)))

    def psid(k, m):
        return math.factorial(k) * pis[m] * tables[m][k - 1]

    mats = [[[F(int(i == j)) for j in range(n)] for i in range(n)]]
    for k in range(1, kmax + 1):
        prev = mats[k - 1]
        cur = [[F(0)] * n for _ in range(n)]
        for m in range(n):
            for j in range(n):
                if m == j:
                    cur[m][j] = psid(k + 1, j) / ((k + 1) * pis[j])
                else:
                    a = 1 / (xq[m] - xq[j])
                    cur[m][j] = a * (psid(k, m) / pis[j] - k * prev[m][j])
        mats.append(cur)
    return mats


def collocation_reference(op, xq):
    n = len(xq)
    zs = diffmats_reference(op.max_order, xq)
    out = [[F(0)] * n for _ in range(n)]
    for order, a in op.terms:
        aq = Polynomial([F(c) for c in a.coeffs])
        for m in range(n):
            am = aq(xq[m])
            if am == 0:
                continue
            row = zs[order][m]
            for j in range(n):
                out[m][j] += am * row[j]
    return out


def christoffel_reference(nodes, spec, bits):
    poly = Polynomial([F(c) for c in nodes.poly.coeffs])
    deriv = poly.derivative()
    mom = MomentFunctional(spec)
    lams = []
    for xj in nodes.refined(bits):
        quot = poly.shifted_quotient(xj)
        val = sum((quot.coeffs[i] * mom(i) for i in range(len(quot.coeffs))), F(0))
        lams.append(val / deriv(xj))
    return lams


def transition_reference(fam, lams, xq, spec):
    n = len(xq)
    norms = [squared_norm(p, spec) for p in fam[:n]]
    values = [[round_binary(fam[j](x), 512) for x in xq] for j in range(n)]
    l_mat = [[round_binary(lams[k] * values[j][k] / norms[j], 512) for k in range(n)] for j in range(n)]
    l_inv = [[values[k][j] for k in range(n)] for j in range(n)]
    return l_mat, l_inv


def pochhammer_reference(x, n):
    out = F(1)
    for i in range(n):
        out *= x + i
    return out


def coeffs_reference(spec, nu):
    """The coefficient loops that rebuilt each Pochhammer product per coefficient."""
    a, c = spec.alpha, [F(0)] * (nu + 1)
    if spec.family == "laguerre":
        for k in range(nu + 1):
            c[k] += (-1) ** k * pochhammer_reference(a + k + 1, nu - k) / (math.factorial(nu - k) * math.factorial(k))
    elif spec.family == "jacobi":
        for s in range(nu + 1):
            pref = (
                pochhammer_reference(a + s + 1, nu - s)
                / math.factorial(nu - s)
                * pochhammer_reference(a + spec.beta + nu + 1, s)
                / math.factorial(s)
            )
            for t in range(s + 1):
                c[t] += pref * F(math.comb(s, t) * (-1) ** (s - t), 2**s)
    else:  # krall-jacobi
        den = pochhammer_reference(a + 1, nu)
        for k in range(nu + 1):
            num = (
                (-1) ** (nu - k)
                * math.comb(nu, k)
                * pochhammer_reference(a + 1, nu + k)
                * (k * (nu + a) * (nu + 1) + (k + 1) * spec.mass)
            )
            c[k] += num / (math.factorial(k + 1) * den)
    return c


def perturbed(cell, data):
    """The cell with rational noise added to some entries of its exact collocation matrix.

    At any distinct nodes the exact relations hold with residual 0, so the
    noise is what gives the kernel nonzero defects to reduce.
    """
    n = cell.n
    dc = [list(row) for row in cell.dc_exact]
    entries = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), rationals)
    for i, j, noise in data.draw(st.lists(entries, max_size=4)):
        dc[i][j] += noise
    fresh = Cell(cell.spec, n)
    fresh.dc_exact = dc  # cached_property: the instance attribute takes precedence
    return fresh


# ---------------------------------------------------------------------------
# coefficient tables with running Pochhammer products
# ---------------------------------------------------------------------------

pochhammer_specs = st.one_of(
    st.builds(lambda a: FamilySpec("laguerre", alpha=a), _above(-1, 4, 64)),
    st.builds(lambda a, b: FamilySpec("jacobi", alpha=a, beta=b), _above(-1, 4, 64), _above(-1, 4, 64)),
    st.builds(lambda a, m: FamilySpec("krall-jacobi", alpha=a, mass=m), _above(-1, 4, 64), _above(0, 4, 64)),
)


@given(pochhammer_specs, st.integers(0, 30))
def test_coefficients_with_running_products(spec, nu):
    assert families._coeffs(spec, nu) == coeffs_reference(spec, nu)


# ---------------------------------------------------------------------------
# the helper and Horner
# ---------------------------------------------------------------------------


@given(st.lists(scalars, max_size=10))
def test_common_denominator(values):
    ints, d = common_denominator(values)
    assert d >= 1 and all(isinstance(v, int) for v in ints)
    assert [F(a, d) for a in ints] == values
    assert math.gcd(d, *ints) == 1


@given(st.lists(scalars, max_size=9), scalars)
def test_horner_rational(coeffs, x):
    p = Polynomial(coeffs)
    expected = horner_reference(p.coeffs, x)
    got = p(x)
    assert got == expected
    assert type(got) is type(expected)


@given(st.lists(st.integers(-10**9, 10**9), max_size=9), st.integers(-10**6, 10**6))
def test_horner_int_stays_int(coeffs, x):
    got = Polynomial(coeffs)(x)
    assert type(got) is int and got == horner_reference(Polynomial(coeffs).coeffs, x)


@given(
    st.lists(scalars, max_size=9),
    st.one_of(
        st.floats(-1e3, 1e3),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    ),
)
def test_horner_float_and_complex_keep_their_loop(coeffs, x):
    p = Polynomial(coeffs)
    expected = horner_reference(p.coeffs, x)
    got = p(x)
    assert type(got) is type(expected)
    assert got == expected


@pytest.mark.parametrize("coeffs", [[], [F(3, 7)], [5]])
@pytest.mark.parametrize("x", [0, -3, F(-5, 2), 0.5])
def test_horner_zero_and_constant(coeffs, x):
    p = Polynomial(coeffs)
    got = p(x)
    assert got == horner_reference(p.coeffs, x)
    assert type(got) is type(horner_reference(p.coeffs, x))


# ---------------------------------------------------------------------------
# Gaussian moments and L L_inv
# ---------------------------------------------------------------------------


@given(cells)
def test_quadrature_residuals_on_refined_zeros(cell):
    xq = cell.nodes.refined(cell.bits)
    assert _quadrature_residuals(cell.lams, xq, cell.spec) == quadrature_reference(cell.lams, xq, cell.spec)


@given(specs, st.lists(st.tuples(rationals, rationals), min_size=1, max_size=8))
def test_quadrature_residuals_on_any_rationals(spec, pairs):
    lams, xq = [p[0] for p in pairs], [p[1] for p in pairs]
    assert _quadrature_residuals(lams, xq, spec) == quadrature_reference(lams, xq, spec)


@given(cells)
def test_inverse_residual_on_transition_pairs(cell):
    l_mat, l_inv = _transition_exact(cell.family, cell.lams, cell.nodes.refined(cell.bits), cell.spec)
    assert _inverse_residual(l_mat, l_inv) == inverse_reference(l_mat, l_inv)


def square_matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n))))
def test_inverse_residual_on_any_rationals(pair):
    l_mat, l_inv = pair
    assert _inverse_residual(l_mat, l_inv) == inverse_reference(l_mat, l_inv)


# ---------------------------------------------------------------------------
# D p_m: eigenpair, power and similarity
# ---------------------------------------------------------------------------


@given(cells, st.data())
def test_exact_eigenpairs(cell, data):
    cell = perturbed(cell, data)
    assert _eigenpairs(cell, 1e-8, 1e-9).to_dict() == eigenpairs_reference(cell, 1e-8, 1e-9).to_dict()


@given(cells, st.integers(1, 3), st.data())
def test_exact_power(cell, exponent, data):
    cell = perturbed(cell, data)
    assert _power(cell, exponent, 1e-6).to_dict() == power_reference(cell, exponent, 1e-6, "exact").to_dict()


@given(cells, st.integers(1, 3))
def test_float_power_unchanged(cell, exponent):
    assert _power(cell, exponent, 1e-6, "float").to_dict() == power_reference(cell, exponent, 1e-6, "float").to_dict()


@given(cells, st.data())
def test_exact_similarity(cell, data):
    cell = perturbed(cell, data)
    assert _similarity(cell) == similarity_reference(cell)


# ---------------------------------------------------------------------------
# exact collocation rows
# ---------------------------------------------------------------------------

distinct_nodes = st.lists(rationals, min_size=1, max_size=8, unique=True)


@st.composite
def operators(draw):
    """sum_k a_k d^k with deg a_k <= k, an order-0 term always present."""
    orders = [0] + draw(st.lists(st.integers(1, 4), max_size=4, unique=True))
    small = st.fractions(min_value=-20, max_value=20, max_denominator=50)
    return DiffOperator(tuple((k, Polynomial(draw(st.lists(small, max_size=k + 1)))) for k in orders))


@given(cells)
def test_collocation_exact_on_zeros(cell):
    assert collocation_exact(cell.op, cell.xq) == collocation_reference(cell.op, cell.xq)


@given(distinct_nodes, operators())
def test_collocation_exact_on_any_rational_nodes(xq, op):
    assert collocation_exact(op, xq) == collocation_reference(op, xq)


@given(distinct_nodes, st.integers(0, 4))
def test_diffmats_exact(xq, kmax):
    assert diffmats_exact(kmax, xq) == diffmats_reference(kmax, xq)


# ---------------------------------------------------------------------------
# Christoffel numbers, squared norms, L and L_inv
# ---------------------------------------------------------------------------


@given(cells, st.sampled_from([64, 192, 512]))
def test_christoffel_numbers(cell, bits):
    assert christoffel_numbers(cell.nodes, cell.spec, bits) == christoffel_reference(cell.nodes, cell.spec, bits)


@given(
    specs,
    # NodeSet.from_points wants points at least 1e-10 apart
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=1000), min_size=1, max_size=8, unique=True),
    st.sampled_from([64, 192, 512]),
)
def test_christoffel_numbers_on_any_nodes(spec, xq, bits):
    nodes = NodeSet.from_points([float(x) for x in xq])
    assert christoffel_numbers(nodes, spec, bits) == christoffel_reference(nodes, spec, bits)


def test_christoffel_numbers_cached_per_spec_and_bits(monkeypatch):
    spec = FamilySpec("krall-jacobi", alpha=F(1, 2), mass=F(2))
    nodes = NodeSet.from_points([-0.5, 0.25, 0.75])
    moments = []
    real = matrices.moment
    monkeypatch.setattr(matrices, "moment", lambda spec, k: moments.append(k) or real(spec, k))
    first = christoffel_numbers(nodes, spec)
    first.append(F(0))  # the caller's list, not the node set's
    assert christoffel_numbers(nodes, spec) == christoffel_reference(nodes, spec, DEFAULT_REFINE_BITS)
    assert len(moments) == 3  # one kernel run
    christoffel_numbers(nodes, spec, 64)
    christoffel_numbers(nodes, FamilySpec("hermite"))
    assert len(moments) == 9


def test_quadrature_and_transition_share_the_christoffel_numbers(monkeypatch):
    spec = FamilySpec("laguerre", alpha=F(1, 2))
    nodes = zeros(build_family(spec, 5)[5], spec)
    runs = []
    real = matrices.moment
    monkeypatch.setattr(matrices, "moment", lambda spec, k: runs.append(k) or real(spec, k))
    matrices.quadrature_exactness(nodes, spec)
    matrices.transition(nodes, spec)
    assert runs == [0, 1, 2, 3, 4]


@given(specs, st.integers(0, 8))
def test_squared_norms_of_members(spec, n):
    fam = build_family(spec, n)
    assert squared_norms(fam, spec) == [inner_product(p, p, spec) for p in fam]


@given(specs, st.lists(st.lists(scalars, max_size=8), min_size=1, max_size=4))
def test_squared_norms_of_any_rational_polynomials(spec, coefficient_lists):
    polys = [Polynomial(c) for c in coefficient_lists]
    assert squared_norms(polys, spec) == [inner_product(p, p, spec) for p in polys]


@given(cells)
def test_transition_exact(cell):
    xq = cell.nodes.refined(cell.bits)
    args = (cell.family, cell.lams, xq, cell.spec)
    assert _transition_exact(*args) == transition_reference(*args)


# ---------------------------------------------------------------------------
# Newton refinement and its rounding
# ---------------------------------------------------------------------------


@given(st.integers(-10**40, 10**40), st.integers(-10**20, 10**20).filter(bool))
def test_round_div(p, q):
    assert _round_div(p, q) == round(F(p, q))


@pytest.mark.parametrize("p, q", [(1, 2), (3, 2), (-1, 2), (-3, 2), (5, -2), (7, -2), (0, 3), (-6, -3)])
def test_round_div_ties_to_even(p, q):
    assert _round_div(p, q) == round(F(p, q))


@given(cells, st.sampled_from([64, 192, 512]))
def test_refined_zeros(cell, bits):
    assert cell.nodes.refined(bits) == refined_reference(cell.nodes, bits)


@given(
    st.lists(rationals, min_size=2, max_size=7).filter(lambda c: c[-1] != 0),
    st.floats(-100, 100),
    st.sampled_from([64, 192, 512]),
)
@example([F(-2), F(0), F(1)], 0.0, 64)  # p'(x0) = 0: no step
@example([F(1), F(0), F(1)], 0.5, 192)  # no real root: steps never settle
def test_newton_from_any_start(coeffs, x0, bits):
    poly = Polynomial(coeffs)
    assert _newton_refine(poly._integer_form()[0], x0, bits) == newton_reference(poly, x0, bits)


# ---------------------------------------------------------------------------
# float differentiation matrices, bit for bit
# ---------------------------------------------------------------------------

# distinct nodes over seven decades, either sign
spread_nodes = st.integers(1, 24).flatmap(
    lambda n: st.lists(
        st.builds(
            lambda sign, mantissa, e: sign * mantissa * 10.0**e,
            st.sampled_from([-1.0, 1.0]),
            st.floats(1, 10),
            st.integers(-3, 3),
        ),
        min_size=n,
        max_size=n,
        unique=True,
    )
).map(lambda xs: np.array(sorted(xs)))

DIFFMAT_CASES = [(k, m) for k in (1, 2, 3, 4) for m in matrices.DIFFMAT_METHODS if not (m == "explicit" and k > 2)]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_diffmats_match(x):
    for leading in (1.0, 0.37):
        for kmax in (1, 3, 5):
            got, expected = node_poly_derivatives(x, kmax, leading), node_poly_derivatives_reference(x, kmax, leading)
            assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1]), (kmax, leading)
        for k, method in DIFFMAT_CASES:
            got = diffmat(k, x, method, leading).data
            assert same_bits(got, diffmat_reference(k, x, method, leading)), (k, method, leading)


@given(spread_nodes)
@example(np.array([0.5]))
@example(np.array([-1.0, 1.0]))
def test_diffmats_on_spread_nodes(x):
    assert_diffmats_match(x)


@pytest.mark.parametrize("family_specs", specs_by_family, ids=FAMILIES)
@settings(max_examples=10)
@given(data=st.data())
def test_diffmats_on_family_zeros(family_specs, data):
    spec, n = data.draw(family_specs), data.draw(st.integers(1, 20))
    assert_diffmats_match(zeros(build_family(spec, n)[n], spec).as_array())


# ---------------------------------------------------------------------------
# the node polynomial of NodeSet.from_points and the Jacobi expansion
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.one_of(st.floats(-1e3, 1e3), st.builds(lambda x: x * 2.0**-40, st.floats(-1e3, 1e3))),
        min_size=1,
        max_size=20,
        unique=True,
    ).filter(lambda xs: all(b - a >= 1e-10 for a, b in zip(sorted(xs), sorted(xs)[1:])))
)
def test_from_points_on_integers(points):
    nodes = NodeSet.from_points(points)
    poly, caches = from_points_reference(points)
    assert nodes.poly == poly and all(type(c) is F for c in nodes.poly.coeffs)
    for got, expected in zip((nodes.d1, nodes.d2, nodes.d3), caches):
        assert same_bits(np.array(got), np.array(expected))


@given(_above(-1, 6, 64), _above(-1, 6, 64), st.integers(0, 30))
def test_jacobi_coefficients_on_integers(alpha, beta, nu):
    assert families._coeffs_jacobi(nu, alpha, beta) == coeffs_jacobi_reference(nu, alpha, beta)


# ---------------------------------------------------------------------------
# float collocation shares the recursive Z^(k) with the diffmat report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [FamilySpec("hermite"), FamilySpec("krall-laguerre", alpha=F(1, 2))])
def test_float_collocation_shares_recursive_matrices(spec, monkeypatch):
    cell = Cell(spec, 6)
    expected = collocation_rep(cell.op, cell.nodes).data
    calls = []
    real = matrices.diffmat

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(matrices, "diffmat", counting)
    assert np.array_equal(cell.dc_float, expected)
    report = _diffmat_report(cell, 1e-11, 0)
    assert report.passed
    # the report's own 14 constructions (k = 1..4: recursive, alternative,
    # rescaled; explicit for k <= 2), the recursive ones shared with dc_float
    assert len(calls) == 14
