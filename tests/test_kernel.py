"""The exact integer kernel and the float differentiation matrices against loop references.

Each exact reduction (Horner, the Gaussian moment sums, L L_inv, the
D p_m products behind the eigenpair, power and similarity checks, the
exact collocation rows, the Lagrange-basis integrals behind the
Christoffel numbers and the transition matrix on given nodes, the squared
norms and the Newton refinement of the nodes, the node polynomial of NodeSet.from_points
and the Jacobi coefficient expansion) runs on integers over common
denominators, and so do the evaluations at double nodes: the Newton
polish and the derivative caches of `zeros`, the value vectors of a cell
(at the zeros, and on its exact dyadic nodes),
the 2^-512 grid values of the transition pair, and the coefficient tables
of all six families. The float differentiation matrices are whole-array
numpy operations on one kernel per node set, and the float verifiers sum
array-formed products. The references below are the plain Fraction loops
and the entry-by-entry float loops these replaced, the coefficient loops
that rebuilt every Pochhammer product and `moment` itself; results must be
equal, as rationals or bit for bit as doubles, over random inputs. The
closed-form identities read the cell's `collocation_rep_simplified` matrix;
the loops that recomputed its entries in place are their references, equal
for the family identity and within the rounding of the other term order for
fourth-order, and the generator sums over that matrix are equal for both.
The closed-form collocation matrices are array expressions over the node
set's kernel; the reference evaluates each entry on Python floats. The
Gaussian moment sums round the weights to fixed point and certify each
residual's rounding; with the weights cut to 4 bits nearly every residual
takes the exact per-k fallback, and the results must still be equal.
The transition matrix L rounds the Christoffel numbers to fixed point
and certifies each entry's rounding the same way; with them cut to a few
bits nearly every entry is divided exactly, and L must still equal the
reference. The double-precision bound that `transition` checks first must
never fall below the exact ||L L_inv - I||, also on perturbed pairs whose
residual is near what doubles resolve.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction as F
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krallzeros import (
    DiffOperator,
    FamilySpec,
    NodeSet,
    Polynomial,
    build_family,
    families,
    identities,
    matrices,
    zeros,
)
from krallzeros.families import (
    FAMILIES,
    common_denominator,
    eigenvalue,
    inner_product,
    moment,
    family_record,
    moment_table,
    operator_of,
    pairing,
)
from krallzeros.identities import (
    FAMILY_IDENTITY_TAG,
    _diffmat_report,
    _params_dict,
    _similarity,
    discriminate_variants,
    get_cell,
    verify_eigenpairs,
    verify_family_identity,
    verify_fourth_order,
    verify_power,
    worst_residual,
)
from krallzeros.matrices import (
    _GRID,
    _PRODUCT_BITS,
    _family_diag,
    _family_offdiag,
    _fourth_order_brace,
    _inverse_bound,
    _inverse_residual,
    _on_grid,
    _quadrature_residuals,
    _simplified_diag_fourth_order,
    _transition_exact,
    christoffel_numbers,
    collocation_exact,
    collocation_rep,
    diffmat,
    diffmats_exact,
    node_kernel,
)
from krallzeros.rootfinding import (
    DEFAULT_REFINE_BITS,
    _newton_refine,
    _round_div,
)

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
cells = st.builds(get_cell, specs, st.integers(1, 8))


# ---------------------------------------------------------------------------
# plain-Fraction references
# ---------------------------------------------------------------------------


def horner_reference(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def inner_product_reference(p, q, spec):
    prod = p * q
    return sum((prod.coeffs[i] * moment(spec, i) for i in range(len(prod.coeffs))), F(0))


def quadrature_reference(lams, xq, spec):
    n = len(xq)
    residuals = []
    powers = [F(1)] * n
    for k in range(2 * n):
        if k > 0:
            powers = [p * x for p, x in zip(powers, xq)]
        approx = sum((lam * p for lam, p in zip(lams, powers)), F(0))
        mk = moment(spec, k)
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


def values_reference(cell, xq):
    """p_m(x_k), m < N, by Fraction Horner at the nodes xq."""
    return [[cell.family[m](x) for x in xq] for m in range(cell.n)]


def exact_matrix(cell):
    """The cell's exact collocation matrix as Fractions, read back from dc_scaled, where perturbed() puts its noise."""
    rows, d = cell.dc_scaled
    return [[F(v, d) for v in row] for row in rows]


def eigenpairs_reference(cell, tolerance, rowsum_tolerance):
    dc = exact_matrix(cell)
    max_residual, cells, eigenpairs = eigen_cells_reference(
        "eigenpair", dc, values_reference(cell, cell.xq), cell.mus, tolerance
    )
    rowsum = worst_residual(float(abs(sum(row))) for row in dc)
    return cell.report(
        "eigenpair", tolerance, "exact", max_residual,
        passed=max_residual <= tolerance and rowsum <= rowsum_tolerance,
        cells=cells, eigenpairs=eigenpairs,
        rowsum_residual=rowsum, rowsum_tolerance=rowsum_tolerance, rowsum_passed=rowsum <= rowsum_tolerance,
    )


def power_reference(cell, exponent, tolerance):
    n, dc = cell.n, exact_matrix(cell)
    power = dc
    for _ in range(exponent - 1):
        power = [[sum(power[i][k] * dc[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    max_residual, cells, eigenpairs = eigen_cells_reference(
        "operator-power", power, values_reference(cell, cell.xq), [mu**exponent for mu in cell.mus], tolerance
    )
    params = _params_dict(cell.spec, exponent=exponent)
    return cell.report(
        "operator-power", tolerance, "exact", max_residual, params=params, cells=cells, eigenpairs=eigenpairs
    )


def float_eigenpairs_reference(cell, tolerance, rowsum_tolerance):
    dc = cell.dc_float.tolist()
    mus = [float(mu) for mu in cell.mus]
    max_residual, cells, eigenpairs = float_cells_reference("eigenpair", dc, cell.values_float, mus, tolerance)
    rowsum = worst_residual(float(abs(math.fsum(row))) for row in dc)
    return cell.report(
        "eigenpair", tolerance, "float", max_residual,
        passed=max_residual <= tolerance and rowsum <= rowsum_tolerance,
        cells=cells, eigenpairs=eigenpairs,
        rowsum_residual=rowsum, rowsum_tolerance=rowsum_tolerance, rowsum_passed=rowsum <= rowsum_tolerance,
    )


def similarity_reference(cell):
    n, mus = cell.n, cell.mus
    lams = christoffel_numbers(cell.nodes, cell.spec)
    l_mat, l_inv = transition_reference(cell.family, lams, cell.nodes.refined(), cell.spec)
    dc, pv = exact_matrix(cell), values_reference(cell, cell.xq)
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


def float_collocation_reference(op, x):
    """The float coefficients at the nodes times the recursive Z^(k) loops, term by term."""
    out = np.zeros((len(x), len(x)))
    for order, a in op.to_float().terms:
        av = np.array([a(xi) for xi in x.tolist()])
        out += np.diag(av) if order == 0 else av[:, None] * diffmat_reference(order, x, "recursive")
    return out


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


def quotient_reference(poly, root):
    """poly / (x - root) by synthetic division, remainder dropped."""
    out, carry = [], F(0)
    for c in reversed(poly.coeffs[1:]):
        carry = c + carry * root
        out.append(carry)
    return Polynomial(out[::-1])


def christoffel_reference(nodes, spec):
    return lagrange_integrals_reference(nodes, [Polynomial([F(1)])], spec)[0]


def transition_reference(fam, lams, xq, spec):
    n = len(xq)
    norms = [inner_product_reference(p, p, spec) for p in fam[:n]]
    values = [[round_binary(fam[j](x), 512) for x in xq] for j in range(n)]
    l_mat = [[round_binary(lams[k] * values[j][k] / norms[j], 512) for k in range(n)] for j in range(n)]
    l_inv = [[values[k][j] for k in range(n)] for j in range(n)]
    return l_mat, l_inv


def tau_rep_reference(op, spec, n):
    fam = build_family(spec, n - 1)
    norms = [inner_product_reference(p, p, spec) for p in fam]
    op_exact = DiffOperator(tuple((o, Polynomial([F(c) for c in a.coeffs])) for o, a in op.terms))
    out = np.zeros((n, n))
    for j in range(n):
        image = op_exact.apply(fam[j])
        for k in range(n):
            out[k, j] = float(inner_product_reference(image, fam[k], spec) / norms[k])
    return out


def lagrange_integrals_reference(nodes, weights, spec):
    """Integrals of quotient(psi, x_j) w / psi'(x_j) by moment sums, psi the node polynomial, on the refined nodes."""
    psi = Polynomial([F(c) for c in nodes.poly.coeffs])
    deriv = psi.derivative()
    return [
        [inner_product_reference(quotient_reference(psi, x), w, spec) / deriv(x) for x in nodes.refined()]
        for w in weights
    ]


def monic_product_reference(xq):
    psi = Polynomial([F(1)])
    for x in xq:
        psi = psi * Polynomial([-x, F(1)])
    return psi


def transition_general_reference(nodes, spec, psi, xq):
    """L from the Lagrange basis of psi on the nodes xq, by Fraction loops; L_inv on the double nodes."""
    n = len(xq)
    fam = build_family(spec, n - 1)
    norms = [inner_product_reference(p, p, spec) for p in fam]
    psi_d = psi.derivative()
    l_mat = [[F(0)] * n for _ in range(n)]
    for j in range(n):
        ell = quotient_reference(psi, xq[j])
        for m in range(n):
            l_mat[m][j] = inner_product_reference(ell, fam[m], spec) / (psi_d(xq[j]) * norms[m])
    l_inv = [[float(p(F(x))) for p in fam] for x in nodes.nodes]
    return np.array([[float(v) for v in row] for row in l_mat]), np.array(l_inv)


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


def coefficients(spec, nu):
    """The degree-nu coefficient table as Fractions."""
    a, d = families._coeffs(spec, nu)
    return [F(c, d) for c in a]


def fraction_coeffs_reference(spec, nu):
    """The coefficient builders that summed Fraction terms, one gcd per operation."""
    a, c = spec.alpha, [F(0)] * (nu + 1)
    if spec.family == "jacobi":
        return coeffs_jacobi_reference(nu, a, spec.beta)
    if spec.family == "krall-legendre":
        for k in range(nu // 2 + 1):
            num = (-1) ** k * math.factorial(2 * nu - 2 * k) * (a + F(nu * (nu - 1), 2) + 2 * k)
            den = 2**nu * math.factorial(k) * math.factorial(nu - k) * math.factorial(nu - 2 * k)
            c[nu - 2 * k] += num / den
    elif spec.family == "krall-laguerre":
        for k in range(nu + 1):
            term = F((-1) ** k * math.comb(nu, k), math.factorial(k + 1))
            c[k] += term * (k * (a + nu + 1) + a)
    elif spec.family == "krall-jacobi":
        den = rise = pochhammer_reference(a + 1, nu)  # rise = (alpha + 1)_(nu + k)
        for k in range(nu + 1):
            num = (-1) ** (nu - k) * math.comb(nu, k) * rise * (k * (nu + a) * (nu + 1) + (k + 1) * spec.mass)
            c[k] += num / (math.factorial(k + 1) * den)
            rise *= a + nu + k + 1
    elif spec.family == "hermite":
        for k in range(nu // 2 + 1):
            c[nu - 2 * k] += F(
                (-1) ** k * math.factorial(nu) * 2 ** (nu - 2 * k),
                math.factorial(k) * math.factorial(nu - 2 * k),
            )
    else:  # laguerre
        rise = F(1)  # (alpha + k + 1)_(nu - k)
        for k in range(nu, -1, -1):
            c[k] += (-1) ** k * rise / (math.factorial(nu - k) * math.factorial(k))
            rise *= a + k
    return c


def exact_reference(poly):
    """poly with every float coefficient replaced by the rational it is."""
    return Polynomial([F(c) for c in poly.coeffs])


def polish_reference(poly, deriv, z):
    """The Newton loop that evaluated each real step by Fraction Horner on the exact coefficients."""
    exact, exact_deriv = exact_reference(poly), exact_reference(deriv)
    x = z
    for _ in range(60):
        if x.imag == 0.0:
            xq = F(x.real)
            fx, dfx = float(exact(xq)), float(exact_deriv(xq))
        else:
            fx, dfx = poly(x), deriv(x)
        if dfx == 0:
            break
        step = fx / dfx
        x = x - step
        if abs(x.imag) < 1e-12 * max(1.0, abs(x.real)):
            x = complex(x.real, 0.0)
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


def derivative_caches_reference(poly, xs):
    derivs = [exact_reference(poly).derivative(k) for k in (1, 2, 3)]
    return tuple(tuple(float(d(F(x))) for x in xs) for d in derivs)


def companion_eigenvalues(coeffs):
    """Eigenvalues of the companion matrix of the monomial coefficients."""
    n = len(coeffs) - 1
    monic = coeffs / coeffs[-1]
    comp = np.zeros((n, n))
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    return np.linalg.eigvals(comp)


def zeros_reference(p):
    """Sorted polished real parts of the companion eigenvalues, with the derivative caches there."""
    deriv = p.derivative()
    roots = [polish_reference(p, deriv, z) for z in companion_eigenvalues(np.array([float(c) for c in p.coeffs]))]
    xs = sorted(z.real for z in roots)
    return xs, derivative_caches_reference(p, xs)


def closed_form_inputs_reference(cell):
    """Nodes, p_N', p_N'', p_N''' and the rows where a_4 vanishes, as floats."""
    nodes = cell.nodes
    x = nodes.as_array()
    a4 = cell.op.coefficient(4).to_float()
    singular = [i for i in range(cell.n) if abs(a4(x[i])) < matrices.SINGULAR_COEFF_GUARD]
    return x, *(np.array(d) for d in nodes.derivatives()), singular


def operator_data_reference(op, x):
    """a_j(x) and a_j'(x), j = 1..4, as floats."""
    a = {j: 0.0 for j in range(1, 5)}
    ap = {j: 0.0 for j in range(1, 5)}
    for order, c in op.terms:
        cf = c.to_float()
        a[order] = cf(x)
        ap[order] = cf.derivative()(x)
    return a, ap


def fourth_order_reference(cell, tolerance=1e-7):
    """The fourth-order identity with every closed-form entry recomputed in place."""
    spec, n = cell.spec, cell.n
    x, p1, p2, p3, skipped = closed_form_inputs_reference(cell)
    pv = cell.values_float
    dc_general = cell.dc_float
    mu_top = float(eigenvalue(spec, n))
    cells, notes = [], []
    cross_lhs = cross_rhs = 0.0
    for i in range(n):
        if i in skipped:
            continue
        a, ap = operator_data_reference(cell.op, x[i])
        diag = _simplified_diag_fourth_order(a, ap, mu_top, p1[i], p2[i], p3[i])
        terms = []
        for k in range(n):
            if k != i:
                a_ik = 1.0 / (x[i] - x[k])
                terms.append((k, a_ik * a_ik, _fourth_order_brace(a, a_ik, p1[i], p2[i], p3[i])))
        for m in range(n):
            lhs = math.fsum(a2 * pv[m][k] / p1[k] * brace for k, a2, brace in terms)
            mu = float(cell.mus[m])
            rhs = (-mu + diag) * pv[m][i]
            scale = max(1.0, abs(mu * pv[m][i]), abs(diag * pv[m][i]))
            r = float(abs(lhs - rhs) / scale)
            cells.append({"identity": "fourth-order-zeros", "m": m, "n": i + 1, "residual": r, "pass": r <= tolerance})
            alt_lhs = -math.fsum(dc_general[i, k] * pv[m][k] for k in range(n) if k != i)
            alt_rhs = (dc_general[i, i] - mu) * pv[m][i]
            cross_lhs = max(cross_lhs, float(abs(lhs - alt_lhs)) / max(1.0, abs(lhs)))
            cross_rhs = max(cross_rhs, float(abs(rhs - alt_rhs)) / max(1.0, float(abs(rhs))))
    if skipped:
        notes.append(f"rows {[i + 1 for i in skipped]} skipped: |a_4(x_n)| under the singular guard")
    return cell.report(
        "fourth-order-zeros", tolerance, "float", worst_residual(c["residual"] for c in cells),
        cells=cells,
        notes=notes,
        extras={"cross_check_lhs_vs_general": cross_lhs, "cross_check_rhs_vs_general": cross_rhs},
    )


def row_sides_reference(row, i, mu, values, trailing):
    """-sum_(k != i) row[k] values[k] by one generator sum, and (row[i] - mu) trailing."""
    return -math.fsum(row[k] * values[k] for k in range(len(row)) if k != i), (row[i] - mu) * trailing


def closed_form_sums_reference(cell, formula, tag, printed=False, tolerance=1e-7):
    """(cells, notes, sides) of a closed-form identity summed row by row over the cell's closed-form matrix.

    The trailing factor is p_m(x_i), or p_N'(x_i) when printed; sides holds (i, m, mu_m, lhs, rhs) per cell.
    """
    rep = matrices.collocation_rep_simplified(cell.spec, cell.nodes, formula)
    cells, sides = [], []
    for i, row in enumerate(rep.data.tolist()):
        if i in rep.flagged:
            continue
        for m, (mu, values) in enumerate(zip(cell.mus, cell.values_float)):
            mu, trailing = float(mu), cell.nodes.derivatives()[0][i] if printed else values[i]
            lhs, rhs = row_sides_reference(row, i, mu, values, trailing)
            r = abs(lhs - rhs) / max(1.0, abs(mu * trailing), abs(row[i] * trailing))
            cells.append({"identity": tag, "m": m, "n": i + 1, "residual": r, "pass": r <= tolerance})
            sides.append((i, m, mu, lhs, rhs))
    skipped = [i + 1 for i in rep.flagged]
    notes = [f"rows {skipped} skipped: |a_4(x_n)| under the singular guard"] if skipped else []
    return cells, notes, sides


def fourth_order_sums_reference(cell, tolerance=1e-7):
    """The fourth-order report summed row by row over the cell's closed-form and general matrices."""
    cells, notes, sides = closed_form_sums_reference(cell, "fourth-order", "fourth-order-zeros", tolerance=tolerance)
    general = cell.dc_float.tolist()
    lhs_gaps, rhs_gaps = [], []
    for i, m, mu, lhs, rhs in sides:
        values = cell.values_float[m]
        alt_lhs, alt_rhs = row_sides_reference(general[i], i, mu, values, values[i])
        lhs_gaps.append(abs(lhs - alt_lhs) / max(1.0, abs(lhs)))
        rhs_gaps.append(abs(rhs - alt_rhs) / max(1.0, abs(rhs)))
    return cell.report(
        "fourth-order-zeros", tolerance, "float", worst_residual(c["residual"] for c in cells),
        cells=cells,
        notes=notes,
        extras={
            "cross_check_lhs_vs_general": worst_residual(lhs_gaps),
            "cross_check_rhs_vs_general": worst_residual(rhs_gaps),
        },
    )


def family_params_reference(spec, n):
    """alpha, M and mu_N rounded as the closed forms once rounded them for every entry."""
    mu_top = n * (n + 2 * spec.alpha + 1) if spec.family == "krall-laguerre" else eigenvalue(spec, n)
    return spec.family, float(spec.alpha), float(spec.mass) if spec.mass is not None else 0.0, float(mu_top)


def family_identity_reference(cell, variant, tolerance=1e-7):
    """The family identity with every closed-form entry recomputed in place."""
    spec, n = cell.spec, cell.n
    x, p1, p2, p3, skipped = closed_form_inputs_reference(cell)
    pv = cell.values_float
    ambiguous = spec.family == "krall-laguerre"
    tag = FAMILY_IDENTITY_TAG[spec.family]
    cells, notes = [], []
    for i in range(n):
        if i in skipped:
            continue
        diag = _family_diag(*family_params_reference(spec, n), x[i], p1[i], p2[i], p3[i])
        terms = [
            (k, -_family_offdiag(*family_params_reference(spec, n)[:3], x[i], 1.0 / (x[i] - x[k]), p1[i], p2[i], p3[i], p1[k]))
            for k in range(n)
            if k != i
        ]
        for m in range(n):
            lhs = math.fsum(bracket * pv[m][k] for k, bracket in terms)
            mu = float(cell.mus[m])
            trailing = p1[i] if (ambiguous and variant == "printed") else pv[m][i]
            rhs = (-mu + diag) * trailing
            scale = max(1.0, abs(mu * trailing), abs(diag * trailing))
            r = float(abs(lhs - rhs) / scale)
            cells.append({"identity": tag, "m": m, "n": i + 1, "residual": r, "pass": r <= tolerance})
    if skipped:
        notes.append(f"rows {[i + 1 for i in skipped]} skipped: |a_4(x_n)| under the singular guard")
    if ambiguous:
        factor = "p_N'(x_n)" if variant == "printed" else "p_m(x_n)"
        notes.append(f"trailing right-hand factor read as {factor}")
    else:
        notes.append("variants coincide for this family (trailing factor is the degree-m value)")
    max_residual = worst_residual(c["residual"] for c in cells)
    return cell.report(tag, tolerance, "float", max_residual, cells=cells, variant=variant, notes=notes)


def scaled(dc):
    """A square exact matrix as Cell.dc_scaled holds it: (integer rows, least common denominator)."""
    ints, d = common_denominator([v for row in dc for v in row])
    return [ints[i : i + len(dc)] for i in range(0, len(ints), len(dc))], d


def perturbed(cell, data):
    """A new cell of get_cell, with rational noise added to some entries of its exact collocation matrix.

    At any distinct nodes the exact relations hold with residual 0, so the
    noise is what gives the kernel nonzero defects to reduce. The verifiers
    of (cell.spec, cell.n) read the new cell until get_cell builds another.
    """
    n = cell.n
    dc = collocation_exact(cell.op, cell.xq)
    entries = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), rationals)
    for i, j, noise in data.draw(st.lists(entries, max_size=4)):
        dc[i][j] += noise
    identities.get_cell.cache_clear()
    fresh = get_cell(cell.spec, n)
    fresh.dc_scaled = scaled(dc)  # cached_property: the instance attribute takes precedence
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
    assert coefficients(spec, nu) == coeffs_reference(spec, nu)


# ---------------------------------------------------------------------------
# the helper and Horner
# ---------------------------------------------------------------------------


@given(st.lists(scalars, max_size=10))
def test_common_denominator(values):
    ints, d = common_denominator(values)
    assert d >= 1 and all(isinstance(v, int) for v in ints)
    assert [F(a, d) for a in ints] == values
    assert math.gcd(d, *ints) == 1


@given(st.lists(st.integers(-10**6, 10**6), max_size=8), st.integers(1, 10**6))
def test_polynomial_over_keeps_the_least_integer_form(a, d):
    p = Polynomial.over(a, d)
    assert p == Polynomial([F(c, d) for c in a])
    assert p._integer_form() == common_denominator(p.coeffs)


@given(st.lists(scalars, max_size=9), scalars)
def test_horner_rational(coeffs, x):
    """Exact on rationals; at a Fraction, float coefficients count as the rationals they are."""
    p = Polynomial(coeffs)
    expected = horner_reference(p.coeffs, x)
    got = p(x)
    assert got == expected
    assert type(got) is type(expected)
    if isinstance(x, F):
        q = p.to_float()
        got = q(x)
        assert type(got) is F and got == horner_reference([F(c) for c in q.coeffs], x)


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
    lams, xq = christoffel_numbers(cell.nodes, cell.spec), cell.nodes.refined()
    assert _quadrature_residuals(lams, xq, cell.spec) == quadrature_reference(lams, xq, cell.spec)


@given(specs, st.lists(st.tuples(rationals, rationals), min_size=1, max_size=8))
def test_quadrature_residuals_on_any_rationals(spec, pairs):
    lams, xq = [p[0] for p in pairs], [p[1] for p in pairs]
    assert _quadrature_residuals(lams, xq, spec) == quadrature_reference(lams, xq, spec)


@contextmanager
def few_weight_bits():
    """Weights rounded to 4 bits, so nearly every k fails the rounding test; yields the k that took the exact sum."""
    saved = matrices._WEIGHT_BITS, matrices._exact_residual
    fallbacks = []

    def counted(lams, xq, mk, k):
        fallbacks.append(k)
        return saved[1](lams, xq, mk, k)

    matrices._WEIGHT_BITS, matrices._exact_residual = 4, counted
    try:
        yield fallbacks
    finally:
        matrices._WEIGHT_BITS, matrices._exact_residual = saved


@given(cells)
def test_quadrature_fallback_on_refined_zeros(cell):
    lams, xq = christoffel_numbers(cell.nodes, cell.spec), cell.nodes.refined()
    with few_weight_bits() as fallbacks:
        assert _quadrature_residuals(lams, xq, cell.spec) == quadrature_reference(lams, xq, cell.spec)
    assert fallbacks


# a zero weight on a huge node: the bound leaves double range, the exact residual does not
@example(FamilySpec("hermite"), [(F(0), F(2**1100)), (F(1), F(1, 2))])
@given(specs, st.lists(st.tuples(rationals, rationals), min_size=1, max_size=8))
def test_quadrature_fallback_on_any_rationals(spec, pairs):
    lams, xq = [p[0] for p in pairs], [p[1] for p in pairs]
    with few_weight_bits() as fallbacks:
        assert _quadrature_residuals(lams, xq, spec) == quadrature_reference(lams, xq, spec)
    assert fallbacks


@pytest.mark.parametrize("bits", [4, matrices._WEIGHT_BITS])
def test_quadrature_residual_past_double_range_raises(bits, monkeypatch):
    monkeypatch.setattr(matrices, "_WEIGHT_BITS", bits)
    lams, xq = [F(1), F(1)], [F(2**1100), F(-1, 3)]
    with pytest.raises(OverflowError):
        quadrature_reference(lams, xq, FamilySpec("hermite"))
    with pytest.raises(OverflowError):
        _quadrature_residuals(lams, xq, FamilySpec("hermite"))


def test_quadrature_residuals_at_n24_krall_legendre():
    spec = FamilySpec("krall-legendre", alpha=F(1))
    nodes = zeros(build_family(spec, 24)[24], spec)
    lams, xq = christoffel_numbers(nodes, spec), nodes.refined()
    got = _quadrature_residuals(lams, xq, spec)
    assert got == quadrature_reference(lams, xq, spec)
    assert got[1::2] == [0.0] * 24  # a symmetric measure: the odd moments cancel exactly


def on_grid(matrix):
    return [[F(v, _GRID) for v in row] for row in matrix]


@given(cells)
def test_inverse_residual_on_transition_pairs(cell):
    lams = christoffel_numbers(cell.nodes, cell.spec)
    l_mat, l_inv = _transition_exact(cell.family, lams, cell.nodes.refined(), cell.spec)
    assert _inverse_residual(l_mat, l_inv, _GRID) == inverse_reference(on_grid(l_mat), on_grid(l_inv))


@pytest.mark.parametrize("spec", identities.default_grid(), ids=FamilySpec.label)
def test_similarity_reads_the_residual_that_transition_checks(spec):
    for n in range(2, 7):
        nodes = zeros(build_family(spec, n)[n], spec)
        args = (build_family(spec, n - 1), christoffel_numbers(nodes, spec), nodes.refined(), spec)
        expected = _inverse_residual(*_transition_exact(*args), _GRID)
        assert matrices.similarity_check(spec, n)["inverse_residual"] == expected


def square_matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n))))
def test_inverse_residual_on_any_rationals(pair):
    l_mat, l_inv = pair
    n = len(l_mat)
    ints, den = common_denominator([v for matrix in pair for row in matrix for v in row])
    rows = [ints[i * n : (i + 1) * n] for i in range(2 * n)]
    assert _inverse_residual(rows[:n], rows[n:], den) == inverse_reference(l_mat, l_inv)


# ---------------------------------------------------------------------------
# D p_m: eigenpair, power and similarity
# ---------------------------------------------------------------------------


@given(cells, st.data())
def test_exact_eigenpairs(cell, data):
    cell = perturbed(cell, data)
    got = verify_eigenpairs(cell.spec, cell.n, 1e-8, 1e-9).to_dict()
    assert got == eigenpairs_reference(cell, 1e-8, 1e-9).to_dict()


@given(cells, st.integers(1, 3), st.data())
def test_exact_power(cell, exponent, data):
    cell = perturbed(cell, data)
    got = verify_power(cell.spec, cell.n, exponent, 1e-6).to_dict()
    assert got == power_reference(cell, exponent, 1e-6).to_dict()


def test_power_keeps_the_matvecs_of_nonzero_rows(monkeypatch):
    """Row 2 of D broken by +1 at column 0 and -1 at column 5: D 1 is unchanged, so
    the m = 0 defect stays zero and skips its matvecs, and every other m keeps them."""
    cell = get_cell(FamilySpec("krall-jacobi", alpha=F(1), mass=F(2)), 6)
    dc = collocation_exact(cell.op, cell.xq)
    dc[2][0] += 1
    dc[2][5] -= 1
    cell.dc_scaled = scaled(dc)
    defects = [d for d, _, _ in cell.exact_defects]
    assert not any(defects[0]) and all(any(d) for d in defects[1:])
    matvecs = []
    real = identities._matvec
    monkeypatch.setattr(identities, "_matvec", lambda *args: matvecs.append(args) or real(*args))
    for exponent in (2, 3):
        matvecs.clear()
        report = verify_power(cell.spec, 6, exponent, 1e-6)
        assert len(matvecs) == (cell.n - 1) * exponent
        assert report.to_dict() == power_reference(cell, exponent, 1e-6).to_dict()
        assert report.eigenpairs[0]["residual"] == 0.0 and report.max_residual > 0.0


def dp_reference(cell):
    """D p_m by Fraction sums over the exact matrix and values, each vector over its least denominator."""
    return [
        common_denominator([sum(map(mul, row, values)) for row in exact_matrix(cell)])
        for values in values_reference(cell, cell.xq)
    ]


def defects_reference(cell):
    """The defects that identities._defect forms from the reference D p_m; its arithmetic is what the
    eigenpair references check, so a difference here is one in D p_m or in its integer form."""
    return [identities._defect(dp, v, mu) for dp, v, mu in zip(dp_reference(cell), cell.values_scaled, cell.mus)]


@given(cells, st.data())
def test_dp_exact_is_the_matvec_of_each_value_vector(cell, data):
    """The cell's defects read D p_m as the matvec reference gives it, on the cell's own matrix (no noise
    drawn) and on perturbed ones."""
    cell = perturbed(cell, data)
    assert cell.exact_defects == defects_reference(cell)


def test_dp_exact_is_the_matvec_at_n_24():
    cell = get_cell(FamilySpec("krall-legendre", alpha=F(1)), 24)
    assert cell.exact_defects == defects_reference(cell)


@given(cells)
def test_float_eigenpairs_unchanged(cell):
    got = verify_eigenpairs(cell.spec, cell.n, 1e-8, 1e-9, "float").to_dict()
    assert got == float_eigenpairs_reference(cell, 1e-8, 1e-9).to_dict()


@given(cells)
def test_dc_scaled_is_the_least_common_denominator(cell):
    rows, d = cell.dc_scaled
    assert [[F(v, d) for v in row] for row in rows] == collocation_exact(cell.op, cell.xq)
    assert math.gcd(d, *(v for row in rows for v in row)) == 1


def is_power_of_two(h):
    return h > 0 and 1 in (h.numerator, h.denominator) and (h.numerator * h.denominator).bit_count() == 1


@given(specs, st.integers(1, 8))
@example(FamilySpec("hermite"), 1)
@example(FamilySpec("krall-jacobi", alpha=F(1), mass=F(2)), 2)
def test_exact_nodes_are_a_dyadic_grid_across_the_zeros(spec, n):
    """N points of hZ, h a power of two not above the zeros' mean gap, from [x_1, x_1 + h); zero defects."""
    cell = identities.Cell(spec, n)  # not get_cell: a perturbed cell may sit in its memo
    x1, xn, xq = F(cell.nodes.nodes[0]), F(cell.nodes.nodes[-1]), cell.xq
    h = xq[1] - xq[0] if n > 1 else F(1)
    assert is_power_of_two(h) and (xq[0] / h).denominator == 1
    assert xq == [xq[0] + k * h for k in range(n)] and len(set(xq)) == n
    assert n == 1 or h <= (xn - x1) / (n - 1) < 2 * h
    assert x1 <= xq[0] < x1 + h
    assert all(not any(d) for d, _, _ in cell.exact_defects)
    assert cell.dc_scaled[1].bit_length() <= 4 * n


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
    """At the double zeros, where node numerators have 53 bits and stray float arithmetic would show."""
    xq = [F(x) for x in cell.nodes.nodes]
    assert collocation_exact(cell.op, xq) == collocation_reference(cell.op, xq)


@given(distinct_nodes, operators())
def test_collocation_exact_on_any_rational_nodes(xq, op):
    assert collocation_exact(op, xq) == collocation_reference(op, xq)


@given(distinct_nodes, st.integers(0, 4))
def test_diffmats_exact(xq, kmax):
    assert diffmats_exact(kmax, xq) == diffmats_reference(kmax, xq)


# ---------------------------------------------------------------------------
# Christoffel numbers, squared norms, L and L_inv
# ---------------------------------------------------------------------------


@given(cells)
def test_christoffel_numbers(cell):
    assert christoffel_numbers(cell.nodes, cell.spec) == christoffel_reference(cell.nodes, cell.spec)


@given(
    specs,
    # NodeSet.from_points wants points at least 1e-10 apart
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=1000), min_size=1, max_size=8, unique=True),
)
def test_christoffel_numbers_on_any_nodes(spec, xq):
    nodes = NodeSet.from_points([float(x) for x in xq])
    assert christoffel_numbers(nodes, spec) == christoffel_reference(nodes, spec)


def counting_moment_tables(monkeypatch):
    """(spec, top) of every moment table the matrices module builds."""
    tables = []
    real = matrices.moment_table
    monkeypatch.setattr(matrices, "moment_table", lambda spec, top: tables.append((spec, top)) or real(spec, top))
    return tables


def test_christoffel_numbers_cached_per_spec(monkeypatch):
    spec, hermite = FamilySpec("krall-jacobi", alpha=F(1, 2), mass=F(2)), FamilySpec("hermite")
    nodes = NodeSet.from_points([-0.5, 0.25, 0.75])
    tables = counting_moment_tables(monkeypatch)
    first = christoffel_numbers(nodes, spec)
    first.append(F(0))  # the caller's list, not the node set's
    assert christoffel_numbers(nodes, spec) == christoffel_reference(nodes, spec)
    assert tables == [(spec, 2)]  # one kernel run
    christoffel_numbers(nodes, hermite)
    assert tables == [(spec, 2), (hermite, 2)]


def test_quadrature_and_transition_share_the_christoffel_numbers(monkeypatch):
    spec = FamilySpec("laguerre", alpha=F(1, 2))
    nodes = zeros(build_family(spec, 5)[5], spec)
    tables = counting_moment_tables(monkeypatch)
    matrices.quadrature_exactness(nodes, spec)
    matrices.transition(nodes, spec)
    # one table through degree N - 1 for the weights, one through 2N - 1 for the moment residuals
    assert tables == [(spec, 4), (spec, 9)]


@given(specs, st.lists(scalars, max_size=8), st.lists(scalars, max_size=8))
def test_inner_product(spec, a, b):
    p, q = Polynomial(a), Polynomial(b)
    assert inner_product(p, q, spec) == inner_product_reference(p, q, spec)


@given(specs, st.integers(1, 24))
@settings(max_examples=20)
def test_record_norms_of_members(spec, n):
    """lead(p_k)^2 b_0 .. b_k is <p_k, p_k>, k < N, as a Fraction."""
    norms = family_record(spec).squared_norms(n)
    assert all(type(v) is F for v in norms)
    assert norms == [inner_product_reference(p, p, spec) for p in build_family(spec, n - 1)]


@given(specs, st.integers(1, 24))
def test_record_recurrence(spec, n):
    """The monic members follow exactly from (a_k, b_k) by the three-term recurrence, with every b_k > 0;
    the record's moments leave moment_table as it was."""
    record = family_record(spec)
    a, b = record.recurrence(n)
    assert len(a) == len(b) == n and all(v > 0 for v in b)
    x, previous, q = Polynomial([0, 1]), Polynomial(()), Polynomial([1])
    for k in range(n):
        previous, q = q, (x - Polynomial([a[k]])) * q - b[k] * previous
        assert q == build_family(spec, k + 1)[k + 1] * (1 / record.members[k + 1].coeffs[-1]), (spec.label(), k + 1)
    for top in (n, 2 * n + 1):
        assert moment_table(spec, top) == common_denominator([moment(spec, k) for k in range(top + 1)])


@given(specs, st.lists(st.lists(scalars, max_size=8), min_size=1, max_size=4))
def test_pairing_of_any_rational_polynomials(spec, coefficient_lists):
    polys = [Polynomial(c) for c in coefficient_lists]
    table = moment_table(spec, 2 * max(p.degree for p in polys))
    assert [pairing(p, p, table) for p in polys] == [inner_product_reference(p, p, spec) for p in polys]


@given(specs, st.integers(1, 7), st.booleans(), st.data())
def test_tau_rep(spec, n, own, data):
    op = operator_of(spec) if own else data.draw(operators())
    assert same_bits(matrices.tau_rep(op, spec, n).data, tau_rep_reference(op, spec, n))


@given(specs, st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=64), min_size=1, max_size=7, unique=True))
def test_transition_general(spec, xq):
    nodes = NodeSet.from_points([float(x) for x in xq])
    l_mat, l_inv = matrices.transition_general(nodes, spec)
    points = [F(x) for x in nodes.nodes]
    expected = transition_general_reference(nodes, spec, monic_product_reference(points), points)
    assert same_bits(l_mat.data, expected[0]) and same_bits(l_inv.data, expected[1])


@given(cells)
def test_transition_general_at_zeros(cell):
    """At the zeros, the Lagrange basis is p_N's on the refined zeros, not the double zeros' monic product."""
    l_mat, l_inv = matrices.transition_general(cell.nodes, cell.spec)
    member = build_family(cell.spec, cell.n)[cell.n]
    expected = transition_general_reference(cell.nodes, cell.spec, member, cell.nodes.refined())
    assert same_bits(l_mat.data, expected[0]) and same_bits(l_inv.data, expected[1])


node_sets = st.one_of(
    st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=256), min_size=1, max_size=7, unique=True).map(
        lambda xq: NodeSet.from_points([float(x) for x in xq])
    ),
    cells.map(lambda cell: cell.nodes),
)


@given(node_sets, specs, st.lists(st.lists(scalars, max_size=8), min_size=1, max_size=4))
def test_lagrange_integrals(nodes, spec, coefficient_lists):
    weights = [Polynomial(c) for c in coefficient_lists]
    got = matrices._lagrange_integrals(nodes, weights, spec)
    assert got == lagrange_integrals_reference(nodes, weights, spec)


def transition_args(cell):
    return cell.family, christoffel_numbers(cell.nodes, cell.spec), cell.nodes.refined(), cell.spec


@given(cells)
def test_transition_exact(cell):
    args = transition_args(cell)
    assert [on_grid(m) for m in _transition_exact(*args)] == list(transition_reference(*args))


@contextmanager
def few_lambda_bits(bits):
    """Christoffel numbers cut to `bits` fixed-point bits in L; yields the _round_div calls (N^2 value roundings first)."""
    saved = matrices._LAMBDA_BITS, matrices._round_div
    calls = []
    matrices._LAMBDA_BITS, matrices._round_div = bits, lambda p, q: calls.append(q) or saved[1](p, q)
    try:
        yield calls
    finally:
        matrices._LAMBDA_BITS, matrices._round_div = saved


@given(cells, st.integers(0, _PRODUCT_BITS + 8))
def test_transition_exact_fallback(cell, bits):
    args = transition_args(cell)
    with few_lambda_bits(bits) as calls:
        got = [on_grid(m) for m in _transition_exact(*args)]
    assert got == list(transition_reference(*args))
    if bits <= 16:
        assert len(calls) > cell.n**2  # some entry of L was divided exactly


@given(cells, st.one_of(st.just(0), st.integers(-(2**40), 2**40)), st.data())
def test_inverse_bound_on_transition_pairs(cell, step, data):
    l_mat, l_inv = _transition_exact(*transition_args(cell))
    i, j = (data.draw(st.integers(0, cell.n - 1)) for _ in range(2))
    l_mat[i][j] += step << (_PRODUCT_BITS - 80)  # up to 2^-40 off: a residual near the double product's own error
    assert _inverse_bound(_on_grid(l_mat), _on_grid(l_inv)) >= _inverse_residual(l_mat, l_inv, _GRID)


@pytest.mark.parametrize("spec", identities.default_grid(), ids=FamilySpec.label)
def test_inverse_bound_decides_the_default_grid(spec):
    for n in range(2, 13):
        nodes = zeros(build_family(spec, n)[n], spec)
        l_mat, l_inv = _transition_exact(build_family(spec, n - 1), christoffel_numbers(nodes, spec), nodes.refined(), spec)
        assert _inverse_residual(l_mat, l_inv, _GRID) <= _inverse_bound(_on_grid(l_mat), _on_grid(l_inv)) <= 1e-10


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
    """refined() is _newton_refine at DEFAULT_REFINE_BITS, which matches the Fraction loop at any depth."""
    a = common_denominator([F(c) for c in cell.nodes.poly.coeffs])[0]
    assert cell.nodes.refined() == [_newton_refine(a, x, DEFAULT_REFINE_BITS) for x in cell.nodes.nodes]
    assert [_newton_refine(a, x, bits) for x in cell.nodes.nodes] == refined_reference(cell.nodes, bits)


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
        kernel, expected = node_kernel(x, leading), node_poly_derivatives_reference(x, matrices.KMAX + 1, leading)
        assert same_bits(kernel.pd, expected[0]) and same_bits(kernel.pi, expected[1]), leading
        for k, method in DIFFMAT_CASES:
            got = diffmat(k, x, method, leading).data
            assert same_bits(got, diffmat_reference(k, x, method, leading)), (k, method, leading)


@given(spread_nodes)
@example(np.array([0.5]))
@example(np.array([-1.0, 1.0]))
@example(np.array([-2e-3, -1e-3, 0.0, 1e-3, 2e-3]))  # symmetric nodes: row sums of r cancel
@example(np.array([-2e3, -1e3, 0.0, 1e3, 2e3]))
def test_diffmats_on_spread_nodes(x):
    assert_diffmats_match(x)


@pytest.mark.parametrize("family_specs", specs_by_family, ids=FAMILIES)
@settings(max_examples=10)
@given(data=st.data())
def test_diffmats_on_family_zeros(family_specs, data):
    spec, n = data.draw(family_specs), data.draw(st.integers(1, 20))
    assert_diffmats_match(zeros(build_family(spec, n)[n], spec).as_array())


@pytest.mark.parametrize(
    "x",
    [
        [1.0, 1.0 + 2**-40, 1.0 + 2**-39, 1.0 + 3 * 2**-40],  # tiny spread
        [0.0, 1e-154, 2.5e-154],  # terms near the top of the double range
        [0.0, 1e-160, 2e-160],  # infinite terms: the matrix is refused
        [0.0, 2.0**510, 1.5 * 2.0**511],  # subnormal sums
        [-3e5, -1.0, 2e-3, 7e4, 1e6],  # wide spread
        [0.0, 1e200, -1e200],  # the spread overflows
        [0.0, 1e-154, 1.1e-154],  # the diagonal sum overflows (the loops' fsum raises OverflowError)
    ],
)
def test_explicit_diagonal_on_extreme_spreads(x):
    x = np.array(sorted(x))
    try:
        with np.errstate(all="ignore"):
            expected = diffmat_explicit_reference(2, x)
    except OverflowError:
        expected = np.array([math.inf])
    if np.isfinite(expected).all():
        assert same_bits(diffmat(2, x, "explicit").data, expected)
    else:
        with pytest.raises(ValueError, match="overflows double precision"):
            diffmat(2, x, "explicit")


def test_overflowing_half_row_sum_raises_value_error():
    # the partial sums of a half row of the k = 2 diagonal overflow inside math.fsum
    with pytest.raises(ValueError, match="overflows double precision"):
        diffmat(2, [0.0, 1e-154, 1.0000001e-154, 1.0000002e-154], "explicit")


def test_overflowing_alternative_power_raises_value_error():
    # math.pow(dx, 4) overflows for dx ~ 1e80; the recursive Z^(4) on the same nodes is finite
    x = [0.0, 1e80, 2e80, 3e80]
    assert np.isfinite(diffmat(4, x).data).all()
    with pytest.raises(ValueError, match="overflows double precision"):
        diffmat(4, x, "alternative")


# ---------------------------------------------------------------------------
# one float kernel per node set
# ---------------------------------------------------------------------------

kernel_calls = st.lists(
    st.one_of(st.none(), st.tuples(st.sampled_from(DIFFMAT_CASES), st.sampled_from([1.0, 0.37]))),
    min_size=1,
    max_size=8,
)


@given(spread_nodes.filter(lambda x: np.all(np.diff(x) >= 1e-10)), kernel_calls, operators())
def test_node_kernel_in_any_call_order(x, calls, op):
    """Each call (None for collocation_rep) equals the loops and a fresh node set's result, bit for bit."""
    nodes = NodeSet.from_points(x.tolist())
    for call in calls:
        fresh = NodeSet.from_points(x.tolist())
        if call is None:
            got = collocation_rep(op, nodes).data
            assert same_bits(got, float_collocation_reference(op, x))
            assert same_bits(got, collocation_rep(op, fresh).data)
        else:
            (k, method), leading = call
            got = diffmat(k, nodes, method, leading).data
            assert same_bits(got, diffmat_reference(k, x, method, leading)), (k, method, leading)
            assert same_bits(got, diffmat(k, fresh, method, leading).data)


def test_returned_matrices_are_the_callers_own():
    spec = FamilySpec("krall-jacobi", alpha=F(1), mass=F(2))
    nodes, op = zeros(build_family(spec, 7)[7], spec), operator_of(spec)

    def build():
        return [diffmat(k, nodes, method).data for k, method in DIFFMAT_CASES] + [collocation_rep(op, nodes).data]

    first = build()
    expected = [a.copy() for a in first]
    for a in first:
        a[:] = 0.0
    assert all(same_bits(a, b) for a, b in zip(build(), expected))
    with pytest.raises(ValueError, match="read-only"):
        node_kernel(nodes).recursive[0][0, 0] = 0.0


def test_one_kernel_per_node_set_and_leading_coefficient(monkeypatch):
    spec, built = FamilySpec("krall-laguerre", alpha=F(1, 2)), []
    cell = get_cell(spec, 6)
    real = matrices.NodeKernel.__init__

    def counting(self, x, leading):
        built.append(leading)
        real(self, x, leading)

    monkeypatch.setattr(matrices.NodeKernel, "__init__", counting)
    cell.dc_float
    assert _diffmat_report(spec, 6, 1e-11, 0).passed
    verify_fourth_order(spec, 6)
    lead = float(cell.family[6].coeffs[-1])
    assert lead != 1.0 and built == [1.0, lead]


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
    for got, expected in zip(nodes.derivatives(), caches):
        assert same_bits(np.array(got), np.array(expected))


@given(_above(-1, 6, 64), _above(-1, 6, 64), st.integers(0, 30))
def test_jacobi_coefficients_on_integers(alpha, beta, nu):
    assert coefficients(FamilySpec("jacobi", alpha=alpha, beta=beta), nu) == coeffs_jacobi_reference(nu, alpha, beta)


# ---------------------------------------------------------------------------
# evaluation at double nodes: zeros, value vectors, coefficient tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family_specs", specs_by_family, ids=FAMILIES)
@settings(max_examples=10)
@given(data=st.data())
def test_zeros_on_integers(family_specs, data):
    """The companion-matrix zeros where they work (N <= 20): the same values (a zero at 0 may have been -0.0)."""
    spec, n = data.draw(family_specs), data.draw(st.integers(1, 20))
    p = build_family(spec, n)[n]
    nodes = zeros(p, spec)
    xs, caches = zeros_reference(p)
    assert list(nodes.nodes) == xs
    for got, expected in zip(nodes.derivatives(), caches):
        assert same_bits(np.array(got), np.array(expected))


def test_overflowing_derivative_raises_as_before():
    big = F(10) ** 308
    p = Polynomial([0, -big, 0, big])  # zeros -1, 0, 1 and p'(+-1) = 2e308
    with pytest.raises(OverflowError):
        derivative_caches_reference(p, [1.0])
    nodes = NodeSet([1.0], p)  # the constructor evaluates nothing
    with pytest.raises(ValueError, match="degree-3 node polynomial overflow double precision"):
        nodes.derivatives()


@given(cells)
def test_value_vectors_on_integers(cell):
    exact = values_reference(cell, cell.xq)
    assert cell.values_scaled == [common_denominator(row) for row in exact]
    for got, row in zip(cell.values_float, values_reference(cell, [F(x) for x in cell.nodes.nodes])):
        assert same_bits(np.array(got), np.array([float(v) for v in row]))


coefficient_specs = st.one_of(
    st.just(FamilySpec("hermite")),
    st.builds(lambda a: FamilySpec("laguerre", alpha=a), _above(-1, 6, 64)),
    st.builds(lambda a, b: FamilySpec("jacobi", alpha=a, beta=b), _above(-1, 6, 64), _above(-1, 6, 64)),
    st.builds(lambda a: FamilySpec("krall-legendre", alpha=a), _above(0, 6, 64)),
    st.builds(lambda a: FamilySpec("krall-laguerre", alpha=a), _above(0, 6, 64)),
    st.builds(lambda a, m: FamilySpec("krall-jacobi", alpha=a, mass=m), _above(-1, 6, 64), _above(0, 6, 64)),
)


@given(coefficient_specs, st.integers(0, 30))
def test_coefficients_on_integers(spec, nu):
    assert coefficients(spec, nu) == fraction_coeffs_reference(spec, nu)
    member = build_family(spec, nu)[nu]
    assert all(type(c) is F for c in member.coeffs)
    assert member._integer_form() == common_denominator(member.coeffs)  # kept by build_family, not recomputed


@given(coefficient_specs, st.lists(st.integers(0, 30), min_size=1, max_size=4))
def test_moment_table_by_recurrence(spec, tops):
    """Tables of any length, against moment() term by term."""
    for top in tops:
        assert moment_table(spec, top) == common_denominator([moment(spec, k) for k in range(top + 1)])


# ---------------------------------------------------------------------------
# float collocation shares the recursive Z^(k) with the diffmat report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [FamilySpec("hermite"), FamilySpec("krall-laguerre", alpha=F(1, 2))])
def test_float_collocation_shares_recursive_matrices(spec, monkeypatch):
    cell = get_cell(spec, 6)
    expected = collocation_rep(cell.op, cell.nodes).data
    calls = []
    real = matrices.diffmat

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(matrices, "diffmat", counting)
    assert np.array_equal(cell.dc_float, expected)
    report = _diffmat_report(spec, 6, 1e-11, 0)
    assert report.passed
    # the report's own 14 constructions (k = 1..4: recursive, alternative,
    # rescaled; explicit for k <= 2), the recursive ones shared with dc_float
    assert len(calls) == 14


# ---------------------------------------------------------------------------
# closed-form identities on the cell's collocation_rep_simplified matrix
# ---------------------------------------------------------------------------

krall_cells = st.builds(get_cell, st.one_of(*specs_by_family[3:]), st.integers(1, 16))
# 0.05 puts some rows of every Krall family under the singular guard
guards = st.sampled_from([matrices.SINGULAR_COEFF_GUARD, 0.05])


@contextmanager
def singular_guard(value):
    saved = matrices.SINGULAR_COEFF_GUARD
    matrices.SINGULAR_COEFF_GUARD = value
    try:
        yield
    finally:
        matrices.SINGULAR_COEFF_GUARD = saved


def closed_form_reference(spec, nodes, formula):
    """The closed-form matrix entry by entry on Python floats, the second-order entries written out.

    A row whose top coefficient falls under the singular guard takes its
    diagonal from the loop reference of the general assembly.
    """
    op = operator_of(spec).to_float()
    a = [op.coefficient(k) for k in range(op.max_order + 1)]
    x, (p1, p2, p3), n = list(nodes.nodes), nodes.derivatives(), len(nodes)
    general = float_collocation_reference(op, nodes.as_array())
    if spec.is_krall:
        family, al, mm, mu_top = family_params_reference(spec, n)
    else:
        sigma, tau = a[2], a[1]
        tau1 = tau.coeffs[1] if len(tau.coeffs) > 1 else 0.0
        sigma2 = 2.0 * sigma.coeffs[2] if len(sigma.coeffs) > 2 else 0.0
    rows = []
    for m, xm in enumerate(x):
        am, apm = [c(xm) for c in a], [c.derivative()(xm) for c in a]
        row = []
        for j, xj in enumerate(x):
            if j == m and abs(a[-1](xm)) < matrices.SINGULAR_COEFF_GUARD:
                row.append(general[m, m])
            elif not spec.is_krall and j != m:
                row.append(-2.0 * sigma(xm) / (xm - xj) ** 2 * p1[m] / p1[j])
            elif not spec.is_krall:
                row.append(
                    -tau(xm) / (6.0 * sigma(xm)) * (tau(xm) - 2.0 * sigma.derivative()(xm))
                    + (n - 1) * (tau1 + 0.5 * n * sigma2) / 3.0
                )
            elif formula == "family" and j != m:
                row.append(_family_offdiag(family, al, mm, xm, 1.0 / (xm - xj), p1[m], p2[m], p3[m], p1[j]))
            elif formula == "family":
                row.append(_family_diag(family, al, mm, mu_top, xm, p1[m], p2[m], p3[m]))
            elif j != m:
                a_mj = 1.0 / (xm - xj)
                row.append(-(a_mj * a_mj) / p1[j] * _fourth_order_brace(am, a_mj, p1[m], p2[m], p3[m]))
            else:
                row.append(_simplified_diag_fourth_order(am, apm, mu_top, p1[m], p2[m], p3[m]))
        rows.append(row)
    return np.array(rows)


# x * x (numpy's array squares) and C pow differ on a few doubles; the explicit cells have such values
# among their node differences (hermite, laguerre) and in a row's x_m - 1 (krall-jacobi)
@given(specs, st.integers(1, 16), st.sampled_from(["family", "fourth-order"]), guards)
@example(FamilySpec("hermite"), 5, "family", matrices.SINGULAR_COEFF_GUARD)
@example(FamilySpec("laguerre", alpha=F(2)), 3, "family", matrices.SINGULAR_COEFF_GUARD)
@example(FamilySpec("krall-jacobi", alpha=F(3), mass=F(3)), 10, "family", matrices.SINGULAR_COEFF_GUARD)
def test_closed_form_matrix_equals_the_entry_loops(spec, n, formula, guard):
    nodes = zeros(build_family(spec, n)[n], spec)
    with singular_guard(guard):
        got = matrices._evaluate_closed_form(spec, nodes, formula)
        expected = closed_form_reference(spec, nodes, formula)
        top = operator_of(spec).to_float().coefficient(4 if spec.is_krall else 2)
        flagged = tuple(m for m, xm in enumerate(nodes.nodes) if abs(top(xm)) < guard)
    assert got.data.tobytes() == expected.tobytes()
    assert got.flagged == flagged and not got.data.flags.writeable


@given(krall_cells, guards)
def test_family_identity_reads_the_closed_form_matrix(cell, guard):
    with singular_guard(guard):
        for variant in ("printed", "corrected"):
            got = verify_family_identity(cell.spec, cell.n, variant).to_dict()
            assert got == family_identity_reference(cell, variant).to_dict()


@given(krall_cells, guards)
def test_fourth_order_sums_unchanged(cell, guard):
    with singular_guard(guard):
        assert verify_fourth_order(cell.spec, cell.n).to_dict() == fourth_order_sums_reference(cell).to_dict()


@given(krall_cells, guards)
def test_fourth_order_reads_the_closed_form_matrix(cell, guard):
    """Same cells and verdicts; residuals within the rounding of the two term orders.

    The left side sums a_ik^2 p_m(x_k) brace_ik / p_N'(x_k) over k != i. The
    reference rounds each term three times in one order, the matrix C[i, k]
    and its product with p_m(x_k) three times in another, and math.fsum, the
    subtraction of the right side and the division by the scale add one
    rounding each, so the residuals differ by at most
    16 u (sum_k |C[i, k] p_m(x_k)| + |right side|) / scale + 4 u residual.
    """
    tolerance = 1e-7
    with singular_guard(guard):
        got = verify_fourth_order(cell.spec, cell.n, tolerance).to_dict()
        expected = fourth_order_reference(cell, tolerance).to_dict()
        rows = matrices.collocation_rep_simplified(cell.spec, cell.nodes, "fourth-order").data.tolist()
    u = 2.0**-53
    banded = False
    assert len(got["results"]) == len(expected["results"])
    for g, e in zip(got["results"], expected["results"]):
        assert (g["identity"], g["m"], g["n"]) == (e["identity"], e["m"], e["n"])
        i, m = g["n"] - 1, g["m"]
        row, values, mu = rows[i], cell.values_float[m], float(cell.mus[m])
        terms = math.fsum(abs(c * v) for k, (c, v) in enumerate(zip(row, values)) if k != i)
        rhs = abs((row[i] - mu) * values[i])
        scale = max(1.0, abs(mu * values[i]), abs(row[i] * values[i]))
        bound = 16 * u * (terms + rhs) / scale + 4 * u * max(g["residual"], e["residual"])
        assert abs(g["residual"] - e["residual"]) <= bound
        if abs(e["residual"] - tolerance) <= bound:
            banded = True  # the tolerance lies inside the rounding band: either verdict is right
        else:
            assert g["pass"] == e["pass"]
    if not banded:
        assert got["summary"]["pass"] == expected["summary"]["pass"]
    assert got["summary"]["notes"] == expected["summary"]["notes"]
    assert got["meta"] == expected["meta"]


@pytest.mark.parametrize("entry, shows, stays", [
    ((2, 3), "cross_check_lhs_vs_general", "cross_check_rhs_vs_general"),
    ((2, 2), "cross_check_rhs_vs_general", "cross_check_lhs_vs_general"),
], ids=["offdiagonal", "diagonal"])
def test_fourth_order_cross_check_shows_a_nan(entry, shows, stays):
    """A NaN in the general assembly reaches the cross-check it feeds: an off-diagonal entry the
    left side's sums, a diagonal entry the right side; the other cross-check stays finite."""
    spec = FamilySpec("krall-legendre", alpha=F(1))
    identities.get_cell.cache_clear()
    cell = get_cell(spec, 5)
    dc = cell.dc_float.copy()
    dc[entry] = math.nan
    cell.dc_float = dc  # cached_property: the instance attribute takes precedence
    try:
        extras = verify_fourth_order(spec, 5).extras
    finally:
        identities.get_cell.cache_clear()
    assert math.isnan(extras[shows]) and math.isfinite(extras[stays])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("diagonal", [False, True], ids=["offdiagonal", "diagonal"])
@pytest.mark.parametrize("spec", [
    FamilySpec("krall-legendre", alpha=F(1)),
    FamilySpec("krall-laguerre", alpha=F(1, 2)),
    FamilySpec("krall-jacobi", alpha=F(1), mass=F(2)),
], ids=lambda spec: spec.family)
def test_a_nonfinite_closed_form_entry_fails_the_report(monkeypatch, spec, diagonal, bad):
    """One non-finite entry in an unguarded row of each closed-form matrix: every report on it fails with a
    non-finite max residual, and its cells are those of the row-by-row sums over the matrix."""
    real = matrices.collocation_rep_simplified

    def poisoned(spec, nodes, formula):
        rep = real(spec, nodes, formula)
        i = next(i for i in range(len(nodes)) if i not in rep.flagged)
        data = rep.data.copy()
        data[i, i if diagonal else (i + 1) % len(nodes)] = bad
        return replace(rep, data=data)

    monkeypatch.setattr(matrices, "collocation_rep_simplified", poisoned)
    cell = get_cell(spec, 5)
    reports = [(verify_fourth_order(spec, 5), fourth_order_sums_reference(cell).to_dict())]
    for variant in ("printed", "corrected"):
        printed = spec.family == "krall-laguerre" and variant == "printed"
        cells, _, _ = closed_form_sums_reference(cell, "family", FAMILY_IDENTITY_TAG[spec.family], printed)
        reports.append((verify_family_identity(spec, 5, variant), {"results": cells}))
    for report, expected in reports:
        assert not math.isfinite(report.max_residual) and not report.passed
        got = report.to_dict()
        assert json.dumps({key: got[key] for key in expected}) == json.dumps(expected)


def test_closed_form_matrix_built_once_per_formula(monkeypatch):
    spec, calls = FamilySpec("krall-laguerre", alpha=F(1, 2)), []
    real = matrices._evaluate_closed_form

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(matrices, "_evaluate_closed_form", counting)
    verify_fourth_order(spec, 6)
    outcome = discriminate_variants(spec, 6)  # both readings of the krall-laguerre identity
    assert outcome["printed"].variant == "printed" and outcome["corrected"].variant == "corrected"
    verify_family_identity(spec, 6, "printed")
    assert sorted(calls) == ["family", "fourth-order"]
