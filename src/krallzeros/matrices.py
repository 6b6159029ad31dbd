"""Matrix representations of polynomial-preserving differential operators.

Two representations of the same operator live here. The spectral one
expands images in the orthogonal basis through inner products and is
diagonal exactly when the basis members are eigenfunctions. The collocation
(pseudospectral) one applies the operator to the Lagrange basis of a node
set and evaluates at the nodes; it is assembled from the differentiation
matrices Z^(k) that map values on the nodes to k-th derivative values,
exactly so for polynomials of degree below the node count.

Node-polynomial derivatives are never taken through expanded coefficients
(hopeless for wide node spreads); writing psi(x_m + h) as
pi_m * prod(1 + h/(x_m - x_j)) gives

    psi^(k)(x_m) = k! * pi_m * e_{k-1}(1/(x_m - x_j), j != m)

with e_d the elementary symmetric functions, which is stable and cheap.
The float Z^(k) are whole-array numpy operations on the differences
x_m - x_j that round exactly as entry-by-entry loops would; powers come from
math.pow, because numpy's array power can round differently from scalar pow.

Both a double-precision and an exact-rational assembly are provided. The
exact one exists because several verified statements sit far below what
double precision can resolve once entries reach 1e6 and columns must cancel
to 1e-9; handing the assembly exact rational nodes makes those residuals
meaningful. It builds each row on integers: with x_j = u_j / D,
delta_mj = u_m - u_j and P_m = prod_(i != m) delta_mi, the expansion above
gives e_d = D^d [s^d] prod_(i != m)(delta_mi + s) / P_m, and for sum_k a_k d^k

    C[m, m] = a_0(x_m) + sum_k k! a_k(x_m) e_k,
    C[m, j] = (P_m / P_j) sum_(r=1..K) c_mr (D / delta_mj)^r,
    c_mr = sum_(k >= r) (-1)^(r-1) k! a_k(x_m) e_(k-r):

one integer polynomial in delta_mj and one Fraction per entry. Quantities
that depend on the nodes being true zeros (the Christoffel weights, the
inverse pair of the basis-transition matrix) pull high-precision refined
nodes from the NodeSet.

Notation note: the Christoffel weights and the degree-(N-1) Lagrange basis
appear under several decorated symbols in the literature (superscripts
carrying the degree); here lambda_j and ell_j always mean the same
quantities built on the current node set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

import numpy as np

from .families import (
    DiffOperator,
    FamilySpec,
    MomentFunctional,
    Polynomial,
    build_family,
    common_denominator,
    eigenvalue,
    moment,
    operator_of,
    squared_norms,
)
from .rootfinding import DEFAULT_REFINE_BITS, NodeSet, _node_products, _round_div

NodesLike = Union[NodeSet, Sequence[float], np.ndarray]

#: Below this |a_4(x_n)| the closed-form diagonal entries are abandoned for
#: the general assembly (the formulas divide by a_4 there).
SINGULAR_COEFF_GUARD = 1e-10

DIFFMAT_METHODS = ("explicit", "recursive", "alternative")


class PositivityError(RuntimeError):
    """A Christoffel weight came out nonpositive."""


class InversionConsistencyError(RuntimeError):
    """The transition matrix and its closed-form inverse failed to multiply to I."""


@dataclass(eq=False)
class MatrixRep:
    """Dense square matrix plus a tag and a provenance note."""

    data: np.ndarray
    kind: str
    note: str = ""
    flagged: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"MatrixRep({self.kind}, {self.data.shape[0]}x{self.data.shape[1]})"


def _as_array(nodes: NodesLike) -> np.ndarray:
    if isinstance(nodes, NodeSet):
        return nodes.as_array()
    return np.asarray(nodes, dtype=float)


def _as_matrix(m: Union[MatrixRep, np.ndarray]) -> np.ndarray:
    return m.data if isinstance(m, MatrixRep) else np.asarray(m, dtype=float)


# ---------------------------------------------------------------------------
# node-polynomial derivatives
# ---------------------------------------------------------------------------


def _differences(x: np.ndarray):
    """dx[m, j] = x_m - x_j with 1.0 on the diagonal, and r = 1 / dx with 0.0 there."""
    dx = x[:, None] - x
    np.fill_diagonal(dx, 1.0)
    r = 1.0 / dx
    np.fill_diagonal(r, 0.0)
    return dx, r


def node_poly_derivatives(nodes: NodesLike, kmax: int, leading: float = 1.0):
    """psi^(k)(x_m) for k = 1..kmax and psi'(x_m), for psi = leading * prod(x - x_j).

    Returns (pd, pi) with pd[k, m] = psi^(k)(x_m) and pi[m] = psi'(x_m).
    """
    x = _as_array(nodes)
    n = len(x)
    dx, r = _differences(x)
    pi = leading * np.prod(dx, axis=1)
    # e[d, m] = e_d(r[m, j], j != m), one j at a time; the diagonal adds exact zeros
    e = np.zeros((kmax + 1, n))
    e[0] = 1.0
    lower, upper = e[: min(kmax, n - 1)], e[1 : min(kmax, n - 1) + 1]
    for column in r.T:
        upper += column * lower  # the product is formed from the old e_(d-1) first
    pd = np.zeros((kmax + 1, n))
    pd[1:] = np.array([math.factorial(k) for k in range(1, kmax + 1)])[:, None] * pi * e[:-1]
    return pd, pi


# ---------------------------------------------------------------------------
# differentiation matrices
# ---------------------------------------------------------------------------


def diffmat(k: int, nodes: NodesLike, method: str = "recursive", leading: float = 1.0) -> MatrixRep:
    """Differentiation matrix Z^(k): values on the nodes -> k-th derivative values.

    Exact on polynomials of degree < node count. Three constructions are
    kept side by side as cross-checks of each other:

    - "explicit": direct reciprocal-sum expressions, k in {1, 2} only;
    - "recursive": off-diagonal entries by the recursion in k, diagonal
      from the Taylor expansion of the node polynomial;
    - "alternative": off-diagonal entries by the closed alternating sum
      over node-polynomial derivatives, same diagonal.

    The node polynomial's leading coefficient cancels throughout; `leading`
    is accepted anyway so that the invariance is testable. Non-finite or
    coincident nodes, or a spread that overflows double, raise ValueError.
    """
    if not 1 <= k <= 4:
        raise ValueError("derivative order k must be in 1..4")
    if method not in DIFFMAT_METHODS:
        raise ValueError(f"method must be one of {DIFFMAT_METHODS}")
    if method == "explicit" and k > 2:
        raise ValueError("explicit formulas exist for k in {1, 2} only")
    x = _as_array(nodes)
    n = len(x)
    if not np.isfinite(x).all():
        raise ValueError("nodes must be finite")
    if len(set(x.tolist())) < n:
        raise ValueError("nodes must be distinct")
    with np.errstate(all="ignore"):  # an overflowed spread shows as a non-finite matrix below
        z = _diffmat_explicit(k, x) if method == "explicit" else _diffmat_taylor(k, x, method, leading)
    if not np.isfinite(z).all():
        raise ValueError(f"Z^({k}) is not finite: the node spread overflows double precision")
    return MatrixRep(z, kind=f"diffmat({k})", note=f"{method} construction on {n} nodes")


def _diffmat_taylor(k: int, x: np.ndarray, method: str, leading: float) -> np.ndarray:
    pd, pi = node_poly_derivatives(x, k + 1, leading)
    dx, r = _differences(x)
    z = np.zeros_like(dx)  # off-diagonal entries of Z^(0) = I
    if method == "recursive":
        for kk in range(1, k + 1):
            z = r * (pd[kk][:, None] / pi - kk * z)
    else:
        flat = dx.ravel().tolist()  # math.pow per entry, see the module docstring
        for i in range(1, k + 1):
            powers = np.array([math.pow(d, k - i + 1) for d in flat]).reshape(dx.shape)
            z = z + (-1) ** (k - i) * math.factorial(k) / math.factorial(i) * pd[i][:, None] / powers
        z = z / pi
    np.fill_diagonal(z, pd[k + 1] / ((k + 1) * pi))
    return z


def _diffmat_explicit(k: int, x: np.ndarray) -> np.ndarray:
    dx, r = _differences(x)
    pi = np.prod(dx, axis=1)
    rows = r.tolist()  # math.fsum is correctly rounded, so a zero term or the order changes nothing
    if k == 1:
        z = pi[:, None] / pi / dx
        np.fill_diagonal(z, [math.fsum(row) for row in rows])
        return z
    # sum over i != m, j of r[m, i]: the full row less r[m, j]
    s = np.array([[math.fsum(row + [-v]) for v in row] for row in rows])
    z = 2.0 * pi[:, None] / pi / dx * s
    eye = np.eye(len(x), dtype=bool)  # terms[m, i, p] with i != m and p not in (m, i)
    terms = np.where(eye[:, :, None] | eye[:, None, :] | eye, 0.0, 1.0 / (dx[:, :, None] * dx[:, None, :]))
    np.fill_diagonal(z, [math.fsum(t) for t in terms.reshape(len(x), -1).tolist()])
    return z


def diffmats_exact(kmax: int, xq: Sequence[Fraction]) -> list[list[list[Fraction]]]:
    """Z^(0)..Z^(kmax) over exact rationals at rational nodes."""
    return [_collocation_exact_rows(xq, [[int(i == k) for i in range(k + 1)]] * len(xq)) for k in range(kmax + 1)]


def _collocation_exact_rows(xq: Sequence[Fraction], a_rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact sum_k a_k(x_m) ell_j^(k)(x_m), given a_rows[m][k] = a_k(x_m); see the module docstring."""
    u, big_d = common_denominator(xq)
    kmax = max((len(a) for a in a_rows), default=1) - 1
    qs = _node_products(u, kmax)  # Q_m[d] = [s^d] prod_(i != m) (delta_mi + s); Q_m[0] = P_m
    out = []
    for m, (um, q, a_row) in enumerate(zip(u, qs, a_rows)):
        alphas, beta = common_denominator(a_row)
        w = [math.factorial(k) * alpha * big_d**k for k, alpha in enumerate(alphas)]
        # sum_r g_r delta^(kmax - r), g_r = beta P_m c_mr D^r
        g = Polynomial([(-1) ** (r - 1) * sum(w[k] * q[k - r] for k in range(r, len(w))) for r in range(kmax, 0, -1)])
        diag = Fraction(sum(map(mul, w, q)), beta * q[0])
        out.append([
            diag if j == m else Fraction(g(um - uj), beta * qj[0] * (um - uj) ** kmax)
            for j, (uj, qj) in enumerate(zip(u, qs))
        ])
    return out


# ---------------------------------------------------------------------------
# collocation representations
# ---------------------------------------------------------------------------


def collocation_rep(op: DiffOperator, nodes: NodesLike, zmat=None) -> MatrixRep:
    """Pseudospectral matrix of op: row m, column n holds (op ell_n)(x_m).

    zmat(k), when given, supplies the recursive Z^(k) on these nodes.
    """
    x = _as_array(nodes)
    zmat = zmat or (lambda k: diffmat(k, x).data)
    n = len(x)
    out = np.zeros((n, n))
    for order, a in op.terms:
        av = np.array([float(a(float(xi))) for xi in x])
        if order == 0:
            out += np.diag(av)
        else:
            out += av[:, None] * zmat(order)
    return MatrixRep(out, kind="collocation", note=f"assembled from differentiation matrices on {n} nodes")


def collocation_exact(op: DiffOperator, xq: Sequence[Fraction]) -> list[list[Fraction]]:
    """Exact-rational collocation matrix at rational nodes."""
    coeffs = [Polynomial([Fraction(c) for c in op.coefficient(k).coeffs]) for k in range(op.max_order + 1)]
    return _collocation_exact_rows(xq, [[a(x) for a in coeffs] for x in xq])


def _operator_data(op: DiffOperator, x: float):
    """a_j(x) and a_j'(x), j = 1..4, as floats."""
    a = {j: 0.0 for j in range(1, 5)}
    ap = {j: 0.0 for j in range(1, 5)}
    for order, c in op.terms:
        cf = c.to_float()
        a[order] = cf(x)
        ap[order] = cf.derivative()(x)
    return a, ap


def _simplified_diag_fourth_order(a: dict, ap: dict, mu_top: float, p1: float, p2: float, p3: float) -> float:
    return (
        -(a[3] - 0.8 * (ap[4] + a[3]))
        * (a[3] * p3 + a[2] * p2 + a[1] * p1)
        / (4.0 * a[4] * p1)
        + (p3 / (3.0 * p1)) * (a[2] - 0.6 * (ap[3] + a[2]))
        + (p2 / (2.0 * p1)) * (a[1] - 0.4 * (ap[2] + a[1]))
        - 0.2 * (ap[1] - mu_top)
    )


def _fourth_order_brace(a: dict, a_mn: float, p1m: float, p2m: float, p3m: float) -> float:
    return (
        4.0 * a[4] * p3m
        + 3.0 * (a[3] - 4.0 * a[4] * a_mn) * p2m
        - 2.0 * (3.0 * a_mn * (a[3] - 4.0 * a[4] * a_mn) - a[2]) * p1m
    )


def _family_diag(spec: FamilySpec, n_total: int, x: float, p1: float, p2: float, p3: float) -> float:
    al = float(spec.alpha) if spec.alpha is not None else 0.0
    if spec.family == "krall-legendre":
        mu_top = float(eigenvalue(spec, n_total))
        return (
            8.0 * al * (x * x - 1.0) / 15.0 * (p3 / p1)
            + 12.0 * al * x / 5.0 * (p2 / p1)
            + (8.0 * al * (x * x + 1.0) + mu_top * (x * x - 1.0)) / (5.0 * (x * x - 1.0))
        )
    if spec.family == "krall-laguerre":
        big_n = float(n_total * (n_total + 2 * spec.alpha + 1))
        return (
            -x * (x + 4.0 * al) / 15.0 * (p3 / p1)
            + (x * x + 2.0 * (2.0 * al - 1.0) * x - 6.0 * al) / 10.0 * (p2 / p1)
            + ((al + 1.0) * x * x + (big_n - al) * x - 2.0 * al) / (5.0 * x)
        )
    # krall-jacobi
    mm = float(spec.mass)
    mu_top = float(eigenvalue(spec, n_total))
    t3 = x * ((4.0 * mm - al * al + 4.0) * x - 4.0 * mm) / 15.0 * (p3 / p1)
    t2 = (
        (2.0 * mm * (x - 1.0) * (2.0 * (al + 3.0) * x - 3.0) - (al * al - 4.0) * x * ((al + 3.0) * x - 2.0))
        / (10.0 * (x - 1.0))
        * (p2 / p1)
    )
    t1 = (
        (-(al**3) - (mm + 1.0) * al * al + 4.0 * al + 4.0 * mm + 4.0 + mu_top) * x * x
        + (mm * (al - 4.0) - mu_top) * x
        + 2.0 * mm
    ) / (5.0 * x * (x - 1.0))
    return t3 + t2 + t1


def _family_offdiag(spec: FamilySpec, xm: float, a_mn: float, p1m: float, p2m: float, p3m: float, p1n: float) -> float:
    al = float(spec.alpha) if spec.alpha is not None else 0.0
    if spec.family == "krall-legendre":
        brace = (
            4.0 * (1.0 - xm * xm) ** 2 * p3m
            - 12.0 * (xm * xm - 1.0) * (a_mn * (xm * xm - 1.0) - 2.0 * xm) * p2m
            + 8.0 * (xm * xm - 1.0) * (3.0 * a_mn * a_mn * (xm * xm - 1.0) - 6.0 * a_mn * xm + al + 3.0) * p1m
        )
    elif spec.family == "krall-laguerre":
        brace = (
            4.0 * xm * xm * p3m
            - 6.0 * xm * (2.0 * a_mn * xm + xm - 2.0) * p2m
            + 2.0 * xm * (12.0 * a_mn * a_mn * xm + 6.0 * a_mn * (xm - 2.0) + xm - 2.0 * (al + 3.0)) * p1m
        )
    else:  # krall-jacobi
        mm = float(spec.mass)
        brace = (
            4.0 * xm * xm * (xm - 1.0) ** 2 * p3m
            + 6.0 * xm * (xm - 1.0) * (-2.0 * a_mn * xm * (xm - 1.0) + (4.0 + al) * xm - 2.0) * p2m
            - 2.0
            * xm
            * (
                -12.0 * a_mn * a_mn * xm * (xm - 1.0) ** 2
                + 6.0 * a_mn * (xm - 1.0) * ((4.0 + al) * xm - 2.0)
                - (al * al + 9.0 * al + 2.0 * mm + 14.0) * xm
                + 2.0 * (3.0 * al + mm + 6.0)
            )
            * p1m
        )
    return -(a_mn * a_mn) / p1n * brace


def collocation_rep_simplified(spec: FamilySpec, nodes: NodeSet, formula: str = "family") -> MatrixRep:
    """Collocation matrix from the closed forms valid at the family's own zeros.

    These use only p_N', p_N'', p_N''' at the nodes (the node polynomial's
    higher derivatives having been eliminated through the differential
    equation), so the nodes must be the zeros of the degree-N member.
    formula="family" picks the per-family expressions; formula="fourth-order"
    the generic fourth order ones (Krall families only). Classical families
    use their own two-term closed form under either name.

    Nodes where |a_4| (or |sigma|) falls under the singular guard get their
    diagonal entry from the general assembly instead and are reported in
    `flagged`.
    """
    if formula not in ("family", "fourth-order"):
        raise ValueError("formula must be 'family' or 'fourth-order'")
    if not spec.is_krall:
        return _classical_simplified(spec, nodes)
    x = nodes.as_array()
    n = len(x)
    n_total = n
    p1, p2, p3 = np.array(nodes.d1), np.array(nodes.d2), np.array(nodes.d3)

    op = operator_of(spec)
    a4 = op.coefficient(4).to_float()
    flagged = tuple(i for i in range(n) if abs(a4(x[i])) < SINGULAR_COEFF_GUARD)
    if formula == "fourth-order":
        # a_j and a_j' at each row node, computed once per row
        rows = [_operator_data(op, xi) for xi in x]
        mu_top = float(eigenvalue(spec, n_total))

    out = np.zeros((n, n))
    for m in range(n):
        for j in range(n):
            if m == j:
                continue
            a_mn = 1.0 / (x[m] - x[j])
            if formula == "family":
                out[m, j] = _family_offdiag(spec, x[m], a_mn, p1[m], p2[m], p3[m], p1[j])
            else:
                out[m, j] = -(a_mn * a_mn) / p1[j] * _fourth_order_brace(rows[m][0], a_mn, p1[m], p2[m], p3[m])
    general = collocation_rep(op, nodes).data if flagged else None
    for i in range(n):
        if i in flagged:
            out[i, i] = general[i, i]
        elif formula == "family":
            out[i, i] = _family_diag(spec, n_total, x[i], p1[i], p2[i], p3[i])
        else:
            out[i, i] = _simplified_diag_fourth_order(*rows[i], mu_top, p1[i], p2[i], p3[i])
    note = f"{formula} closed form at the zeros of the degree-{n} member"
    if flagged:
        note += f"; general-assembly fallback at nodes {list(flagged)}"
    return MatrixRep(out, kind="collocation", note=note, flagged=flagged)


def _classical_simplified(spec: FamilySpec, nodes: NodeSet) -> MatrixRep:
    x = nodes.as_array()
    n = len(x)
    op = operator_of(spec, mode="float")
    sigma, tau = op.coefficient(2), op.coefficient(1)
    sigma_d = sigma.derivative()
    tau1 = tau.coeffs[1] if len(tau.coeffs) > 1 else 0.0
    sigma2 = 2.0 * sigma.coeffs[2] if len(sigma.coeffs) > 2 else 0.0
    p1 = np.array(nodes.d1)
    out = np.zeros((n, n))
    flagged = tuple(i for i in range(n) if abs(sigma(x[i])) < SINGULAR_COEFF_GUARD)
    general = collocation_rep(op, nodes).data if flagged else None
    for m in range(n):
        for j in range(n):
            if m != j:
                out[m, j] = -2.0 * sigma(x[m]) / (x[m] - x[j]) ** 2 * p1[m] / p1[j]
        if m in flagged:
            out[m, m] = general[m, m]
        else:
            out[m, m] = -tau(x[m]) / (6.0 * sigma(x[m])) * (tau(x[m]) - 2.0 * sigma_d(x[m])) + (
                (n - 1) * (tau1 + 0.5 * n * sigma2) / 3.0
            )
    note = f"second-order closed form at the zeros of the degree-{n} member"
    if flagged:
        note += f"; general-assembly fallback at nodes {list(flagged)}"
    return MatrixRep(out, kind="collocation", note=note, flagged=flagged)


# ---------------------------------------------------------------------------
# spectral representation
# ---------------------------------------------------------------------------


def tau_rep(op: DiffOperator, spec: FamilySpec, n: int) -> MatrixRep:
    """Spectral matrix: entry (k, j) is <op p_{j-1}, p_{k-1}> / ||p_{k-1}||^2.

    Computed by exact expansion against the moment sequence, then rounded;
    the point masses of the Krall measures make generic quadrature awkward
    while the moments are closed-form. Diagonal equals the eigenvalue list
    when op is the family's own operator; upper triangular for any operator
    that preserves polynomial degree.
    """
    fam = build_family(spec, n - 1)
    norms = squared_norms(fam, spec)
    op_exact = DiffOperator(tuple((o, Polynomial([Fraction(c) for c in a.coeffs])) for o, a in op.terms))
    mom = MomentFunctional(spec)
    out = np.zeros((n, n))
    for j in range(n):
        image = op_exact.apply(fam[j])
        for k in range(n):
            prod = image * fam[k]
            val = sum((prod.coeffs[i] * mom(i) for i in range(len(prod.coeffs))), Fraction(0))
            out[k, j] = float(val / norms[k])
    return MatrixRep(out, kind="tau", note=f"inner-product expansion in the {spec.label()} basis")


# ---------------------------------------------------------------------------
# Christoffel weights, transition matrices, similarity
# ---------------------------------------------------------------------------


def christoffel_numbers(nodes: NodeSet, spec: FamilySpec, bits: int = DEFAULT_REFINE_BITS) -> list[Fraction]:
    """Exact interpolatory weights lambda_j = integral of ell_j against the measure.

    lambda_j = <psi / (x - x_j)> / psi'(x_j), remainder dropped, on integers:
    with psi = a / d, x_j = u / v and moments M_i / mu, synthetic division
    gives quotient coefficients Q_i / (d v^(n-1-i)), Horner gives
    psi'(x_j) = B / (d v^(n-1)), and lambda_j = sum_i Q_i M_i v^i / (mu B).
    The node set keeps them per (spec, bits); each call returns a new list.
    """
    if (spec, bits) in nodes._christoffel:
        return list(nodes._christoffel[spec, bits])
    a = common_denominator([Fraction(c) for c in nodes.poly.coeffs])[0]
    n = len(a) - 1
    moments, mu = common_denominator([moment(spec, k) for k in range(n)])
    lams = []
    for u, v in (x.as_integer_ratio() for x in nodes.refined(bits)):
        q, b, vk, total = a[n], n * a[n], 1, a[n] * moments[n - 1]
        for k in range(n - 1, 0, -1):  # Q_(k-1) and the k-th Horner step of B share v^(n-k)
            vk *= v
            q = q * u + a[k] * vk
            b = b * u + k * a[k] * vk
            total = total * v + q * moments[k - 1]
        lams.append(Fraction(total, mu * b))
    nodes._christoffel[spec, bits] = lams
    return list(lams)


def christoffel(nodes: NodeSet, spec: FamilySpec, bits: int = DEFAULT_REFINE_BITS) -> MatrixRep:
    """Diagonal matrix of the Christoffel numbers; every entry must be positive."""
    lams = christoffel_numbers(nodes, spec, bits)
    for j, lam in enumerate(lams):
        if lam <= 0:
            raise PositivityError(
                f"weight {j} is {float(lam):.3e} <= 0; nodes or moments are corrupted"
            )
    data = np.diag([float(v) for v in lams])
    return MatrixRep(data, kind="christoffel_diag", note=f"interpolatory weights for {spec.label()}")


def quadrature_exactness(nodes: NodeSet, spec: FamilySpec, bits: int = DEFAULT_REFINE_BITS):
    """Relative moment-matching residuals of the Gaussian rule, k = 0..2N-1.

    Returns (max_residual, per_k_list). Evaluated in exact arithmetic on the
    refined nodes: the statement being checked has degree of exactness 2N-1
    only at the true zeros, and its sensitivity to node error dwarfs double
    precision for spread-out node sets.
    """
    residuals = _quadrature_residuals(christoffel_numbers(nodes, spec, bits), nodes.refined(bits), spec)
    return max(residuals), residuals


def _quadrature_residuals(lams: Sequence[Fraction], xq: Sequence[Fraction], spec: FamilySpec) -> list[float]:
    """|sum_j lam_j x_j^k - m_k| / max(1, |m_k|) for k = 0..2N-1, rounded once each.

    With lam_j = w_j / dw and x_j = u_j / dx over common denominators, the
    rule's k-th moment is S_k / (dw dx^k) with S_k = sum_j w_j u_j^k: each
    step multiplies the weighted column w_j u_j^k by the short u_j and sums
    it in integers.
    """
    mom = MomentFunctional(spec)
    column, den = common_denominator(lams)
    u, dx = common_denominator(xq)
    residuals = []
    for k in range(2 * len(u)):
        if k > 0:
            column = list(map(mul, column, u))
            den *= dx
        # |S/den - a/b| / max(1, |a/b|) = |S b - a den| / (den max(b, |a|))
        mk = mom(k)
        a, b = mk.numerator, mk.denominator
        residuals.append(abs(sum(column) * b - a * den) / (den * max(b, abs(a))))
    return residuals


_PRODUCT_BITS = 512  # entry rounding before exact matrix products


def _transition_exact(fam: Sequence[Polynomial], lams: Sequence[Fraction], xq: Sequence[Fraction], spec: FamilySpec):
    """(L, L_inv) in exact entries from members p_0..p_{N-1} and the weights at refined nodes xq.

    Entries are rounded half to even onto the 2^-_PRODUCT_BITS grid, one
    integer division each: with p_j(x_k) rounded to V_jk grid steps,
    lambda_k = a / b and ||p_j||^2 = s / t, L[j][k] is a V_jk t / (b s) steps.
    """
    n = len(xq)
    grid = 1 << _PRODUCT_BITS
    values, l_mat = [], []
    for p, norm in zip(fam, squared_norms(fam[:n], spec)):
        row = [_round_div(grid * v.numerator, v.denominator) for v in map(p, xq)]
        values.append(row)
        s, t = norm.numerator, norm.denominator
        l_mat.append([_round_div(lam.numerator * vk * t, lam.denominator * s) for lam, vk in zip(lams, row)])
    l_inv = [[Fraction(values[k][j], grid) for k in range(n)] for j in range(n)]
    return [[Fraction(v, grid) for v in row] for row in l_mat], l_inv


def _inverse_residual(l_mat, l_inv) -> float:
    """||L L_inv - I||_inf, exact and rounded once.

    Each matrix goes over one common denominator (its entries sit on the
    2^-_PRODUCT_BITS grid), so every entry of the product is an integer dot
    product over the same denominator.
    """
    n = len(l_mat)
    a, da = common_denominator([v for row in l_mat for v in row])
    b, db = common_denominator([v for row in l_inv for v in row])
    one = da * db
    cols = [b[j::n] for j in range(n)]
    worst = 0
    for m in range(n):
        row = a[m * n : (m + 1) * n]
        worst = max(worst, sum(abs(sum(map(mul, row, col)) - (one if m == j else 0)) for j, col in enumerate(cols)))
    return worst / one


def transition(nodes: NodeSet, spec: FamilySpec, bits: int = DEFAULT_REFINE_BITS) -> tuple[MatrixRep, MatrixRep]:
    """Basis-transition pair (L, L_inv) at the zeros of the degree-N member.

    L factors as P * Lambda: row j of P holds p_{j-1}(x_k) / ||p_{j-1}||^2
    and Lambda carries the Christoffel numbers. Gaussian exactness makes the
    inverse explicit, L_inv[j][k] = p_{k-1}(x_j); the product is checked to
    the 1e-10 consistency bound before returning.
    """
    fam = build_family(spec, len(nodes) - 1)
    l_mat, l_inv = _transition_exact(fam, christoffel_numbers(nodes, spec, bits), nodes.refined(bits), spec)
    residual = _inverse_residual(l_mat, l_inv)
    if residual > 1e-10:
        raise InversionConsistencyError(
            f"||L L_inv - I||_inf = {residual:.3e} above 1e-10; nodes are not "
            f"accurate zeros for {spec.label()}"
        )
    l_rep = MatrixRep(
        np.array([[float(v) for v in row] for row in l_mat]),
        kind="transition",
        note=f"P * Lambda at the zeros of the degree-{len(nodes)} member of {spec.label()}",
    )
    li_rep = MatrixRep(
        np.array([[float(v) for v in row] for row in l_inv]),
        kind="transition_inverse",
        note="basis values p_{k-1}(x_j)",
    )
    return l_rep, li_rep


def transition_general(nodes: NodeSet, spec: FamilySpec) -> tuple[MatrixRep, MatrixRep]:
    """Transition pair from the defining inner products, for any distinct nodes.

    L expands each Lagrange basis member in the orthogonal basis through
    moments; no Gaussian shortcut is used, so the nodes need not be zeros of
    a family member. The inverse is still the value matrix p_{k-1}(x_j):
    evaluating the expansion of ell_j at the nodes gives the identity matrix
    directly.
    """
    n = len(nodes)
    xq = [Fraction(x) for x in nodes.nodes]
    fam = build_family(spec, n - 1)
    norms = squared_norms(fam, spec)
    mom = MomentFunctional(spec)
    psi = Polynomial([Fraction(1)])
    for x in xq:
        psi = psi * Polynomial([-x, Fraction(1)])
    psi_d = psi.derivative()
    l_mat = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        ell = psi.shifted_quotient(xq[j])
        scale = psi_d(xq[j])
        for m in range(n):
            prod = ell * fam[m]
            val = sum((prod.coeffs[i] * mom(i) for i in range(len(prod.coeffs))), Fraction(0))
            l_mat[m][j] = val / (scale * norms[m])
    l_inv = [[fam[k](xq[j]) for k in range(n)] for j in range(n)]
    l_rep = MatrixRep(
        np.array([[float(v) for v in row] for row in l_mat]),
        kind="transition",
        note=f"inner-product expansion of the Lagrange basis on {n} given nodes",
    )
    li_rep = MatrixRep(
        np.array([[float(v) for v in row] for row in l_inv]),
        kind="transition_inverse",
        note="basis values p_{k-1}(x_j)",
    )
    return l_rep, li_rep


def similarity_residual(a_coll, a_tau, l_mat, l_inv) -> float:
    """|| A_coll L_inv - L_inv A_tau ||_inf / max(1, ||A_tau||_inf), in doubles.

    Measures how far the two representations are from being similar through
    (L, L_inv). Note the double-precision floor: the products cancel from
    ||A_coll|| * ||L_inv|| down to the result, so for families with huge
    basis values at the nodes this cannot come out much below 1e-7; the
    exact path in similarity_check() is the sharp version.
    """
    ac, at = _as_matrix(a_coll), _as_matrix(a_tau)
    li = _as_matrix(l_inv)
    if _as_matrix(l_mat).shape != li.shape:
        raise ValueError("L and L_inv must have matching shapes")
    num = np.linalg.norm(ac @ li - li @ at, np.inf)
    return float(num / max(1.0, np.linalg.norm(at, np.inf)))


def similarity_check(spec: FamilySpec, n: int, bits: int = DEFAULT_REFINE_BITS) -> dict:
    """Exact-arithmetic consistency of the two representations at family zeros.

    Returns {"inverse_residual", "similarity_residual"}: the first is
    ||L L_inv - I||_inf with L = P Lambda on refined nodes, the second
    ||D_coll L_inv - L_inv D_tau||_inf / max(1, ||D_tau||_inf) with the
    collocation matrix assembled exactly at the double-precision nodes.
    """
    from .identities import _similarity, get_cell  # identities builds its cells on this module

    return _similarity(get_cell(spec, n, bits))
