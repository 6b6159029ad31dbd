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
A NodeSet keeps one float kernel per leading coefficient (`node_kernel`):
the differences, the derivative table and the four recursive Z^(k), built
once and read by every construction, by the float collocation matrix and by
the closed forms: array expressions over the nodes and the kernel's r that
square through the kernel's math.pow powers, or through C pow on each row's
x (`_c_square`), so each entry is the double of its per-entry formula. The
node set keeps the closed-form matrices too, all in its one memo
(`NodeSet.cached`), and `zeros` returns one node set per member.

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
nodes from the NodeSet. The Christoffel weights and the transition matrix
on given nodes are rows of one integer kernel, `_lagrange_integrals`. The
transition pair is built in one place, `_transition_exact`, on a 2^-512
grid: fixed-point Horner gives its values, and L divides them by the
Christoffel numbers cut once to fixed point, each entry's rounding certified
(Ziv's test, as in the moment sums) or, failing that, computed exactly. The
similarity suite reads the exact ||L L_inv - I|| (`_transition_pair`);
`transition` needs only to know it is within 1e-10, which one double
product with a rigorous rounding bound settles (`_inverse_bound`) unless
the bound is too wide, and only then pays for the exact product.

Notation note: the Christoffel weights and the degree-(N-1) Lagrange basis
appear under several decorated symbols in the literature (superscripts
carrying the degree); here lambda_j and ell_j always mean the same
quantities built on the current node set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

import numpy as np

from .families import (
    DiffOperator,
    FamilySpec,
    Polynomial,
    build_family,
    common_denominator,
    family_record,
    moment_table,
    pairing,
)
from .rootfinding import (
    DEFAULT_REFINE_BITS,
    NodeSet,
    _at_double,
    _derivative_lists,
    _horner,
    _round_div,
)

NodesLike = Union[NodeSet, Sequence[float], np.ndarray]

#: Below this |a_4(x_n)| (|sigma(x_n)| for the classical families) the
#: closed-form diagonal entries are abandoned for the general assembly (the
#: formulas divide by that coefficient there).
SINGULAR_COEFF_GUARD = 1e-10

DIFFMAT_METHODS = ("explicit", "recursive", "alternative")

#: Highest derivative order of the float differentiation matrices.
KMAX = 4


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


def _node_poly_table(dx: np.ndarray, r: np.ndarray, kmax: int, leading: float):
    """psi^(k)(x_m) for k = 1..kmax and psi'(x_m), for psi = leading * prod(x - x_j), from the differences.

    Returns (pd, pi) with pd[k, m] = psi^(k)(x_m) and pi[m] = psi'(x_m); row k
    of pd does not depend on kmax.
    """
    n = len(dx)
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


class NodeKernel:
    """The float quantities of one node set that every Z^(k) on it reads.

    dx and r are the differences and their reciprocals; pd[k] = psi^(k)(x_m)
    for k <= KMAX + 1 and pi = psi'(x_m), for psi = leading * prod(x - x_j);
    `recursive[k - 1]` is the recursive Z^(k), all four from one pass of the
    recursion. The math.pow powers of dx that the alternative construction
    divides by are built on first use, one per exponent. Every array is
    read-only: callers that hand a matrix out copy it. Non-finite or
    coincident nodes raise ValueError.
    """

    def __init__(self, x: np.ndarray, leading: float):
        if not np.isfinite(x).all():
            raise ValueError("nodes must be finite")
        if len(set(x.tolist())) < len(x):
            raise ValueError("nodes must be distinct")
        with np.errstate(all="ignore"):  # an overflowed spread shows as a non-finite matrix in z()
            self.dx, self.r = _differences(x)
            self.pd, self.pi = _node_poly_table(self.dx, self.r, KMAX + 1, leading)
            self.recursive = []
            z = np.zeros_like(self.dx)  # off-diagonal entries of Z^(0) = I
            for k in range(1, KMAX + 1):
                z = self.r * (self.pd[k][:, None] / self.pi - k * z)
                self.recursive.append(self._with_diagonal(z.copy(), k))
        for a in (self.dx, self.r, self.pd, self.pi, *self.recursive):
            a.setflags(write=False)
        self._powers: dict[int, np.ndarray] = {}

    def _with_diagonal(self, z: np.ndarray, k: int) -> np.ndarray:
        np.fill_diagonal(z, self.pd[k + 1] / ((k + 1) * self.pi))
        return z

    def _power(self, p: int) -> np.ndarray:
        """dx ** p entry by entry through math.pow (see the module docstring), kept once built.

        math.pow raises OverflowError past double range; z() turns that into ValueError.
        """
        if p not in self._powers:
            power = np.array([math.pow(d, p) for d in self.dx.ravel().tolist()]).reshape(self.dx.shape)
            power.setflags(write=False)
            self._powers[p] = power
        return self._powers[p]

    def z(self, k: int, method: str) -> np.ndarray:
        """Z^(k) by `method`: the kernel's own recursive matrix, or a new one.

        The explicit construction needs the kernel of leading coefficient 1.
        A matrix the node spread overflows raises ValueError.
        """
        if method == "recursive":
            z = self.recursive[k - 1]
        else:
            try:
                with np.errstate(all="ignore"):
                    z = self._explicit(k) if method == "explicit" else self._alternative(k)
            except OverflowError:  # math.pow or a partial sum of math.fsum past double range
                z = None
        if z is None or not np.isfinite(z).all():
            raise ValueError(f"Z^({k}) is not finite: the node spread overflows double precision")
        return z

    def _alternative(self, k: int) -> np.ndarray:
        z = np.zeros_like(self.dx)
        for i in range(1, k + 1):
            coefficient = (-1) ** (k - i) * math.factorial(k) / math.factorial(i)
            z = z + coefficient * self.pd[i][:, None] / self._power(k - i + 1)
        return self._with_diagonal(z / self.pi, k)

    def _explicit(self, k: int) -> np.ndarray:
        dx, pi = self.dx, self.pi
        rows = self.r.tolist()  # math.fsum is correctly rounded, so a zero term or the order changes nothing
        if k == 1:
            z = pi[:, None] / pi / dx
            np.fill_diagonal(z, [math.fsum(row) for row in rows])
            return z
        # sum over i != m, j of r[m, i]: the full row less r[m, j], in one correctly rounded sum
        s = np.array([[math.fsum(row + [-v]) for v in row] for row in rows])
        z = 2.0 * pi[:, None] / pi / dx * s
        np.fill_diagonal(z, self._explicit_diagonal())
        return z

    def _explicit_diagonal(self) -> list[float]:
        """sum over i != m and p not in (m, i) of 1 / (dx[m, i] dx[m, p]), correctly rounded.

        The terms are symmetric in (i, p), so the sum over i < p is half the
        sum, and doubling its rounded value gives the rounded full sum: a sum
        of doubles below 2^-1022 is itself a double, and above it doubling
        keeps the rounding grid. A doubled sum that overflows comes out
        infinite, and z() refuses the matrix, as it does when the partial
        sums of a half row overflow and fsum raises OverflowError.
        """
        n = len(self.dx)
        i, p = np.triu_indices(n, 1)
        half = 1.0 / (self.dx[:, i] * self.dx[:, p])
        m = np.arange(n)[:, None]
        half[(i == m) | (p == m)] = 0.0
        return [2.0 * math.fsum(row) for row in half.tolist()]


def node_kernel(nodes: NodesLike, leading: float = 1.0) -> NodeKernel:
    """The kernel of the nodes for one leading coefficient, kept by a NodeSet and fresh for plain arrays."""
    if not isinstance(nodes, NodeSet):
        return NodeKernel(np.asarray(nodes, dtype=float), leading)
    return nodes.cached(leading, lambda: NodeKernel(nodes.as_array(), leading))


def _check_order(k: int, method: str = "recursive") -> None:
    if not 1 <= k <= KMAX:
        raise ValueError(f"derivative order k must be in 1..{KMAX}")
    if method not in DIFFMAT_METHODS:
        raise ValueError(f"method must be one of {DIFFMAT_METHODS}")
    if method == "explicit" and k > 2:
        raise ValueError("explicit formulas exist for k in {1, 2} only")


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
    All three read the node set's kernel (`node_kernel`); the matrix
    returned is the caller's own.
    """
    _check_order(k, method)
    kernel = node_kernel(nodes, 1.0 if method == "explicit" else leading)
    z = kernel.z(k, method)
    z = z.copy() if method == "recursive" else z
    return MatrixRep(z, kind=f"diffmat({k})", note=f"{method} construction on {len(z)} nodes")


def diffmats_exact(kmax: int, xq: Sequence[Fraction]) -> list[list[list[Fraction]]]:
    """Z^(0)..Z^(kmax) over exact rationals at rational nodes."""
    return [_collocation_exact_rows(xq, [[int(i == k) for i in range(k + 1)]] * len(xq)) for k in range(kmax + 1)]


def _node_products(u: Sequence[int], kmax: int) -> list[list[int]]:
    """[s^d] prod_(i != m)(u_m - u_i + s) for d = 0..kmax, one list per m; d = 0 gives P_m."""
    out = []
    for m, um in enumerate(u):
        q = [1] + [0] * kmax
        for delta in (um - ui for i, ui in enumerate(u) if i != m):
            q = [q[0] * delta] + [q[d] * delta + q[d - 1] for d in range(1, kmax + 1)]
        out.append(q)
    return out


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


def collocation_rep(op: DiffOperator, nodes: NodesLike) -> MatrixRep:
    """Pseudospectral matrix of op: row m, column n holds (op ell_n)(x_m).

    Assembled from the recursive Z^(k) of the node set's kernel.
    """
    x = _as_array(nodes)
    kernel = node_kernel(nodes)
    n = len(x)
    out = np.zeros((n, n))
    for order, a in op.to_float().terms:
        av = a(x)
        if order == 0:
            out += np.diag(av)
        else:
            _check_order(order)
            out += av[:, None] * kernel.z(order, "recursive")
    return MatrixRep(out, kind="collocation", note=f"assembled from differentiation matrices on {n} nodes")


def collocation_exact(op: DiffOperator, xq: Sequence[Fraction]) -> list[list[Fraction]]:
    """Exact-rational collocation matrix at rational nodes."""
    coeffs = [Polynomial([Fraction(c) for c in op.coefficient(k).coeffs]) for k in range(op.max_order + 1)]
    return _collocation_exact_rows(xq, [[a(x) for a in coeffs] for x in xq])


def _simplified_diag_fourth_order(a: list, ap: list, mu_top: float, p1: float, p2: float, p3: float) -> float:
    return (
        -(a[3] - 0.8 * (ap[4] + a[3]))
        * (a[3] * p3 + a[2] * p2 + a[1] * p1)
        / (4.0 * a[4] * p1)
        + (p3 / (3.0 * p1)) * (a[2] - 0.6 * (ap[3] + a[2]))
        + (p2 / (2.0 * p1)) * (a[1] - 0.4 * (ap[2] + a[1]))
        - 0.2 * (ap[1] - mu_top)
    )


def _fourth_order_brace(a: list, a_mn: float, p1m: float, p2m: float, p3m: float) -> float:
    return (
        4.0 * a[4] * p3m
        + 3.0 * (a[3] - 4.0 * a[4] * a_mn) * p2m
        - 2.0 * (3.0 * a_mn * (a[3] - 4.0 * a[4] * a_mn) - a[2]) * p1m
    )


def _family_diag(family: str, al: float, mm: float, mu_top: float, x: float, p1: float, p2: float, p3: float) -> float:
    """Diagonal entries of the per-family closed form; al, mm and mu_top are alpha, M and mu_N as doubles."""
    if family == "krall-legendre":
        return (
            8.0 * al * (x * x - 1.0) / 15.0 * (p3 / p1)
            + 12.0 * al * x / 5.0 * (p2 / p1)
            + (8.0 * al * (x * x + 1.0) + mu_top * (x * x - 1.0)) / (5.0 * (x * x - 1.0))
        )
    if family == "krall-laguerre":
        return (
            -x * (x + 4.0 * al) / 15.0 * (p3 / p1)
            + (x * x + 2.0 * (2.0 * al - 1.0) * x - 6.0 * al) / 10.0 * (p2 / p1)
            + ((al + 1.0) * x * x + (mu_top - al) * x - 2.0 * al) / (5.0 * x)
        )
    # krall-jacobi
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


def _c_square(v):
    """v ** 2 through C pow: on a double, or entry by entry on an array, whose numpy square can round differently."""
    return v**2 if isinstance(v, float) else np.array([t**2 for t in v.ravel().tolist()]).reshape(v.shape)


def _family_offdiag(
    family: str, al: float, mm: float, xm: float, a_mn: float, p1m: float, p2m: float, p3m: float, p1n: float
) -> float:
    """Off-diagonal entries (m, n) of the per-family closed form, a_mn = 1 / (x_m - x_n): one entry from doubles,
    or the whole matrix from x_m, p'_m, p''_m, p'''_m as N x 1 columns, a_mn = the kernel's r and p'_n as a row."""
    if family == "krall-legendre":
        brace = (
            4.0 * _c_square(1.0 - xm * xm) * p3m
            - 12.0 * (xm * xm - 1.0) * (a_mn * (xm * xm - 1.0) - 2.0 * xm) * p2m
            + 8.0 * (xm * xm - 1.0) * (3.0 * a_mn * a_mn * (xm * xm - 1.0) - 6.0 * a_mn * xm + al + 3.0) * p1m
        )
    elif family == "krall-laguerre":
        brace = (
            4.0 * xm * xm * p3m
            - 6.0 * xm * (2.0 * a_mn * xm + xm - 2.0) * p2m
            + 2.0 * xm * (12.0 * a_mn * a_mn * xm + 6.0 * a_mn * (xm - 2.0) + xm - 2.0 * (al + 3.0)) * p1m
        )
    else:  # krall-jacobi
        brace = (
            4.0 * xm * xm * _c_square(xm - 1.0) * p3m
            + 6.0 * xm * (xm - 1.0) * (-2.0 * a_mn * xm * (xm - 1.0) + (4.0 + al) * xm - 2.0) * p2m
            - 2.0
            * xm
            * (
                -12.0 * a_mn * a_mn * xm * _c_square(xm - 1.0)
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
    use their own second-order closed form under either name. This is the
    only place the closed forms are evaluated, on whole node arrays with the
    kernel's r = 1 / (x_m - x_n) and math.pow squares (`node_kernel`); the
    closed-form identities read their entries from this matrix.

    Nodes where the leading coefficient (a_4, or sigma) falls under the
    singular guard in absolute value get their diagonal entry from the
    general assembly instead and are reported in `flagged`.

    The node set keeps the matrix per (spec, formula, guard), so the zeros
    of one member get one evaluation; each call returns a copy.
    """
    rep = nodes.cached((spec, formula, SINGULAR_COEFF_GUARD), lambda: _evaluate_closed_form(spec, nodes, formula))
    return replace(rep, data=rep.data.copy())


def _evaluate_closed_form(spec: FamilySpec, nodes: NodeSet, formula: str) -> MatrixRep:
    """The closed form on whole node arrays and the kernel's r; no square goes through numpy's power."""
    if formula not in ("family", "fourth-order"):
        raise ValueError("formula must be 'family' or 'fourth-order'")
    record, kernel, x, n = family_record(spec), node_kernel(nodes), nodes.as_array(), len(nodes)
    op, mu_top = record.op_float, record.eigenvalues_float(n + 1)[n]
    a = [op.coefficient(k) for k in range(op.max_order + 1)]
    p1, p2, p3 = (np.array(d) for d in nodes.derivatives())
    form = formula if spec.is_krall else "second-order"
    with np.errstate(all="ignore"):  # the diagonal of a flagged row may divide by zero; it is replaced below
        if form == "second-order":
            sigma, tau = a[2](x), a[1](x)
            tau1 = a[1].coeffs[1] if len(a[1].coeffs) > 1 else 0.0
            sigma2 = 2.0 * a[2].coeffs[2] if len(a[2].coeffs) > 2 else 0.0
            out = (-2.0 * sigma)[:, None] / kernel._power(2) * p1[:, None] / p1
            diag = -tau / (6.0 * sigma) * (tau - 2.0 * a[2].derivative()(x)) + (
                (n - 1) * (tau1 + 0.5 * n * sigma2) / 3.0
            )
        elif form == "family":
            family, al, mm = spec.family, float(spec.alpha), float(spec.mass or 0)
            out = _family_offdiag(family, al, mm, x[:, None], kernel.r, p1[:, None], p2[:, None], p3[:, None], p1)
            diag = _family_diag(family, al, mm, mu_top, x, p1, p2, p3)
        else:
            r, at, ap = kernel.r, [c(x) for c in a], [c.derivative()(x) for c in a]  # a_k(x_m), a_k'(x_m)
            brace = _fourth_order_brace([v[:, None] for v in at], r, p1[:, None], p2[:, None], p3[:, None])
            out = -(r * r) / p1 * brace
            diag = _simplified_diag_fourth_order(at, ap, mu_top, p1, p2, p3)
    flagged = tuple(np.flatnonzero(np.abs(a[-1](x)) < SINGULAR_COEFF_GUARD).tolist())
    if flagged:
        diag[list(flagged)] = collocation_rep(op, nodes).data[flagged, flagged]
    np.fill_diagonal(out, diag)
    out.setflags(write=False)
    note = f"{form} closed form at the zeros of the degree-{n} member"
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
    if n < 1:
        raise ValueError("need n >= 1")
    fam, norms = build_family(spec, n - 1), family_record(spec).squared_norms(n)
    table = moment_table(spec, 2 * (n - 1))  # op keeps degrees
    op_exact = DiffOperator(tuple((o, Polynomial([Fraction(c) for c in a.coeffs])) for o, a in op.terms))
    out = np.zeros((n, n))
    for j in range(n):
        image = op_exact.apply(fam[j])
        for k in range(n):
            try:
                out[k, j] = float(pairing(image, fam[k], table) / norms[k])
            except OverflowError:
                raise ValueError(f"spectral matrix entry ({k + 1}, {j + 1}) overflows double precision") from None
    return MatrixRep(out, kind="tau", note=f"inner-product expansion in the {spec.label()} basis")


# ---------------------------------------------------------------------------
# Christoffel weights, transition matrices, similarity
# ---------------------------------------------------------------------------


def _lagrange_integrals(nodes: NodeSet, weights: Sequence[Polynomial], spec: FamilySpec) -> list[list[Fraction]]:
    """Row w, column j: the integral of ell_j w against the measure, for each rational weight w.

    For the node polynomial psi = sum_k a_k x^k / d and nu_t the integral of
    x^t w, psi / (x - y), remainder dropped, integrates against w to the
    second-kind polynomial sigma_w(y) = sum_k a_k sum_(i<k) nu_(k-1-i) y^i / d,
    so the entry is sigma_w(x_j) / psi'(x_j) at the refined x_j = u / 2^e.
    On integers, with w = b / c and one `moment_table` M / mu, sigma_w is
    S / (c mu d); S and the slope list both have N coefficients, so their
    `_horner` sums carry the same 2^(e (N-1)) and no quotient is formed.
    """
    a = nodes.poly._integer_form()[0]
    slope, n = _derivative_lists(a, 1)[1], len(a) - 1
    forms = [w._integer_form() for w in weights]
    moments, mu = moment_table(spec, n - 1 + max(len(b) for b, _ in forms) - 1)
    points = [(u, v.bit_length() - 1) for u, v in (x.as_integer_ratio() for x in nodes.refined())]
    slopes = [_horner(slope, u, e) for u, e in points]
    rows = []
    for b, c in forms:
        nu = [sum(map(mul, b, moments[t:])) for t in range(n)]
        s = [sum(a[k] * nu[k - 1 - i] for k in range(i + 1, n + 1)) for i in range(n)]
        rows.append([Fraction(_horner(s, u, e), c * mu * p) for (u, e), p in zip(points, slopes)])
    return rows


def christoffel_numbers(nodes: NodeSet, spec: FamilySpec) -> list[Fraction]:
    """Exact interpolatory weights lambda_j = integral of ell_j against the measure, reduced.

    The w = 1 row of `_lagrange_integrals`, sigma_N(x_j) / psi'(x_j) on the
    refined nodes, from moments through degree N - 1. The node set keeps
    them per spec, the only copy of them; each call returns a new list.
    """
    return list(nodes.cached(spec, lambda: _lagrange_integrals(nodes, [Polynomial([1])], spec)[0]))


def christoffel(nodes: NodeSet, spec: FamilySpec) -> MatrixRep:
    """Diagonal matrix of the Christoffel numbers at the family zeros; every entry must be positive.

    A weight <= 0 on the zeros of the spec's own degree-N member means the
    refined zeros ran out of precision; on other nodes, that the nodes or
    the moments are corrupted.
    """
    for j, lam in enumerate(christoffel_numbers(nodes, spec)):
        if lam <= 0:
            cause = _exhausted_zeros(nodes, spec) or "nodes or moments are corrupted"
            raise PositivityError(f"weight {j} is {float(lam):.3e} <= 0; {cause}")
    return interpolatory_weights(nodes, spec)


def _exhausted_zeros(nodes: NodeSet, spec: FamilySpec) -> str | None:
    """What ran out of precision when an exact check fails on the zeros of spec's own degree-N member, else None."""
    n = len(nodes)
    refined = f"the {DEFAULT_REFINE_BITS}-bit refined zeros of the degree-{n} member of {spec.label()}"
    return f"precision exhausted: {refined}" if nodes.poly == build_family(spec, n)[n] else None


def interpolatory_weights(nodes: NodeSet, spec: FamilySpec) -> MatrixRep:
    """Diagonal matrix of the interpolatory weights on any nodes, where they may be negative."""
    data = np.diag([float(v) for v in christoffel_numbers(nodes, spec)])
    return MatrixRep(data, kind="christoffel_diag", note=f"interpolatory weights for {spec.label()}")


def quadrature_exactness(nodes: NodeSet, spec: FamilySpec):
    """Relative moment-matching residuals of the Gaussian rule, k = 0..2N-1.

    Returns (max_residual, per_k_list). Evaluated on the refined nodes: the
    statement being checked has degree of exactness 2N-1 only at the true
    zeros, and its sensitivity to node error dwarfs double precision for
    spread-out node sets. Each residual is the correctly rounded double of
    the exact rational, certified from fixed-point sums (`_quadrature_residuals`).
    """
    residuals = _quadrature_residuals(christoffel_numbers(nodes, spec), nodes.refined(), spec)
    return max(residuals), residuals


_SUM_MARGIN = 1100  # fixed-point bits below the moment sums' error bound; from 1076 on, zero rounds to 0.0


def _quadrature_residuals(lams: Sequence[Fraction], xq: Sequence[Fraction], spec: FamilySpec) -> list[float]:
    """|sum_j lam_j x_j^k - m_k| / max(1, |m_k|) for k = 0..2N-1, each correctly rounded.

    Exact sums would carry the weights' lcm and 2^(192 k) powers. Instead,
    with x_j = u_j / dx and m_k = M_k / mu, c_j = floor(lam_j 2^F), then
    floor(c_j u_j / dx) per k, is within B_k of lam_j x_j^k 2^F: B_0 = 1,
    B_k = floor(B_(k-1) |u_j| / dx) + 2 (Higham, Accuracy and Stability,
    5.1), and F = _SUM_MARGIN + the bits of the largest sum_j B_k. The
    residual is T / (2^F max(mu, |M_k|)) = T / scale, with T within
    err = mu sum_j B_k of num = |mu sum_j c_j - M_k 2^F|. When (num - err) /
    scale and (num + err) / scale round to the same double, that double is
    the residual (Ziv's test), 0.0 for an exactly zero one. Otherwise, or
    when a bound leaves double range, that k alone is summed in Fractions
    (`_exact_residual`), the only place an OverflowError can come from.
    """
    u, dx = common_denominator(xq)
    moments, mu = moment_table(spec, 2 * len(u) - 1)
    bound, abs_u, errors = [1] * len(u), [abs(v) for v in u], []
    for _ in moments:
        errors.append(sum(bound))
        bound = [b + 2 for b in _floor_products(bound, abs_u, dx)]
    bits = _SUM_MARGIN + max(errors).bit_length()
    column, residuals = [(lam.numerator << bits) // lam.denominator for lam in lams], []
    for k, (mk, err) in enumerate(zip(moments, errors)):
        column = _floor_products(column, u, dx) if k else column
        rounded = _certain_quotient(abs(sum(column) * mu - (mk << bits)), err * mu, max(mu, abs(mk)) << bits)
        residuals.append(_exact_residual(lams, xq, Fraction(mk, mu), k) if rounded is None else rounded)
    return residuals


def _floor_products(values: Sequence[int], factors: Sequence[int], d: int) -> list[int]:
    """floor(v f / d) for each pair, by a shift when d is a power of two (the refined nodes)."""
    e = d.bit_length() - 1
    if d == 1 << e:
        return [v * f >> e for v, f in zip(values, factors)]
    return [v * f // d for v, f in zip(values, factors)]


def _certain_quotient(num: int, err: int, scale: int) -> float | None:
    """The double nearest T / scale for every T >= 0 within err of num, or None if that is not one double."""
    try:
        lo, hi = max(0, num - err) / scale, (num + err) / scale
    except OverflowError:
        return None
    return lo if lo == hi else None


def _exact_residual(lams: Sequence[Fraction], xq: Sequence[Fraction], mk: Fraction, k: int) -> float:
    """|sum_j lam_j x_j^k - m_k| / max(1, |m_k|) summed in Fractions and rounded once."""
    return float(abs(sum(lam * x**k for lam, x in zip(lams, xq)) - mk) / max(1, abs(mk)))


_PRODUCT_BITS = 512  # entry rounding before exact matrix products
_GRID = 1 << _PRODUCT_BITS
_LAMBDA_BITS = _PRODUCT_BITS + 128  # fixed-point bits of the Christoffel numbers in L
_VALUE_MARGIN = 64  # fixed-point bits below the value table's error bound


def _transition_exact(fam: Sequence[Polynomial], lams: Sequence[Fraction], xq: Sequence[Fraction], spec: FamilySpec):
    """(L, L_inv) as integer matrices on the 2^-_PRODUCT_BITS grid, from spec's p_0..p_{N-1} and the weights.

    xq are the refined nodes, dyadic rationals u_k / 2^E; entries are
    rounded half to even onto the grid with no gcd. Horner on the
    2^-(_PRODUCT_BITS + G) grid, with the coefficients and each h u_k / 2^E
    floored, leaves h within beta_t of p_j(x_k) after t steps (beta_0 = 1,
    beta_t = floor(beta_(t-1) |u_k| / 2^E) + 3; G = _VALUE_MARGIN + the bits
    of the largest). With lambda_k = a / b, ||p_j||^2 = s / t > 0 and the
    values V_jk, L[j][k] is X = a V_jk t / (b s) steps; lambda_k is cut once
    to F_k = floor(a 2^Q / b), Q = _LAMBDA_BITS, as a 3.5-3.8k-bit b s per
    entry would dominate, and divmod(F_k V_jk t, s 2^Q) = (q, r) puts X within
    |V_jk t| / (s 2^Q) of q + r / (s 2^Q). Roundings change only at a half,
    so X is q + (2r > s 2^Q) if |2r - s 2^Q| > 2 |V_jk t|, and V_jk is h rounded
    at 2^G if h is over beta from one (Ziv's test); else that entry is exact.
    """
    members = fam[: len(xq)]
    fixed = [(lam.numerator << _LAMBDA_BITS) // lam.denominator for lam in lams]
    u, big_d = common_denominator(xq)
    e = big_d.bit_length() - 1
    bounds = [[1] * len(u)]
    for _ in members[1:]:
        bounds.append([(b * abs(v) >> e) + 3 for b, v in zip(bounds[-1], u)])
    g = _VALUE_MARGIN + max(bounds[-1]).bit_length()  # beta_t never falls with t
    half, values, l_mat = 1 << g - 1, [], []
    for p, norm in zip(members, family_record(spec).squared_norms(len(members))):
        a, d = p._integer_form()
        h, row, den = [0] * len(u), [], d << e * (len(a) - 1)
        for c in reversed([(c << _PRODUCT_BITS + g) // d for c in a]):
            h = [(v * w >> e) + c for v, w in zip(h, u)]
        for v, beta, uk in zip(h, bounds[len(a) - 1], u):
            r = (v & (2 * half - 1)) - half  # how far h is past the half of its grid step
            row.append((v >> g) + (r > 0) if abs(r) > beta else _round_div(_horner(a, uk, e) << _PRODUCT_BITS, den))
        values.append(row)
        s, t = norm.numerator, norm.denominator
        scale, l_row = s << _LAMBDA_BITS, []
        for lam, f, vk in zip(lams, fixed, row):
            vt = vk * t
            q, r = divmod(f * vt, scale)
            certain = abs(2 * r - scale) > 2 * abs(vt)
            l_row.append(q + (2 * r > scale) if certain else _round_div(lam.numerator * vt, lam.denominator * s))
        l_mat.append(l_row)
    return l_mat, [list(col) for col in zip(*values)]


def _inverse_residual(l_mat: Sequence[Sequence[int]], l_inv: Sequence[Sequence[int]], den: int) -> float:
    """||L L_inv - I||_inf for L = l_mat / den and L_inv = l_inv / den, exact and rounded once.

    Every entry of the product is an integer dot product over den^2.
    """
    one = den * den
    cols = list(zip(*l_inv))
    worst = 0
    for m, row in enumerate(l_mat):
        worst = max(worst, sum(abs(sum(map(mul, row, col)) - (one if m == j else 0)) for j, col in enumerate(cols)))
    return worst / one


def _inverse_bound(a: np.ndarray, b: np.ndarray) -> float:
    """An upper bound on ||L L_inv - I||_inf from a and b, the doubles of the grid pair, by one double product.

    With u = 2^-53, each exact entry is a double's (1 + delta), |delta| <= u
    (a nonzero grid entry is at least 2^-512, so none is subnormal), and a
    double product in any summation order is within gamma_n |a||b| of a b
    (Higham, Accuracy and Stability, section 3.1; gamma_n = n u / (1 - n u)).
    So |fl(a b) - L L_inv| <= gamma_(n+2) |a||b| entrywise, plus at most
    n 2^-1075 per entry from products below 2^-1022. The bound sums
    |fl(a b) - I| + gamma_(n+2) |a||b| by rows. Its own steps (|a||b|, the
    sums, gamma itself) round by less than (2n + 9) u in all, which the
    factor 1 + 4 gamma_(n+2) covers, and n^2 2^-1074 covers the underflows.
    A non-finite product gives inf or NaN, which no tolerance passes.
    """
    n = len(a)
    gamma = (n + 2) * 2.0**-53 / (1 - (n + 2) * 2.0**-53)
    with np.errstate(all="ignore"):
        rows = np.abs(a @ b - np.eye(n)) + gamma * (np.abs(a) @ np.abs(b))
        return float(rows.sum(axis=1).max()) * (1 + 4 * gamma) + n * n * 2.0**-1074


def _transition_pair(fam: Sequence[Polynomial], nodes: NodeSet, spec: FamilySpec):
    """(L, L_inv, ||L L_inv - I||_inf): the pair on the 2^-_PRODUCT_BITS grid for p_0..p_{N-1} on the refined zeros."""
    l_mat, l_inv = _transition_exact(fam, christoffel_numbers(nodes, spec), nodes.refined(), spec)
    return l_mat, l_inv, _inverse_residual(l_mat, l_inv, _GRID)


def _on_grid(matrix: Sequence[Sequence[int]]) -> np.ndarray:
    """The doubles of a grid matrix, each correctly rounded; an entry past double range raises OverflowError."""
    return np.array([[v / _GRID for v in row] for row in matrix])


def transition(nodes: NodeSet, spec: FamilySpec) -> tuple[MatrixRep, MatrixRep]:
    """Basis-transition pair (L, L_inv) at the zeros of the degree-N member.

    L factors as P * Lambda: row j of P holds p_{j-1}(x_k) / ||p_{j-1}||^2
    and Lambda carries the Christoffel numbers. Gaussian exactness makes the
    inverse explicit, L_inv[j][k] = p_{k-1}(x_j). `_transition_exact` builds
    both on the refined zeros, on the 2^-512 grid, and ||L L_inv - I||_inf
    must be within 1e-10. One double product of the pair's doubles bounds it
    (`_inverse_bound`); only a bound above 1e-10, or an entry past double
    range, pays for the exact residual (`_inverse_residual`), which decides
    the verdict and is the one the similarity suite reads (`_transition_pair`).
    A failing pair on the zeros of the spec's own degree-N member means the
    refined nodes or the grid ran out of precision; on other nodes, that the
    nodes are not its zeros.
    """
    n = len(nodes)
    l_mat, l_inv = _transition_exact(build_family(spec, n - 1), christoffel_numbers(nodes, spec), nodes.refined(), spec)
    try:
        grid = _on_grid(l_mat), _on_grid(l_inv)
    except OverflowError:  # only the exact residual can pass such a pair; _on_grid raises again below
        grid = None
    if grid is None or not _inverse_bound(*grid) <= 1e-10:
        residual = _inverse_residual(l_mat, l_inv, _GRID)
        if residual > 1e-10:
            raise InversionConsistencyError(_pair_failure(residual, nodes, spec))
    l_data, li_data = grid or (_on_grid(l_mat), _on_grid(l_inv))
    note = f"P * Lambda at the zeros of the degree-{n} member of {spec.label()}"
    return (
        MatrixRep(l_data, kind="transition", note=note),
        MatrixRep(li_data, kind="transition_inverse", note="basis values p_{k-1}(x_j)"),
    )


def _pair_failure(residual: float, nodes: NodeSet, spec: FamilySpec) -> str:
    """Why ||L L_inv - I||_inf = residual misses 1e-10 on nodes; `transition` and the similarity suite both say it."""
    cause = f"nodes are not accurate zeros for {spec.label()}"
    if exhausted := _exhausted_zeros(nodes, spec):
        cause = f"{exhausted} or the 2^-{_PRODUCT_BITS} grid of the pair"
    return f"||L L_inv - I||_inf = {residual:.3e} above 1e-10; {cause}"


def transition_general(nodes: NodeSet, spec: FamilySpec) -> tuple[MatrixRep, MatrixRep]:
    """Transition pair from the defining inner products, for any distinct nodes.

    L[m][j] = <ell_j, p_m> / ||p_m||^2 for the Lagrange basis of the node
    polynomial on its refined nodes: the rows w = p_0..p_{N-1} of
    `_lagrange_integrals` over their squared norms, with no Gaussian
    shortcut. The inverse is the value matrix p_{k-1}(x_j), since the
    expansion of ell_j evaluated at the nodes is the identity.
    """
    n = len(nodes)
    fam = build_family(spec, n - 1)
    rows = zip(_lagrange_integrals(nodes, fam, spec), family_record(spec).squared_norms(n))
    l_mat = [[float(v / norm) for v in row] for row, norm in rows]
    l_inv = [[_at_double(*p._integer_form(), x) for p in fam] for x in nodes.nodes]
    l_rep = MatrixRep(
        np.array(l_mat), kind="transition", note=f"inner-product expansion of the Lagrange basis on {n} given nodes"
    )
    li_rep = MatrixRep(np.array(l_inv), kind="transition_inverse", note="basis values p_{k-1}(x_j)")
    return l_rep, li_rep


def similarity_check(spec: FamilySpec, n: int) -> dict:
    """Exact-arithmetic consistency of the two representations.

    Returns {"inverse_residual", "similarity_residual"}: the first is
    ||L L_inv - I||_inf with L = P Lambda on the refined zeros, the second
    ||D_coll L_inv - L_inv D_tau||_inf / max(1, ||D_tau||_inf) with the
    collocation matrix and L_inv = [p_j(x_k)] assembled exactly on the
    cell's exact nodes, a dyadic grid across the zeros' span
    (`identities.Cell.xq`), since that relation holds on any distinct nodes.
    """
    from .identities import _similarity, get_cell  # identities builds its cells on this module

    return _similarity(get_cell(spec, n))
