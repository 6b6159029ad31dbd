"""Zeros of family members, with the derivative values the matrix formulas need.

The zeros are located by the eigenvalues of the balanced companion matrix
and then polished by Newton iteration evaluated on the exact coefficients,
so each returned node is within about one ulp of a true zero of the given
polynomial. A NodeSet carries the nodes in double precision together with
cached values of p', p'', p''' there.

Every exact evaluation at a double runs on integers. A rational member is
p = sum_k a_k x^k / d over one denominator (`Polynomial._integer_form`) and
a double is x = u / 2^e, so homogeneous Horner gives p(x) as one integer
over d 2^(e n), and one int / int true division rounds it (`_at_double`).
True division of ints is correctly rounded, so the double is float() of the
reduced Fraction, without the gcd. The real Newton steps, the residual gate
and p', p'', p''' (from the integer lists k a_k over the same d) take this
path; complex Newton iterates and float-coefficient polynomials take the
plain Horner loop.

Some verification tasks (Gaussian exactness, inverting the basis-transition
matrix) are sensitive to node perturbations far beyond double precision:
for Laguerre-type node spreads a 1-ulp node error already shows up at the
1e-4 level in the high quadrature moments. NodeSet.refined() therefore
exposes the nodes re-polished in rational arithmetic to DEFAULT_REFINE_BITS
binary digits; the exact verification paths consume those.

zeros() keeps its last (p, spec) result. A repeated call, such as the one a
cell makes after the caller found the same zeros, returns a new NodeSet
over the same nodes, and all of them share the node set's caches: the
refined nodes, the Christoffel numbers, the float kernels and the
closed-form matrices are each built once for the zeros of one member.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .families import FamilySpec, Polynomial, common_denominator

#: Binary digits of node accuracy used by the exact verification paths.
DEFAULT_REFINE_BITS = 192


class RootfindingError(RuntimeError):
    """Root computation failed in a way that signals corrupted input."""


class NonRealRootError(RootfindingError):
    """A root kept a significant imaginary part after polishing."""


class NonSimpleRootError(RootfindingError):
    """Two roots collapsed within the separation tolerance."""


def _round_div(p: int, q: int) -> int:
    """p / q rounded to the nearest integer, ties to even, as round(Fraction(p, q))."""
    floor, rem = divmod(p, q) if q > 0 else divmod(-p, -q)
    return floor + (2 * rem > abs(q) or (2 * rem == abs(q) and floor & 1))


def _horner(a: Sequence[int], u: int, e: int) -> int:
    """sum_k a_k u^k 2^(e (n - k)), n = len(a) - 1: 2^(e n) times the value at u / 2^e, on integers."""
    acc = shift = 0
    for c in reversed(a):
        acc = acc * u + (c << shift)
        shift += e
    return acc


def _at_double(a: Sequence[int], d: int, x: float) -> float:
    """sum_k a_k x^k / d at a double x = u / 2^e, exact and rounded once by int / int."""
    u, v = x.as_integer_ratio()
    e = v.bit_length() - 1
    return _horner(a, u, e) / (d << e * max(len(a) - 1, 0))


def _derivative_lists(a: Sequence[int], kmax: int) -> list[list[int]]:
    """Integer coefficients of p, p', ..., p^(kmax), all over p's own denominator."""
    out = [list(a)]
    for _ in range(kmax):
        out.append([k * c for k, c in enumerate(out[-1])][1:])
    return out


def _newton_refine(a: Sequence[int], x0: float, bits: int) -> Fraction:
    """Polish one root of p = sum_k a_k x^k / d in rational arithmetic to ~2^-bits accuracy.

    Iterates are rounded to the 2^-bits grid to keep operand sizes bounded;
    Newton doubles the correct digits per step, so a handful of steps from a
    double-precision start saturates the grid. On integers: every iterate
    is dyadic, x = u / 2^e, so homogeneous Horner gives p(x) = A / (d 2^(e n))
    and p'(x) = B / (d 2^(e (n-1))), the step is A / (2^e B) and one
    division rounds x - step onto the grid.
    """
    slope, grid = _derivative_lists(a, 1)[1], 1 << bits
    u, v = x0.as_integer_ratio()
    for _ in range(12):
        e = v.bit_length() - 1
        big_a, big_b = _horner(a, u, e), _horner(slope, u, e)
        if big_b == 0:
            break
        den = v * big_b
        u, v = _round_div(grid * (u * big_b - big_a), den), grid
        if abs(big_a) * grid * grid <= abs(den) * max(grid, abs(u)):  # |step| <= 2^-bits max(1, |x|)
            break
    return Fraction(u, v)


class NodeSet:
    """Sorted distinct real nodes with cached p', p'', p''' values.

    Built either from the zeros of a polynomial (see zeros()) or from an
    explicit point list (from_points, which makes the monic node polynomial
    with exactly those roots). `poly` keeps the defining polynomial with
    exact rational coefficients whenever they are available, which is what
    makes high-precision refinement possible.

    What is derived from the nodes is kept in private caches: the refined
    nodes, the Christoffel numbers (`matrices.christoffel_numbers`), the
    float kernels (`matrices.node_kernel`) and the closed-form collocation
    matrices (`matrices.collocation_rep_simplified`). The node sets that
    zeros() returns for one polynomial share these caches; rebinding a
    public attribute gives a node set caches of its own.
    """

    def __init__(self, nodes, d1, d2, d3, poly: Polynomial, spec: Optional[FamilySpec] = None):
        self.nodes = tuple(float(x) for x in nodes)
        self.d1 = tuple(float(v) for v in d1)
        self.d2 = tuple(float(v) for v in d2)
        self.d3 = tuple(float(v) for v in d3)
        self.poly = poly
        self.spec = spec
        self._new_caches()

    def _new_caches(self) -> None:
        self._refined: Optional[list[Fraction]] = None
        self._christoffel: dict[FamilySpec, list[Fraction]] = {}  # per spec
        self._kernels: dict[float, object] = {}  # per leading coefficient
        self._closed_forms: dict[tuple, object] = {}  # per (spec, formula, singular guard)

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if not name.startswith("_") and "_kernels" in self.__dict__:  # the caches describe the old value
            self._new_caches()

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        fam = self.spec.label() if self.spec is not None else "custom"
        return f"NodeSet(n={len(self.nodes)}, {fam})"

    def as_array(self) -> np.ndarray:
        return np.array(self.nodes)

    def refined(self) -> list[Fraction]:
        """Nodes as rationals accurate to ~2^-DEFAULT_REFINE_BITS, computed once; each call returns a new list."""
        if self._refined is None:
            # float coefficients refine against their exact rationalization
            a = common_denominator([Fraction(c) for c in self.poly.coeffs])[0]
            self._refined = [_newton_refine(a, x, DEFAULT_REFINE_BITS) for x in self.nodes]
        return list(self._refined)

    @classmethod
    def from_points(cls, points: Sequence[float], spec: Optional[FamilySpec] = None) -> "NodeSet":
        """NodeSet on arbitrary distinct points, with the monic node polynomial.

        On integers, with x_i = u_i / D: p = D^-N prod(D x - u_i) and
        p^(k)(x_m) = k! [s^(k-1)] prod_(i != m)(u_m - u_i + s) D^k / D^N, rounded once.
        """
        pts = sorted(float(p) for p in points)
        if not all(map(math.isfinite, pts)):
            raise ValueError("points must be finite")
        for a, b in zip(pts, pts[1:]):
            if b - a < 1e-10:
                raise NonSimpleRootError(f"points {a} and {b} closer than 1e-10")
        u, big_d = common_denominator([Fraction(p) for p in pts])
        n, q = len(u), [1]
        for ui in u:
            q = [a - ui * b for a, b in zip([0] + q, q + [0])]
        poly = Polynomial([Fraction(c, big_d ** (n - k)) for k, c in enumerate(q)])
        products = _node_products(u, 2)
        try:
            caches = [[math.factorial(k) * pm[k - 1] * big_d**k / big_d**n for pm in products] for k in (1, 2, 3)]
        except OverflowError:
            raise ValueError("the node polynomial's derivatives at these points overflow double precision") from None
        node_set = cls(pts, *caches, poly=poly, spec=spec)
        # the points are exact roots of the constructed polynomial
        node_set._refined = [Fraction(p) for p in pts]
        return node_set


def _node_products(u: Sequence[int], kmax: int) -> list[list[int]]:
    """[s^d] prod_(i != m)(u_m - u_i + s) for d = 0..kmax, one list per m; d = 0 gives P_m."""
    out = []
    for m, um in enumerate(u):
        q = [1] + [0] * kmax
        for delta in (um - ui for i, ui in enumerate(u) if i != m):
            q = [q[0] * delta] + [q[d] * delta + q[d - 1] for d in range(1, kmax + 1)]
        out.append(q)
    return out


def _derivative_caches(poly: Polynomial, xs: Sequence[float]):
    """p', p'', p''' at each node; on rational coefficients exact and rounded once."""
    form = poly._integer_form()
    if form is None:
        return tuple(tuple(poly.derivative(k)(x) for x in xs) for k in (1, 2, 3))
    a, d = form
    return tuple(tuple(_at_double(b, d, x) for x in xs) for b in _derivative_lists(a, 3)[1:])


def _companion_eigenvalues(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs) - 1
    monic = coeffs / coeffs[-1]
    comp = np.zeros((n, n))
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    return np.linalg.eigvals(comp)


def _polish(poly: Polynomial, deriv: Polynomial, z: complex, real=None) -> complex:
    """Newton from a companion-matrix guess, deriv = poly'.

    real(x), when given, returns p(x) and p'(x) at a real double x,
    evaluated exactly; complex iterates take the plain loop.
    """
    x = z
    for _ in range(60):
        if real is not None and x.imag == 0.0:
            fx, dfx = real(x.real)
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


#: (p, spec, node set) of the last zeros() call that returned; see zeros.
_last_zeros: list[tuple[Polynomial, Optional[FamilySpec], NodeSet]] = []


def zeros(p: Polynomial, spec: Optional[FamilySpec] = None) -> NodeSet:
    """All N zeros of p, polished, sorted ascending, with derivative caches.

    Raises NonRealRootError if any root keeps |imag| > 1e-8 after polishing
    and NonSimpleRootError if two roots come within 1e-10 of each other;
    both signal corrupted coefficients or exhausted precision rather than a
    property of the supported families. When a family spec is passed, the
    nodes are also checked against the convex hull of its measure support.

    The zeros of the last (p, spec) are kept, so a repeated call finds no
    roots: it returns a new NodeSet over the same nodes, sharing the node
    set's caches (see NodeSet). A call that raised is not kept.
    """
    for q, s, found in _last_zeros:
        if q == p and s == spec:
            return copy.copy(found)
    found = _zeros(p, spec)
    _last_zeros[:] = [(p, spec, found)]
    return copy.copy(found)


def _zeros(p: Polynomial, spec: Optional[FamilySpec]) -> NodeSet:
    n = p.degree
    if n < 1:
        raise ValueError("need a polynomial of degree at least 1")
    try:
        cf = np.array([float(c) for c in p.coeffs])
    except OverflowError:  # float() of a Fraction past double range
        cf = None
    if cf is None or not np.all(np.isfinite(cf)):
        raise ValueError("coefficients overflow double precision; reduce the degree")
    form = p._integer_form()
    if form is None:
        value, real = p, None
    else:
        ints, den = form
        slope = _derivative_lists(ints, 1)[1]

        def value(x: float) -> float:
            return _at_double(ints, den, x)

        def real(x: float) -> tuple[float, float]:
            return value(x), _at_double(slope, den, x)

    deriv = p.derivative()
    roots = [_polish(p, deriv, z, real) for z in _companion_eigenvalues(cf)]

    worst_imag = max(abs(z.imag) for z in roots)
    if worst_imag > 1e-8:
        raise NonRealRootError(f"root with imaginary part {worst_imag:.3e} after polishing")
    xs = sorted(z.real for z in roots)

    for a, b in zip(xs, xs[1:]):
        if b - a < 1e-10:
            raise NonSimpleRootError(f"roots {a!r} and {b!r} within 1e-10")

    for x in xs:
        scale = sum(abs(c) * abs(x) ** k for k, c in enumerate(cf))
        residual = abs(value(x))
        if residual > 1e-14 * max(1.0, scale):
            raise RootfindingError(f"|p({x})| = {residual:.3e} above 1e-14 * coefficient scale")

    if spec is not None:
        lo, hi = spec.hull()
        for x in xs:
            tol = 1e-9 * max(1.0, abs(x))
            if x < lo - tol or x > hi + tol:
                raise RootfindingError(
                    f"zero {x} outside the support hull [{lo}, {hi}] of {spec.label()}"
                )

    return NodeSet(xs, *_derivative_caches(p, xs), poly=p, spec=spec)
