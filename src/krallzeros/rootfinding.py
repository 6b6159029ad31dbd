"""Zeros of family members, with the derivative values the matrix formulas need.

The zeros are located by the eigenvalues of the balanced companion matrix
and then polished by Newton iteration evaluated on the exact coefficients,
so each returned node is within about one ulp of a true zero of the given
polynomial. A NodeSet carries the nodes in double precision together with
cached values of p', p'', p''' there.

Some verification tasks (Gaussian exactness, inverting the basis-transition
matrix) are sensitive to node perturbations far beyond double precision:
for Laguerre-type node spreads a 1-ulp node error already shows up at the
1e-4 level in the high quadrature moments. NodeSet.refined() therefore
exposes the nodes re-polished in rational arithmetic to a requested number
of binary digits; the exact verification paths consume those.
"""

from __future__ import annotations

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


def _newton_refine(a: Sequence[int], x0: float, bits: int) -> Fraction:
    """Polish one root of p = sum_k a_k x^k / d in rational arithmetic to ~2^-bits accuracy.

    Iterates are rounded to the 2^-bits grid to keep operand sizes bounded;
    Newton doubles the correct digits per step, so a handful of steps from a
    double-precision start saturates the grid. On integers: at x = u / v,
    homogeneous Horner gives p(x) = A / (d v^n) and p'(x) = B / (d v^(n-1)),
    so the step is A / (v B) and one division rounds x - step onto the grid.
    """
    n, grid = len(a) - 1, 1 << bits
    u, v = x0.as_integer_ratio()
    for _ in range(12):
        big_a, big_b, vk = a[n], n * a[n], 1
        for k in range(n - 1, 0, -1):
            vk *= v
            big_a, big_b = big_a * u + a[k] * vk, big_b * u + k * a[k] * vk
        big_a = big_a * u + a[0] * vk * v
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
    """

    def __init__(self, nodes, d1, d2, d3, poly: Polynomial, spec: Optional[FamilySpec] = None):
        self.nodes = tuple(float(x) for x in nodes)
        self.d1 = tuple(float(v) for v in d1)
        self.d2 = tuple(float(v) for v in d2)
        self.d3 = tuple(float(v) for v in d3)
        self.poly = poly
        self.spec = spec
        self._refined: dict[int, list[Fraction]] = {}
        self._christoffel: dict[tuple, list[Fraction]] = {}  # per (spec, bits), see matrices.christoffel_numbers

    @property
    def size(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        fam = self.spec.label() if self.spec is not None else "custom"
        return f"NodeSet(n={len(self.nodes)}, {fam})"

    def as_array(self) -> np.ndarray:
        return np.array(self.nodes)

    def refined(self, bits: int = DEFAULT_REFINE_BITS) -> list[Fraction]:
        """Nodes as rationals accurate to ~2^-bits (cached per bit count)."""
        if bits not in self._refined:
            # float coefficients refine against their exact rationalization
            a = common_denominator([Fraction(c) for c in self.poly.coeffs])[0]
            self._refined[bits] = [_newton_refine(a, x, bits) for x in self.nodes]
        return self._refined[bits]

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
        node_set._refined[DEFAULT_REFINE_BITS] = [Fraction(p) for p in pts]
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
    """p', p'', p''' at each node, evaluated exactly and rounded once."""
    derivs = [poly.derivative(k) for k in (1, 2, 3)]
    if poly.mode == "rational":
        return tuple(tuple(float(d(Fraction(x))) for x in xs) for d in derivs)
    return tuple(tuple(d(x) for x in xs) for d in derivs)


def _companion_eigenvalues(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs) - 1
    monic = coeffs / coeffs[-1]
    comp = np.zeros((n, n))
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    return np.linalg.eigvals(comp)


def _polish(poly: Polynomial, deriv: Polynomial, z: complex) -> complex:
    """Newton from a companion-matrix guess, deriv = poly'; exact evaluation when possible."""
    exact = poly.mode == "rational"
    x = z
    for _ in range(60):
        if exact and x.imag == 0.0:
            xq = Fraction(x.real)
            fx, dfx = float(poly(xq)), float(deriv(xq))
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


def zeros(p: Polynomial, spec: Optional[FamilySpec] = None) -> NodeSet:
    """All N zeros of p, polished, sorted ascending, with derivative caches.

    Raises NonRealRootError if any root keeps |imag| > 1e-8 after polishing
    and NonSimpleRootError if two roots come within 1e-10 of each other;
    both signal corrupted coefficients or exhausted precision rather than a
    property of the supported families. When a family spec is passed, the
    nodes are also checked against the convex hull of its measure support.
    """
    n = p.degree
    if n < 1:
        raise ValueError("need a polynomial of degree at least 1")
    cf = np.array([float(c) for c in p.coeffs])
    if not np.all(np.isfinite(cf)):
        raise ValueError("coefficients overflow double precision; reduce the degree")
    deriv = p.derivative()
    roots = [_polish(p, deriv, z) for z in _companion_eigenvalues(cf)]

    worst_imag = max(abs(z.imag) for z in roots)
    if worst_imag > 1e-8:
        raise NonRealRootError(f"root with imaginary part {worst_imag:.3e} after polishing")
    xs = sorted(z.real for z in roots)

    for a, b in zip(xs, xs[1:]):
        if b - a < 1e-10:
            raise NonSimpleRootError(f"roots {a!r} and {b!r} within 1e-10")

    for x in xs:
        scale = sum(abs(c) * abs(x) ** k for k, c in enumerate(cf))
        residual = abs(p(Fraction(x))) if p.mode == "rational" else abs(p(x))
        if float(residual) > 1e-14 * max(1.0, scale):
            raise RootfindingError(
                f"|p({x})| = {float(residual):.3e} above 1e-14 * coefficient scale"
            )

    if spec is not None:
        lo, hi = spec.hull()
        for x in xs:
            tol = 1e-9 * max(1.0, abs(x))
            if x < lo - tol or x > hi + tol:
                raise RootfindingError(
                    f"zero {x} outside the support hull [{lo}, {hi}] of {spec.label()}"
                )

    return NodeSet(xs, *_derivative_caches(p, xs), poly=p, spec=spec)
