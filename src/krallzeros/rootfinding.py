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
reduced Fraction, without the gcd. A float coefficient counts as the
rational it is, so every polynomial has this form. The real Newton steps,
the residual gate and p', p'', p''' (from the integer lists k a_k over the
same d) take this path; only complex Newton iterates take the plain Horner
loop. The one value table of exact members at dyadic nodes,
`_value_numerators`, lives here; the cells and the transition pair read it.

Some verification tasks (Gaussian exactness, inverting the basis-transition
matrix) are sensitive to node perturbations far beyond double precision:
for Laguerre-type node spreads a 1-ulp node error already shows up at the
1e-4 level in the high quadrature moments. NodeSet.refined() therefore
exposes the nodes re-polished in rational arithmetic to DEFAULT_REFINE_BITS
binary digits; the exact verification paths consume those.

zeros() keeps its last (p, spec) result. A repeated call, such as the one a
cell makes after the caller found the same zeros, returns the same
immutable NodeSet, whose memo builds the refined nodes, the Christoffel
numbers, the float kernels and the closed-form matrices once for the zeros
of one member.
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


def _horner(a: Sequence[int], u: int, e: int) -> int:
    """sum_k a_k u^k 2^(e (n - k)), n = len(a) - 1: 2^(e n) times the value at u / 2^e, on integers."""
    acc = shift = 0
    for c in reversed(a):
        acc = acc * u + (c << shift)
        shift += e
    return acc


def _value_numerators(members: Sequence[Polynomial], xq: Sequence[Fraction]) -> list[tuple[list[int], int]]:
    """p_m(x_k) = A_mk / (d_m D^m): members a / d_m at dyadic nodes u_k / D, D = 2^E, on integers."""
    u, big_d = common_denominator(xq)
    e = big_d.bit_length() - 1
    out = []
    for p in members:
        a, d = p._integer_form()
        out.append(([_horner(a, uk, e) for uk in u], d << e * p.degree))
    return out


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
    """Sorted distinct real nodes with p', p'', p''' there (d1, d2, d3); immutable.

    Built from the zeros of a polynomial (see zeros()) or from an explicit
    point list (from_points, which makes the monic node polynomial with
    exactly those roots); the constructor derives d1, d2, d3 from the
    integer form of `poly`, which high-precision refinement also reads.
    Rebinding an attribute raises AttributeError.

    One memo, read through `cached`, keeps what is derived from the nodes:
    the refined nodes, the Christoffel numbers per spec, the float kernels
    per leading coefficient and the closed-form matrices per (spec, formula,
    singular guard), built by `matrices`. What it hands out is a copy or
    read-only.
    """

    def __init__(self, nodes, poly: Polynomial, spec: Optional[FamilySpec] = None):
        nodes = tuple(float(x) for x in nodes)
        try:
            d1, d2, d3 = _derivative_caches(poly, nodes)
        except OverflowError:
            raise ValueError("the node polynomial's derivatives at these points overflow double precision") from None
        vars(self).update(nodes=nodes, d1=d1, d2=d2, d3=d3, poly=poly, spec=spec, _memo={})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"NodeSet is immutable; {name!r} cannot be rebound")

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        fam = self.spec.label() if self.spec is not None else "custom"
        return f"NodeSet(n={len(self.nodes)}, {fam})"

    def as_array(self) -> np.ndarray:
        return np.array(self.nodes)

    def cached(self, key, build):
        """The value kept under key, made by build() on first use; a build that raises keeps nothing."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def refined(self) -> list[Fraction]:
        """Nodes as rationals accurate to ~2^-DEFAULT_REFINE_BITS, computed once; each call returns a new list."""
        return list(self.cached("refined", self._refine))

    def _refine(self) -> list[Fraction]:
        a = self.poly._integer_form()[0]
        return [_newton_refine(a, x, DEFAULT_REFINE_BITS) for x in self.nodes]

    @classmethod
    def from_points(cls, points: Sequence[float]) -> "NodeSet":
        """NodeSet on arbitrary distinct points, with the monic node polynomial.

        With x_i = u_i / D on integers, p = D^-N prod(D x - u_i). The points
        are its exact roots, so they are the refined nodes as they stand.
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
        node_set = cls(pts, Polynomial([Fraction(c, big_d ** (n - k)) for k, c in enumerate(q)]))
        node_set.cached("refined", lambda: [Fraction(p) for p in pts])
        return node_set


def _derivative_caches(poly: Polynomial, xs: Sequence[float]):
    """p', p'', p''' at each node, exact and rounded once."""
    a, d = poly._integer_form()
    return tuple(tuple(_at_double(b, d, x) for x in xs) for b in _derivative_lists(a, 3)[1:])


def _companion_eigenvalues(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs) - 1
    monic = coeffs / coeffs[-1]
    comp = np.zeros((n, n))
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    return np.linalg.eigvals(comp)


def _polish(poly: Polynomial, deriv: Polynomial, z: complex, real) -> complex:
    """Newton from a companion-matrix guess, deriv = poly'.

    real(x) returns p(x) and p'(x) at a real double x, evaluated exactly;
    complex iterates take the plain loop.
    """
    x = z
    for _ in range(60):
        if x.imag == 0.0:
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
    roots: it returns the same NodeSet, which is immutable. A call that
    raised is not kept.
    """
    for q, s, found in _last_zeros:
        if q == p and s == spec:
            return found
    found = _zeros(p, spec)
    _last_zeros[:] = [(p, spec, found)]
    return found


def _zeros(p: Polynomial, spec: Optional[FamilySpec]) -> NodeSet:
    n = p.degree
    if n < 1:
        raise ValueError("need a polynomial of degree at least 1")
    try:
        cf = np.array([float(c) for c in p.coeffs])
    except OverflowError:  # float() of a Fraction past double range
        cf = None
    if cf is None or not np.all(np.isfinite(cf)):
        raise ValueError(f"the degree-{n} member's coefficients overflow double precision")
    ints, den = p._integer_form()
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

    return NodeSet(xs, p, spec)
