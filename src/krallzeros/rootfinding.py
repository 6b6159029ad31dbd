"""Zeros of family members, with the derivative values the matrix formulas need.

zeros(p, spec) returns the correctly rounded zeros of p, the degree-N member
of spec: for each true zero, the double nearest it. The guesses are the
eigenvalues of the symmetric Jacobi matrix of the family's exact recurrence
(Golub & Welsch, Math. Comp. 23, 1969); each takes one Newton step; the
finish step keeps a double x if p changes sign between the midpoints to its
neighbours, its half-ulp bracket, and otherwise searches outward for a sign
change and bisects over the doubles. N disjoint brackets inside the support
hull, each with a sign change, prove that p has N real, simple zeros there
and that each returned double is the nearest one; no tolerance takes part.
A NodeSet carries the nodes; `NodeSet.derivatives` evaluates p', p'', p''' there.

Every exact evaluation at a double runs on integers. A rational member is
p = sum_k a_k x^k / d over one denominator (`Polynomial._integer_form`) and
a double is x = u / 2^e, so homogeneous Horner gives p(x) as one integer
over d 2^(e n), and one int / int true division rounds it (`_at_double`).
True division of ints is correctly rounded, so the double is float() of the
reduced Fraction, without the gcd. A float coefficient counts as the
rational it is, so every polynomial has this form. p', p'', p''' (from
the integer lists k a_k over the same d) take this path; the Newton step
divides the Horner integers of p and p' once, so p / p' is its only
double, and the sign of p at a midpoint is the sign of one Horner integer.
The one value table of exact members at dyadic nodes, `_value_numerators`,
lives here; the cells read it.

Some verification tasks (Gaussian exactness, inverting the basis-transition
matrix) are sensitive to node perturbations far beyond double precision:
for Laguerre-type node spreads a 1-ulp node error already shows up at the
1e-4 level in the high quadrature moments. NodeSet.refined() therefore
exposes the nodes re-polished in rational arithmetic to DEFAULT_REFINE_BITS
binary digits; the exact verification paths consume those.

zeros() keeps its last (p, spec) result, so a cell and its caller share one
immutable NodeSet, whose memo builds the refined nodes, the Christoffel
numbers, the float kernels and the closed-form matrices once per member.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .families import FamilySpec, Polynomial, common_denominator, family_record

#: Binary digits of node accuracy used by the exact verification paths.
DEFAULT_REFINE_BITS = 192


class RootfindingError(RuntimeError):
    """Root computation failed in a way that signals corrupted input."""


class NonSimpleRootError(RootfindingError):
    """Two roots collapsed: into touching half-ulp brackets, or given points closer than 1e-10."""


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
    """Sorted distinct real nodes of the polynomial `poly`; immutable.

    Built from the zeros of a polynomial (see zeros()) or from an explicit
    point list (from_points, which makes the monic node polynomial with
    exactly those roots). The constructor only stores; rebinding an
    attribute raises AttributeError.

    One memo, read through `cached`, keeps what is derived from the nodes:
    p', p'', p''' there (`derivatives`), the refined nodes, the Christoffel
    numbers per spec, the float kernels per leading coefficient and the
    closed-form matrices per (spec, formula, singular guard), built by
    `matrices`. What it hands out is a copy or read-only.
    """

    def __init__(self, nodes, poly: Polynomial, spec: Optional[FamilySpec] = None):
        vars(self).update(nodes=tuple(float(x) for x in nodes), poly=poly, spec=spec, _memo={})

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

    def derivatives(self) -> tuple[tuple[float, ...], ...]:
        """(p', p'', p''') at the nodes, each exact and rounded once, computed once; ValueError past double range."""
        return self.cached("derivatives", self._derivatives)

    def _derivatives(self) -> tuple[tuple[float, ...], ...]:
        (a, d), n = self.poly._integer_form(), self.poly.degree
        try:
            return tuple(tuple(_at_double(b, d, x) for x in self.nodes) for b in _derivative_lists(a, 3)[1:])
        except OverflowError:
            raise ValueError(f"p', p'' and p''' of the degree-{n} node polynomial overflow double precision") from None

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
        node_set.derivatives()  # refuses points where p', p'', p''' leave double range
        node_set.cached("refined", lambda: [Fraction(p) for p in pts])
        return node_set


def _jacobi_eigenvalues(spec: FamilySpec, n: int) -> np.ndarray:
    """Eigenvalues of the n x n Jacobi matrix of spec's recurrence: the zeros of p_n in doubles."""
    a, b = family_record(spec).recurrence(n)
    off = np.sqrt([float(v) for v in b[1:]])
    return np.linalg.eigvalsh(np.diag([float(v) for v in a]) + np.diag(off, 1) + np.diag(off, -1))


def _newton_step(a: Sequence[int], slope: Sequence[int], x: float) -> float:
    """x - p(x) / p'(x) at x = u / 2^e: A / (2^e B) for the Horner integers A, B of p, p' (slope), rounded once."""
    u, v = x.as_integer_ratio()
    e = v.bit_length() - 1
    big_b = _horner(slope, u, e)
    return x - _horner(a, u, e) / (v * big_b) if big_b else x


def _order(x: float) -> int:
    """x's place among the doubles: consecutive doubles get consecutive ints, and both zeros get 0."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -i - (1 << 63)


def _double(i: int) -> float:
    """The double at place i; the inverse of _order, with 0.0 at 0."""
    return struct.unpack("<d", struct.pack("<q", i if i >= 0 else -i - (1 << 63)))[0]


def _sign_above(a: Sequence[int], i: int) -> int:
    """The sign of p = sum_k a_k x^k / d (d > 0) halfway between the doubles at places i and i + 1, exact."""
    (u, v), (w, z) = _double(i).as_integer_ratio(), _double(i + 1).as_integer_ratio()
    top = max(v, z)  # v and z are powers of two, so the midpoint is (u top / v + w top / z) / (2 top)
    h = _horner(a, u * (top // v) + w * (top // z), top.bit_length())
    return (h > 0) - (h < 0)


def _finish(a: Sequence[int], x: float) -> float:
    """The double nearest the zero of p = sum_k a_k x^k / d that x approximates.

    x is kept when p changes sign across its half-ulp bracket or vanishes
    at an end. Otherwise p has one sign s at both ends: a probe doubles its
    distance from x on both sides until p is not s halfway above it, and a
    bisection over the places between finds the double whose bracket holds
    the change.
    """
    i = _order(x)
    s = _sign_above(a, i - 1)
    if s * _sign_above(a, i) <= 0:
        return _double(i)  # x, with -0.0 as 0.0
    step = math.ulp(x)
    while step < math.inf:
        for probe in (x - step, x + step):
            j = _order(probe)
            if abs(probe) < sys.float_info.max and _sign_above(a, j) != s:
                lo, hi = (j, i - 1) if probe < x else (i, j)
                lo_is_s = probe > x
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if (_sign_above(a, mid) == s) == lo_is_s:
                        lo = mid
                    else:
                        hi = mid
                return _double(hi)
        step *= 2
    raise RootfindingError(f"p keeps one sign on both sides of {x!r}")


@lru_cache(maxsize=1)
def zeros(p: Polynomial, spec: FamilySpec, /) -> NodeSet:
    """The zeros of p, spec's member of degree N >= 1: correctly rounded, ascending.

    Each zero's half-ulp bracket holds a sign change of p; no tolerance
    takes part. Brackets that touch raise NonSimpleRootError and a zero
    outside the support hull RootfindingError: corrupted coefficients, not
    a property of the families. ValueError: p is not spec's member. The
    last (p, spec) is kept, so a repeated call returns the same immutable
    NodeSet; a call that raised is not kept.
    """
    n = p.degree
    if n < 1 or family_record(spec).grow(n)[n] != p:
        raise ValueError(f"need the member of degree N >= 1 of {spec.label()}")
    a = p._integer_form()[0]
    slope = _derivative_lists(a, 1)[1]
    xs = sorted(_finish(a, _newton_step(a, slope, x)) for x in _jacobi_eigenvalues(spec, n))
    for x, y in zip(xs, xs[1:]):
        if y <= math.nextafter(x, math.inf):
            raise NonSimpleRootError(f"zeros {x!r} and {y!r} share a half-ulp bracket end")
    lo, hi = spec.hull()
    if xs[0] < lo or xs[-1] > hi:
        raise RootfindingError(f"zeros {xs[0]!r} .. {xs[-1]!r} outside the support hull [{lo}, {hi}] of {spec.label()}")
    return NodeSet(xs, p, spec)
