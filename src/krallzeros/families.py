"""Orthogonal polynomial families, their measures and differential operators.

Six families are implemented. Three are classical (Hermite, generalized
Laguerre, Jacobi), orthogonal for an absolutely continuous weight and
eigenfunctions of a second order operator sigma*d2 + tau*d1. Three are of
Krall type (krall-legendre, krall-laguerre, krall-jacobi): their measures
add Dirac point masses to a classical-style weight and the polynomials are
eigenfunctions of a fourth order operator a4*d4 + a3*d3 + a2*d2 + a1*d1.

Everything here is exact over `fractions.Fraction` when the family
parameters are rational: coefficient tables, moments, inner products,
operator coefficients and eigenvalues. Float consumers round each exact
coefficient once (`Polynomial.to_float`), so no degree loses accuracy to
the rounding. The measure is integrated in one place, `moment_table`, whose
integer moments `integral` sums coefficients against. What depends on the
spec alone, the members, moments, recurrence, eigenvalues and operator,
lives in one `FamilyRecord` per spec, extended on demand, and the squared
norms are read off the recurrence; `family_record` keeps the last spec's.

Measure normalization: the Krall measures are used exactly as defined
(their point masses are pinned by the family parameters). The classical
weights are rescaled by a positive constant so that the zeroth moment is 1;
this removes sqrt(pi) and Gamma factors, keeps the tables exact for any
rational parameters, and changes nothing that is verified downstream
(orthogonality, eigenvalue relations and quadrature are all checked against
the same moment sequence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul
from typing import Optional, Sequence, Union

Scalar = Union[int, float, Fraction]

CLASSICAL_FAMILIES = ("hermite", "laguerre", "jacobi")
KRALL_FAMILIES = ("krall-legendre", "krall-laguerre", "krall-jacobi")
FAMILIES = CLASSICAL_FAMILIES + KRALL_FAMILIES


class ParameterError(ValueError):
    """Family parameter outside its admissible range."""


def common_denominator(values: Sequence[Union[int, Fraction]]) -> tuple[list[int], int]:
    """Integers a_i and the least d > 0 with values[i] == a_i / d.

    Sums and products of the values can then run on plain ints and be
    reduced once at the end, or never: int / int true division is correctly
    rounded, so it gives the same double as float() of the reduced Fraction.
    """
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _pochhammer(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense polynomial in the monomial basis; coeffs[k] multiplies x**k.

    The scalar type of the coefficients decides the arithmetic: Fraction
    (or int) coefficients give exact results, float coefficients double
    precision; `_integer_form` reads a float as the rational it is.
    Trailing zeros are trimmed so the top coefficient of a nonzero
    polynomial is nonzero; the zero polynomial has no coefficients, degree -1.
    """

    __slots__ = ("coeffs", "_scaled")

    def __init__(self, coeffs: Sequence[Scalar]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self._scaled = None  # see _integer_form

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "Polynomial":
        c = self.coeffs
        for _ in range(order):
            c = tuple(c[k] * k for k in range(1, len(c)))
        return Polynomial(c)

    @classmethod
    def over(cls, a: Sequence[int], d: int) -> "Polynomial":
        """sum_k a_k x^k / d for integers a_k and d > 0, its integer form reduced by one gcd."""
        p = cls([Fraction(c, d) for c in a])
        g = math.gcd(d, *a)
        p._scaled = [c // g for c in a[: len(p.coeffs)]], d // g
        return p

    def _integer_form(self) -> tuple[list[int], int]:
        """(a, d) with coeffs[k] == a[k] / d, computed once; a float coefficient counts as the rational it is."""
        if self._scaled is None:
            self._scaled = common_denominator([Fraction(c) if isinstance(c, float) else c for c in self.coeffs])
        return self._scaled

    def __call__(self, x):
        """Horner evaluation; exact at a Fraction x, whatever the coefficients.

        A Fraction x = u / v on the integer form a_k / d runs on integers,
        as homogeneous Horner for sum_k a_k u^k v^(n-k), and makes one
        Fraction over d v^n at the end. Other arguments (int, float,
        complex) take the plain loop, which keeps their result type.
        """
        if not isinstance(x, Fraction):
            acc = 0 * x
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        a, d = self._integer_form()
        if not a:
            return Fraction(0)
        u, v = x.numerator, x.denominator
        acc, vn = a[-1], 1
        for c in reversed(a[:-1]):
            vn *= v
            acc = acc * u + c * vn
        return Fraction(acc, d * vn)

    def to_float(self) -> "Polynomial":
        return Polynomial([float(c) for c in self.coeffs])


# ---------------------------------------------------------------------------
# family specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus its parameters, held as exact rationals.

    alpha is the main parameter (all families except Hermite); beta is the
    second Jacobi exponent for the classical Jacobi family; mass is the
    point-mass parameter M of the krall-jacobi family.
    """

    family: str
    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    mass: Optional[Fraction] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("alpha", "beta", "mass"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, Fraction(v))
        self._validate()

    def _validate(self):
        fam, a, b, m = self.family, self.alpha, self.beta, self.mass
        if fam == "hermite":
            if a is not None or b is not None or m is not None:
                raise ParameterError("hermite takes no parameters")
            return
        if a is None:
            raise ParameterError(f"{fam} requires alpha")
        if fam == "laguerre" and a <= -1:
            raise ParameterError("laguerre requires alpha > -1")
        if fam == "jacobi":
            if b is None:
                raise ParameterError("jacobi requires beta")
            if a <= -1 or b <= -1:
                raise ParameterError("jacobi requires alpha > -1 and beta > -1")
        if fam in ("krall-legendre", "krall-laguerre") and a <= 0:
            raise ParameterError(f"{fam} requires alpha > 0")
        if fam == "krall-jacobi":
            if a <= -1:
                raise ParameterError("krall-jacobi requires alpha > -1")
            if m is None or m <= 0:
                raise ParameterError("krall-jacobi requires mass M > 0")
        if fam != "jacobi" and b is not None:
            raise ParameterError(f"{fam} does not take beta")
        if fam != "krall-jacobi" and m is not None:
            raise ParameterError(f"{fam} does not take mass")

    @property
    def is_krall(self) -> bool:
        return self.family in KRALL_FAMILIES

    def hull(self) -> tuple[float, float]:
        """Convex hull of the measure support; zeros of every member lie inside."""
        return {
            "hermite": (-math.inf, math.inf),
            "laguerre": (0.0, math.inf),
            "jacobi": (-1.0, 1.0),
            "krall-legendre": (-1.0, 1.0),
            "krall-laguerre": (0.0, math.inf),
            "krall-jacobi": (0.0, 1.0),
        }[self.family]

    def params(self) -> dict[str, Fraction]:
        out = {}
        for name in ("alpha", "beta", "mass"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out

    def label(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.family}({ps})" if ps else self.family


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def moment(spec: FamilySpec, k: int) -> Fraction:
    """k-th moment of the family measure, exact.

    Closed forms: the Krall measures combine the continuous part with the
    point masses (which only contribute at k = 0 except for krall-legendre,
    whose unit jumps at -1 and 1 add 1 to every even moment). Classical
    moments are those of the unit-mass rescaled weights.
    """
    if k < 0:
        raise ValueError("moment index must be nonnegative")
    fam = spec.family
    if fam == "krall-legendre":
        m = Fraction(1) + spec.alpha / (k + 1) if k % 2 == 0 else Fraction(0)
    elif fam == "krall-laguerre":
        m = Fraction(math.factorial(k))
        if k == 0:
            m += 1 / spec.alpha
    elif fam == "krall-jacobi":
        # Beta(k+1, alpha+1) with the Gamma factors telescoped, so this is
        # rational for every rational alpha > -1.
        m = Fraction(math.factorial(k)) / _pochhammer(spec.alpha + 1, k + 1)
        if k == 0:
            m += 1 / spec.mass
    elif fam == "hermite":
        m = Fraction(math.factorial(k), 4 ** (k // 2) * math.factorial(k // 2)) if k % 2 == 0 else Fraction(0)
    elif fam == "laguerre":
        m = _pochhammer(spec.alpha + 1, k)
    else:  # jacobi: x = 2u - 1 with u Beta(beta+1, alpha+1) distributed
        a, b = spec.alpha, spec.beta
        m = Fraction(0)
        eu = Fraction(1)
        for j in range(k + 1):
            m += Fraction(math.comb(k, j) * (-1) ** (k - j) * 2**j) * eu
            eu *= (b + 1 + j) / (a + b + 2 + j)
    return m


MomentTable = tuple[list[int], int]


def moment_table(spec: FamilySpec, top: int) -> MomentTable:
    """(M, mu) with m_k == M_k / mu for k = 0..top: the moments as integers over one denominator.

    This is the one place the measure is integrated. Inner products, squared
    norms and the spectral matrix sum integer coefficients against it
    (`integral`), the Lagrange-basis integrals of a node set build their
    second-kind polynomials on it, and the Gaussian moment residuals compare
    against its entries. The moments come from the spec's record, which
    builds each one once, in order, by `_next_moment`.
    """
    return common_denominator(family_record(spec).moments_through(top))


def _next_moment(spec: FamilySpec, k: int, m: Sequence[Fraction]) -> Fraction:
    """m_k from m_0..m_(k-1), equal to moment(spec, k).

    From k = 2 on, the point masses are behind and the moments are running
    products: (alpha + 1)_k for laguerre, k! for krall-laguerre,
    k! / (alpha + 1)_(k+1) for krall-jacobi and (k - 1)!! / 2^(k/2) for
    even hermite k; jacobi follows its three-term recurrence
    (k + 1 + alpha + beta) m_k = (beta - alpha) m_(k-1) + (k - 1) m_(k-2).
    """
    fam, a = spec.family, spec.alpha
    if k < 2 or fam == "krall-legendre":
        return moment(spec, k)
    if fam == "laguerre":
        return m[k - 1] * (a + k)
    if fam == "krall-laguerre":
        return m[k - 1] * k
    if fam == "krall-jacobi":
        return m[k - 1] * k / (a + k + 1)
    if fam == "hermite":
        return m[k - 2] * (k - 1) / 2
    b = spec.beta
    return ((b - a) * m[k - 1] + (k - 1) * m[k - 2]) / (k + 1 + a + b)


def integral(c: Sequence[int], d: int, table: MomentTable) -> Fraction:
    """Integral of sum_k c_k x^k / d against the measure: sum_k c_k M_k / (d mu).

    The table must reach degree len(c) - 1.
    """
    moments, mu = table
    return Fraction(sum(map(mul, c, moments)), d * mu)


def pairing(p: Polynomial, q: Polynomial, table: MomentTable) -> Fraction:
    """<p, q> for rational p = a / d and q = b / e: the integral of the integer product a b over d e."""
    (a, d), (b, e) = p._integer_form(), q._integer_form()
    return integral((Polynomial(a) * Polynomial(b)).coeffs, d * e, table)


def inner_product(p: Polynomial, q: Polynomial, spec: FamilySpec) -> Fraction:
    """<p, q> against the family measure, for polynomials with rational coefficients."""
    return pairing(p, q, moment_table(spec, p.degree + q.degree))


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def _coeffs_krall_legendre(nu: int, alpha: Fraction) -> tuple[list[int], int]:
    # alpha = p / q, over d = 2^(nu + 1) q: (2 nu - 2k)! / (k! (nu - k)! (nu - 2k)!) = C(2 nu - 2k, nu) C(nu, k)
    p, q = alpha.as_integer_ratio()
    a = [0] * (nu + 1)
    for k in range(nu // 2 + 1):
        binomials = math.comb(2 * nu - 2 * k, nu) * math.comb(nu, k)
        a[nu - 2 * k] = (-1) ** k * binomials * (2 * p + q * (nu * (nu - 1) + 4 * k))
    return a, 2 ** (nu + 1) * q


def _coeffs_krall_laguerre(nu: int, alpha: Fraction) -> tuple[list[int], int]:
    # alpha = p / q, over d = q (nu + 1)!
    p, q = alpha.as_integer_ratio()
    # falls[k] = (nu + 1)! / (k + 1)!
    falls = list(accumulate(range(nu + 1, 1, -1), mul, initial=1))[::-1]
    a = [(-1) ** k * math.comb(nu, k) * (k * (p + (nu + 1) * q) + p) * falls[k] for k in range(nu + 1)]
    return a, q * math.factorial(nu + 1)


def _coeffs_krall_jacobi(nu: int, alpha: Fraction, mass: Fraction) -> tuple[list[int], int]:
    # alpha = p / q and M = r / s, over d = (nu + 1)! q^(nu + 1) s;
    # (alpha + 1)_(nu + k) / (alpha + 1)_nu = rises[k] / q^k
    p, q = alpha.as_integer_ratio()
    r, s = mass.as_integer_ratio()
    rises = accumulate((p + (nu + 1 + i) * q for i in range(nu)), mul, initial=1)
    falls = list(accumulate(range(nu + 1, 1, -1), mul, initial=1))[::-1]  # (nu + 1)! / (k + 1)!
    a = [
        (-1) ** (nu - k) * math.comb(nu, k) * falls[k] * q ** (nu - k) * rise
        * (k * (nu * q + p) * (nu + 1) * s + (k + 1) * r * q)
        for k, rise in enumerate(rises)
    ]
    return a, math.factorial(nu + 1) * q ** (nu + 1) * s


def _coeffs_hermite(nu: int) -> tuple[list[int], int]:
    # integers: nu! / (k! (nu - 2k)!) = C(nu, 2k) (2k)! / k!
    a = [0] * (nu + 1)
    for k in range(nu // 2 + 1):
        a[nu - 2 * k] = (-1) ** k * 2 ** (nu - 2 * k) * math.comb(nu, 2 * k) * math.factorial(2 * k) // math.factorial(k)
    return a, 1


def _coeffs_laguerre(nu: int, alpha: Fraction) -> tuple[list[int], int]:
    # alpha + 1 = p / q, over d = q^nu nu!; falls[k] / q^(nu - k) = (alpha + k + 1)_(nu - k)
    p, q = (alpha + 1).as_integer_ratio()
    falls = list(accumulate((p + k * q for k in range(nu - 1, -1, -1)), mul, initial=1))[::-1]
    a = [(-1) ** k * f * q**k * math.comb(nu, k) for k, f in enumerate(falls)]
    return a, q**nu * math.factorial(nu)


def _coeffs_jacobi(nu: int, alpha: Fraction, beta: Fraction) -> tuple[list[int], int]:
    # on integers, with alpha + 1 = p / q and alpha + beta + nu + 1 = g / h, over d = (2 q h)^nu nu!
    p, q = (alpha + 1).as_integer_ratio()
    g, h = (alpha + beta + nu + 1).as_integer_ratio()
    # falls[s] / q^(nu - s) = (alpha + s + 1)_(nu - s) and rises[s] / h^s = (alpha + beta + nu + 1)_s
    falls = list(accumulate((p + s * q for s in range(nu - 1, -1, -1)), mul, initial=1))[::-1]
    rises = accumulate((g + s * h for s in range(nu)), mul, initial=1)
    # a[s] / d multiplies ((x - 1) / 2)^s
    a = [f * r * q**s * h ** (nu - s) * 2 ** (nu - s) * math.comb(nu, s) for s, (f, r) in enumerate(zip(falls, rises))]
    d = (2 * q * h) ** nu * math.factorial(nu)
    return [sum(a[s] * math.comb(s, t) * (-1) ** (s - t) for s in range(t, nu + 1)) for t in range(nu + 1)], d


def _coeffs(spec: FamilySpec, nu: int) -> tuple[list[int], int]:
    """Coefficients a_k / d of the degree-nu member as (a, d), integers over one denominator."""
    fam = spec.family
    if fam == "krall-legendre":
        return _coeffs_krall_legendre(nu, spec.alpha)
    if fam == "krall-laguerre":
        return _coeffs_krall_laguerre(nu, spec.alpha)
    if fam == "krall-jacobi":
        return _coeffs_krall_jacobi(nu, spec.alpha, spec.mass)
    if fam == "hermite":
        return _coeffs_hermite(nu)
    if fam == "laguerre":
        return _coeffs_laguerre(nu, spec.alpha)
    return _coeffs_jacobi(nu, spec.alpha, spec.beta)


class FamilyRecord:
    """One spec's members, moments, eigenvalues `mus`, recurrence `a`, `b` and operator `op` (`op_float` in doubles).

    With p_n = lead_n (x^n + s_n x^(n-1) + t_n x^(n-2) + ...), the monic
    members follow q_(n+1) = (x - a_n) q_n - b_n q_(n-1) with
    a_n = s_n - s_(n+1), b_n = t_n - t_(n+1) - a_n s_n and b_0 = m_0, and
    ||p_n||^2 = lead_n^2 b_0 ... b_n (Gautschi, Orthogonal Polynomials, 2004,
    section 1.3), which `squared_norms` derives on each call. The lists only grow.
    """

    def __init__(self, spec: FamilySpec):
        self.spec, self.op = spec, operator_of(spec)
        self.members, self.moments, self.mus, self.a, self.b = [], [], [], [], []

    @cached_property
    def op_float(self) -> DiffOperator:
        return self.op.to_float()

    def eigenvalues_float(self, n: int) -> list[float]:
        """mu_0 .. mu_(n-1) in doubles, each rounded once; ValueError names the first past double range."""
        out = []
        for m, mu in enumerate(self.eigenvalues(n)):
            try:
                out.append(float(mu))
            except OverflowError:
                raise ValueError(f"the eigenvalue mu_{m} of the degree-{m} member overflows double precision") from None
        return out

    def grow(self, degree: int) -> list[Polynomial]:
        """The members through degree; a member that raises leaves the valid prefix kept."""
        for nu in range(len(self.members), degree + 1):
            p = Polynomial.over(*_coeffs(self.spec, nu))
            if p.degree != nu:
                raise ParameterError(
                    f"{self.spec.label()}: member of degree {nu} degenerates (leading coefficient vanishes)"
                )
            self.members.append(p)
        return self.members

    def moments_through(self, top: int) -> list[Fraction]:
        for k in range(len(self.moments), top + 1):
            self.moments.append(_next_moment(self.spec, k, self.moments))
        return self.moments[: top + 1]

    def eigenvalues(self, n: int) -> list[Fraction]:
        self.mus.extend(eigenvalue(self.spec, m) for m in range(len(self.mus), n))
        return self.mus[:n]

    def recurrence(self, n: int) -> tuple[list[Fraction], list[Fraction]]:
        """(a_0 .. a_(n-1), b_0 .. b_(n-1)); b_(n-1) reads p_n."""
        members = self.grow(n)
        for k in range(len(self.a), n):
            (s, t), (s1, t1) = _monic_ratios(members[k]), _monic_ratios(members[k + 1])
            self.a.append(s - s1)
            self.b.append(t - t1 - self.a[k] * s if k else self.moments_through(0)[0])
        return self.a[:n], self.b[:n]

    def squared_norms(self, n: int) -> list[Fraction]:
        """||p_0||^2 .. ||p_(n-1)||^2, each lead_k^2 times the monic norm b_0 ... b_k."""
        b = self.recurrence(n)[1]
        return [p.coeffs[-1] ** 2 * q for p, q in zip(self.members, accumulate(b, mul))]


def _monic_ratios(p: Polynomial) -> tuple[Fraction, Fraction]:
    """(s, t) of p = lead (x^n + s x^(n-1) + t x^(n-2) + ...) from its integer form; 0 for a missing term."""
    *_, t, s, lead = 0, 0, *p._integer_form()[0]
    return Fraction(s, lead), Fraction(t, lead)


@lru_cache(maxsize=1)
def family_record(spec: FamilySpec, /) -> FamilyRecord:
    """The record of spec: the one last returned when spec repeats, else a new one."""
    return FamilyRecord(spec)


def build_family(spec: FamilySpec, max_degree: int) -> list[Polynomial]:
    """Members of degree 0 .. max_degree of the family, exact.

    They come from the spec's record, so a call on the last spec builds
    only the degrees above the ones it has, and a cell's family and its
    lower-degree prefixes are built once. Every call returns a new list
    over the shared members, which are immutable.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    return family_record(spec).grow(max_degree)[: max_degree + 1]


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffOperator:
    """Linear differential operator sum_j a_j(x) d^j/dx^j.

    terms maps each derivative order j >= 0 to its coefficient polynomial.
    Requiring deg a_j <= j keeps every polynomial space P^nu invariant,
    which is what all the matrix representations rely on.
    """

    terms: tuple[tuple[int, Polynomial], ...]

    def __post_init__(self):
        seen = set()
        for order, a in self.terms:
            if order < 0:
                raise ValueError("derivative order must be nonnegative")
            if order in seen:
                raise ValueError(f"duplicate term of order {order}")
            seen.add(order)
            if a.degree > order:
                raise ValueError(
                    f"coefficient of d^{order} has degree {a.degree} > {order}; "
                    "operator would raise polynomial degrees"
                )

    @property
    def max_order(self) -> int:
        return max((o for o, _ in self.terms), default=0)

    def coefficient(self, order: int) -> Polynomial:
        for o, a in self.terms:
            if o == order:
                return a
        return Polynomial(())

    def apply(self, p: Polynomial) -> Polynomial:
        out = Polynomial(())
        for order, a in self.terms:
            out = out + a * p.derivative(order)
        return out

    def to_float(self) -> "DiffOperator":
        return DiffOperator(tuple((o, a.to_float()) for o, a in self.terms))


def operator_of(spec: FamilySpec) -> DiffOperator:
    """The differential operator whose eigenfunctions are the family members.

    Krall families get the expanded fourth order coefficients; classical
    families the usual sigma/tau pair.
    """
    a = spec.alpha
    if spec.family == "krall-legendre":
        terms = (
            (4, Polynomial([1, 0, -2, 0, 1])),
            (3, Polynomial([0, -8, 0, 8])),
            (2, Polynomial([-4 * (a + 3), 0, 4 * (a + 3)])),
            (1, Polynomial([0, 8 * a])),
        )
    elif spec.family == "krall-laguerre":
        terms = (
            (4, Polynomial([0, 0, 1])),
            (3, Polynomial([0, 4, -2])),
            (2, Polynomial([0, -2 * (a + 3), 1])),
            (1, Polynomial([-2 * a, 2 * (a + 1)])),
        )
    elif spec.family == "krall-jacobi":
        m = spec.mass
        terms = (
            (4, Polynomial([0, 0, 1, -2, 1])),
            (3, Polynomial([0, 4, -2 * (a + 6), 2 * (a + 4)])),
            (2, Polynomial([0, -2 * (3 * a + m + 6), a * a + 9 * a + 2 * m + 14])),
            (1, Polynomial([-2 * m, 2 * (a + 2) * (a + m + 1)])),
        )
    elif spec.family == "hermite":
        terms = ((2, Polynomial([Fraction(1)])), (1, Polynomial([Fraction(0), Fraction(-2)])))
    elif spec.family == "laguerre":
        terms = ((2, Polynomial([Fraction(0), Fraction(1)])), (1, Polynomial([a + 1, Fraction(-1)])))
    else:
        b = spec.beta
        terms = ((2, Polynomial([Fraction(1), Fraction(0), Fraction(-1)])), (1, Polynomial([b - a, -(a + b + 2)])))
    return DiffOperator(terms)


def eigenvalue(spec: FamilySpec, nu: int) -> Fraction:
    """Eigenvalue of operator_of(spec) on the degree-nu member; exact."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    a = spec.alpha
    if spec.family == "krall-legendre":
        return nu * (1 + nu) * (-2 + 4 * a + nu + nu * nu)
    if spec.family == "krall-laguerre":
        return nu * (2 * a + 1 + nu)
    if spec.family == "krall-jacobi":
        return nu * (nu + a + 1) * (2 * spec.mass + (nu + 1) * (nu + a))
    # nu (tau' + (nu - 1) sigma'' / 2) for the classical sigma, tau
    if spec.family == "jacobi":
        return -nu * (nu + a + spec.beta + 1)
    return Fraction(-2 * nu if spec.family == "hermite" else -nu)
