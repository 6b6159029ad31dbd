"""Orthogonal polynomial families, their measures and differential operators.

Six families are implemented. Three are classical (Hermite, generalized
Laguerre, Jacobi), orthogonal for an absolutely continuous weight and
eigenfunctions of a second order operator sigma*d2 + tau*d1. Three are of
Krall type (krall-legendre, krall-laguerre, krall-jacobi): their measures
add Dirac point masses to a classical-style weight and the polynomials are
eigenfunctions of a fourth order operator a4*d4 + a3*d3 + a2*d2 + a1*d1.

Everything here is exact over `fractions.Fraction` when the family
parameters are rational: coefficient tables, moments, inner products,
operator coefficients and eigenvalues. Float mode evaluates the same
closed forms in double precision and is capped at a configurable degree,
since the explicit coefficient formulas grow factorially.

Measure normalization: the Krall measures are used exactly as defined
(their point masses are pinned by the family parameters). The classical
weights are rescaled by a positive constant so that the zeroth moment is 1;
this removes sqrt(pi) and Gamma factors, keeps rational mode exact for any
rational parameters, and changes nothing that is verified downstream
(orthogonality, eigenvalue relations and quadrature are all checked against
the same moment sequence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Optional, Sequence, Union

Scalar = Union[int, float, Fraction]

CLASSICAL_FAMILIES = ("hermite", "laguerre", "jacobi")
KRALL_FAMILIES = ("krall-legendre", "krall-laguerre", "krall-jacobi")
FAMILIES = CLASSICAL_FAMILIES + KRALL_FAMILIES

#: Above this degree the double-precision coefficient formulas start losing
#: accuracy to factorial growth; callers must override explicitly.
DEFAULT_DEGREE_CAP = 25


class ParameterError(ValueError):
    """Family parameter outside its admissible range."""


class DegreeCapError(ValueError):
    """Float-mode construction above the degree cap without an override."""


def as_fraction(value: Scalar | str) -> Fraction:
    """Coerce a number (or a string like '1/2' or '0.25') to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(value)


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
    (or int) coefficients give exact results, float coefficients give
    double precision. Trailing zeros are trimmed so the top coefficient of
    a nonzero polynomial is nonzero; the zero polynomial has no
    coefficients and degree -1.
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

    @property
    def mode(self) -> str:
        if any(isinstance(c, float) for c in self.coeffs):
            return "float"
        return "rational"

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

    def _integer_form(self):
        """(a, d) with coeffs[k] == a[k] / d, computed once; None unless every coefficient is rational."""
        if self._scaled is None:
            rational = all(isinstance(c, (int, Fraction)) for c in self.coeffs)
            self._scaled = common_denominator(self.coeffs) if rational else False
        return self._scaled or None

    def __call__(self, x):
        """Horner evaluation; exact when both coeffs and x are rational.

        A Fraction x = u / v on rational coefficients a_k / d runs on
        integers, as homogeneous Horner for sum_k a_k u^k v^(n-k), and makes
        one Fraction over d v^n at the end. Other arguments (int, float,
        complex) take the plain loop, which keeps their result type.
        """
        form = self._integer_form() if isinstance(x, Fraction) else None
        if form is None:
            acc = 0 * x
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        a, d = form
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

    def shifted_quotient(self, root) -> "Polynomial":
        """Quotient of self by (x - root), dropping the remainder."""
        n = len(self.coeffs) - 1
        if n < 0:
            return Polynomial(())
        out = [0 * root] * n
        carry = self.coeffs[n]
        for i in range(n - 1, -1, -1):
            out[i] = carry
            carry = self.coeffs[i] + carry * root
        return Polynomial(out)


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
                object.__setattr__(self, name, as_fraction(v))
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

    @property
    def operator_order(self) -> int:
        return 4 if self.is_krall else 2

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

    def jumps(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Locations and masses of the Dirac terms of the measure."""
        if self.family == "krall-legendre":
            half = Fraction(1, 2)
            return ((Fraction(-1), half), (Fraction(1), half))
        if self.family == "krall-laguerre":
            return ((Fraction(0), 1 / self.alpha),)
        if self.family == "krall-jacobi":
            return ((Fraction(0), 1 / self.mass),)
        return ()

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


def moment(spec: FamilySpec, k: int, mode: str = "rational"):
    """k-th moment of the family measure, exact in rational mode.

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
    if mode == "float":
        return float(m)
    return m


class MomentFunctional:
    """The family measure reduced to its moment sequence.

    Exposes m_k via call syntax, plus the jump structure and a description
    of the continuous part. Moments are memoized per instance.
    """

    def __init__(self, spec: FamilySpec, mode: str = "rational"):
        self.spec = spec
        self.mode = mode
        self._cache: dict[int, Scalar] = {}

    def __call__(self, k: int):
        if k not in self._cache:
            self._cache[k] = moment(self.spec, k, self.mode)
        return self._cache[k]

    @property
    def jumps(self):
        return self.spec.jumps()

    @property
    def continuous_part(self) -> str:
        return {
            "hermite": "exp(-x^2) on (-inf, inf), rescaled to unit mass",
            "laguerre": "x^alpha exp(-x) on (0, inf), rescaled to unit mass",
            "jacobi": "(1-x)^alpha (1+x)^beta on (-1, 1), rescaled to unit mass",
            "krall-legendre": "alpha/2 on (-1, 1)",
            "krall-laguerre": "exp(-x) on (0, inf)",
            "krall-jacobi": "(1-x)^alpha on (0, 1)",
        }[self.spec.family]


def inner_product(p: Polynomial, q: Polynomial, spec: FamilySpec):
    """<p, q> against the family measure, via the moment sequence."""
    mode = "float" if (p.mode == "float" or q.mode == "float") else "rational"
    mom = MomentFunctional(spec, mode)
    prod = p * q
    zero = 0.0 if mode == "float" else Fraction(0)
    return sum((prod.coeffs[i] * mom(i) for i in range(len(prod.coeffs))), zero)


def squared_norm(p: Polynomial, spec: FamilySpec):
    return inner_product(p, p, spec)


def squared_norms(members: Sequence[Polynomial], spec: FamilySpec) -> list[Fraction]:
    """||p||^2 of rational members p = a / d: sum_(i,k) a_i a_k M_(i+k) / (d^2 mu), moments m_k = M_k / mu."""
    top = 2 * max((p.degree for p in members), default=0)
    moments, mu = common_denominator([moment(spec, k) for k in range(top + 1)])
    norms = []
    for p in members:
        a, d = p._integer_form()
        norms.append(Fraction(sum(ai * sum(map(mul, a, moments[i:])) for i, ai in enumerate(a)), d * d * mu))
    return norms


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def _coeffs_krall_legendre(nu: int, alpha: Fraction) -> list[Fraction]:
    c = [Fraction(0)] * (nu + 1)
    for k in range(nu // 2 + 1):
        num = (-1) ** k * math.factorial(2 * nu - 2 * k) * (alpha + Fraction(nu * (nu - 1), 2) + 2 * k)
        den = 2**nu * math.factorial(k) * math.factorial(nu - k) * math.factorial(nu - 2 * k)
        c[nu - 2 * k] += num / den
    return c


def _coeffs_krall_laguerre(nu: int, alpha: Fraction) -> list[Fraction]:
    c = [Fraction(0)] * (nu + 1)
    for k in range(nu + 1):
        term = Fraction((-1) ** k * math.comb(nu, k), math.factorial(k + 1))
        c[k] += term * (k * (alpha + nu + 1) + alpha)
    return c


def _coeffs_krall_jacobi(nu: int, alpha: Fraction, mass: Fraction) -> list[Fraction]:
    c = [Fraction(0)] * (nu + 1)
    den = rise = _pochhammer(alpha + 1, nu)  # rise = (alpha + 1)_(nu + k)
    for k in range(nu + 1):
        num = (-1) ** (nu - k) * math.comb(nu, k) * rise * (k * (nu + alpha) * (nu + 1) + (k + 1) * mass)
        c[k] += num / (math.factorial(k + 1) * den)
        rise *= alpha + nu + k + 1
    return c


def _coeffs_hermite(nu: int) -> list[Fraction]:
    c = [Fraction(0)] * (nu + 1)
    for k in range(nu // 2 + 1):
        c[nu - 2 * k] += Fraction(
            (-1) ** k * math.factorial(nu) * 2 ** (nu - 2 * k),
            math.factorial(k) * math.factorial(nu - 2 * k),
        )
    return c


def _coeffs_laguerre(nu: int, alpha: Fraction) -> list[Fraction]:
    c = [Fraction(0)] * (nu + 1)
    rise = Fraction(1)  # (alpha + k + 1)_(nu - k)
    for k in range(nu, -1, -1):
        c[k] += (-1) ** k * rise / (math.factorial(nu - k) * math.factorial(k))
        rise *= alpha + k
    return c


def _coeffs_jacobi(nu: int, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    # on integers, with alpha + 1 = p / q and alpha + beta + nu + 1 = g / h, over d = (2 q h)^nu nu!
    p, q = (alpha + 1).as_integer_ratio()
    g, h = (alpha + beta + nu + 1).as_integer_ratio()
    # falls[s] / q^(nu - s) = (alpha + s + 1)_(nu - s) and rises[s] / h^s = (alpha + beta + nu + 1)_s
    falls = list(accumulate((p + s * q for s in range(nu - 1, -1, -1)), mul, initial=1))[::-1]
    rises = accumulate((g + s * h for s in range(nu)), mul, initial=1)
    # a[s] / d multiplies ((x - 1) / 2)^s
    a = [f * r * q**s * h ** (nu - s) * 2 ** (nu - s) * math.comb(nu, s) for s, (f, r) in enumerate(zip(falls, rises))]
    d = (2 * q * h) ** nu * math.factorial(nu)
    return [Fraction(sum(a[s] * math.comb(s, t) * (-1) ** (s - t) for s in range(t, nu + 1)), d) for t in range(nu + 1)]


def _coeffs(spec: FamilySpec, nu: int) -> list[Fraction]:
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


def build_family(
    spec: FamilySpec,
    max_degree: int,
    mode: str = "rational",
    degree_cap: Optional[int] = None,
) -> list[Polynomial]:
    """Members of degree 0 .. max_degree of the family.

    Rational mode is exact. Float mode rounds the exact coefficients and
    refuses degrees above the cap (DEFAULT_DEGREE_CAP unless overridden),
    where double precision can no longer represent the factorially growing
    coefficients faithfully.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    if mode == "float" and max_degree > cap:
        raise DegreeCapError(
            f"degree {max_degree} above float-mode cap {cap}; "
            "raise degree_cap explicitly to override"
        )
    out = []
    for nu in range(max_degree + 1):
        p = Polynomial(_coeffs(spec, nu))
        if p.degree != nu:
            raise ParameterError(
                f"{spec.label()}: member of degree {nu} degenerates (leading coefficient vanishes)"
            )
        out.append(p.to_float() if mode == "float" else p)
    return out


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


def apply_operator(op: DiffOperator, p: Polynomial) -> Polynomial:
    """Apply sum_j a_j(x) p^(j)(x) by exact differentiation and multiplication."""
    return op.apply(p)


def _sigma_tau(spec: FamilySpec) -> tuple[Polynomial, Polynomial]:
    """Second-order data of the classical families."""
    if spec.family == "hermite":
        return Polynomial([Fraction(1)]), Polynomial([Fraction(0), Fraction(-2)])
    if spec.family == "laguerre":
        return (
            Polynomial([Fraction(0), Fraction(1)]),
            Polynomial([spec.alpha + 1, Fraction(-1)]),
        )
    if spec.family == "jacobi":
        return (
            Polynomial([Fraction(1), Fraction(0), Fraction(-1)]),
            Polynomial([spec.beta - spec.alpha, -(spec.alpha + spec.beta + 2)]),
        )
    raise ParameterError(f"{spec.family} is not a classical family")


def operator_of(spec: FamilySpec, mode: str = "rational") -> DiffOperator:
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
    else:
        sigma, tau = _sigma_tau(spec)
        terms = ((2, sigma), (1, tau))
    op = DiffOperator(terms)
    return op.to_float() if mode == "float" else op


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
    sigma, tau = _sigma_tau(spec)
    tau1 = tau.coeffs[1] if len(tau.coeffs) > 1 else Fraction(0)
    sigma2 = sigma.coeffs[2] if len(sigma.coeffs) > 2 else Fraction(0)
    return nu * (tau1 + (nu - 1) * sigma2)
