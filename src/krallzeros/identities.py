"""Verifiers for the algebraic identities satisfied by the zeros.

Every identity is read off one chain per (family, N) cell: the degree-N
member, its zeros, the collocation matrix on those zeros, and the spectral
and transition data. A `Cell` builds each link of that chain at most once.
Each identity has one verifier, a public function of (spec, N) that reports
per-cell residuals of the identity together with a pass verdict at a
configured tolerance. It takes its cell from `get_cell`, which builds it
once for consecutive calls on the same (spec, N), so every suite of the
registry `SUITES` that the CLI runs on one (spec, N) reads one cell.

The ground truth throughout is the eigenpair relation: the vector of values
of the degree-m member at the zeros of the degree-N member is an
eigenvector of the collocation matrix with the degree-m eigenvalue. The
per-family closed-form identities are treated as derived claims measured
against that ground truth; long printed formulas are transcription-risky,
and for the Laguerre-type family the two candidate readings of its trailing
factor are kept apart as "printed" and "corrected" variants so the data can
say which one holds.

Residual scaling: every residual is divided by max(1, dominant term of the
right-hand side), since raw entries grow rapidly with N and an absolute
number would be meaningless across the grid. Aggregates go through
`worst_residual`, so a non-finite residual anywhere fails the report.

Arithmetic: the eigenpair and operator-power relations are pure polynomial
algebra in the nodes and hold on any N distinct nodes, so the default
engine evaluates them in exact rational arithmetic on small dyadic nodes
that span the zeros (`Cell.xq`), where a formula error shows up at full
strength and an honest implementation gives residual zero. It runs on
integers: the cell keeps its collocation matrix over one common
denominator (under 50 bits at N = 20, where the double zeros read as
rationals gave it 5-10k) and each value vector over its own, and each
defect D p_m - mu_m p_m takes one integer matvec reduced once and gives
correctly rounded int / int residuals. A plain double-precision eigenpair
check, on the zeros, is kept for comparison; its residuals carry the
conditioning of the assembly (around 1e-7 for wide node spreads at
N = 12). The closed-form identities read the closed-form matrix that the
zeros' node set keeps (`matrices.collocation_rep_simplified`), evaluated in
doubles on exact p_N', p_N'', p_N'''; that is where their content lives.
The value vectors come from the one value table in `rootfinding`
(`_value_numerators`), and the L L_inv = I half of similarity reads the one
transition-pair check, `matrices._transition_pair`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import matrices
from .families import (
    FAMILIES,
    KRALL_FAMILIES,
    FamilySpec,
    ParameterError,
    build_family,
    common_denominator,
    family_record,
)
from .matrices import christoffel_numbers, collocation_exact, collocation_rep, quadrature_exactness
from .rootfinding import NodeSet, _value_numerators, zeros

FAMILY_IDENTITY_TAG = {
    "krall-legendre": "kleg-main",
    "krall-laguerre": "klag-main",
    "krall-jacobi": "kjac-main",
}


@dataclass
class IdentityReport:
    """Residual report for one identity on one (family, N) cell."""

    identity: str
    family: str
    params: dict
    n: int
    tolerance: float
    arithmetic: str
    max_residual: float
    passed: bool
    cells: list = field(default_factory=list)
    eigenpairs: list = field(default_factory=list)
    rowsum_residual: Optional[float] = None
    rowsum_tolerance: Optional[float] = None
    rowsum_passed: Optional[bool] = None
    variant: Optional[str] = None
    seed: Optional[int] = None
    notes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON-ready form: meta / results / summary, laid out by _LAYOUT."""
        out = {section: {} for section, _, _ in _LAYOUT}
        for section, key, name in _LAYOUT:
            value = getattr(self, name)
            if key is None:
                out[section] = value
            elif value is not None or name not in _ROWSUM:
                out[section][key] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "IdentityReport":
        """The report to_dict wrote; a missing key raises KeyError, unless it is a rowsum key."""
        fields = {}
        for section, key, name in _LAYOUT:
            part = payload[section]
            fields[name] = part if key is None else part.get(key) if name in _ROWSUM else part[key]
        return cls(**fields)


#: (section, JSON key, field) of IdentityReport.to_dict in output order; "results" is the
#: cells list itself, and the _ROWSUM fields are written only when set.
_LAYOUT = (
    ("meta", "identity", "identity"), ("meta", "family", "family"), ("meta", "params", "params"),
    ("meta", "N", "n"), ("meta", "tolerance", "tolerance"), ("meta", "arithmetic", "arithmetic"),
    ("meta", "variant", "variant"), ("meta", "seed", "seed"),
    ("results", None, "cells"),
    ("summary", "max_residual", "max_residual"), ("summary", "pass", "passed"),
    ("summary", "eigenpairs", "eigenpairs"), ("summary", "notes", "notes"), ("summary", "extras", "extras"),
    ("summary", "rowsum_residual", "rowsum_residual"), ("summary", "rowsum_tolerance", "rowsum_tolerance"),
    ("summary", "rowsum_pass", "rowsum_passed"),
)
_ROWSUM = ("rowsum_residual", "rowsum_tolerance", "rowsum_passed")


def worst_residual(residuals: Iterable[float]) -> float:
    """The first NaN residual, else the first largest one, 0.0 if there is none.

    Plain max() keeps its running value when compared with a NaN, so a NaN
    anywhere but first would vanish and its report would pass; so the NaNs
    are looked for first, and max() runs only on a list without one.
    """
    values = list(residuals)
    nan = next(filter(math.isnan, values), None)
    return max(values, default=0.0) if nan is None else nan


def _params_dict(spec: FamilySpec, **extra) -> dict:
    out = {k: str(v) for k, v in spec.params().items()}
    out.update({k: str(v) for k, v in extra.items()})
    return out


class Cell:
    """One (spec, N) cell: every link of its chain, each built on first use.

    The family holds the members of degree 0..N, `nodes` the zeros of the
    degree-N member and `mus` the eigenvalues mu_0..mu_{N-1}. The value
    vectors p_m(x_k), m < N, and the collocation matrix come in doubles on
    the zeros (`values_float`, `dc_float`) and in exact arithmetic on the
    exact nodes `xq`, an equally spaced dyadic grid across the zeros' span.
    The exact engine reads the collocation matrix and the value vectors over
    common denominators (`dc_scaled`, `values_scaled`) and shares the
    defects D p_m - mu_m p_m (`exact_defects`) between the exact eigenpair,
    rowsum and power checks and the D half of similarity. The Christoffel
    numbers, the quadrature and the transition pair read the refined zeros.
    The family and the zeros come from `build_family` and `zeros`, which
    keep their last result, so a cell reuses what its caller built on the
    same (spec, N). What depends only on the zeros lives in the
    memo of the one node set `zeros` returns for the member: the float
    Z^(k) in its kernel (`matrices.node_kernel`), the refined nodes, the
    Christoffel numbers (`matrices.christoffel_numbers`, the cell keeps no
    copy) and the closed-form collocation matrix of each formula
    (`matrices.collocation_rep_simplified`) with its off-diagonal sums,
    which both readings of the family identity read. The eigenvalues and
    the operator come from the spec's `families.family_record`. Get cells
    from `get_cell`, which keeps the last one built.
    """

    def __init__(self, spec: FamilySpec, n: int):
        self.spec, self.n = spec, n

    def report(self, identity, tolerance, arithmetic, max_residual, passed=None, params=None, **fields):
        """IdentityReport on this cell; by default it passes when max_residual <= tolerance."""
        passed = max_residual <= tolerance if passed is None else passed
        params = params or _params_dict(self.spec)
        return IdentityReport(
            identity, self.spec.family, params, self.n, tolerance, arithmetic, max_residual, passed, **fields
        )

    @cached_property
    def op(self):
        return family_record(self.spec).op

    @cached_property
    def family(self):
        return build_family(self.spec, self.n)

    @cached_property
    def nodes(self) -> NodeSet:
        return zeros(self.family[self.n], self.spec)

    @cached_property
    def xq(self) -> list[Fraction]:
        """The exact nodes: N points (a + k) h of the dyadic grid h Z across the zeros' span.

        h is the largest power of two not above the mean gap
        (x_N - x_1) / (N - 1) of the zeros (h = 1 when N = 1) and
        a = ceil(x_1 / h), so the first node lies in [x_1, x_1 + h).
        """
        xs = self.nodes.nodes
        lo, h = Fraction(xs[0]), Fraction(1)
        if self.n > 1:
            gap = (Fraction(xs[-1]) - lo) / (self.n - 1)
            h = Fraction(2) ** (gap.numerator.bit_length() - gap.denominator.bit_length())
            if h > gap:
                h /= 2
        a = math.ceil(lo / h)
        return [(a + k) * h for k in range(self.n)]

    @cached_property
    def mus(self) -> list[Fraction]:
        return family_record(self.spec).eigenvalues(self.n)

    @cached_property
    def mus_float(self) -> list[float]:
        return family_record(self.spec).eigenvalues_float(self.n)

    @cached_property
    def values_float(self) -> list[list[float]]:
        # exact at the zeros, rounded once per value by int / int
        zeros_q = [Fraction(x) for x in self.nodes.nodes]
        return [[v / den for v in row] for row, den in _value_numerators(self.family[: self.n], zeros_q)]

    @cached_property
    def dc_scaled(self) -> tuple[list[list[int]], int]:
        """The exact collocation matrix on xq over one common denominator: (integer rows, denominator)."""
        a, big_l = common_denominator([v for row in collocation_exact(self.op, self.xq) for v in row])
        return [a[i : i + self.n] for i in range(0, len(a), self.n)], big_l

    @cached_property
    def values_scaled(self) -> list[tuple[list[int], int]]:
        """Each exact value vector p_m(x_k) over its own least common denominator, reduced by one gcd."""
        out = []
        for row, den in _value_numerators(self.family[: self.n], self.xq):
            g = math.gcd(den, *row)
            out.append(([v // g for v in row], den // g))
        return out

    @cached_property
    def exact_defects(self) -> list[tuple[list[int], int, int]]:
        """D p_m - mu_m p_m for m < N, exactly, as _defect gives them from one integer matvec each."""
        return [_defect(_matvec(self.dc_scaled, v), v, mu) for v, mu in zip(self.values_scaled, self.mus)]

    @cached_property
    def dc_float(self) -> np.ndarray:
        return collocation_rep(self.op, self.nodes).data


@lru_cache(maxsize=1)
def get_cell(spec: FamilySpec, n: int, /) -> Cell:
    """The cell of (spec, N): the one last returned when the key repeats, else a new one.

    The memo holds one cell, so the last cell stays in memory until a call
    with another key replaces it; the parameters are positional-only, so
    each (spec, n) has one key. A link that raised was not cached and
    raises again on the next use. Verifiers build their outputs fresh,
    so nothing a caller receives belongs to the cell.
    """
    return Cell(spec, n)


# ---------------------------------------------------------------------------
# eigenpair relation and operator powers
# ---------------------------------------------------------------------------


def _matvec(matrix: tuple[list[list[int]], int], vector: tuple[list[int], int]) -> tuple[list[int], int]:
    """(A / d)(b / e) as (integers, denominator), reduced once for the whole vector.

    `Cell.exact_defects` takes it for D p, and `_exact_defects` for the powers D^e p.
    """
    (a, d), (b, e) = matrix, vector
    p = [sum(map(mul, row, b)) for row in a]
    g = math.gcd(d * e, *p)
    return [v // g for v in p], d * e // g


def _defect(power: tuple[list[int], int], vector: tuple[list[int], int], mu: Fraction) -> tuple[list[int], int, int]:
    """D^e p - mu p, exactly: (integers, denominator, scaled denominator).

    With D^e p = P / den, p = b / e and mu = a / c, the defect is
    (P c e - a b den) / (den c e). Dividing it by the residual scale
    max(1, |mu| max_k |p(x_k)|) instead leaves the scaled denominator
    den max(c e, |a| max|b|).
    """
    (p, den), (b, e) = power, vector
    a, ce = mu.numerator, mu.denominator * e
    return [v * ce - a * bk * den for v, bk in zip(p, b)], den * ce, den * max(ce, abs(a) * max(map(abs, b)))


def _exact_defects(cell: Cell, exponent: int = 1) -> list[tuple[list[int], int, int]]:
    """D^e p_m - mu_m^e p_m for m < N, exactly, by integer matvecs on the cell's value vectors.

    Exponent 1 is the cell's table. Above it, a row whose exponent-1 defect
    is identically zero is zero too, and takes no matvec:
    D^e p - mu^e p = sum_j mu^j D^(e-1-j) (D p - mu p). Any other row, which
    fails the check, applies D e times.
    """
    if exponent == 1:
        return cell.exact_defects
    out = []
    for vector, mu, (first, _, _) in zip(cell.values_scaled, cell.mus, cell.exact_defects):
        if not any(first):
            out.append(([0] * len(first), 1, 1))
            continue
        power = vector
        for _ in range(exponent):
            power = _matvec(cell.dc_scaled, power)
        out.append(_defect(power, vector, mu**exponent))
    return out


def _eigen_relation(cell: Cell, arithmetic: str, exponent: int = 1) -> tuple[list[float], list[list[float]]]:
    """(mu_m^e in doubles, residuals[m][i]) of D^e p_m = mu_m^e p_m at node row i, m < N.

    Each residual is scaled by max(1, |mu_m^e| max_k |p_m(x_k)|). The exact
    engine works on integers and reads the exponent; the float one checks D
    itself (e = 1), forming the products as arrays and summing each row of
    them with one math.fsum.
    """
    if arithmetic == "exact":
        defects = _exact_defects(cell, exponent)
        powers = cell.mus_float if exponent == 1 else [float(mu**exponent) for mu in cell.mus]
        return powers, [[abs(v) / scaled for v in d] for d, _, scaled in defects]
    if arithmetic != "float":
        raise ValueError("arithmetic must be 'exact' or 'float'")
    mus = cell.mus_float
    scales = [max(1.0, abs(mu) * max(map(abs, pv))) for mu, pv in zip(mus, cell.values_float)]
    values = np.array(cell.values_float)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite residual
        # sums[m, i] = sum_k D[i, k] p_m(x_k)
        sums = np.array(_fsums(values[:, None, :] * cell.dc_float)).reshape(values.shape)
        residuals = np.abs(sums - np.array(mus)[:, None] * values) / np.array(scales)[:, None]
    return mus, residuals.tolist()


def _fsums(terms: np.ndarray) -> list[float]:
    """math.fsum along the last axis of terms, one correctly rounded sum per row, flattened."""
    return [math.fsum(row) for row in terms.reshape(math.prod(terms.shape[:-1]), terms.shape[-1]).tolist()]


def _eigen_cells(tag, mus, residuals, tolerance):
    """Per-cell and per-m records of residuals[m][i]: (max, cells, eigenpairs)."""
    cells, eigenpairs = [], []
    for m, (mu, rows) in enumerate(zip(mus, residuals)):
        for i, r in enumerate(rows):
            cells.append({"identity": tag, "m": m, "n": i + 1, "residual": r, "pass": r <= tolerance})
        eigenpairs.append({"m": m, "eigenvalue": mu, "residual": worst_residual(rows)})
    return worst_residual(c["residual"] for c in cells), cells, eigenpairs


def verify_eigenpairs(
    spec: FamilySpec,
    n: int,
    tolerance: float = 1e-8,
    rowsum_tolerance: float = 1e-9,
    arithmetic: str = "exact",
) -> IdentityReport:
    """Check that the degree-m value vectors are eigenvectors of the collocation matrix.

    For every 0 <= m <= N-1 and node row 1 <= i <= N the residual of
    sum_k D[i, k] p_m(x_k) = mu_m p_m(x_i) is recorded, scaled by
    max(1, |mu_m| max_k |p_m(x_k)|). The m = 0 case degenerates to the row
    sums of D equalling zero; its maximum is reported separately as an
    absolute number.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    cell = get_cell(spec, n)
    max_residual, cells, eigenpairs = _eigen_cells("eigenpair", *_eigen_relation(cell, arithmetic), tolerance)
    if arithmetic == "exact":
        rows, d = cell.dc_scaled
        rowsum = worst_residual(abs(sum(row)) / d for row in rows)
    else:
        rowsum = worst_residual(float(abs(math.fsum(row))) for row in cell.dc_float.tolist())
    rowsum_ok = rowsum <= rowsum_tolerance
    return cell.report(
        "eigenpair", tolerance, arithmetic, max_residual,
        passed=max_residual <= tolerance and rowsum_ok,
        cells=cells,
        eigenpairs=eigenpairs,
        rowsum_residual=rowsum,
        rowsum_tolerance=rowsum_tolerance,
        rowsum_passed=rowsum_ok,
    )


def verify_power(
    spec: FamilySpec,
    n: int,
    exponent: int = 2,
    tolerance: float = 1e-6,
) -> IdentityReport:
    """Same eigenpair check, in exact arithmetic, for the exponent-th power of the collocation matrix.

    The operator's eigen relation survives taking powers, so D^e keeps the
    same eigenvectors with eigenvalues mu_m^e. Entries scale like mu^e; an
    overflow guard rejects an exponent where some exact mu_m^e exceeds the
    largest double.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    cell = get_cell(spec, n)
    largest = max(map(abs, cell.mus_float), default=1.0)  # a mu past double range is named here
    top = max(map(abs, cell.mus), default=Fraction(1))
    # past 2^1100 by logarithms first, so a huge exponent builds no huge power
    if exponent * math.log2(max(top, 1)) > 1100 or top**exponent > sys.float_info.max:
        raise OverflowError(f"mu^{exponent} leaves double range (|mu| up to {largest:.3e})")
    relation = _eigen_relation(cell, "exact", exponent)
    max_residual, cells, eigenpairs = _eigen_cells("operator-power", *relation, tolerance)
    params = _params_dict(spec, exponent=exponent)
    return cell.report(
        "operator-power", tolerance, "exact", max_residual, params=params, cells=cells, eigenpairs=eigenpairs
    )


# ---------------------------------------------------------------------------
# fourth-order closed-form identity
# ---------------------------------------------------------------------------


def _offdiagonal_sums(matrix: np.ndarray, values: list[list[float]]) -> np.ndarray:
    """sums[i, m] = sum_(k != i) matrix[i, k] values[m][k], one math.fsum each.

    The products are formed as one array, and the diagonal term is dropped
    from each sum, not zeroed, so a non-finite one leaves no trace.
    """
    n = len(matrix)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite residual
        products = matrix[:, None, :] * np.array(values)
    offdiagonal = np.broadcast_to(~np.eye(n, dtype=bool)[:, None, :], products.shape)
    sums = np.array(_fsums(products[offdiagonal].reshape(n, len(values), n - 1))).reshape(n, len(values))
    sums.setflags(write=False)  # the node set keeps a closed form's sums for every report on it
    return sums


def _closed_form_cells(cell: Cell, formula: str, tag: str, tolerance: float, printed: bool = False):
    """(cells, notes, rows, lhs, rhs) of a closed-form zero identity on the cell's closed-form matrix C.

    rows lists the rows i not under the singular guard, in order. For
    i = rows[r] and m < N, lhs[r, m] = -sum_(k != i) C[i, k] p_m(x_k) is
    compared with rhs[r, m] = (C[i, i] - mu_m) t, where the trailing factor t
    is p_m(x_i), or p_N'(x_i) in the printed reading, and the difference is
    scaled by max(1, |mu_m t|, |C[i, i] t|). The cells run over the rows,
    then m; the skipped rows get a note.
    """
    rep = matrices.collocation_rep_simplified(cell.spec, cell.nodes, formula)
    rows = [i for i in range(cell.n) if i not in rep.flagged]
    mus, diagonal = np.array(cell.mus_float), rep.data.diagonal()[rows, None]
    trailing = np.array(cell.nodes.derivatives()[0])[rows, None] if printed else np.array(cell.values_float).T[rows]
    sums = cell.nodes.cached((cell.spec, formula, "sums"), lambda: _offdiagonal_sums(rep.data, cell.values_float))
    lhs = -sums[rows]
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite residual
        rhs = (diagonal - mus) * trailing
        # np.fmax passes over a NaN as max() does past its first argument
        residuals = np.abs(lhs - rhs) / np.fmax(np.fmax(1.0, np.abs(mus * trailing)), np.abs(diagonal * trailing))
    cells = [
        {"identity": tag, "m": m, "n": i + 1, "residual": r, "pass": r <= tolerance}
        for i, row in zip(rows, residuals.tolist())
        for m, r in enumerate(row)
    ]
    skipped = [i + 1 for i in rep.flagged]
    notes = [f"rows {skipped} skipped: |a_4(x_n)| under the singular guard"] if skipped else []
    return cells, notes, rows, lhs, rhs


def verify_fourth_order(spec: FamilySpec, n: int, tolerance: float = 1e-7) -> IdentityReport:
    """Closed-form zero identity for fourth order families, both sides literal.

    The left side sums, over the other nodes, the degree-m values weighted
    by squared reciprocal node gaps and a bracket in p_N', p_N'', p_N''' at
    the row node; the right side multiplies the degree-m value at the row
    node by the closed-form diagonal minus the degree-m eigenvalue. Rows
    where a_4 nearly vanishes are skipped with a note. Both sides are also
    cross-checked against the general assembly rearranged the same way.
    """
    if not spec.is_krall:
        raise ValueError("the fourth order identity applies to the Krall families only")
    cell = get_cell(spec, n)
    cells, notes, rows, lhs, rhs = _closed_form_cells(cell, "fourth-order", "fourth-order-zeros", tolerance)
    general, mus = cell.dc_float, np.array(cell.mus_float)
    # the same sides, rearranged from the eigenpair relation on the general assembly
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite residual
        lhs_gaps = np.abs(lhs + _offdiagonal_sums(general, cell.values_float)[rows]) / np.fmax(1.0, np.abs(lhs))
        general_rhs = (general.diagonal()[rows, None] - mus) * np.array(cell.values_float).T[rows]
        rhs_gaps = np.abs(rhs - general_rhs) / np.fmax(1.0, np.abs(rhs))

    max_residual = worst_residual(c["residual"] for c in cells)
    return cell.report(
        "fourth-order-zeros", tolerance, "float", max_residual,
        cells=cells,
        notes=notes,
        extras={
            "cross_check_lhs_vs_general": worst_residual(lhs_gaps.ravel().tolist()),
            "cross_check_rhs_vs_general": worst_residual(rhs_gaps.ravel().tolist()),
        },
    )


# ---------------------------------------------------------------------------
# per-family closed-form identities, with the variant experiment
# ---------------------------------------------------------------------------


def verify_family_identity(
    spec: FamilySpec,
    n: int,
    variant: str = "corrected",
    tolerance: float = 1e-7,
) -> IdentityReport:
    """Evaluate one family's closed-form zero identity literally.

    For the Laguerre-type family the two readings of the trailing factor on
    the right-hand side differ: "printed" multiplies by R_N'(x_n),
    "corrected" by R_m(x_n) as the other two families and the general
    fourth order identity suggest. The report records which reading was
    measured; discriminating them is the caller's experiment. For the
    Legendre- and Jacobi-type families both readings coincide (the trailing
    factor is already the degree-m value) and the variant is recorded as
    informational only.
    """
    if not spec.is_krall:
        raise ValueError("family identities exist for the Krall families only")
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")
    cell = get_cell(spec, n)
    ambiguous = spec.family == "krall-laguerre"
    tag = FAMILY_IDENTITY_TAG[spec.family]
    cells, notes, *_ = _closed_form_cells(cell, "family", tag, tolerance, printed=ambiguous and variant == "printed")
    if ambiguous:
        factor = "p_N'(x_n)" if variant == "printed" else "p_m(x_n)"
        notes.append(f"trailing right-hand factor read as {factor}")
    else:
        notes.append("variants coincide for this family (trailing factor is the degree-m value)")

    max_residual = worst_residual(c["residual"] for c in cells)
    return cell.report(tag, tolerance, "float", max_residual, cells=cells, variant=variant, notes=notes)


def discriminate_variants(spec: FamilySpec, n: int, tolerance: float = 1e-7) -> dict:
    """Run both readings of the family identity and name the passing one.

    Only the Laguerre-type family actually has two readings; there the
    experiment is decisive when exactly one passes. For the other two
    families the readings coincide and the verdict is "identical", and so
    it is at N = 1, where no off-diagonal term is left and both readings
    state C_11 = mu_0.
    """
    corrected = verify_family_identity(spec, n, "corrected", tolerance)
    printed = verify_family_identity(spec, n, "printed", tolerance)
    if spec.family != "krall-laguerre" or n == 1:
        verdict = "identical"
    elif printed.passed == corrected.passed:
        verdict = "ambiguous"
    else:
        verdict = "printed" if printed.passed else "corrected"
    return {"printed": printed, "corrected": corrected, "verdict": verdict}


def _family_main(spec: FamilySpec, n: int, tolerance: float, variant: str) -> IdentityReport:
    """One reading of the family identity, or with variant="both" the experiment's verdict."""
    if variant != "both":
        return verify_family_identity(spec, n, variant, tolerance)
    both = discriminate_variants(spec, n, tolerance)
    verdict = both["verdict"]
    printed, corrected = both["printed"].max_residual, both["corrected"].max_residual
    # the experiment succeeds when the verdict is decisive and the surviving
    # reading passes; the residual reported is the one of that reading
    survivor = both["corrected"] if verdict in ("corrected", "identical") else both["printed"]
    return get_cell(spec, n).report(
        survivor.identity, tolerance, "float",
        survivor.max_residual if verdict != "ambiguous" else worst_residual([printed, corrected]),
        passed=verdict != "ambiguous" and survivor.passed,
        variant="both",
        notes=[f"passing variant: {verdict}"] + survivor.notes,
        extras={"printed_residual": printed, "corrected_residual": corrected, "verdict": verdict},
    )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def equally_spaced_nodes(spec: FamilySpec, n: int) -> tuple[float, ...]:
    """n equally spaced doubles on the hull (on the zero span when unbounded), as np.linspace gives them."""
    cell = get_cell(spec, n)
    lo, hi = spec.hull()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        xs = cell.nodes.nodes
        lo, hi = min(xs), max(xs)
    return ((lo + hi) / 2.0,) if n == 1 else tuple(np.linspace(lo, hi, n).tolist())


def _match_eigenvalues(found: np.ndarray, targets: Sequence[float]) -> list[dict]:
    """Greedy nearest pairing, largest targets first; order-insensitive."""
    pool = list(found)
    rows = []
    for m, mu in sorted(enumerate(targets), key=lambda t: -abs(t[1])):
        idx = min(range(len(pool)), key=lambda i: abs(pool[i] - mu))
        ev = pool.pop(idx)
        rows.append({"m": m, "eigenvalue": mu, "residual": float(abs(ev - mu)) / max(1.0, abs(mu))})
    rows.sort(key=lambda r: r["m"])
    return rows


def spectrum_report(
    spec: FamilySpec,
    n: int,
    nodes: Optional[matrices.NodesLike] = None,
    tolerance: float = 1e-8,
) -> IdentityReport:
    """Eigenvalues of the collocation matrix against the family eigenvalue list.

    Similarity to the diagonal spectral representation makes the spectrum
    independent of which distinct real nodes are used; pass any n nodes (a
    NodeSet or plain points) to exercise that (family zeros are the default).
    """
    cell = get_cell(spec, n)
    if nodes is None:
        dc = cell.dc_float
    elif len(nodes) != n:
        raise ValueError(f"node set has {len(nodes)} nodes, expected {n}")
    else:
        dc = collocation_rep(cell.op, nodes).data
    eigenpairs = _match_eigenvalues(np.linalg.eigvals(dc), cell.mus_float)
    max_residual = worst_residual(row["residual"] for row in eigenpairs)
    return cell.report(
        "spectrum", tolerance, "float", max_residual,
        eigenpairs=eigenpairs,
        notes=[f"nodes: {'family zeros' if nodes is None else 'caller-supplied'}"],
    )


# ---------------------------------------------------------------------------
# similarity, quadrature and differentiation-matrix reports
# ---------------------------------------------------------------------------


def _similarity(cell: Cell) -> dict:
    """Exact consistency of the two representations; see matrices.similarity_check."""
    inverse = matrices._transition_pair(cell.family, cell.nodes, cell.spec)[2]
    # column j of D L_inv - L_inv D_tau at the exact nodes is the defect of D p_j = mu_j p_j
    defects = cell.exact_defects
    common = math.lcm(*(den for _, den, _ in defects))
    worst = max(sum(abs(d[m]) * (common // den) for d, den, _ in defects) for m in range(cell.n))
    denom = max(Fraction(1), max(abs(v) for v in cell.mus))
    return {
        "inverse_residual": inverse,
        "similarity_residual": worst * denom.denominator / (common * denom.numerator),
    }


def _similarity_report(spec: FamilySpec, n: int, tolerance: float) -> IdentityReport:
    cell = get_cell(spec, n)
    res = _similarity(cell)
    inverse, similar = res["inverse_residual"], res["similarity_residual"]
    failure = [matrices._pair_failure(inverse, cell.nodes, spec)] if inverse > 1e-10 else []
    return cell.report(
        "similarity", tolerance, "exact", worst_residual([inverse, similar]),
        passed=inverse <= 1e-10 and similar <= tolerance,
        extras=res,
        notes=["inverse pair checked at 1e-10", *failure],
    )


def _quadrature_report(spec: FamilySpec, n: int, tolerance: float) -> IdentityReport:
    cell = get_cell(spec, n)
    _, per_k = quadrature_exactness(cell.nodes, spec)
    worst = worst_residual(per_k)
    positive = all(lam > 0 for lam in christoffel_numbers(cell.nodes, spec))
    cells = [
        {"identity": "quadrature", "m": k, "n": 0, "residual": r, "pass": r <= tolerance} for k, r in enumerate(per_k)
    ]
    return cell.report(
        "quadrature", tolerance, "exact", worst,
        passed=worst <= tolerance and positive,
        cells=cells,
        notes=[f"moments matched through degree {2 * n - 1}; weights all positive: {positive}"],
    )


def _diffmat_report(spec: FamilySpec, n: int, tolerance: float, seed: int) -> IdentityReport:
    """Cross-formula agreement of the differentiation matrices plus exactness."""
    cell = get_cell(spec, n)
    node_set = cell.nodes
    lead = float(cell.family[n].coeffs[-1])
    q = np.random.default_rng(seed).standard_normal(n)  # degree N-1
    x = node_set.as_array()
    vals = np.polynomial.polynomial.polyval(x, q)
    agreement, exactness = [], []
    for k in (1, 2, 3, 4):
        rec = matrices.diffmat(k, node_set).data
        others = [matrices.diffmat(k, node_set, "alternative"), matrices.diffmat(k, node_set, leading=lead)]
        if k <= 2:
            others.append(matrices.diffmat(k, node_set, "explicit"))
        scaled = max(1.0, float(np.max(np.abs(rec))))
        agreement += [float(np.max(np.abs(rec - other.data))) / scaled for other in others]
        target = np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(q, k))
        scale = max(1.0, float(np.max(np.abs(target))))
        exactness.append(float(np.max(np.abs(rec @ vals - target)) / scale))

    agreement, exactness = worst_residual(agreement), worst_residual(exactness)
    return cell.report(
        "diffmat-agreement", tolerance, "float", worst_residual([agreement, exactness]),
        passed=agreement <= tolerance and exactness <= 1e-9,
        seed=seed,
        extras={"cross_formula": agreement, "derivative_exactness": exactness},
        notes=["recursive vs alternative vs explicit vs rescaled node polynomial; seeded random polynomial"],
    )


def _rowsum_report(spec: FamilySpec, n: int, tolerance: float) -> IdentityReport:
    report = verify_eigenpairs(spec, n, rowsum_tolerance=tolerance)
    report.passed = bool(report.rowsum_passed)
    report.identity = "rowsum"
    return report


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One verification suite.

    `run(spec, n, tolerance, options)` returns the suite's reports on one
    (spec, N) cell from the public verifiers; `options` carries `exponent`,
    `variant` and `seed`, and `reads` names those that `run` reads.
    `families` lists the families the suite applies to, and `certifies`
    says what a pass establishes.
    """

    run: Callable[[FamilySpec, int, float, object], list]
    tolerance: float
    families: tuple[str, ...]
    certifies: str
    reads: tuple[str, ...] = ()

    def applies(self, name: str, spec: FamilySpec, strict: bool) -> bool:
        """Whether the suite runs on spec; strict turns a mismatch into an error."""
        if spec.family in self.families:
            return True
        if strict:
            raise ParameterError(f"suite {name} applies to {' / '.join(self.families)}, not {spec.family}")
        return False


SUITES = {
    "eigenpair": Suite(
        lambda spec, n, tol, opt: [verify_eigenpairs(spec, n, tol)], 1e-8, FAMILIES,
        "exact D p_m = mu_m p_m, m < N, on a dyadic grid across the zeros' span; holds on any distinct "
        "rational nodes, so it certifies the differentiation-matrix formulas, not the zeros",
    ),
    "rowsum": Suite(
        lambda spec, n, tol, opt: [_rowsum_report(spec, n, tol)], 1e-9, FAMILIES,
        "exact row sums of D vanish (the m = 0 eigenpair), on the nodes of `eigenpair`; node-independent like it",
    ),
    "power": Suite(
        lambda spec, n, tol, opt: [verify_power(spec, n, opt.exponent, tol)], 1e-6, FAMILIES,
        "exact D^e p_m = mu_m^e p_m on the nodes of `eigenpair`; certifies the differentiation-matrix formulas, "
        "not the zeros",
        reads=("exponent",),
    ),
    "fourth-order": Suite(
        lambda spec, n, tol, opt: [verify_fourth_order(spec, n, tol)], 1e-7, KRALL_FAMILIES,
        "generic fourth-order closed-form identity in doubles; holds only at the zeros; a krall-laguerre "
        "verdict beyond N ~ 17 is decided by rounding until the closed forms run exactly",
    ),
    "kleg-main": Suite(
        lambda spec, n, tol, opt: [_family_main(spec, n, tol, opt.variant)], 1e-7, ("krall-legendre",),
        "Krall-Legendre closed-form identity in doubles; holds only at the zeros",
        reads=("variant",),
    ),
    "klag-main": Suite(
        lambda spec, n, tol, opt: [_family_main(spec, n, tol, opt.variant)], 1e-7, ("krall-laguerre",),
        "Krall-Laguerre closed-form identity in doubles, with both readings of its trailing factor; a verdict "
        "beyond N ~ 17 is decided by rounding until the closed forms run exactly",
        reads=("variant",),
    ),
    "kjac-main": Suite(
        lambda spec, n, tol, opt: [_family_main(spec, n, tol, opt.variant)], 1e-7, ("krall-jacobi",),
        "Krall-Jacobi closed-form identity in doubles; holds only at the zeros",
        reads=("variant",),
    ),
    "spectrum": Suite(
        lambda spec, n, tol, opt: [
            spectrum_report(spec, n, tolerance=tol),
            spectrum_report(spec, n, equally_spaced_nodes(spec, n), max(tol, 1e-6)),
        ],
        1e-8, FAMILIES,
        "eigenvalues of D in doubles match mu_m on the zeros and on equally spaced nodes (at 1e-6 or looser)",
    ),
    "similarity": Suite(
        lambda spec, n, tol, opt: [_similarity_report(spec, n, tol)], 1e-8, FAMILIES,
        "exact L L_inv = I at 1e-10 on refined zeros, which needs the zeros; exact D L_inv = L_inv D_tau on the "
        "nodes of `eigenpair`, which certifies the formulas, not the zeros",
    ),
    "quadrature": Suite(
        lambda spec, n, tol, opt: [_quadrature_report(spec, n, tol)], 1e-10, FAMILIES,
        "exact Gaussian exactness through degree 2N-1 and positive Christoffel weights on refined zeros",
    ),
    "diffmat": Suite(
        lambda spec, n, tol, opt: [_diffmat_report(spec, n, tol, opt.seed)], 1e-11, FAMILIES,
        "the three Z^(k) constructions, k = 1..4, agree in doubles and are exact (at 1e-9) on a seeded polynomial",
        reads=("seed",),
    ),
}

#: The suites `verify --suite all` and `report` run, in report order.
ALL_SUITES = tuple(name for name in SUITES if name != "rowsum")


# ---------------------------------------------------------------------------
# default verification grid
# ---------------------------------------------------------------------------


def default_grid() -> list[FamilySpec]:
    """Parameter grid used by the batch driver: a desk-scale sweep per family."""
    out = []
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
        out.append(FamilySpec("krall-legendre", alpha=alpha))
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
        out.append(FamilySpec("krall-laguerre", alpha=alpha))
    for alpha, mass in product((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))):
        out.append(FamilySpec("krall-jacobi", alpha=alpha, mass=mass))
    return out
