"""Workload passes for the krallzeros benchmark, and the checks on their outputs.

A pass runs one workload once, in the calling interpreter, and returns a
dict with the program-side wall time (and, given a HostClock, the same
time in nominal seconds), per-cell latencies and one `Op` record per
certified operation. Only the calls into krallzeros are timed;
the checks that turn outputs into residuals run outside the timed region.

Calls go through module attributes (`kz.zeros`, `matrices.diffmat`, ...)
looked up at call time, so the outside-in tracer can wrap them.

The three workloads:

- report-grid: `krallzeros report --format json --seed <seed>` through
  `cli.main`: the default grid of 10 Krall specs x N = 2..12 x 10 suites,
  990 reports. Suites rebuild the same cells, so shared work shows here.
- exact-deep: one seeded spec per family at N = 20; quadrature exactness,
  the transition pair and the exact eigenpair check. Fraction arithmetic
  dominates and every cell is built about once.
- float-sweep: every family x N = 2..20, each cell with its own seeded
  parameters; every differentiation matrix method, the float and
  closed-form collocation matrices and the double-precision verifiers.
  Rootfinding is its largest layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import krallzeros as kz
from krallzeros import cli, families, matrices

WORKLOADS = ("report-grid", "exact-deep", "float-sweep")

# Parameter sets the seed draws from; inadmissible values are skipped per family.
ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
MASSES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))

REPORT_GRID_REPORTS = 990  # 10 specs x 11 degrees x 9 reports per cell
EXACT_DEEP_N = 20
FLOAT_SWEEP_NS = range(2, 21)

# Tolerances: the CLI suite defaults where a suite exists; verifiers keep their own defaults.
QUADRATURE_TOL = 1e-10
ROWSUM_TOL = 1e-9
SPACED_SPECTRUM_TOL = 1e-6
DIFFMAT_TOL = 1e-9  # derivative exactness, as in the CLI diffmat suite
SIMPLIFIED_TOL = 1e-7  # closed-form vs general collocation assembly
TRANSITION_TOL = 1e-10  # the bound transition() enforces, exactly, on L L_inv - I

RESIDUAL_FLOOR = 1e-30


@dataclass
class Op:
    """One certified operation: its scaled max residual and verdict."""

    name: str
    cell: str
    residual: float = math.nan
    certified: bool = False
    raised: bool = False
    error: str = ""


def family_specs() -> list[list]:
    """Every admissible spec (59 in all), grouped by family in FAMILIES order."""
    positive = [a for a in ALPHAS if a > 0]
    return [
        [kz.FamilySpec("hermite")],
        [kz.FamilySpec("laguerre", alpha=a) for a in ALPHAS],
        [kz.FamilySpec("jacobi", alpha=a, beta=b) for a in ALPHAS for b in ALPHAS],
        [kz.FamilySpec("krall-legendre", alpha=a) for a in positive],
        [kz.FamilySpec("krall-laguerre", alpha=a) for a in positive],
        [kz.FamilySpec("krall-jacobi", alpha=a, mass=m) for a in ALPHAS for m in MASSES],
    ]


def float_sweep_cells(seed: int) -> list[tuple]:
    """(spec, N) for every family and N in FLOAT_SWEEP_NS.

    Each family's specs are shuffled by the seed and dealt to N = 2, 3, ...
    in turn, so the costliest degrees always go to different parameters.
    A pass's cost then hardly depends on the seed, which one draw per
    family (up to 45% apart in cost for krall-laguerre) would not give.
    """
    rng = random.Random(seed)
    cells = []
    for specs in family_specs():
        order = rng.sample(specs, len(specs))
        cells += [(order[i % len(order)], n) for i, n in enumerate(FLOAT_SWEEP_NS)]
    return cells


def seeded_specs(seed: int) -> list:
    """One admissible spec per family, drawn by the seed."""
    rng = random.Random(seed)
    return [rng.choice(specs) for specs in family_specs()]


def cell_id(spec, n: int) -> str:
    return f"{spec.label()}:{n}"


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| scaled by max(1, max|b|); NaN propagates."""
    diff = np.max(np.abs(a - b))
    return float(diff / max(1.0, float(np.max(np.abs(b)))))


def _certify(op: Op, residual: float, tolerance: float) -> Op:
    op.residual = float(residual)
    op.certified = math.isfinite(op.residual) and op.residual <= tolerance
    return op


def _report_op(name: str, cell: str, report) -> Op:
    """An IdentityReport's verdict, trusted only with a finite residual."""
    residual = float(report.max_residual)
    return Op(name, cell, residual, bool(report.passed) and math.isfinite(residual))


class _Timed:
    """Runs program calls, accumulating their wall time; records what raised.

    With a HostClock, the clock's handler time is taken off `wall` and the
    same calls are also summed in nominal seconds (`clock.nominal_s`).
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.raw = 0.0

    @property
    def wall(self) -> float:
        return self.raw - (self.clock.stolen if self.clock else 0.0)

    def call(self, fn, *args, **kwargs):
        if self.clock:
            self.clock.resume()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), None
        except Exception as exc:  # a raising op is a measured outcome, not a crash
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            self.raw += time.perf_counter() - start
            if self.clock:
                self.clock.pause()


def _raised(names, cell: str, error: str) -> list[Op]:
    return [Op(name, cell, math.nan, False, True, error) for name in names]


# ---------------------------------------------------------------------------
# report-grid
# ---------------------------------------------------------------------------


def report_grid(seed: int, tracer=None, clock=None) -> dict:
    argv = ["report", "--format", "json", "--seed", str(seed)]
    out = io.StringIO()
    timed = _Timed(clock)
    with contextlib.redirect_stdout(out):
        code, error = timed.call(cli.main, argv)
    checks = []
    ops = []
    if error is not None:
        checks.append(f"cli.main raised {error}")
        ops = _raised(["report"] * REPORT_GRID_REPORTS, "report-grid", error)
    else:
        ops, checks = check_report_json(out.getvalue())
        if code != (0 if all(op.certified for op in ops) else 1):
            checks.append(f"exit code {code} disagrees with the report verdicts")
    return {"wall_s": timed.wall, "nominal_s": clock.nominal_s if clock else None, "cell_ms": [], "ops": ops, "checks": checks}


def check_report_json(text: str) -> tuple[list[Op], list[str]]:
    """Parse the report output; every report must round-trip through from_dict."""
    checks = []
    try:
        payload = json.loads(text)
        reports = payload["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        return _raised(["report"] * REPORT_GRID_REPORTS, "report-grid", repr(exc)), [f"unparseable output: {exc!r}"]
    if len(reports) != REPORT_GRID_REPORTS or payload["summary"]["reports"] != len(reports):
        checks.append(f"{len(reports)} reports, expected {REPORT_GRID_REPORTS}")
    ops = []
    for entry in reports:
        report = kz.IdentityReport.from_dict(entry)
        if report.to_dict() != entry:
            checks.append(f"report {report.identity} {report.family} N={report.n} does not round-trip")
        ops.append(_report_op(report.identity, f"{report.family}{report.params}:{report.n}", report))
    return ops, checks


# ---------------------------------------------------------------------------
# exact-deep
# ---------------------------------------------------------------------------


def exact_deep(seed: int, tracer=None, clock=None) -> dict:
    timed = _Timed(clock)
    ops, checks, cell_ms = [], [], []
    n = EXACT_DEEP_N
    for spec in seeded_specs(seed):
        cell = cell_id(spec, n)
        if tracer is not None:
            tracer.cell = cell
        before = timed.wall
        nodes, error = timed.call(lambda: kz.zeros(kz.build_family(spec, n)[n], spec))
        if error is not None:
            ops += _raised(("quadrature", "transition", "eigenpair"), cell, error)
            checks.append(f"{cell}: zeros raised {error}")
            continue
        quad, quad_error = timed.call(kz.quadrature_exactness, nodes, spec)
        pair, pair_error = timed.call(kz.transition, nodes, spec)
        eig, eig_error = timed.call(kz.verify_eigenpairs, spec, n)
        cell_ms.append(1e3 * (timed.wall - before))

        if quad_error is None:
            ops.append(_certify(Op("quadrature", cell), quad[0], QUADRATURE_TOL))
        else:
            ops += _raised(["quadrature"], cell, quad_error)
        if pair_error is None:
            l_mat, l_inv = pair[0].data, pair[1].data
            # entrywise rounding-error scale, as the entries of L_inv reach 1e17 for hermite
            scale = np.maximum(1.0, np.abs(l_mat) @ np.abs(l_inv))
            residual = float(np.max(np.abs(l_mat @ l_inv - np.eye(n)) / scale))
            ops.append(_certify(Op("transition", cell), residual, TRANSITION_TOL))
            # Row 0 of L is lambda_k p_0 / ||p_0||^2 and L_inv[k, 0] = p_0(x_k),
            # so their product has the sign of the Christoffel number lambda_k.
            if not np.all(l_mat[0, :] * l_inv[:, 0] > 0):
                checks.append(f"{cell}: a Christoffel weight is not positive")
        else:
            ops += _raised(["transition"], cell, pair_error)
            checks.append(f"{cell}: transition raised {pair_error}")
        if eig_error is None:
            ops.append(_report_op("eigenpair", cell, eig))
        else:
            ops += _raised(["eigenpair"], cell, eig_error)
    return {"wall_s": timed.wall, "nominal_s": clock.nominal_s if clock else None, "cell_ms": cell_ms, "ops": ops, "checks": checks}


# ---------------------------------------------------------------------------
# float-sweep
# ---------------------------------------------------------------------------

DIFFMAT_CALLS = tuple((k, m) for k in (1, 2, 3, 4) for m in matrices.DIFFMAT_METHODS if not (m == "explicit" and k > 2))


def _float_calls(spec, n: int, nodes) -> dict:
    """The program calls of one float-sweep cell after its zeros, by op name."""
    calls = {f"diffmat-{k}-{m}": (lambda k=k, m=m: kz.diffmat(k, nodes, m)) for k, m in DIFFMAT_CALLS}
    calls["collocation"] = lambda: kz.collocation_rep(kz.operator_of(spec), nodes)
    for formula in ("family", "fourth-order") if spec.is_krall else ("family",):
        calls[f"simplified-{formula}"] = lambda formula=formula: kz.collocation_rep_simplified(spec, nodes, formula)
    calls["eigenpair"] = lambda: kz.verify_eigenpairs(spec, n, arithmetic="float")
    calls["spectrum"] = lambda: kz.spectrum_report(spec, n)
    calls["spectrum-spaced"] = lambda: kz.spectrum_report(
        spec, n, nodes=kz.equally_spaced_nodes(spec, n), tolerance=SPACED_SPECTRUM_TOL
    )
    if spec.is_krall:
        calls["fourth-order"] = lambda: kz.verify_fourth_order(spec, n)
        calls["variants"] = lambda: kz.discriminate_variants(spec, n)
    return calls


def _float_cell(spec, n: int, timed: _Timed):
    """(family, nodes, {op name: (result, error)}), or the error of family or zeros."""
    family, error = timed.call(kz.build_family, spec, n)
    if error is None:
        nodes, error = timed.call(kz.zeros, family[n], spec)
    if error is not None:
        return None, error
    return (family, nodes, {name: timed.call(fn) for name, fn in _float_calls(spec, n, nodes).items()}), None


def _float_checks(spec, n: int, cell: str, family, nodes, out: dict) -> list[Op]:
    x = nodes.as_array()
    probe = family[n - 1]  # degree N-1: every differentiation matrix is exact on it
    values = np.array([float(probe(Fraction(v))) for v in x])
    derivs = {k: np.array([float(probe.derivative(k)(Fraction(v))) for v in x]) for k in (1, 2, 3, 4)}
    general = None
    ops = []
    for name, (result, error) in out.items():
        if error is not None:
            ops += _raised([name], cell, error)
            continue
        op = Op(name, cell)
        if name.startswith("diffmat-"):
            k = int(name.split("-")[1])
            ops.append(_certify(op, _rel(result.data @ values, derivs[k]), DIFFMAT_TOL))
        elif name == "collocation":
            general = result.data
            # p_0 is constant, so D 1 = mu_0 1; scaled by the infinity norm of D
            mu0 = float(families.eigenvalue(spec, 0))
            scale = max(1.0, float(np.max(np.sum(np.abs(general), axis=1))))
            ops.append(_certify(op, float(np.max(np.abs(general.sum(axis=1) - mu0))) / scale, ROWSUM_TOL))
        elif name.startswith("simplified-"):
            if general is None:
                ops += _raised([name], cell, "no general collocation matrix to compare with")
            else:
                ops.append(_certify(op, _rel(result.data, general), SIMPLIFIED_TOL))
        elif name == "variants":
            verdict = result["verdict"]
            survivor = result["printed"] if verdict == "printed" else result["corrected"]
            op.residual = float(survivor.max_residual)
            op.certified = verdict != "ambiguous" and survivor.passed and math.isfinite(op.residual)
            ops.append(op)
        else:
            ops.append(_report_op(name, cell, result))
    return ops


def float_sweep(seed: int, tracer=None, clock=None) -> dict:
    timed = _Timed(clock)
    ops, checks, cell_ms = [], [], []
    for spec, n in float_sweep_cells(seed):
        cell = cell_id(spec, n)
        if tracer is not None:
            tracer.cell = cell
        before = timed.wall
        outputs, error = _float_cell(spec, n, timed)
        cell_ms.append(1e3 * (timed.wall - before))
        if error is not None:
            checks.append(f"{cell}: family or zeros raised {error}")
            ops += _raised(_float_calls(spec, n, None), cell, error)
            continue
        ops += _float_checks(spec, n, cell, *outputs)
    return {"wall_s": timed.wall, "nominal_s": clock.nominal_s if clock else None, "cell_ms": cell_ms, "ops": ops, "checks": checks}


PASSES = {"report-grid": report_grid, "exact-deep": exact_deep, "float-sweep": float_sweep}

# Workloads on which every operation certifies on a correct program; an
# uncertified op there is a wrong output. Float-sweep keeps ops that hit
# double-precision limits (float eigenpairs at large N, krall-laguerre closed
# forms), so there an uncertified op is counted but is not a failure.
EXPECT_ALL_CERTIFIED = {"report-grid": True, "exact-deep": True, "float-sweep": False}


def summarise(ops: list[Op], expect_all_certified: bool) -> dict:
    """Op counts and the residual figure, NaN-safe.

    A non-finite residual always fails its op; it is left out of the log10
    mean, which would otherwise turn NaN or be silently dropped by max().
    """
    attempted = len(ops)
    raised = sum(op.raised for op in ops)
    nonfinite = sum(not op.raised and not math.isfinite(op.residual) for op in ops)
    certified = sum(op.certified and math.isfinite(op.residual) for op in ops)
    uncertified = attempted - raised - certified
    failed = raised + nonfinite + (uncertified - nonfinite if expect_all_certified else 0)
    logs = [math.log10(max(op.residual, RESIDUAL_FLOOR)) for op in ops if not op.raised and math.isfinite(op.residual)]
    return {
        "attempted": attempted,
        "certified": certified,
        "raised": raised,
        "nonfinite": nonfinite,
        "uncertified": uncertified,
        "failed": failed,
        "fail_ratio": (attempted - certified) / attempted if attempted else math.nan,
        "residual_log10_mean": math.fsum(logs) / len(logs) if logs else math.nan,
    }
