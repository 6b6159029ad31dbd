"""Batch command-line driver.

Subcommands: family (coefficient tables), zeros (nodes with residuals),
matrix (export any matrix as CSV/JSON/text), verify (run one identity suite
over a family/N grid, exit 0 only if everything passes), report (the whole
default verification grid in one shot).

Output is machine-readable: JSON reports follow a fixed
meta / results / summary layout, CSV files carry a provenance comment line
followed by an RFC-4180 style header row, rationals are printed as "p/q",
and doubles with 17 significant digits so they round-trip bit-faithfully.
One writer, `_emit`, lays out all three formats for every command and
builds only the one asked for; the commands hand it their pieces.
`--format json` output is byte-identical to json.dumps with indent=2
but is written through CPython's C encoder (`_dumps`), which json.dumps
uses only without indentation. It rests on one invariant: encoded JSON
never holds a raw newline inside a string, so every raw newline is a
separator the writer chose. A container of scalars is one C call whose
item separator carries the newline and indentation; a list of non-empty
dicts of scalars (the record case: `results`, `eigenpairs`) is one C call
too, its record boundaries `},<newline>{` then re-indented by one
str.replace. Anything else recurses.
Runs are deterministic for a fixed configuration; the only randomness (test
polynomials for the differentiation-matrix suite) is seeded and the seed is
echoed in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
import tempfile
from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional

from . import matrices
from .families import (
    FAMILIES,
    FamilySpec,
    ParameterError,
    build_family,
    operator_of,
)
from .identities import ALL_SUITES, SUITES, IdentityReport, default_grid, worst_residual
from .rootfinding import NodeSet, NonSimpleRootError, RootfindingError, _at_double, zeros

SUITE_ALIASES = {"thm1": "eigenpair", "krall4": "fourth-order"}

MATRIX_KINDS = ("z", "ztilde", "dc", "dc-simplified", "dtau", "l", "linv", "lambda")

#: What an omitted --order, --method, --formula, --exponent, --variant or --seed means.
DEFAULTS = {"order": 1, "method": "recursive", "formula": "family", "exponent": 2, "variant": "corrected", "seed": 0}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


#: Types the C encoder writes exactly as json.dumps with indent=2 does, at any depth.
_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _encoder(newline: str):
    """CPython's C JSON encoder with item separator ',' + newline.

    Calling it as encoder(value, 0) returns a list of chunks: the C
    accumulator starts a new chunk every 100,000 pieces, so a long list
    comes back split. Read it through `_c`, which joins them.
    """
    # markers, default, encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan
    default = json.JSONEncoder().default
    return c_make_encoder(None, default, encode_basestring_ascii, None, ": ", "," + newline, False, False, True)


def _c(value, newline: str = "") -> str:
    """The C encoding of `value` with item separator ',' + newline, all chunks joined."""
    return "".join(_encoder(newline)(value, 0))


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return '"' + _c(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _dumps(value, newline: str = "\n") -> str:
    """Exactly json.dumps(value) with indent=2 for an acyclic value, with whole containers in the C encoder.

    `newline` is the line break plus the indentation of the line the value
    starts on. Encoded JSON holds no raw newline inside a string, so the
    writer can put the newline and indentation into the C encoder's item
    separator:
    - a list, tuple or dict whose values are all scalars is one C call,
      wrapped in its brackets;
    - a list of non-empty dicts whose values are all scalars (the record
      case) is one C call with the records' separator. No scalar ends in
      '}' and every record item starts with a key, so '},' + newline + '{'
      occurs only between records, and one str.replace gives the list its
      own separators;
    - anything else recurses, one item at a time.
    Types are checked per container at C speed (set(map(type, ...))).
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        types = set(map(type, value))
        if types <= _SCALARS:
            return "[" + inner + _c(value, inner)[1:-1] + newline + "]"
        if types == {dict} and all(value) and set(map(type, chain.from_iterable(map(dict.values, value)))) <= _SCALARS:
            deeper = inner + "  "
            body = _c(value, deeper)[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
            return "[" + inner + "{" + deeper + body + inner + "}" + newline + "]"
        parts = [_c(v) if type(v) in _SCALARS else _dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        if type(value) is dict and set(map(type, value.values())) <= _SCALARS:
            return "{" + inner + _c(value, inner)[1:-1] + newline + "}"
        parts = [
            (encode_basestring_ascii(k) if type(k) is str else _key(k))
            + ": "
            + (_c(v) if type(v) in _SCALARS else _dumps(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    return _c(value)


def _write_out(text: str, path: Optional[str]) -> None:
    """Write text to stdout, or to path with symlinks followed.

    A regular file is replaced atomically and keeps its mode (a new one gets
    0o666 less the umask); any other target, a FIFO or a device, is written into.
    """
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    target = os.path.realpath(path)
    try:
        if not os.path.exists(target):
            os.umask(umask := os.umask(0))  # the umask is read by setting it, then put back
            mode = 0o666 & ~umask
        elif os.path.isfile(target):
            mode = stat.S_IMODE(os.stat(target).st_mode)
        else:  # a FIFO or a device is written into, never replaced
            with open(target, "w") as handle:
                handle.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".krallzeros-")
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(fd, mode)
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ParameterError(f"--out {path}: {exc.strerror or exc}") from None


def _emit(args, payload: Callable, comment: str, header: str, rows: Iterable[str], lines: Iterable[str]) -> int:
    """Write a command's output in --format, the only code that knows the three layouts; returns 0.

    json is _dumps(payload()); csv is '# ' + comment, the header and the rows, each line ending in a
    newline; text is the lines with no final newline. Only that format's piece is called or consumed.
    """
    if args.format == "json":
        text = _dumps(payload())
    elif args.format == "csv":
        text = "".join(line + "\n" for line in chain((f"# {comment}", header), rows))
    else:
        text = "\n".join(lines)
    _write_out(text, args.out)
    return 0


def _spec_from_args(args) -> FamilySpec:
    if not args.family or args.family == "all":
        raise ParameterError("this command needs a single --family")
    return FamilySpec(args.family, alpha=args.alpha, beta=args.beta, mass=args.m_param)


def _parse_n(args, single: bool = False, least: int = 1) -> list[int]:
    """The degrees of --n or --n-range, none below least, read before anything is built; single takes one."""
    if args.n is not None and args.n_range is not None:
        raise ParameterError("--n and --n-range both give the degrees; give one")
    option, raw = ("--n-range", args.n_range) if args.n_range else ("--n", args.n)
    if raw is None:
        raise ParameterError("--n (or --n-range) is required")
    try:
        lo, hi = map(int, raw.split("..", 1) if ".." in raw else (raw, raw))
    except ValueError:
        raise ParameterError(f"{option} value {raw!r} is not an integer or a range like 2..12") from None
    if hi < lo:
        raise ParameterError(f"empty range {raw!r}")
    if single and hi > lo:
        raise ParameterError(f"{option} value {raw!r} spans {hi - lo + 1} degrees; {args.command} takes one")
    if lo < least:
        raise ParameterError(f"need n >= {least}")
    return list(range(lo, hi + 1))


def _settle(args, reader: str, **read: bool) -> None:
    """Give each omitted option its default; one given to a `reader` that does not read it is refused."""
    for dest, is_read in read.items():
        if getattr(args, dest) is None:
            setattr(args, dest, DEFAULTS.get(dest))
        elif not is_read:
            raise ParameterError(f"--{dest.replace('_', '-')} is not read by {reader}")


def _fraction_str(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


# ---------------------------------------------------------------------------
# family / zeros / matrix
# ---------------------------------------------------------------------------


def cmd_family(args) -> int:
    spec = _spec_from_args(args)
    n = _parse_n(args, single=True, least=0)[0]
    # member by member, so a float table stops at its first member past double range
    members = (build_family(spec, nu)[nu] for nu in range(n + 1))
    rows = []
    for nu, p in enumerate(members):
        if args.mode == "rational":
            coeffs = [_fraction_str(c) for c in p.coeffs]
        else:
            try:
                rounded = p.to_float().coeffs
            except OverflowError:
                raise ValueError(f"{spec.label()}: degree-{nu} coefficients overflow double precision") from None
            # to_float trims a top coefficient that rounds to 0.0; interior zeros stay
            if len(rounded) < len(p.coeffs):
                raise ValueError(f"{spec.label()}: degree-{nu} leading coefficient underflows double precision")
            coeffs = [_fmt(c) for c in rounded]
        rows.append({"degree": nu, "coefficients": coeffs})
    title = f"{spec.label()}, coefficients by ascending power:"
    return _emit(
        args, lambda: {"family": spec.label(), "mode": args.mode, "members": rows},
        f"coefficient table for {spec.label()}, mode={args.mode}", "degree," + ",".join(f"c{k}" for k in range(n + 1)),
        (",".join([str(r["degree"]), *r["coefficients"]] + [""] * (n + 1 - len(r["coefficients"]))) for r in rows),
        chain([title], (f"  degree {r['degree']}: [{', '.join(r['coefficients'])}]" for r in rows)),
    )


def cmd_zeros(args) -> int:
    spec = _spec_from_args(args)
    n = _parse_n(args, single=True)[0]
    member = build_family(spec, n)[n]
    node_set = zeros(member, spec)
    residuals = [abs(_at_double(*member._integer_form(), x)) for x in node_set.nodes]
    title = f"zeros of the degree-{n} member of {spec.label()}"
    return _emit(
        args, lambda: {"family": spec.label(), "N": n, "zeros": list(node_set.nodes), "residuals": residuals},
        title, "zero,residual", (f"{_fmt(x)},{_fmt(r)}" for x, r in zip(node_set.nodes, residuals)),
        chain([title + ":"], (f"  {_fmt(x)}   |p| = {r:.3e}" for x, r in zip(node_set.nodes, residuals))),
    )


def _node_value(text: str) -> float:
    try:
        return float(Fraction(text))
    except OverflowError:
        raise ParameterError(f"--nodes value {text} is outside double range") from None
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"--nodes value {text!r} is not a finite number") from None


def _matrix_for(args) -> matrices.MatrixRep:
    kind = "z" if args.kind == "ztilde" else args.kind
    spec_read = not (kind == "z" and args.nodes)  # z on given nodes builds no spec
    _settle(
        args, f"--kind {args.kind}" + ("" if spec_read else " on given --nodes"),
        order=kind == "z", method=kind == "z", formula=kind == "dc-simplified",
        nodes=kind not in ("dtau", "dc-simplified"),
        **dict.fromkeys(("family", "alpha", "beta", "m_param"), spec_read),
    )
    if args.nodes:
        try:
            node_set = NodeSet.from_points([_node_value(v) for v in args.nodes.split(",")])
        except NonSimpleRootError as exc:
            raise ParameterError(f"--nodes {exc}") from None
        if (args.n or args.n_range) and _parse_n(args) != [len(node_set)]:
            raise ParameterError(f"--n {args.n_range or args.n} disagrees with the {len(node_set)} given nodes")
    else:
        node_set = None

    if spec_read:
        spec = _spec_from_args(args)
        n = _parse_n(args, single=True)[0] if node_set is None else len(node_set)
        if kind == "dtau":
            return matrices.tau_rep(operator_of(spec), spec, n)
        if node_set is None:
            node_set = zeros(build_family(spec, n)[n], spec)
    if kind == "z":
        return matrices.diffmat(args.order, node_set, method=args.method)
    if kind == "dc":
        return matrices.collocation_rep(operator_of(spec), node_set)
    if kind == "dc-simplified":
        return matrices.collocation_rep_simplified(spec, node_set, formula=args.formula)
    if kind == "lambda":
        return (matrices.interpolatory_weights if args.nodes else matrices.christoffel)(node_set, spec)
    l_rep, li_rep = (matrices.transition_general if args.nodes else matrices.transition)(node_set, spec)
    return l_rep if kind == "l" else li_rep


def cmd_matrix(args) -> int:
    rep = _matrix_for(args)
    data = rep.data
    return _emit(
        args, lambda: {"kind": rep.kind, "note": rep.note, "shape": list(data.shape), "data": data.tolist()},
        f"{rep.kind}: {rep.note}", ",".join(f"c{j + 1}" for j in range(data.shape[1])),
        (",".join(_fmt(v) for v in row) for row in data),
        chain([f"{rep.kind} ({rep.note}):"], ("  " + "  ".join(f"{v: .10e}" for v in row) for row in data)),
    )


# ---------------------------------------------------------------------------
# verify / report
# ---------------------------------------------------------------------------


def _verify_many(args, suites: list[str]) -> tuple[list[IdentityReport], dict]:
    """Run the suites over the grid, one cell at a time, reporting suite by suite.

    Every suite that applies to a (spec, N) runs on it before the next
    (spec, N), so all of them read the one cell `identities.get_cell` keeps;
    the reports still come out in suite -> spec -> N order.
    """
    named = args.family not in (None, "all")
    specs = [FamilySpec(args.family, alpha=args.alpha, beta=args.beta, mass=args.m_param)] if named else default_grid()
    # a lone suite on a named family it does not cover is an error, not an empty run
    strict = named and len(suites) == 1
    by_suite: dict[str, list[IdentityReport]] = {name: [] for name in suites}
    for spec in specs:
        applicable = [name for name in suites if SUITES[name].applies(name, spec, strict)]
        for n in _parse_n(args):
            for name in applicable:
                suite = SUITES[name]
                tolerance = args.tolerance if args.tolerance is not None else suite.tolerance
                by_suite[name].extend(suite.run(spec, n, tolerance, args))
    reports = [report for name in suites for report in by_suite[name]]
    summary = {
        "max_residual": worst_residual(r.max_residual for r in reports),
        "pass": all(r.passed for r in reports),
        "worst_cell": _worst_cell(reports),
        "reports": len(reports),
    }
    return reports, summary


def _worst_cell(reports: list[IdentityReport]) -> Optional[dict]:
    """The cell with the largest residual, on a failing run among the failing reports only.

    A failing report without per-cell results stands for itself, named by
    its identity, family, N and max residual.
    """
    failing = [r for r in reports if not r.passed]
    if failing:
        entries = [(r, c) for r in failing for c in r.cells or [{"residual": r.max_residual}]]
    else:
        entries = [(r, c) for r in reports for c in r.cells]
    if not entries:
        return None
    residuals = [c["residual"] for _, c in entries]
    # list.index matches by identity first, so it finds the first NaN too
    r, c = entries[residuals.index(worst_residual(residuals))]
    return dict(c, family=r.family, params=r.params, N=r.n, identity=r.identity)


def _params(r: IdentityReport) -> str:
    return ";".join(f"{k}={v}" for k, v in r.params.items())


def _report_lines(reports: list[IdentityReport], summary: dict) -> Iterator[str]:
    """The text layout of a verification run: a line per report, then the summary and a failing run's worst cell."""
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        extra = f" variant={r.variant}" if r.variant else ""
        rowsum = f" rowsum={r.rowsum_residual:.3e}" if r.rowsum_residual is not None else ""
        yield f"{status} {r.identity:<18} {r.family}({_params(r)}) N={r.n}{extra} max_residual={r.max_residual:.3e}{rowsum}"
    status = "PASS" if summary["pass"] else "FAIL"
    yield f"{status}: {summary['reports']} reports, max residual {summary['max_residual']:.3e}"
    if not summary["pass"] and summary.get("worst_cell"):
        w = summary["worst_cell"]
        where = f" m={w['m']} n={w['n']}" if "m" in w else ""
        yield f"worst cell: {w['identity']} {w['family']} N={w['N']}{where} residual={w['residual']:.3e}"


def cmd_verify(args) -> int:
    if args.family in (None, "all"):
        for option, value in (("--alpha", args.alpha), ("--beta", args.beta), ("--m-param", args.m_param)):
            if value is not None:
                raise ParameterError(f"{option} {_fraction_str(value)} is read only with a single --family")
    suite = SUITE_ALIASES.get(args.suite, args.suite)
    if suite == "all":
        suites = list(ALL_SUITES)
    elif suite in SUITES:
        suites = [suite]
    else:
        raise ParameterError(f"unknown suite {args.suite!r}; choose from {(*SUITES, 'all')}")
    reads = {option for name in suites for option in SUITES[name].reads}
    _settle(args, f"--suite {args.suite}", **{dest: dest in reads for dest in ("exponent", "variant", "seed")})
    reports, summary = _verify_many(args, suites)
    meta = {
        "suite": args.suite,
        "families": sorted({r.family for r in reports}),
        "n_values": _parse_n(args),
        "tolerance": args.tolerance,
        "seed": args.seed,
    }
    _emit(
        args, lambda: reports[0].to_dict() if len(reports) == 1 else dict(
            meta=meta, reports=[r.to_dict() for r in reports], summary=summary),
        f"verification run: {json.dumps(meta)}", "identity,family,params,N,variant,max_residual,pass",
        (f"{r.identity},{r.family},{_params(r)},{r.n},{r.variant or ''},{_fmt(r.max_residual)},{r.passed}"
         for r in reports),
        _report_lines(reports, summary),
    )
    return 0 if summary["pass"] else 1


def cmd_report(args) -> int:
    if args.n is None and args.n_range is None:
        args.n = "2..12"
    return cmd_verify(args)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    """An --alpha, --beta or --m-param value; a zero denominator is a usage error, as an unreadable value is."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"invalid rational value {text!r}: zero denominator") from None


def _nonnegative(kind: type):
    """The argparse type of --tolerance (float) or --seed (int): a NaN or negative value is a usage error."""

    def parse(text: str):
        if not (value := kind(text)) >= 0:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value {text!r}: must be a number >= 0")
        return value

    parse.__name__ = kind.__name__  # argparse names the type when kind() cannot read the value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    """Each command takes the option groups it reads: spec, degree, output and check."""

    def shown(text: str, dest: str) -> str:  # help that ends with what an omitted option means
        return f"{text} ({DEFAULTS[dest]})"

    spec, degree, output, check = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    spec.add_argument("--family", choices=FAMILIES + ("all",), help="family tag, or 'all' for the default grid")
    spec.add_argument("--alpha", type=_rational, help="family parameter alpha (rational, e.g. 1/2)")
    spec.add_argument("--beta", type=_rational, help="second Jacobi exponent (classical jacobi only)")
    spec.add_argument("--m-param", dest="m_param", type=_rational, help="point-mass parameter M (krall-jacobi)")
    degree.add_argument("--n", help="degree / matrix size, a single integer or a range like 2..12")
    degree.add_argument("--n-range", dest="n_range", help="alias for a range value of --n")
    output.add_argument("--format", choices=("json", "csv", "text"), default="text")
    output.add_argument("--out", help="output path (written atomically); stdout if omitted")
    check.add_argument("--tolerance", type=_nonnegative(float), help="residual tolerance (per-suite default if omitted)")
    check.add_argument("--seed", type=_nonnegative(int), help=shown("seed for the random diffmat test polynomials", "seed"))
    single = [spec, degree, output]

    parser = argparse.ArgumentParser(prog="krallzeros", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", parents=single, help="coefficient table of the members up to degree N")
    p_family.add_argument("--mode", choices=("rational", "float"), default="rational", help="exact or rounded coefficients")
    p_family.set_defaults(func=cmd_family)

    p_zeros = sub.add_parser("zeros", parents=single, help="zeros of the degree-N member with residuals")
    p_zeros.set_defaults(func=cmd_zeros)

    p_matrix = sub.add_parser("matrix", parents=single, help="export a matrix")
    p_matrix.add_argument("--kind", choices=MATRIX_KINDS, required=True)
    p_matrix.add_argument("--order", type=int, help=shown("derivative order for --kind z", "order"))
    p_matrix.add_argument("--method", choices=matrices.DIFFMAT_METHODS, help=shown("for --kind z", "method"))
    p_matrix.add_argument("--formula", choices=("family", "fourth-order"), help=shown("for dc-simplified", "formula"))
    p_matrix.add_argument("--nodes", help="comma-separated nodes instead of family zeros")
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = sub.add_parser("verify", parents=[*single, check], help="run an identity suite over a grid")
    p_verify.add_argument("--suite", required=True, help=f"one of {(*SUITES, 'all')} (aliases: {sorted(SUITE_ALIASES)})")
    p_verify.add_argument("--variant", choices=("printed", "corrected", "both"), help=shown("for *-main", "variant"))
    p_verify.add_argument("--exponent", type=int, help=shown("power for the operator-power suite", "exponent"))
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", parents=[degree, output, check], help="full default verification grid")
    p_report.add_argument("--variant", choices=("printed", "corrected", "both"), help="for *-main (%(default)s)")
    p_report.add_argument("--exponent", type=int, help=shown("power for the operator-power suite", "exponent"))
    p_report.set_defaults(func=cmd_report, suite="all", family="all", alpha=None, beta=None, m_param=None, variant="both")

    return parser


#: Options whose value may start with a minus sign.
NEGATIVE_VALUE_OPTIONS = ("--alpha", "--beta", "--m-param", "--nodes")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join '--alpha -1/2' into '--alpha=-1/2', and likewise '--nodes -1,1'.

    argparse takes a token for a negative number only when it looks like
    -2 or -0.5, so it would read -1/2, -1e-3 or -1,1 as an unknown option.
    """
    out = []
    for token in argv:
        if out and out[-1] in NEGATIVE_VALUE_OPTIONS and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except (ParameterError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RootfindingError, matrices.PositivityError, matrices.InversionConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
