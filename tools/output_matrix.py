"""Write the command-line outputs that a change to the package must leave unchanged.

    python3 tools/output_matrix.py OUTDIR

krallzeros is imported from the `src/` directory of the tree this script
sits in. Through the command-line driver, in one process, it runs:

- `report --format json` with `--seed 0` and `--seed 1`, and `report
  --seed 0` with `--format text` and `--format csv`;
- `verify --suite S --format json --n 2..8` for every suite S and every
  reference spec (a suite that does not apply to a family exits 2), and
  for every reference spec also `--suite klag-main` with `--variant
  printed` and `--variant both` and `--suite power --exponent 3`;
- `verify --suite S --format json --n 20` for S in eigenpair, power,
  similarity, quadrature, spectrum and diffmat and every reference spec:
  the exact D p_m, the Gaussian moment sums, the float spectrum on the
  zeros and on equally spaced points and the differentiation matrices'
  cross-checks at N = 20;
- `verify --format json --n 20` on each Krall reference spec with `--suite
  fourth-order` and with the spec's own family-identity suite (`kleg-main`,
  `klag-main` or `kjac-main`) under `--variant corrected`, `printed` and
  `both`: the closed-form identities where krall-laguerre loses digits;
- `verify --suite S --format json --n 40` for S in eigenpair, power,
  quadrature and similarity, `matrix --kind K --format json --n 40` for K
  in l and linv, and `matrix --kind z --order 1..2 --method explicit
  --format json --n 40`, on krall-legendre(1) and hermite, whose zeros
  exist there: the exact moment sums, D p_m, the transition pair and the
  explicit Z^(1), Z^(2) at N = 40, and `matrix --kind dtau --format json
  --n 40`, the spectral matrix, whose entries divide by the squared norms
  of the members; on the same two specs, `zeros --format json` at N = 1,
  where the one zero is 0, and at N = 40, and `verify --suite quadrature
  --format json --n 60` and `matrix --kind l --format json --n 60`: the
  moment sums and the value table past N = 40, where their fixed-point
  bits grow with the bound;
- `zeros` and `verify --suite eigenpair` with `--format json --n 24` on
  krall-jacobi(1, 2), the first degree where zeros from the companion
  matrix of the monomial coefficients failed for that spec;
- `matrix --kind K --format json --n 40` for K in lambda and l on
  krall-laguerre(1), where the 192-bit refined zeros run out of precision
  and both exit 1, and on hermite `zeros --format json --n 204`, whose
  zeros are all certified but whose p', p'', p''' there overflow doubles,
  `matrix --kind dc-simplified --format json --n 204`, the closed form that
  reads them, and `verify --suite spectrum --format json --n 205`;
- `matrix --kind dtau --format json --nodes 0.125,0.375,0.625,0.875` on
  hermite, an option the spectral matrix does not read, and `verify --suite
  power --format json --n 8 --exponent 80` on krall-legendre(1), whose
  largest mu^80 is near 1e279, inside double range;
- on hermite `zeros --format json` at N = 206, where p' at the outer zeros
  leaves double range while p / p' does not, and at N = 300, where p at
  the zeros does, and `verify --suite spectrum --format json --n 206`;
- `verify --suite S --format json --n 3` for S in eigenpair and power and
  `matrix --kind K --format json --n 3` for K in dc-simplified and dtau on
  krall-legendre(1e307), whose mu_2 is near 2.4e308, past double range;
- `zeros`, `family` and `family --mode float` with `--format json --n 12`
  for every reference spec;
- `matrix --format json --n 12` for every reference spec and every matrix:
  the float and both closed-form collocation matrices (`--kind dc`,
  `dc-simplified --formula family` and `--formula fourth-order`), the
  spectral matrix, the transition pair and the Christoffel weights (`dtau`,
  `l`, `linv`, `lambda`) and the differentiation matrices by every
  construction, `z --order 1..4` (recursive and `--method alternative`)
  and `z --order 1..2 --method explicit`;
- `matrix --kind dc-simplified --format json --n 20` with `--formula
  family` and `--formula fourth-order` for every reference spec: the
  closed-form collocation matrices at N = 20;
- `matrix --kind K --format json --n 20` for K in lambda, l, linv and
  dtau and every reference spec: the Christoffel weights, the transition
  pair and the spectral matrix at N = 20, and `matrix --kind z --order 1..2 --method explicit --format
  json --n 20`: the explicit Z^(1) and Z^(2) at N = 20;
- `matrix --format json --nodes 0.125,0.375,0.625,0.875` for every
  reference spec and `--kind l`, `linv`, `lambda` and `dc`, and `--nodes`
  at the eight points (2k + 1) / 16 with `--kind l`, `linv` and `lambda`:
  matrices on given nodes, which lie inside every support hull (`l` and
  `linv` come from `transition_general` there), with N taken from the node
  count;
- with `--format csv` and with `--format text` for every reference spec:
  `family --n 12` and `family --mode float --n 12`, `zeros --n 12`,
  `matrix --kind dc --n 12` and `matrix --kind z --order 2 --n 12`,
  `verify --suite all --n 2..4` and `verify --suite spectrum --n 4
  --tolerance 1e-30`, which fails and names its worst cell: the CSV and
  text layout of every command, a failing run's included.

The reference specs are hermite, laguerre(1/2), jacobi(1/2, 2),
krall-legendre(2), krall-laguerre(1/2) and krall-jacobi(1, 2). Each run's
stdout goes to OUTDIR/<run>.<format>; OUTDIR/exit_codes.txt lists every run
with its exit code and its stderr. To compare two trees, run the script
from each into its own directory and `diff -r` the two directories.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from krallzeros import cli  # noqa: E402
from krallzeros.identities import SUITES  # noqa: E402

MATRIX_RUNS = {
    "dc": ["--kind", "dc"],
    "dc-simplified-family": ["--kind", "dc-simplified", "--formula", "family"],
    "dc-simplified-fourth-order": ["--kind", "dc-simplified", "--formula", "fourth-order"],
    **{kind: ["--kind", kind] for kind in ("dtau", "l", "linv", "lambda")},
    **{f"z{k}": ["--kind", "z", "--order", str(k)] for k in (1, 2, 3, 4)},
    **{f"z{k}-alternative": ["--kind", "z", "--order", str(k), "--method", "alternative"] for k in (1, 2, 3, 4)},
    **{f"z{k}-explicit": ["--kind", "z", "--order", str(k), "--method", "explicit"] for k in (1, 2)},
}

GIVEN_NODES = "0.125,0.375,0.625,0.875"
EIGHT_NODES = ",".join(str((2 * k + 1) / 16) for k in range(8))

SUITE_RUNS = {
    **{suite: [suite] for suite in SUITES},
    "klag-main-printed": ["klag-main", "--variant", "printed"],
    "klag-main-both": ["klag-main", "--variant", "both"],
    "power-exponent3": ["power", "--exponent", "3"],
}

N20_SUITES = ("eigenpair", "power", "similarity", "quadrature", "spectrum", "diffmat")

#: The explicit differentiation matrices, also run at N = 20 and N = 40.
EXPLICIT_RUNS = {f"z{k}-explicit": MATRIX_RUNS[f"z{k}-explicit"] for k in (1, 2)}

#: The family-identity suite of each Krall reference spec, run at N = 20 beside fourth-order.
FAMILY_SUITES = {"krall-legendre-2": "kleg-main", "krall-laguerre-1_2": "klag-main", "krall-jacobi-1-2": "kjac-main"}

N40_SPECS = {
    "krall-legendre-1": ["--family", "krall-legendre", "--alpha", "1"],
    "hermite": ["--family", "hermite"],
}

#: Runs made with --format csv and --format text for every reference spec.
LAYOUT_RUNS = {
    "family": ["family", "--n", "12"],
    "family-float": ["family", "--mode", "float", "--n", "12"],
    "zeros": ["zeros", "--n", "12"],
    "matrix-dc": ["matrix", "--kind", "dc", "--n", "12"],
    "matrix-z2": ["matrix", "--kind", "z", "--order", "2", "--n", "12"],
    "verify-all": ["verify", "--suite", "all", "--n", "2..4"],
    "verify-spectrum-fail": ["verify", "--suite", "spectrum", "--n", "4", "--tolerance", "1e-30"],
}

REFERENCE_SPECS = {
    "hermite": ["--family", "hermite"],
    "laguerre-1_2": ["--family", "laguerre", "--alpha", "1/2"],
    "jacobi-1_2-2": ["--family", "jacobi", "--alpha", "1/2", "--beta", "2"],
    "krall-legendre-2": ["--family", "krall-legendre", "--alpha", "2"],
    "krall-laguerre-1_2": ["--family", "krall-laguerre", "--alpha", "1/2"],
    "krall-jacobi-1-2": ["--family", "krall-jacobi", "--alpha", "1", "--m-param", "2"],
}


def runs() -> dict[str, list[str]]:
    """Output name -> command-line arguments."""
    out = {f"report-seed{seed}": ["report", "--format", "json", "--seed", str(seed)] for seed in (0, 1)}
    for fmt in ("text", "csv"):
        out[f"report-seed0-{fmt}"] = ["report", "--format", fmt, "--seed", "0"]
    for name, spec in REFERENCE_SPECS.items():
        for suite, options in SUITE_RUNS.items():
            out[f"verify-{suite}-{name}"] = ["verify", "--suite", *options, *spec, "--format", "json", "--n", "2..8"]
        for suite in N20_SUITES:
            out[f"verify-{suite}-n20-{name}"] = ["verify", "--suite", suite, *spec, "--format", "json", "--n", "20"]
        if name in FAMILY_SUITES:
            closed_forms = {"fourth-order": ["fourth-order"]}
            for variant in ("corrected", "printed", "both"):
                closed_forms[f"{FAMILY_SUITES[name]}-{variant}"] = [FAMILY_SUITES[name], "--variant", variant]
            for run_name, options in closed_forms.items():
                out[f"verify-{run_name}-n20-{name}"] = [
                    "verify", "--suite", *options, *spec, "--format", "json", "--n", "20",
                ]
        for command in ("zeros", "family"):
            out[f"{command}-{name}"] = [command, *spec, "--format", "json", "--n", "12"]
        out[f"family-float-{name}"] = ["family", "--mode", "float", *spec, "--format", "json", "--n", "12"]
        for matrix, kind in MATRIX_RUNS.items():
            out[f"matrix-{matrix}-{name}"] = ["matrix", *kind, *spec, "--format", "json", "--n", "12"]
        for formula in ("family", "fourth-order"):
            out[f"matrix-dc-simplified-{formula}-n20-{name}"] = [
                "matrix", "--kind", "dc-simplified", "--formula", formula, *spec, "--format", "json", "--n", "20",
            ]
        for kind in ("l", "linv", "lambda", "dc"):
            out[f"matrix-{kind}-nodes-{name}"] = [
                "matrix", "--kind", kind, *spec, "--format", "json", "--nodes", GIVEN_NODES,
            ]
        for kind in ("lambda", "l", "linv", "dtau"):
            out[f"matrix-{kind}-n20-{name}"] = ["matrix", "--kind", kind, *spec, "--format", "json", "--n", "20"]
        for kind in ("lambda", "l", "linv"):
            out[f"matrix-{kind}-nodes8-{name}"] = [
                "matrix", "--kind", kind, *spec, "--format", "json", "--nodes", EIGHT_NODES,
            ]
        for matrix, kind in EXPLICIT_RUNS.items():
            out[f"matrix-{matrix}-n20-{name}"] = ["matrix", *kind, *spec, "--format", "json", "--n", "20"]
        for run_name, options in LAYOUT_RUNS.items():
            for fmt in ("csv", "text"):
                out[f"{run_name}-{name}-{fmt}"] = [*options, *spec, "--format", fmt]
    for name, spec in N40_SPECS.items():
        for suite in ("eigenpair", "power", "quadrature", "similarity"):
            out[f"verify-{suite}-n40-{name}"] = ["verify", "--suite", suite, *spec, "--format", "json", "--n", "40"]
        for kind in ("l", "linv", "dtau"):
            out[f"matrix-{kind}-n40-{name}"] = ["matrix", "--kind", kind, *spec, "--format", "json", "--n", "40"]
        for matrix, kind in EXPLICIT_RUNS.items():
            out[f"matrix-{matrix}-n40-{name}"] = ["matrix", *kind, *spec, "--format", "json", "--n", "40"]
        for n in (1, 40):
            out[f"zeros-n{n}-{name}"] = ["zeros", *spec, "--format", "json", "--n", str(n)]
        out[f"verify-quadrature-n60-{name}"] = [
            "verify", "--suite", "quadrature", *spec, "--format", "json", "--n", "60",
        ]
        out[f"matrix-l-n60-{name}"] = ["matrix", "--kind", "l", *spec, "--format", "json", "--n", "60"]
    kjac = REFERENCE_SPECS["krall-jacobi-1-2"]
    out["zeros-n24-krall-jacobi-1-2"] = ["zeros", *kjac, "--format", "json", "--n", "24"]
    out["verify-eigenpair-n24-krall-jacobi-1-2"] = [
        "verify", "--suite", "eigenpair", *kjac, "--format", "json", "--n", "24",
    ]
    klag1 = ["--family", "krall-laguerre", "--alpha", "1"]
    for kind in ("lambda", "l"):
        out[f"matrix-{kind}-n40-krall-laguerre-1"] = ["matrix", "--kind", kind, *klag1, "--format", "json", "--n", "40"]
    hermite, kleg1 = N40_SPECS["hermite"], N40_SPECS["krall-legendre-1"]
    out["zeros-n204-hermite"] = ["zeros", *hermite, "--format", "json", "--n", "204"]
    out["matrix-dc-simplified-n204-hermite"] = [
        "matrix", "--kind", "dc-simplified", *hermite, "--format", "json", "--n", "204",
    ]
    out["verify-spectrum-n205-hermite"] = ["verify", "--suite", "spectrum", *hermite, "--format", "json", "--n", "205"]
    out["matrix-dtau-nodes-hermite"] = [
        "matrix", "--kind", "dtau", *hermite, "--format", "json", "--nodes", GIVEN_NODES,
    ]
    out["verify-power-exponent80-n8-krall-legendre-1"] = [
        "verify", "--suite", "power", *kleg1, "--format", "json", "--n", "8", "--exponent", "80",
    ]
    for n in (206, 300):
        out[f"zeros-n{n}-hermite"] = ["zeros", *hermite, "--format", "json", "--n", str(n)]
    out["verify-spectrum-n206-hermite"] = [
        "verify", "--suite", "spectrum", *hermite, "--format", "json", "--n", "206",
    ]
    kleg_huge = ["--family", "krall-legendre", "--alpha", "1e307", "--format", "json", "--n", "3"]
    for suite in ("eigenpair", "power"):
        out[f"verify-{suite}-n3-krall-legendre-1e307"] = ["verify", "--suite", suite, *kleg_huge]
    for kind in ("dc-simplified", "dtau"):
        out[f"matrix-{kind}-n3-krall-legendre-1e307"] = ["matrix", "--kind", kind, *kleg_huge]
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command-line run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_matrix.py OUTDIR", file=sys.stderr)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    codes = []
    for name, args in runs().items():
        code, out, err = run(args)
        with open(os.path.join(outdir, f"{name}.{args[args.index('--format') + 1]}"), "w") as handle:
            handle.write(out)
        codes.append(f"{name}\t{code}\t{err.strip()}\n")
    with open(os.path.join(outdir, "exit_codes.txt"), "w") as handle:
        handle.writelines(codes)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
