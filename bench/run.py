"""krallzeros benchmark runner.

    python3 bench/run.py --workload report-grid|exact-deep|float-sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`). Every pass runs in a fresh interpreter, one at a time: a closed
loop with one client, single-threaded numerics. A user's `krallzeros report`
starts cold, so a process-wide cache cannot make repeated passes free.

--trace 0 runs as many passes as fit in S seconds (at least one), then
SETUP_SAMPLES set-up-only starts, and reports the end-to-end metrics as
medians, times in nominal seconds (see bench/hostclock.py) with the
wall-clock figures printed beside them; --trace 1 runs one plain and one traced pass on the same inputs,
whatever S, and reports the per-layer metrics. Every metric is printed by
name with its unit; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full record, including
the environment and the traced spans, goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostclock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("report-grid", "exact-deep", "float-sweep")
SETUP_SAMPLES = 11  # set-up-only starts per run; setup_s is their median
RUN_BUDGET_S = 120.0  # a run must end within 180 s; no pass starts that could overrun this
CHILD_TIMEOUT_S = 150.0
OUT_DIR = ".bench_out"


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one core: no BLAS or OpenMP worker threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the same dict and set layouts in every pass, so only the seed changes the work
    env["PYTHONHASHSEED"] = "0"
    return env


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as handle:
            return handle.read().strip()
    except OSError:
        return "unavailable"


def spawn(root: str, args: list[str]) -> tuple[float, float, dict | None]:
    """Start a child; return (set-up seconds, reference seconds, pass record or None for --setup-only)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = first.split()
    if len(fields) != 3 or fields[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} failed (exit {proc.returncode})")
    ref_s, after_import = float(fields[1]), float(fields[2])
    record = json.loads(rest.splitlines()[-1]) if "--setup-only" not in args else None
    return ready - after_import, ref_s, record


def run_pass(root: str, workload: str, seed: int, trace: bool = False, spans: str | None = None) -> tuple[float, dict]:
    args = ["--workload", workload, "--seed", str(seed)]
    if trace:
        args += ["--trace"] + (["--spans", spans] if spans else [])
    load_start = _loadavg()
    setup, _, record = spawn(root, args)
    record["loadavg"] = [load_start, _loadavg()]
    return setup, record


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit(root: str) -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _totals(records: list[dict]) -> dict:
    keys = ("attempted", "certified", "raised", "nonfinite", "uncertified", "failed")
    return {k: sum(r["summary"][k] for r in records) for k in keys}


def _correct(records: list[dict]) -> bool:
    return all(not r["checks"] and r["summary"]["failed"] == 0 for r in records)


def setup_sample(root: str) -> tuple[float, float]:
    """(wall, nominal) seconds from a fresh interpreter's start through `import krallzeros`."""
    setup, ref_s, _ = spawn(root, ["--setup-only"])
    return setup, hostclock.nominal(setup, ref_s)


def measure(root: str, workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], list[tuple]]:
    spawn(root, ["--setup-only"])  # warm-up: compiled bytecode, file cache
    started = time.perf_counter()
    records = []
    last = 0.0
    # A pass starts only if one more pass of the last one's length fits in the
    # run, so a run lasts about `seconds` (at least one pass) on a slow host too.
    while not records or time.perf_counter() - started + last <= min(seconds, RUN_BUDGET_S):
        begin = time.perf_counter()
        _, record = run_pass(root, workload, seed)
        last = time.perf_counter() - begin
        record["child_s"] = last
        records.append(record)
    setups = [setup_sample(root) for _ in range(SETUP_SAMPLES)]

    # Times are in nominal seconds (bench/hostclock.py), so that a change of
    # the shared host's speed between runs does not read as a change of the
    # program; wall-clock figures are printed beside them.
    metrics = {
        "setup_s": (statistics.median(nominal for _, nominal in setups), "s"),
        "norm_wall_s": (statistics.median(r["nominal_s"] for r in records), "s"),
        "norm_certs_per_s": (statistics.median(r["summary"]["certified"] / r["nominal_s"] for r in records), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
        "residual_digits": (statistics.median(-r["summary"]["residual_log10_mean"] for r in records), "digits"),
    }
    return metrics, records, setups


def report_lines(workload: str, records: list[dict], setups: list[tuple]) -> list[str]:
    """The figures that are printed but not part of the JSON metrics."""
    totals = _totals(records)
    lines = [
        f"passes {len(records)}; setup samples {len(setups)}",
        f"fail_ratio {(totals['attempted'] - totals['certified']) / totals['attempted']:.6g} ratio"
        f" (raised {totals['raised']} + not certified {totals['uncertified']}) / attempted {totals['attempted']};"
        f" failed {totals['failed']} (non-finite {totals['nonfinite']})",
        f"residual_log10_mean {statistics.median(r['summary']['residual_log10_mean'] for r in records):.6g} log10",
        f"setup_wall_s {statistics.median(wall for wall, _ in setups):.6g} s",
        f"wall_s {statistics.median(r['wall_s'] for r in records):.6g} s",
        f"certs_per_s {statistics.median(r['summary']['certified'] / r['wall_s'] for r in records):.6g} 1/s",
    ]
    refs = [ms for r in records for ms in r["ref_ms"]]
    if refs:
        lines.append(f"reference_ms {statistics.median(refs):.6g} ms (median of {len(refs)} samples)")
    cells = [ms for r in records if r["layers"] is None for ms in r["cell_ms"]]  # untraced passes only
    if workload == "float-sweep" and len(cells) >= 2:
        p90 = percentile(cells, 90)
        lines.append(f"cell_p50_ms {statistics.median(cells):.6g} ms")
        lines.append(f"cell_p90_ms {p90:.6g} ms ({sum(c > p90 for c in cells)} of {len(cells)} cells beyond)")
    for i, r in enumerate(records):
        child = f"; child {r['child_s']:.2f} s" if "child_s" in r else ""
        lines.append(f"pass {i}: wall {r['wall_s']:.4f} s{child}; loadavg start [{r['loadavg'][0]}] end [{r['loadavg'][1]}]")
        for check in r["checks"][:5]:
            lines.append(f"pass {i}: CHECK FAILED {check}")
    return lines


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".unique_ratio"):
        return "ratio"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "krallzeros", "__init__.py")):
        print("error: run from the root of a krallzeros checkout (src/krallzeros not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(root)
    print(f"workload {args.workload}; seed {args.seed}; seconds {args.seconds}; trace {args.trace}")
    print("environment " + json.dumps(env))

    try:
        if args.trace:
            spans = os.path.join(root, OUT_DIR, f"spans-{tag}.jsonl")
            plain_setup, plain = run_pass(root, args.workload, args.seed)
            traced_setup, traced = run_pass(root, args.workload, args.seed, trace=True, spans=spans)
            records, setups = [plain, traced], [(plain_setup, None), (traced_setup, None)]
            layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
            metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
            if traced["absent"]:
                print("absent functions (reported as 0): " + ", ".join(traced["absent"]))
        else:
            metrics, records, setups = measure(root, args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in report_lines(args.workload, records, setups):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    totals = _totals(records)
    result = {
        "correct": _correct(records),
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(root, OUT_DIR, f"result-{tag}.json"), "w") as handle:
        json.dump({"args": vars(args), "environment": env, "setups": setups, "passes": records, "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
