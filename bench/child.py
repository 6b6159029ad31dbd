"""One benchmark pass in a fresh interpreter; started by bench/run.py.

    python3 bench/child.py --workload W --seed S [--trace] [--spans PATH] [--setup-only]

Needs `src` on PYTHONPATH. Right after `import krallzeros` it times the
reference loop of hostclock.py and writes "ready <reference s> <seconds
since the import>" to stdout, so the parent can time set-up from process
start. Unless
--setup-only is given it then runs one pass and writes one JSON line with
the pass result.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced pass writes its spans (JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        return 0

    import resource

    import workloads
    from hostclock import HostClock
    from tracer import Tracer

    run = workloads.PASSES[args.workload]
    layers, absent = None, []
    if args.trace:
        with Tracer() as tracer:
            result = run(args.seed, tracer)
        layers, absent = tracer.layer_metrics(), tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        clock = HostClock()
        clock.start()
        try:
            result = run(args.seed, clock=clock)
        finally:
            clock.stop()

    ops = result["ops"]
    summary = workloads.summarise(ops, workloads.EXPECT_ALL_CERTIFIED[args.workload])
    record = {
        "wall_s": result["wall_s"],
        "nominal_s": result["nominal_s"],
        "ref_ms": [1e3 * r for r in clock.samples] if not args.trace else [],
        "cell_ms": result["cell_ms"],
        "summary": summary,
        "checks": result["checks"],
        "not_certified": [
            {"op": op.name, "cell": op.cell, "residual": op.residual, "error": op.error}
            for op in ops
            if not op.certified
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "layers": layers,
        "absent": absent,
    }
    sys.stdout.write(json.dumps(record, allow_nan=True) + "\n")
    return 0


if __name__ == "__main__":
    import time

    import krallzeros  # noqa: F401  (set-up ends here)

    imported = time.perf_counter()
    from hostclock import reference_now

    # The host's speed now, and how long finding it took, which the parent
    # takes off the set-up time it measured.
    ref_s = reference_now()
    print(f"ready {ref_s!r} {time.perf_counter() - imported!r}", flush=True)
    sys.exit(main())
