"""Add benchmark results to the checked-in perf trajectory.

    python3 tools/bench_trajectory.py RESULT.json ...

Each RESULT.json is a `result-<workload>-seed<N>-trace0.json` record that
`bench/run.py --trace 0` writes to `.bench_out/`. The end-to-end metrics of
each run go into `BENCH_<workload>.json` at the root of the tree this
script sits in, one entry per measured commit (the commit is the one the
record's environment names): the seeds, each run's metrics, and the median
and quartiles of every metric across the entry's runs. A run replaces an
earlier run of the same commit and seed; the entries of other commits are
kept, in the order they were first added. A record whose environment
(python, numpy, host) differs from its commit's entry is refused, so one
entry's median never mixes machines.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _summary(runs: list[dict], units: dict) -> dict:
    """Median and quartiles (inclusive method) of each metric across the runs."""
    out = {}
    for name, unit in units.items():
        values = [run["metrics"][name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
    return out


def _run(record: dict) -> dict:
    result = record["result"]
    return {
        "seed": record["args"]["seed"],
        "seconds": record["args"]["seconds"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def add(records: list[dict], root: str = ROOT) -> list[str]:
    """Merge the trace-0 result records into the BENCH_<workload>.json files under root; return their paths."""
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        args = record["args"]
        if args["trace"] != 0:
            raise ValueError(f"{args['workload']} seed {args['seed']}: a --trace 1 record has no end-to-end metrics")
        by_workload.setdefault(args["workload"], []).append(record)
    trajectories = {}
    for workload, group in by_workload.items():
        path = os.path.join(root, f"BENCH_{workload}.json")
        try:
            with open(path) as handle:
                trajectory = json.load(handle)
        except FileNotFoundError:
            trajectory = {"workload": workload, "entries": []}
        entries = {entry["commit"]: entry for entry in trajectory["entries"]}
        for record in group:
            args = record["args"]
            env = dict(record["environment"])
            commit = env.pop("commit")
            entry = entries.get(commit)
            if entry is None:
                entry = entries[commit] = {"commit": commit, "environment": env, "seeds": [], "runs": [], "summary": {}}
                trajectory["entries"].append(entry)
            elif entry["environment"] != env:
                raise ValueError(
                    f"{workload} seed {args['seed']}: commit {commit} was measured in {entry['environment']}, not {env}"
                )
            run = _run(record)
            others = [r for r in entry["runs"] if r["seed"] != run["seed"]]
            entry["runs"] = sorted(others + [run], key=lambda r: r["seed"])
            entry["seeds"] = [r["seed"] for r in entry["runs"]]
            units = {name: m["unit"] for name, m in record["result"]["metrics"].items()}
            entry["summary"] = _summary(entry["runs"], units)
        trajectories[path] = trajectory
    for path, trajectory in trajectories.items():  # only once every record is accepted
        with open(path, "w") as handle:
            json.dump(trajectory, handle, indent=1)
            handle.write("\n")
    return list(trajectories)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/bench_trajectory.py RESULT.json ...", file=sys.stderr)
        return 2
    records = []
    for name in argv:
        with open(name) as handle:
            records.append(json.load(handle))
    try:
        written = add(records)
    except KeyError as exc:
        print(f"error: not a bench/run.py result record, no field {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
