"""tools/bench_trajectory.py: bench/run.py result records -> BENCH_<workload>.json."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_trajectory.py")
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def _record(out_dir, commit, seed, wall, workload="report-grid", trace=0, nproc=2):
    """A result record as bench/run.py writes it to out_dir, reduced to the fields the tool reads, read back."""
    record = {
        "args": {"workload": workload, "seed": seed, "seconds": 35, "trace": trace},
        "environment": {"commit": commit, "python": "3.11.7", "numpy": "1.26.4", "nproc": nproc},
        "setups": [],
        "passes": [],
        "result": {
            "correct": True,
            "attempted": 9900,
            "failed": 0,
            "metrics": {
                "norm_wall_s": {"value": wall, "unit": "s"},
                "residual_digits": {"value": 15.5, "unit": "digits"},
            },
        },
    }
    path = out_dir / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))
    return json.loads(path.read_text())


def test_entries_per_commit_with_median_and_quartiles(tmp_path):
    out = tmp_path / ".bench_out"
    out.mkdir()
    parent = [_record(out, "aaa", seed, wall) for seed, wall in ((11, 1.3), (12, 1.1), (13, 1.2), (14, 1.5), (15, 1.4))]
    written = bench_trajectory.add(parent, root=str(tmp_path))
    assert written == [str(tmp_path / "BENCH_report-grid.json")]
    change = [_record(out, "bbb", 11, 1.0)]
    bench_trajectory.add(change, root=str(tmp_path))

    trajectory = json.loads((tmp_path / "BENCH_report-grid.json").read_text())
    assert trajectory["workload"] == "report-grid"
    first, second = trajectory["entries"]
    assert first["commit"] == "aaa" and first["seeds"] == [11, 12, 13, 14, 15]
    assert first["environment"] == {"python": "3.11.7", "numpy": "1.26.4", "nproc": 2}
    assert [r["metrics"]["norm_wall_s"] for r in first["runs"]] == [1.3, 1.1, 1.2, 1.5, 1.4]
    assert first["summary"]["norm_wall_s"] == pytest.approx({"median": 1.3, "q1": 1.2, "q3": 1.4, "unit": "s"})
    assert first["summary"]["residual_digits"]["median"] == 15.5
    assert second["commit"] == "bbb" and second["seeds"] == [11]
    assert second["summary"]["norm_wall_s"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "unit": "s"}


def test_a_rerun_seed_replaces_its_run_and_keeps_other_commits(tmp_path):
    out = tmp_path / ".bench_out"
    out.mkdir()
    bench_trajectory.add([_record(out, "aaa", 11, 1.3), _record(out, "bbb", 11, 1.0)], root=str(tmp_path))
    bench_trajectory.add([_record(out, "aaa", 11, 1.25), _record(out, "aaa", 12, 1.35)], root=str(tmp_path))
    entries = json.loads((tmp_path / "BENCH_report-grid.json").read_text())["entries"]
    assert [e["commit"] for e in entries] == ["aaa", "bbb"]
    assert [r["metrics"]["norm_wall_s"] for r in entries[0]["runs"]] == [1.25, 1.35]
    assert entries[0]["summary"]["norm_wall_s"]["median"] == pytest.approx(1.3)
    assert entries[1]["runs"][0]["metrics"]["norm_wall_s"] == 1.0


def test_one_file_per_workload_and_traced_records_refused(tmp_path):
    out = tmp_path / ".bench_out"
    out.mkdir()
    records = [_record(out, "aaa", 11, 0.7, "exact-deep"), _record(out, "aaa", 11, 0.6, "float-sweep")]
    assert sorted(map(os.path.basename, bench_trajectory.add(records, root=str(tmp_path)))) == [
        "BENCH_exact-deep.json", "BENCH_float-sweep.json",
    ]
    with pytest.raises(ValueError, match="trace 1"):
        bench_trajectory.add([_record(out, "aaa", 11, 0.7, trace=1)], root=str(tmp_path))
    assert bench_trajectory.main([]) == 2


def test_a_run_from_another_environment_is_refused_and_nothing_is_written(tmp_path):
    out = tmp_path / ".bench_out"
    out.mkdir()
    bench_trajectory.add([_record(out, "aaa", 11, 1.3)], root=str(tmp_path))
    before = (tmp_path / "BENCH_report-grid.json").read_text()
    other_host = [_record(out, "aaa", 12, 0.9, "exact-deep"), _record(out, "aaa", 12, 1.2, nproc=8)]
    with pytest.raises(ValueError, match="commit aaa was measured in"):
        bench_trajectory.add(other_host, root=str(tmp_path))
    assert (tmp_path / "BENCH_report-grid.json").read_text() == before
    assert not (tmp_path / "BENCH_exact-deep.json").exists()
    bench_trajectory.add([_record(out, "bbb", 12, 1.2, nproc=8)], root=str(tmp_path))  # another commit may differ
