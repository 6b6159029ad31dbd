"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import math
import signal
import sys
import time
import types

import krallzeros as kz
from krallzeros import cli, families, identities, matrices, rootfinding

import hostclock
import workloads
from tracer import Tracer
from workloads import Op, summarise


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_direct_children_only():
    targets = (("layer", "outer"), ("layer", "inner"), ("layer", "leaf"))
    tracer = Tracer(package="nopackage", targets=targets)
    tracer.spans = [
        _span("layer.outer", 0.0, 10.0, None),
        _span("layer.inner", 1.0, 3.0, 0),
        _span("layer.inner", 4.0, 8.0, 0),
        _span("layer.leaf", 5.0, 6.0, 2),
    ]
    metrics = tracer.layer_metrics()
    assert metrics["layer.outer.calls"] == 1
    assert metrics["layer.inner.calls"] == 2
    assert math.isclose(metrics["layer.outer.self_s"], 10.0 - 2.0 - 4.0)
    assert math.isclose(metrics["layer.inner.self_s"], 2.0 + 4.0 - 1.0)
    assert math.isclose(metrics["layer.leaf.self_s"], 1.0)


def test_nested_calls_through_module_globals_are_traced():
    module = types.ModuleType("fakepkg.layer")
    exec("def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n", module.__dict__)
    package = types.ModuleType("fakepkg")
    package.outer = module.outer
    sys.modules.update({"fakepkg": package, "fakepkg.layer": module})
    try:
        with Tracer(package="fakepkg", targets=(("layer", "outer"), ("layer", "inner"))) as tracer:
            assert package.outer(1) == 4
        assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner"]
        assert tracer.spans[1][3] == 0  # inner's parent is outer
        assert package.outer is module.outer
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.layer"]


def _bindings():
    mods = [kz, cli, families, identities, matrices, rootfinding]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}, rootfinding.NodeSet.__dict__["refined"]


def test_wrappers_cover_every_binding_and_are_restored():
    before, refined = _bindings()
    spec = kz.FamilySpec("krall-jacobi", alpha=0, mass=1)
    with Tracer() as tracer:
        assert identities.collocation_exact is not before[("krallzeros.identities", "collocation_exact")]
        assert cli.zeros is not before[("krallzeros.cli", "zeros")]
        assert kz.zeros is not before[("krallzeros", "zeros")]
        report = kz.verify_eigenpairs(spec, 4)
        kz.zeros(kz.build_family(spec, 4)[4], spec).refined()
    assert report.passed
    assert _bindings() == (before, refined)
    metrics = tracer.layer_metrics()
    assert metrics["identities.verify_eigenpairs.calls"] == 1
    assert metrics["matrices.collocation_exact.calls"] == 1
    assert metrics["rootfinding.zeros.calls"] == 2
    assert metrics["rootfinding.NodeSet.refined.calls"] == 1
    assert metrics["rootfinding.zeros.unique_ratio"] == 0.5  # the same member twice
    assert tracer.absent == []
    cells = {s[4] for s in tracer.spans}
    assert cells == {"krall-jacobi(alpha=0, mass=1):4"}


def test_missing_function_is_reported_absent():
    with Tracer(targets=(("families", "no_such_function"), ("rootfinding", "NodeSet.no_such_method"))) as tracer:
        pass
    assert tracer.absent == ["families.no_such_function", "rootfinding.NodeSet.no_such_method"]
    assert tracer.layer_metrics()["families.no_such_function.calls"] == 0


def test_nan_residual_is_a_failed_op_even_when_not_first():
    ops = [Op("a", "c", 1e-12, True), Op("b", "c", math.nan, True), Op("c", "c", 0.0, True)]
    for expect_all in (True, False):
        s = summarise(ops, expect_all)
        assert (s["failed"], s["nonfinite"], s["certified"]) == (1, 1, 2)
    assert math.isclose(summarise(ops, False)["residual_log10_mean"], (-12.0 - 30.0) / 2)


def test_uncertified_fails_only_where_every_op_should_certify():
    ops = [Op("a", "c", 1e-3, False), Op("b", "c", math.nan, False, raised=True)]
    assert summarise(ops, True)["failed"] == 2
    assert summarise(ops, False)["failed"] == 1
    assert summarise(ops, False)["fail_ratio"] == 1.0


def test_seeded_specs_are_reproducible_and_cover_all_families():
    assert workloads.seeded_specs(7) == workloads.seeded_specs(7)
    assert [s.family for s in workloads.seeded_specs(7)] == list(kz.FAMILIES)


def test_float_sweep_cells_deal_every_family_its_parameters_across_degrees():
    cells = workloads.float_sweep_cells(7)
    assert cells == workloads.float_sweep_cells(7)
    assert len(cells) == 6 * len(workloads.FLOAT_SWEEP_NS) == 114
    for family, specs in zip(kz.FAMILIES, workloads.family_specs()):
        mine = [(spec, n) for spec, n in cells if spec.family == family]
        assert [n for _, n in mine] == list(workloads.FLOAT_SWEEP_NS)
        assert len({spec for spec, _ in mine}) == min(len(specs), len(workloads.FLOAT_SWEEP_NS))
    assert sum(len(specs) for specs in workloads.family_specs()) == 59


def test_report_check_rejects_a_short_report():
    spec = kz.FamilySpec("krall-legendre", alpha=1)
    entry = kz.spectrum_report(spec, 3).to_dict()
    ops, checks = workloads.check_report_json(json.dumps({"reports": [entry], "summary": {"reports": 1}}))
    assert len(ops) == 1 and ops[0].certified
    assert checks == ["1 reports, expected 990"]


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_clock_counts_program_time_at_the_reference_speed():
    def slow_host_reference():  # takes 1 ms of wall time, reads as twice the nominal time
        _spin(1e-3)
        return 2 * hostclock.REF_NOMINAL_S

    clock = hostclock.HostClock(tick_s=0.01, ref=slow_host_reference)
    timed = workloads._Timed(clock)
    clock.start()
    try:
        timed.call(_spin, 0.3)
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    ticks = len(clock.samples) - 1
    assert ticks > 10
    assert clock.stolen > 0.5 * ticks * 1e-3
    assert timed.wall == timed.raw - clock.stolen  # handler time is not program time
    assert math.isclose(clock.nominal_s, timed.wall / 2, rel_tol=0.05)
