"""Identity verifiers: eigenpair relations, closed-form identities, spectrum."""

import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from krallzeros import (
    FamilySpec,
    IdentityReport,
    NodeSet,
    build_family,
    default_grid,
    discriminate_variants,
    eigenvalue,
    equally_spaced_nodes,
    spectrum_report,
    verify_family_identity,
    verify_fourth_order,
    verify_power,
    verify_eigenpairs,
    zeros,
)
from krallzeros import identities
from krallzeros.families import FAMILIES, KRALL_FAMILIES
from krallzeros.identities import SUITES, get_cell, worst_residual
from krallzeros.matrices import similarity_check

KLEG1 = FamilySpec("krall-legendre", alpha=1)
KLAG1 = FamilySpec("krall-laguerre", alpha=1)
KJAC11 = FamilySpec("krall-jacobi", alpha=1, mass=1)
KRALL_SPECS = [KLEG1, KLAG1, KJAC11]


class TestTheorem1:
    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_exact_engine_residual_is_zero(self, spec):
        # the eigenpair relation is polynomial algebra in the nodes, so the
        # exact engine must return literally zero whatever the node error
        report = verify_eigenpairs(spec, 6)
        assert report.max_residual == 0.0
        assert report.rowsum_residual == 0.0
        assert report.passed

    def test_float_engine_small_case(self):
        report = verify_eigenpairs(KLAG1, 3, arithmetic="float")
        assert report.max_residual < 1e-8
        assert report.passed

    def test_cells_cover_grid(self):
        n = 4
        report = verify_eigenpairs(KLEG1, n)
        assert len(report.cells) == n * n
        assert {c["m"] for c in report.cells} == set(range(n))
        assert {c["n"] for c in report.cells} == set(range(1, n + 1))

    def test_top_degree_eigenpair_reported(self):
        n = 5
        report = verify_eigenpairs(KLAG1, n)
        top = [e for e in report.eigenpairs if e["m"] == n - 1]
        assert len(top) == 1
        assert top[0]["eigenvalue"] == float(eigenvalue(KLAG1, n - 1))
        assert top[0]["residual"] <= report.tolerance

    def test_rowsum_reported_separately(self):
        report = verify_eigenpairs(KJAC11, 5)
        assert report.rowsum_residual is not None
        assert report.rowsum_tolerance == 1e-9
        assert report.rowsum_passed

    def test_classical_families_covered(self):
        report = verify_eigenpairs(FamilySpec("hermite"), 6)
        assert report.max_residual == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            verify_eigenpairs(KLEG1, 0)
        with pytest.raises(ValueError):
            verify_eigenpairs(KLEG1, 3, arithmetic="quantum")


class TestPower:
    def test_exponent_one_reproduces_eigenpair_check(self):
        base = verify_eigenpairs(KLEG1, 4)
        powered = verify_power(KLEG1, 4, exponent=1)
        assert powered.max_residual == base.max_residual == 0.0

    def test_square_exact(self):
        report = verify_power(KLEG1, 4, exponent=2)
        assert report.max_residual == 0.0
        assert report.params["exponent"] == "2"

    def test_squared_row_sums_vanish(self):
        report = verify_power(KJAC11, 5, exponent=2)
        zero_rows = [c for c in report.cells if c["m"] == 0]
        assert all(c["residual"] == 0.0 for c in zero_rows)

    def test_overflow_guard(self):
        """mu_7^87 of krall-legendre(1) at N = 8 is near 3.2e305, inside double range; mu_7^88 is not."""
        assert verify_power(KLEG1, 8, exponent=87).max_residual == 0.0
        for exponent in (88, 200):
            with pytest.raises(OverflowError, match=f"mu\\^{exponent} leaves double range"):
                verify_power(KLEG1, 8, exponent=exponent)


class TestKrall4:
    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_small_cases(self, spec):
        report = verify_fourth_order(spec, 3)
        assert report.passed
        assert report.max_residual < 1e-7

    def test_jacobi_example(self):
        report = verify_fourth_order(KJAC11, 3)
        assert report.max_residual < 1e-7

    def test_equivalence_with_general_assembly(self):
        # both sides must be rearrangements of the eigenpair relation
        for spec in KRALL_SPECS:
            report = verify_fourth_order(spec, 6)
            assert report.extras["cross_check_lhs_vs_general"] < 1e-9
            assert report.extras["cross_check_rhs_vs_general"] < 1e-9

    def test_classical_rejected(self):
        with pytest.raises(ValueError):
            verify_fourth_order(FamilySpec("hermite"), 4)

    def test_larger_grid(self):
        report = verify_fourth_order(KLAG1, 12)
        assert report.passed, report.max_residual


class TestFamilyIdentity:
    def test_legendre_printed_passes(self):
        report = verify_family_identity(KLEG1, 3, variant="printed")
        assert report.passed
        assert report.max_residual < 1e-7
        assert any("coincide" in note for note in report.notes)

    def test_jacobi_row_sum_reduction(self):
        # m = 0 cells reduce to the row-sum identity
        report = verify_family_identity(FamilySpec("krall-jacobi", alpha=0, mass=1), 2)
        assert all(c["residual"] < 1e-9 for c in report.cells if c["m"] == 0)
        assert report.passed

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    @pytest.mark.parametrize("variant", ["printed", "corrected"])
    def test_discrimination_matches_single_reading(self, spec, variant):
        outcome = discriminate_variants(spec, 4)
        assert outcome[variant].to_dict() == verify_family_identity(spec, 4, variant=variant).to_dict()

    @pytest.mark.parametrize("spec", [KLEG1, KJAC11])
    @pytest.mark.parametrize("mutated, other", [("printed", "corrected"), ("corrected", "printed")])
    def test_coinciding_readings_share_no_list(self, spec, mutated, other):
        outcome = discriminate_variants(spec, 4)
        expected = json.dumps(outcome[other].to_dict())
        report = outcome[mutated]
        report.cells[0]["residual"] = -1.0
        report.cells.append({"m": -1})
        report.eigenpairs.append({"m": -1})
        report.params["alpha"] = "0"
        report.notes.append("mutated")
        report.extras["mutated"] = True
        assert json.dumps(outcome[other].to_dict()) == expected

    def test_laguerre_discrimination(self):
        outcome = discriminate_variants(KLAG1, 3)
        assert outcome["verdict"] == "corrected"
        assert not outcome["printed"].passed
        assert outcome["corrected"].passed

    @pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(2)])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_laguerre_verdict_stable(self, alpha, n):
        outcome = discriminate_variants(FamilySpec("krall-laguerre", alpha=alpha), n)
        assert outcome["verdict"] == "corrected", (alpha, n)

    def test_legendre_eigenvalue_expansion_consistent(self):
        # the identity quotes the eigenvalue by its expanded polynomial form
        for alpha in (F(1), F(2), F(1, 2)):
            spec = FamilySpec("krall-legendre", alpha=alpha)
            for m in range(8):
                assert eigenvalue(spec, m) == m * (m + 1) * (m * m + m + 4 * alpha - 2)

    def test_non_krall_rejected(self):
        with pytest.raises(ValueError):
            verify_family_identity(FamilySpec("laguerre", alpha=1), 3)
        with pytest.raises(ValueError):
            verify_family_identity(KLAG1, 3, variant="guessed")


class TestSpectrum:
    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_family_zeros(self, spec):
        report = spectrum_report(spec, 6)
        assert report.max_residual < 1e-8
        assert report.passed

    @pytest.mark.parametrize("spec", KRALL_SPECS)
    def test_equally_spaced_nodes(self, spec):
        nodes = equally_spaced_nodes(spec, 6)
        report = spectrum_report(spec, 6, nodes=nodes, tolerance=1e-6)
        assert report.max_residual < 1e-6

    @pytest.mark.parametrize("spec", [KLAG1, FamilySpec("krall-jacobi", alpha=1, mass=2)])  # unbounded, bounded hull
    def test_spaced_half_builds_no_node_set(self, spec, monkeypatch):
        def refuse(cls, points):
            raise AssertionError("the spectrum suite built a node set from points")

        monkeypatch.setattr(NodeSet, "from_points", classmethod(refuse))
        suite = SUITES["spectrum"]
        on_zeros, spaced = suite.run(spec, 6, suite.tolerance, None)
        assert on_zeros.passed and spaced.passed
        assert "nodes: caller-supplied" in spaced.notes

    def test_single_node(self):
        report = spectrum_report(KLEG1, 1)
        assert report.eigenpairs == [{"m": 0, "eigenvalue": 0.0, "residual": 0.0}]

    def test_size_mismatch_rejected(self):
        nodes = equally_spaced_nodes(KLEG1, 4)
        with pytest.raises(ValueError):
            spectrum_report(KLEG1, 5, nodes=nodes)


class TestReportSerialization:
    def test_round_trip(self):
        for report in (
            verify_eigenpairs(KLAG1, 3),
            verify_fourth_order(KJAC11, 3),
            verify_family_identity(KLAG1, 3, variant="printed"),
            spectrum_report(KLEG1, 4),
        ):
            wire = json.dumps(report.to_dict())
            recovered = IdentityReport.from_dict(json.loads(wire))
            assert recovered == report

    def test_missing_required_key_raises(self):
        payload = verify_eigenpairs(KLAG1, 2).to_dict()
        del payload["summary"]["rowsum_pass"]
        assert IdentityReport.from_dict(payload).rowsum_passed is None
        for section, keys in (("meta", ["identity", "N", "seed"]), ("summary", ["pass", "extras"])):
            for key in keys:
                broken = json.loads(json.dumps(payload))
                del broken[section][key]
                with pytest.raises(KeyError):
                    IdentityReport.from_dict(broken)
        with pytest.raises(KeyError):
            IdentityReport.from_dict({"meta": payload["meta"], "summary": payload["summary"]})

    def test_dict_shape(self):
        payload = verify_eigenpairs(KLAG1, 2).to_dict()
        assert set(payload) == {"meta", "results", "summary"}
        assert payload["meta"]["family"] == "krall-laguerre"
        assert payload["meta"]["N"] == 2
        for cell in payload["results"]:
            assert set(cell) == {"identity", "m", "n", "residual", "pass"}


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=5))
optional = st.one_of(st.none(), st.floats(allow_nan=False))
reports = st.builds(
    IdentityReport,
    identity=st.text(max_size=8), family=st.sampled_from(FAMILIES),
    params=st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=3),
    n=st.integers(0, 40), tolerance=st.floats(0, 1), arithmetic=st.sampled_from(["exact", "float"]),
    max_residual=st.floats(allow_nan=False), passed=st.booleans(),
    cells=st.lists(st.dictionaries(st.text(max_size=3), json_scalars, max_size=3), max_size=3),
    eigenpairs=st.lists(st.dictionaries(st.text(max_size=3), json_scalars, max_size=3), max_size=3),
    rowsum_residual=optional, rowsum_tolerance=optional, rowsum_passed=st.one_of(st.none(), st.booleans()),
    variant=st.one_of(st.none(), st.sampled_from(["printed", "corrected"])),
    seed=st.one_of(st.none(), st.integers(0, 2**32)),
    notes=st.lists(st.text(max_size=8), max_size=2),
    extras=st.dictionaries(st.text(max_size=3), json_scalars, max_size=3),
)


@given(reports)
def test_report_round_trip_and_key_order(report):
    """from_dict inverts to_dict, whose keys come out in one fixed order; a rowsum key only when set."""
    payload = report.to_dict()
    assert IdentityReport.from_dict(payload) == report
    rowsum = [("rowsum_residual", report.rowsum_residual), ("rowsum_tolerance", report.rowsum_tolerance),
              ("rowsum_pass", report.rowsum_passed)]
    assert list(payload) == ["meta", "results", "summary"]
    assert list(payload["meta"]) == ["identity", "family", "params", "N", "tolerance", "arithmetic", "variant", "seed"]
    assert payload["results"] is report.cells
    assert list(payload["summary"]) == ["max_residual", "pass", "eigenpairs", "notes", "extras"] + [
        key for key, value in rowsum if value is not None
    ]


def test_default_grid_contents():
    grid = default_grid()
    assert len(grid) == 10
    families = {s.family for s in grid}
    assert families == {"krall-legendre", "krall-laguerre", "krall-jacobi"}


def test_theorem3_tracks_theorem1_residuals():
    # the closed-form identity is the eigenpair relation rearranged, so the
    # two residual grids must agree to within a small factor of rounding
    spec = KLAG1
    n = 6
    closed = verify_fourth_order(spec, n)
    member = build_family(spec, n)[n]
    nodes = zeros(member, spec)
    assert closed.extras["cross_check_lhs_vs_general"] < 10 * 1e-10
    assert len(nodes) == n


class TestAggregation:
    def test_nan_after_the_first_is_kept(self):
        assert math.isnan(worst_residual([0.1, math.nan, 0.2]))
        assert math.isnan(worst_residual([math.nan, 0.1]))
        assert max([0.1, math.nan]) == 0.1  # the builtin drops it

    def test_finite_and_infinite(self):
        assert worst_residual([0.1, 0.3, 0.2]) == 0.3
        assert worst_residual([0.1, math.inf]) == math.inf
        assert worst_residual([]) == 0.0


def _tolerance(value: float) -> str:
    return format(value, ".0e").replace("e-0", "e-")


def test_readme_suite_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, suite in SUITES.items():
        if suite.families == FAMILIES:
            families = "all"
        elif suite.families == KRALL_FAMILIES:
            families = "Krall families"
        else:
            families = ", ".join(f"`{f}`" for f in suite.families)
        row = f"| `{name}` | {_tolerance(suite.tolerance)} | {families} | {suite.certifies} |"
        assert row in readme, row


class TestCellFactory:
    """Consecutive public calls on one (spec, N) share one cell; outputs stay the caller's."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """(spec, N) of every family and zeros build a cell makes."""
        counts = {"family": [], "zeros": []}
        real_family, real_zeros = identities.build_family, identities.zeros

        def family(spec, n, *args, **kwargs):
            counts["family"].append((spec, n))
            return real_family(spec, n, *args, **kwargs)

        def roots(p, spec=None):
            counts["zeros"].append((spec, p.degree))
            return real_zeros(p, spec)

        monkeypatch.setattr(identities, "build_family", family)
        monkeypatch.setattr(identities, "zeros", roots)
        return counts

    def test_every_entry_point_shares_the_cell(self, builds):
        calls = [
            lambda: verify_eigenpairs(KLAG1, 5),
            lambda: verify_eigenpairs(KLAG1, 5, arithmetic="float"),
            lambda: verify_power(KLAG1, 5),
            lambda: verify_fourth_order(KLAG1, 5),
            lambda: verify_family_identity(KLAG1, 5, "printed"),
            lambda: discriminate_variants(KLAG1, 5),
            lambda: spectrum_report(KLAG1, 5),
            lambda: equally_spaced_nodes(KLAG1, 5),  # unbounded hull: reads the zeros
            lambda: similarity_check(KLAG1, 5),
        ]
        for call in calls:
            call()
        assert builds == {"family": [(KLAG1, 5)], "zeros": [(KLAG1, 5)]}

    def test_calling_forms_share_one_key(self):
        first = get_cell(KLEG1, 4)
        assert get_cell(KLEG1, 4) is first
        assert get_cell(FamilySpec("krall-legendre", alpha=F(1)), 4) is first  # an equal spec

    def test_keyword_call_is_refused(self):
        # positional-only: a keyword call would otherwise be a second key for the same cell
        with pytest.raises(TypeError):
            get_cell(KLEG1, n=4)
        assert get_cell.cache_info().currsize == 0

    def test_another_key_rebuilds(self, builds):
        verify_eigenpairs(KLAG1, 5)
        verify_eigenpairs(KLAG1, 6)
        verify_eigenpairs(KLEG1, 6)
        similarity_check(KLEG1, 7)
        verify_eigenpairs(KLAG1, 5)  # one entry: the first cell is gone
        assert builds["zeros"] == [(KLAG1, 5), (KLAG1, 6), (KLEG1, 6), (KLEG1, 7), (KLAG1, 5)]

    def test_raising_cell_raises_again(self, builds):
        spec = FamilySpec("hermite")  # the degree-300 member overflows double precision at its zeros
        for _ in range(2):
            with pytest.raises(ValueError, match="overflow double precision"):
                verify_eigenpairs(spec, 300)
        assert builds["zeros"] == [(spec, 300), (spec, 300)]

    def test_mutated_outputs_do_not_reach_the_next_call(self):
        reports = {
            "eigenpair": lambda: verify_eigenpairs(KJAC11, 4),
            "power": lambda: verify_power(KJAC11, 4),
            "fourth-order": lambda: verify_fourth_order(KJAC11, 4),
            "family": lambda: verify_family_identity(KJAC11, 4),
            "spectrum": lambda: spectrum_report(KJAC11, 4),
        }
        for name, call in reports.items():
            first = call()
            expected = json.dumps(first.to_dict())
            first.cells.clear()
            first.eigenpairs.append({"m": -1})
            first.params["alpha"] = "0"
            first.notes.append("mutated")
            first.extras["mutated"] = True
            assert json.dumps(call().to_dict()) == expected, name

        both = discriminate_variants(KJAC11, 4)
        expected = json.dumps({k: v.to_dict() for k, v in both.items() if k != "verdict"})
        both["corrected"].cells.clear()
        both["printed"].notes.append("mutated")
        both["verdict"] = "printed"
        again = discriminate_variants(KJAC11, 4)
        assert json.dumps({k: v.to_dict() for k, v in again.items() if k != "verdict"}) == expected
        assert again["verdict"] == "identical"

        for spec in (KJAC11, KLAG1):  # bounded and unbounded hull: the points come back immutable by type
            assert type(equally_spaced_nodes(spec, 4)) is tuple


        pair = similarity_check(KJAC11, 4)
        expected = dict(pair)
        pair["inverse_residual"] = 1.0
        assert similarity_check(KJAC11, 4) == expected
