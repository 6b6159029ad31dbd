"""The one-entry memos of the family record and zeros, and the caches their node sets share.

`families.family_record` keeps the last spec's record (its members, moments,
recurrence, norms and eigenvalues) and `rootfinding.zeros` the last (p, spec)
zero set, so a script that builds a family, finds its
zeros and then calls the `verify_*(spec, n)` functions does each step once:
the cell those functions build reads the same members and the same node set,
whose memo holds the float kernels, refined nodes, Christoffel numbers and
closed forms. A node set cannot be rebound, and what a caller receives from
it stays the caller's own.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from krallzeros import (
    FamilySpec,
    build_family,
    cli,
    collocation_rep_simplified,
    diffmat,
    discriminate_variants,
    families,
    identities,
    matrices,
    rootfinding,
    verify_eigenpairs,
    verify_fourth_order,
    zeros,
)

KLAG = FamilySpec("krall-laguerre", alpha=F(1, 2))
KJAC = FamilySpec("krall-jacobi", alpha=F(1), mass=F(2))


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the first argument of every call."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def coefficient_tables(monkeypatch):
    return count_calls(monkeypatch, families, "_coeffs")


@pytest.fixture
def root_findings(monkeypatch):
    return count_calls(monkeypatch, rootfinding, "_jacobi_eigenvalues")


class TestBuildFamily:
    def test_same_key_and_lower_degrees_build_nothing(self, coefficient_tables):
        first = build_family(KLAG, 6)
        assert len(coefficient_tables) == 7
        again, lower = build_family(KLAG, 6), build_family(KLAG, 3)
        assert len(coefficient_tables) == 7
        assert again == first and lower == first[:4]
        assert all(p is q for p, q in zip(again, first))

    def test_higher_degree_builds_only_the_new_members(self, monkeypatch):
        degrees = []
        real = families._coeffs
        monkeypatch.setattr(families, "_coeffs", lambda spec, nu: degrees.append(nu) or real(spec, nu))
        low = build_family(KLAG, 3)
        high = build_family(KLAG, 6)
        assert degrees == [0, 1, 2, 3, 4, 5, 6]
        assert all(p is q for p, q in zip(high, low))

    def test_another_key_rebuilds(self, coefficient_tables):
        build_family(KLAG, 2)
        build_family(KJAC, 2)
        build_family(KLAG, 2)  # one entry: the first family is gone
        assert len(coefficient_tables) == 9

    def test_extended_family_equals_a_cold_build(self):
        build_family(KJAC, 3)
        warm = build_family(KJAC, 9)
        families.family_record.cache_clear()
        assert build_family(KJAC, 9) == warm

    def test_mutated_list_does_not_reach_the_next_call(self):
        first = build_family(KLAG, 4)
        expected = list(first)
        first.clear()
        assert build_family(KLAG, 4) == expected

    def test_raising_degree_raises_again(self, monkeypatch):
        degrees = []
        real = families._coeffs

        def failing_at_five(spec, nu):
            degrees.append(nu)
            if nu == 5:
                raise ValueError("degree 5 fails")
            return real(spec, nu)

        monkeypatch.setattr(families, "_coeffs", failing_at_five)
        for _ in range(2):
            with pytest.raises(ValueError, match="degree 5 fails"):
                build_family(KLAG, 7)
        assert degrees == [0, 1, 2, 3, 4, 5, 5]  # the valid prefix is kept, the failing degree is not
        assert len(build_family(KLAG, 4)) == 5 and degrees[-1] == 5


class TestZeros:
    def test_same_key_finds_no_roots(self, root_findings):
        member = build_family(KLAG, 6)[6]
        first = zeros(member, KLAG)
        again = zeros(member, KLAG)
        assert len(root_findings) == 1
        assert again is first and again.spec == KLAG

    def test_equal_polynomial_and_spec_share_the_key(self, root_findings):
        zeros(build_family(KLAG, 6)[6], KLAG)
        families.family_record.cache_clear()  # a new but equal member
        zeros(build_family(FamilySpec("krall-laguerre", alpha=F(2, 4)), 6)[6], KLAG)
        assert len(root_findings) == 1

    def test_another_key_finds_roots_again(self, root_findings):
        member = build_family(KLAG, 6)[6]
        zeros(member, KLAG)
        zeros(build_family(KLAG, 5)[5], KLAG)  # another member: another key
        zeros(member, KLAG)
        assert len(root_findings) == 3

    def test_raising_zeros_are_not_kept(self, monkeypatch, root_findings):
        counted = rootfinding._jacobi_eigenvalues

        def collapsed(spec, n):  # two guesses on one zero: the certificate refuses the pair
            guesses = counted(spec, n)
            guesses[1] = guesses[0]
            return guesses

        monkeypatch.setattr(rootfinding, "_jacobi_eigenvalues", collapsed)
        member = build_family(KLAG, 4)[4]
        for _ in range(2):
            with pytest.raises(rootfinding.NonSimpleRootError, match="half-ulp bracket"):
                zeros(member, KLAG)
        assert len(root_findings) == 2

    def test_node_sets_share_their_caches(self):
        member = build_family(KLAG, 5)[5]
        first, again = zeros(member, KLAG), zeros(member, KLAG)
        assert matrices.node_kernel(first) is matrices.node_kernel(again)
        assert again.refined() == first.refined()
        assert matrices.christoffel_numbers(again, KLAG) == matrices.christoffel_numbers(first, KLAG)

    def test_mutations_do_not_reach_the_next_call(self):
        member = build_family(KJAC, 5)[5]
        first = zeros(member, KJAC)
        points, refined = first.nodes, first.refined()
        z2 = diffmat(2, first).data
        closed = collocation_rep_simplified(KJAC, first).data

        first.refined().append(F(0))
        first.refined()[0] = F(7)
        collocation_rep_simplified(KJAC, first).data[:] = 0.0
        diffmat(2, first).data[:] = 0.0
        with pytest.raises(AttributeError):
            first.nodes = tuple(2.0 * x for x in points)
        with pytest.raises(AttributeError):
            first.poly = member

        again = zeros(member, KJAC)
        assert again.nodes == points and len(again.derivatives()[0]) == 5 and again.refined() == refined
        assert np.array_equal(diffmat(2, again).data, z2)
        assert np.array_equal(collocation_rep_simplified(KJAC, again).data, closed)
        with pytest.raises(ValueError, match="read-only"):
            again.cached((KJAC, "family", matrices.SINGULAR_COEFF_GUARD), pytest.fail).data[0, 0] = 0.0


def test_script_sequence_builds_each_link_once(monkeypatch, coefficient_tables, root_findings):
    """build_family, zeros, then the cell of verify_*(spec, n): one family, one root finding,
    one float kernel and one evaluation per closed-form formula."""
    kernels = []
    real_kernel = matrices.NodeKernel.__init__

    def counting_kernel(self, x, leading):
        kernels.append(leading)
        real_kernel(self, x, leading)

    monkeypatch.setattr(matrices.NodeKernel, "__init__", counting_kernel)
    closed_forms = count_calls(monkeypatch, matrices, "_evaluate_closed_form")

    n = 6
    family = build_family(KLAG, n)
    nodes = zeros(family[n], KLAG)
    for k, method in ((1, "explicit"), (2, "recursive"), (3, "alternative"), (4, "recursive")):
        diffmat(k, nodes, method)
    for formula in ("family", "fourth-order"):
        collocation_rep_simplified(KLAG, nodes, formula)
    verify_eigenpairs(KLAG, n, arithmetic="float")
    verify_fourth_order(KLAG, n)
    discriminate_variants(KLAG, n)

    assert len(coefficient_tables) == n + 1
    assert len(root_findings) == 1
    assert kernels == [1.0]
    assert len(closed_forms) == 2


def count_degrees(monkeypatch, name):
    """Replace families.name(spec, k) by a wrapper that records (spec, k) of every call."""
    calls, real = [], getattr(families, name)
    monkeypatch.setattr(families, name, lambda spec, k, *rest: calls.append((spec, k)) or real(spec, k, *rest))
    return calls


def count_pairings(monkeypatch):
    calls = count_calls(monkeypatch, families, "pairing")
    monkeypatch.setattr(matrices, "pairing", families.pairing)
    return calls


def test_one_spec_through_every_report_suite_builds_each_piece_once(monkeypatch, capsys):
    """verify --suite all on one spec, N = 2..12: each moment, recurrence coefficient and eigenvalue is built once."""
    moments, eigenvalues = count_degrees(monkeypatch, "_next_moment"), count_degrees(monkeypatch, "eigenvalue")
    ratios, pairings = count_calls(monkeypatch, families, "_monic_ratios"), count_pairings(monkeypatch)
    assert cli.main(["verify", "--suite", "all", "--family", "krall-laguerre", "--alpha", "1/2", "--n", "2..12"]) == 0
    assert moments == [(KLAG, k) for k in range(2 * 12)]  # quadrature at N = 12 reads m_0 .. m_23
    assert eigenvalues == [(KLAG, m) for m in range(12 + 1)]  # the closed forms at N = 12 read mu_12
    record = families.family_record(KLAG)
    assert len(record.a) == 12 and ratios == [p for k in range(12) for p in record.members[k : k + 2]]
    assert pairings == []
    capsys.readouterr()


def test_report_builds_each_moment_once_per_spec_and_shares_the_closed_form_sums(monkeypatch, capsys):
    """One report run: the moments of each spec once, no member paired with itself, and three off-diagonal
    sums per Krall cell: the fourth-order form, its general-assembly cross-check and the family form,
    which both readings of the family identity read."""
    moments, pairings = count_degrees(monkeypatch, "_next_moment"), count_pairings(monkeypatch)
    sums = count_calls(monkeypatch, identities, "_offdiagonal_sums")
    assert cli.main(["report", "--n", "2..4", "--format", "json"]) == 0
    specs = identities.default_grid()
    assert all(spec.is_krall for spec in specs)
    assert moments == [(spec, k) for spec in specs for k in range(2 * 4)]
    assert pairings == []
    assert len(sums) == 3 * len(specs) * 3
    capsys.readouterr()
