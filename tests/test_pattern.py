"""Containment, occurrences, mesh patterns, closure utilities."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayleysort import (
    MESH_W,
    MESH_Z,
    CayleyMeshPattern,
    CayleyPerm,
    ResourceLimitError,
    avoids_all,
    contains,
    contains_mesh,
    downward_closure_violations,
    is_popstack_sortable,
    is_sigma_sortable,
    is_weakly_increasing,
    minimal_non_members,
    normalize,
    occurrences,
    subpatterns,
)
from cayleysort.pattern import _deletions
from conftest import random_words, universe, words_up_to
from reference import (
    brute_contains,
    brute_contains_mesh,
    brute_downward_closure_violations,
    brute_minimal_non_members,
    brute_occurrences,
)

#: Random words up to length 12 (not necessarily Cayley permutations) and
#: random patterns up to length 5, for the differential tests.
_TEXTS = random_words(0, 12, 7)
_PATTERNS = random_words(0, 5, 5).map(normalize)


class TestContains:
    def test_repeated_letter_example(self):
        # 4 2 2 5 is an occurrence of 2 1 1 3
        assert contains((1, 4, 2, 2, 1, 5), (2, 1, 1, 3))

    def test_strict_increase_needs_distinct_values(self):
        assert not contains((1, 4, 2, 2, 1, 5), (1, 2, 3, 4))

    def test_equalities_must_match_exactly(self):
        assert contains((1, 2, 1), (1, 1))
        assert not contains((1, 2, 3), (1, 1))
        assert not contains((1, 1), (1, 2))

    def test_empty_pattern_always_contained(self):
        assert contains((), ())
        assert contains((2, 1), ())

    def test_longer_pattern_never_contained(self):
        assert not contains((1, 2), (1, 2, 3))

    def test_self_containment(self):
        for p in words_up_to(4):
            assert contains(p, p)

    def test_agrees_with_brute_force(self):
        smalls = list(words_up_to(4))
        for text in smalls:
            for pat in smalls:
                assert contains(text, pat) == brute_contains(text, pat), (text, pat)

    def test_agrees_with_brute_force_spot_length_six(self):
        texts = [(3, 1, 4, 1, 2, 5), (2, 2, 1, 3, 3, 1), (1, 2, 3, 2, 1, 2)]
        for text in texts:
            for pat in words_up_to(3):
                assert contains(text, pat) == brute_contains(text, pat)

    @settings(max_examples=300, deadline=None)
    @given(_TEXTS, _PATTERNS)
    def test_random_words_agree_with_brute_force(self, text, pat):
        assert contains(text, pat) == brute_contains(text, pat)


class TestOccurrences:
    def test_positions_are_one_based(self):
        assert occurrences((1, 3, 2), (1, 2)) == [(1, 2), (1, 3)]

    def test_repeated_letters(self):
        assert occurrences((1, 1), (1, 1)) == [(1, 2)]
        assert occurrences((1, 1, 1), (1, 1)) == [(1, 2), (1, 3), (2, 3)]

    def test_empty_pattern(self):
        assert occurrences((2, 1), ()) == [()]

    def test_complete_and_ordered(self):
        for text in universe(4):
            for pat in words_up_to(3, start=1):
                got = occurrences(text, pat)
                assert got == brute_occurrences(text, pat), (text, pat)
                assert got == sorted(got)

    @settings(max_examples=300, deadline=None)
    @given(_TEXTS, _PATTERNS)
    def test_random_words_agree_with_brute_force(self, text, pat):
        assert occurrences(text, pat) == brute_occurrences(text, pat)


def test_avoids_all():
    assert avoids_all((1, 2, 1), [(2, 3, 1), (3, 1, 2), (2, 2, 1), (2, 1, 1)])
    assert not avoids_all((2, 1, 1), [(2, 3, 1), (2, 1, 1)])
    assert avoids_all((2, 1), [])


class TestSubpatterns:
    def test_proper_subpatterns(self):
        assert subpatterns((2, 1, 2)) == {
            (), (1,), (1, 1), (1, 2), (2, 1),
        }

    def test_including_self(self):
        assert subpatterns((2, 1, 2), proper=False) == {
            (), (1,), (1, 1), (1, 2), (2, 1), (2, 1, 2),
        }

    def test_all_results_normalized(self):
        for q in subpatterns((4, 2, 1, 3, 2), proper=False):
            assert isinstance(q, CayleyPerm)


class TestContainmentOrder:
    """contains(·,·) is a partial order on Cayley permutations (up to
    length bounds): reflexive and transitive."""

    def test_transitive_closure_is_no_larger(self):
        words = list(words_up_to(4))
        m = np.array(
            [[contains(a, b) for b in words] for a in words], dtype=bool
        )
        assert m.diagonal().all()
        closure = (m.astype(int) @ m.astype(int)) > 0
        assert not (closure & ~m).any()

    def test_avoiding_21_means_sorted(self):
        for p in words_up_to(6):
            assert (not contains(p, (2, 1))) == is_weakly_increasing(p)


class TestMeshPattern:
    def test_frozen_constants(self):
        assert MESH_W.tau == (3, 2, 4, 1)
        assert MESH_W.gap_cells == {(1, 4)}
        assert MESH_W.eq_cells == frozenset()
        assert MESH_Z.gap_cells == {(1, 4)}
        assert MESH_Z.eq_cells == {(1, 4)}

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            CayleyMeshPattern(CayleyPerm((2, 1)), frozenset({(3, 0)}))
        with pytest.raises(ValueError):
            CayleyMeshPattern(CayleyPerm((2, 1)), frozenset({(0, 3)}))
        with pytest.raises(ValueError):
            CayleyMeshPattern(CayleyPerm((2, 1)), eq_cells=frozenset({(0, 0)}))

    def test_parse_and_str_roundtrip(self):
        assert str(MESH_Z) == "3 2 4 1 gap=(1,4) eq=(1,4)"
        assert CayleyMeshPattern.parse("3 2 4 1 gap=(1,4) eq=(1,4)") == MESH_Z
        assert CayleyMeshPattern.parse("3241 gap=(1,4)") == MESH_W
        assert CayleyMeshPattern.parse(str(MESH_W)) == MESH_W

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            CayleyMeshPattern.parse("gap=(1,4)")
        with pytest.raises(ValueError):
            CayleyMeshPattern.parse("2 1 gap=1,4")

    def test_bare_occurrence_is_contained(self):
        assert contains_mesh((3, 2, 4, 1), MESH_Z)
        assert contains_mesh((3, 2, 4, 1), MESH_W)

    def test_gap_cell_blocks(self):
        # the 5 sits between the chosen 3 and 2 and exceeds the image of 4
        assert not contains_mesh((3, 5, 2, 4, 1), MESH_W)
        assert not contains_mesh((3, 5, 2, 4, 1), MESH_Z)

    def test_eq_cell_separates_z_from_w(self):
        # the repeated 4 violates only the equality cell
        assert contains_mesh((3, 4, 2, 4, 1), MESH_W)
        assert not contains_mesh((3, 4, 2, 4, 1), MESH_Z)

    def test_empty_shading_reduces_to_containment(self):
        taus = [(2, 1), (1, 1), (2, 3, 1), (1, 2, 1)]
        meshes = {t: CayleyMeshPattern(CayleyPerm(t)) for t in taus}
        for text in words_up_to(5):
            for t in taus:
                assert contains_mesh(text, meshes[t]) == contains(text, t)

    @pytest.mark.parametrize("mp", [MESH_W, MESH_Z], ids=["W", "Z"])
    def test_agrees_with_definition_to_six(self, mp):
        for text in words_up_to(6):
            assert contains_mesh(text, mp) == brute_contains_mesh(text, mp), text

    @settings(max_examples=300, deadline=None)
    @given(_TEXTS, st.sampled_from([MESH_W, MESH_Z]))
    def test_random_words_agree_with_definition(self, text, mp):
        assert contains_mesh(text, mp) == brute_contains_mesh(text, mp)

    def test_z_and_w_agree_on_repetition_free_words(self):
        # equality cells can never fire without repeated letters
        for n in range(7):
            for p in itertools.permutations(range(1, n + 1)):
                assert contains_mesh(p, MESH_Z) == contains_mesh(p, MESH_W)


class TestDownwardClosure:
    def test_avoidance_sets_are_closed(self):
        member = lambda p: not contains(p, (2, 3, 1))
        assert downward_closure_violations(member, 5) == []

    def test_sortable_sets_need_not_be_closed(self):
        member = lambda p: is_sigma_sortable(p, (1, 1))
        pairs = downward_closure_violations(member, 4)
        assert (CayleyPerm((3, 1, 3, 2)), CayleyPerm((1, 3, 2))) in pairs
        for beta, alpha in pairs:
            assert member(beta) and not member(alpha)
        assert pairs == sorted(pairs, key=lambda bp: (len(bp[0]), bp[0], len(bp[1]), bp[1]))

    def test_two_stack_machine_violation(self):
        member = lambda p: is_sigma_sortable(p, (2, 1))
        pairs = downward_closure_violations(member, 5)
        assert (CayleyPerm((3, 4, 2, 4, 1)), CayleyPerm((3, 2, 4, 1))) in pairs


def _never_called(p):
    raise AssertionError(f"member called on {p} before the bound check")


@pytest.mark.parametrize("sweep", [downward_closure_violations, minimal_non_members])
class TestSweepBound:
    """Both sweeps check the census bound before generating any word."""

    def test_beyond_the_bound(self, sweep, monkeypatch):
        monkeypatch.delenv("CAYLEYSORT_MAX_N", raising=False)
        with pytest.raises(ResourceLimitError, match="CAYLEYSORT_MAX_N"):
            sweep(_never_called, 9)

    def test_negative_length(self, sweep):
        with pytest.raises(ValueError, match="nonnegative"):
            sweep(_never_called, -1)

    def test_member_runs_once_per_word(self, sweep):
        calls = []

        def member(p):
            calls.append(p)
            return not contains(p, (2, 3, 1))

        sweep(member, 4)
        assert len(calls) == len(set(calls)) == sum(1 for _ in words_up_to(4))


class TestMinimalNonMembers:
    def test_single_avoided_pattern_is_its_own_basis(self):
        member = lambda p: not contains(p, (2, 3, 1))
        assert minimal_non_members(member, 4) == [(2, 3, 1)]

    def test_321_machine(self):
        member = lambda p: is_sigma_sortable(p, (3, 2, 1))
        assert minimal_non_members(member, 4) == [(1, 2, 3), (1, 3, 2)]

    def test_popstack_bases_small(self):
        from cayleysort import is_popstack_sortable

        hare = minimal_non_members(lambda p: is_popstack_sortable(p, "hare"), 4)
        assert hare == [(2, 3, 1), (3, 1, 2), (2, 1, 2, 1)]
        tortoise = minimal_non_members(
            lambda p: is_popstack_sortable(p, "tortoise"), 4
        )
        assert tortoise == [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 2)]


class TestDeletions:
    def test_examples(self):
        # a repeated value stays, the last copy of a value closes its gap
        assert _deletions((2, 1, 2)) == {(1, 2), (1, 1), (2, 1)}
        assert _deletions((1, 1, 1)) == {(1, 1)}
        assert _deletions((1,)) == {()}
        assert _deletions(()) == set()

    def test_are_the_normalized_one_point_deletions(self):
        for p in words_up_to(7):
            expected = {normalize(p[:i] + p[i + 1 :]) for i in range(len(p))}
            got = _deletions(p)
            assert got == expected, p
            assert all(isinstance(d, CayleyPerm) for d in got)

    def test_iterated_deletions_are_the_subpatterns(self):
        # the proper patterns of p are its deletions and their patterns
        below = {}
        for p in words_up_to(6):
            below[p] = set().union(*({d} | below[d] for d in _deletions(p)))
            assert below[p] == subpatterns(p), p


def _random_member(seed, accept):
    """A fixed pseudo-random member set, not closed under containment."""

    def member(p):
        return random.Random(f"{seed}/{p}").random() < accept

    return member


_SWEEP_MEMBERS = [
    *(
        pytest.param(lambda p, s=sigma: is_sigma_sortable(p, s), id=f"sigma-{name}")
        for name, sigma in [("11", (1, 1)), ("21", (2, 1)), ("231", (2, 3, 1)), ("321", (3, 2, 1))]
    ),
    pytest.param(lambda p: is_popstack_sortable(p, "hare"), id="hare"),
    pytest.param(lambda p: is_popstack_sortable(p, "tortoise"), id="tortoise"),
    pytest.param(lambda p: not contains(p, (2, 3, 1)), id="avoid-231"),
    *(
        pytest.param(_random_member(seed, accept), id=f"random-{seed}-{accept}")
        for seed, accept in [(1, 0.5), (2, 0.8), (3, 0.9), (4, 0.95), (5, 0.97)]
    ),
]


@pytest.mark.parametrize("member", _SWEEP_MEMBERS)
class TestDeletionSweepsAgainstOracles:
    """The deletion sweeps equal the subset-based sweeps, also on member
    sets that are not closed (the random ones), where the basis sweep needs
    its subpattern confirmation and the closure sweep its on-demand sets
    of non-members."""

    def test_minimal_non_members(self, member):
        assert minimal_non_members(member, 5) == brute_minimal_non_members(member, 5)

    def test_downward_closure_violations(self, member):
        got = downward_closure_violations(member, 5)
        assert got == brute_downward_closure_violations(member, 5)
