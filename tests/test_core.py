"""Value type, normalization, generation, counting."""

import pytest
from hypothesis import given, strategies as st

from cayleysort import (
    LIMIT_ENV_VAR,
    CayleyPerm,
    ResourceLimitError,
    census_limit,
    fubini_numbers,
    generate_all,
    generation_limit,
    hat,
    is_weakly_increasing,
    normalize,
    reverse,
)
from cayleysort.core import _children, _iter_letters
from conftest import universe
from reference import fubini_via_stirling, insertion_words

# Fubini numbers a(0)..a(8); a(n) counts the Cayley permutations of length n.
FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]

ALL_LENGTH_3 = [
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 2),
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 3, 1), (3, 1, 2),
    (3, 2, 1),
]


class TestCayleyPerm:
    def test_accepts_valid_words(self):
        for letters in [(), (1,), (1, 1), (2, 1), (2, 2, 1), (4, 2, 1, 3, 2)]:
            assert tuple(CayleyPerm(letters)) == letters

    @pytest.mark.parametrize(
        "letters",
        [(2,), (1, 3), (3, 1), (2, 2), (0, 1), (-1, 1), (1, 2, 4, 2)],
    )
    def test_rejects_non_surjective_words(self, letters):
        with pytest.raises(ValueError):
            CayleyPerm(letters)

    def test_rejects_non_integer_letters(self):
        with pytest.raises(ValueError):
            CayleyPerm((1, "2"))
        with pytest.raises(ValueError):
            CayleyPerm((True, 1))

    def test_behaves_as_tuple(self):
        p = CayleyPerm((2, 1, 2))
        assert p == (2, 1, 2)
        assert p[0] == 2
        assert p[1:] == (1, 2)  # slices are plain tuples
        assert len({p, CayleyPerm((2, 1, 2))}) == 1

    def test_max_letter(self):
        assert CayleyPerm((3, 1, 2, 2)).max_letter == 3
        assert CayleyPerm(()).max_letter == 0

    def test_parse_space_separated(self):
        assert CayleyPerm.parse("4 2 1 3 2") == (4, 2, 1, 3, 2)
        assert CayleyPerm.parse("1") == (1,)

    def test_parse_compact_digits(self):
        assert CayleyPerm.parse("42132") == (4, 2, 1, 3, 2)
        assert CayleyPerm.parse("21") == (2, 1)

    @pytest.mark.parametrize("text", ["", "  ", "1 0 2", "102", "1 2 x", "2 3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            CayleyPerm.parse(text)

    def test_str_roundtrip(self):
        for text in ["1", "2 1", "4 2 1 3 2", "1 1 2"]:
            assert str(CayleyPerm.parse(text)) == text

    def test_repr(self):
        assert repr(CayleyPerm((2, 1))) == "CayleyPerm('2 1')"


class TestNormalize:
    def test_examples(self):
        assert normalize((4, 2, 2, 5)) == (2, 1, 1, 3)
        assert normalize((1, 4, 2, 2, 1, 5)) == (1, 3, 2, 2, 1, 4)
        assert normalize((1, 1, 1)) == (1, 1, 1)
        assert normalize((7,)) == (1,)
        assert normalize(()) == ()

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            normalize((0, 1))
        with pytest.raises(ValueError):
            normalize((1, -3))

    @given(st.lists(st.integers(min_value=1, max_value=50), max_size=10))
    def test_result_is_cayley_and_idempotent(self, word):
        q = normalize(word)
        assert isinstance(q, CayleyPerm)
        assert normalize(q) == q

    @given(st.lists(st.integers(min_value=1, max_value=50), max_size=8))
    def test_preserves_pairwise_order(self, word):
        q = normalize(word)
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                assert (word[i] < word[j]) == (q[i] < q[j])
                assert (word[i] == word[j]) == (q[i] == q[j])


class TestReverseHat:
    def test_reverse(self):
        assert reverse((4, 2, 1, 3, 2)) == (2, 3, 1, 2, 4)
        assert reverse(reverse((3, 1, 2))) == (3, 1, 2)
        assert reverse(()) == ()

    def test_hat_swaps_first_two(self):
        assert hat((2, 3, 1)) == (3, 2, 1)
        assert hat((1, 1, 2)) == (1, 1, 2)
        assert hat(hat((2, 3, 1))) == (2, 3, 1)

    def test_hat_needs_two_letters(self):
        with pytest.raises(ValueError):
            hat((1,))
        with pytest.raises(ValueError):
            hat(())


def test_is_weakly_increasing():
    assert is_weakly_increasing(())
    assert is_weakly_increasing((1, 1, 2, 2, 3))
    assert not is_weakly_increasing((1, 2, 1))


class TestGeneration:
    def test_length_three_exactly(self):
        assert list(generate_all(3)) == ALL_LENGTH_3

    def test_counts_match_fubini(self):
        for n in range(7):
            assert sum(1 for _ in generate_all(n)) == FUBINI[n]

    def test_lexicographic_and_valid(self):
        for n in range(6):
            perms = list(generate_all(n))
            assert perms == sorted(perms)
            assert len(set(perms)) == len(perms)
            assert all(isinstance(p, CayleyPerm) for p in perms)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            generate_all(-1)

    def test_resource_guard_fires_eagerly(self):
        with pytest.raises(ResourceLimitError):
            generate_all(generation_limit() + 1)  # no next() needed

    def test_env_override_raises_bounds(self, monkeypatch):
        monkeypatch.setenv(LIMIT_ENV_VAR, "15")
        assert generation_limit() == 15
        assert census_limit() == 15
        # the generation bound never drops below its default
        monkeypatch.setenv(LIMIT_ENV_VAR, "3")
        assert generation_limit() == 12
        assert census_limit() == 3

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
    def test_malformed_env_override_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv(LIMIT_ENV_VAR, value)
        for limit in (generation_limit, census_limit):
            with pytest.raises(ValueError, match=LIMIT_ENV_VAR):
                limit()

    def test_default_limits(self, monkeypatch):
        monkeypatch.delenv(LIMIT_ENV_VAR, raising=False)
        assert generation_limit() == 12
        assert census_limit() == 8


def _node(n, prefix):
    """The `_children` node of a prefix, computed from its letters."""
    top = max(prefix, default=0)
    unused = sum(1 << v for v in range(1, top) if v not in prefix)
    return n - len(prefix), top, unused


class TestPrefixTree:
    """The `_children` table and the walks built on it, against the words
    of the universe."""

    def test_iter_letters_is_the_universe(self):
        for n in range(8):
            assert list(_iter_letters(n)) == sorted(insertion_words(n)) == list(universe(n))

    def test_children_are_the_next_letters(self):
        for n in range(7):
            below: dict[tuple, set] = {}
            for w in universe(n):
                for k in range(n + 1):
                    kids = below.setdefault(_node(n, w[:k]), set())
                    if k < n:
                        kids.add((w[k],) + _node(n, w[: k + 1])[1:])
            for node, kids in below.items():
                assert _children(*node) == tuple(sorted(kids)), node


class TestFubini:
    def test_frozen_values(self):
        assert fubini_numbers(8) == FUBINI

    def test_against_stirling_sum(self):
        # independent oracle: sum_k k! * S(n,k)
        assert fubini_numbers(12) == fubini_via_stirling(12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fubini_numbers(-1)
