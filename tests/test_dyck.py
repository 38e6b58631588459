"""Labeled lattice-path view of machine runs."""

from itertools import accumulate

import pytest

from cayleysort import (
    LabeledDyckPath,
    StackConfig,
    down_labels,
    encode,
    heights,
    matched_pairs,
    returns_decomposition,
    reverse,
    reverse_path,
    run_stack,
    s_sigma,
    up_labels,
    valleys,
)
from conftest import SIGMA_PANEL16, words_up_to
from reference import dyck_matching, naive_machine

# sigma-stack run on 4 2 1 3 2 with sigma = 11 (see the stack trace tests)
EXAMPLE = encode((4, 2, 1, 3, 2), (1, 1))


class TestLabeledDyckPath:
    def test_example_encoding(self):
        assert EXAMPLE.step_string() == "UUUUDDDUDD"
        assert up_labels(EXAMPLE) == (4, 2, 1, 3, 2)
        assert down_labels(EXAMPLE) == (3, 1, 2, 2, 4)

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError, match="does not return to the axis"):
            LabeledDyckPath((("U", 1),))

    def test_rejects_dip_below_axis(self):
        with pytest.raises(ValueError, match="dips below the axis"):
            LabeledDyckPath((("D", 1), ("U", 1)))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="matched steps carry different labels"):
            LabeledDyckPath((("U", 1), ("D", 2)))

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="step direction 'X' is not U or D"):
            LabeledDyckPath((("X", 1), ("D", 1)))

    def test_rejects_step_that_is_not_a_pair(self):
        with pytest.raises(ValueError):
            LabeledDyckPath((("U", 1, 0), ("D", 1)))

    def test_nested_labels_match_inside_out(self):
        path = LabeledDyckPath((("U", 5), ("U", 2), ("D", 2), ("D", 5)))
        assert matched_pairs(path) == [(1, 2), (0, 3)]
        matched_pairs(path).clear()  # a copy: the path keeps its matching
        assert matched_pairs(path) == [(1, 2), (0, 3)]

    def test_to_text_three_lines(self):
        assert EXAMPLE.to_text() == "UUUUDDDUDD\n4 2 1 3 2\n3 1 2 2 4"

    def test_to_dict(self):
        d = EXAMPLE.to_dict()
        assert d["steps"] == "UUUUDDDUDD"
        assert d["up_labels"] == [4, 2, 1, 3, 2]
        assert d["down_labels"] == [3, 1, 2, 2, 4]

    def test_empty_path(self):
        path = LabeledDyckPath(())
        assert path.step_string() == ""
        assert heights(path) == []
        assert valleys(path) == []
        assert returns_decomposition(path) == []


class TestPathStatistics:
    def test_heights_track_stack_occupancy(self):
        assert heights(EXAMPLE) == [1, 2, 3, 4, 3, 2, 1, 2, 1, 0]

    def test_example_valley(self):
        # one valley: the final 2 arrived while an equal 2 sat on the stack
        assert valleys(EXAMPLE) == [(6, 2, 2)]

    def test_reverse_path(self):
        assert reverse_path("UUUUDDDUDD") == "UUDUUUDDDD"
        assert reverse_path(EXAMPLE) == "UUDUUUDDDD"
        assert reverse_path(reverse_path(EXAMPLE)) == EXAMPLE.step_string()

    @pytest.mark.parametrize(
        "steps, message",
        [
            ("UDX", "step direction 'X' is not U or D"),
            ("ud", "step direction 'u' is not U or D"),
            ("UU", "does not return to the axis"),
            ("DU", "dips below the axis"),
        ],
        ids=["UDX", "ud", "UU", "DU"],
    )
    def test_reverse_path_rejects_invalid_step_string(self, steps, message):
        with pytest.raises(ValueError, match=message):
            reverse_path(steps)

    def test_returns_decomposition(self):
        path = LabeledDyckPath(
            (("U", 1), ("U", 3), ("D", 3), ("D", 1), ("U", 2), ("D", 2))
        )
        pieces = returns_decomposition(path)
        assert [q.step_string() for q in pieces] == ["UUDD", "UD"]
        assert pieces[1] == LabeledDyckPath((("U", 2), ("D", 2)))

    def test_returns_decomposition_single_piece(self):
        # the 11-stack never fully empties mid-run on 4 2 1 3 2
        assert returns_decomposition(EXAMPLE) == [EXAMPLE]


class TestEncodeInvariants:
    @pytest.mark.parametrize(
        "sigma", SIGMA_PANEL16, ids=["".join(map(str, s)) for s in SIGMA_PANEL16]
    )
    def test_stored_matching_follows_the_definition(self, sigma):
        for p in words_up_to(5):
            path = encode(p, sigma)
            pairs = matched_pairs(path)
            assert pairs == dyck_matching(path.steps)
            assert all(path.steps[a][1] == path.steps[b][1] for a, b in pairs)
            pieces = returns_decomposition(path)
            assert sum((q.steps for q in pieces), ()) == path.steps
            for q in pieces:
                # each piece touches the axis only at its last step
                hs = accumulate(1 if d == "U" else -1 for d, _ in q.steps)
                assert [h == 0 for h in hs] == [False] * (len(q.steps) - 1) + [True]
            rebuilt = LabeledDyckPath(path.steps)
            assert rebuilt == path
            assert hash(rebuilt) == hash(path)
            assert repr(rebuilt) == repr(path)

    @pytest.mark.parametrize(
        "sigma", SIGMA_PANEL16, ids=["".join(map(str, s)) for s in SIGMA_PANEL16]
    )
    def test_labels_spell_input_and_output(self, sigma):
        for p in words_up_to(5):
            path = encode(p, sigma)  # constructor enforces balance/matching
            assert up_labels(path) == tuple(p)
            assert down_labels(path) == s_sigma(p, sigma)

    @pytest.mark.parametrize(
        "sigma", SIGMA_PANEL16, ids=["".join(map(str, s)) for s in SIGMA_PANEL16]
    )
    def test_valleys_count_blocked_pushes(self, sigma):
        for p in words_up_to(5):
            _, _, triggered = naive_machine(p, [sigma])
            assert len(valleys(encode(p, sigma))) == triggered

    def test_returns_count_stack_empties(self):
        for p in words_up_to(5):
            path = encode(p, (2, 1))
            empties = sum(1 for h in heights(path) if h == 0)
            assert len(returns_decomposition(path)) == empties

    @pytest.mark.parametrize("sigma", [(1, 1), (1, 1, 2), (2, 2, 1), (1, 1, 1)])
    def test_equal_first_letters_give_equal_valley_labels(self, sigma):
        for p in words_up_to(5):
            for _, down, up in valleys(encode(p, sigma)):
                assert down == up

    @pytest.mark.parametrize("sigma", [(1, 1), (1, 1, 2), (2, 2, 1)])
    def test_equal_first_letters_reverse_law(self, sigma):
        # the path of p, read backwards, is the path of reverse(s_sigma(p))
        for p in words_up_to(5):
            forward = encode(p, sigma)
            mirrored = encode(reverse(s_sigma(p, sigma)), sigma)
            assert reverse_path(mirrored) == forward.step_string()

    def test_distinct_first_letters_break_the_reverse_law(self):
        # sigma = 21 on p = 12: path UDUD, but the mirror run gives UUDD
        forward = encode((1, 2), (2, 1))
        mirrored = encode(reverse(s_sigma((1, 2), (2, 1))), (2, 1))
        assert forward.step_string() == "UDUD"
        assert reverse_path(mirrored) == "UUDD"
