"""Restricted stacks, the two-stack machine, pop-stacks, fertility."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cayleysort import (
    FLUSH_ALL,
    SINGLE,
    CayleyPerm,
    ResourceLimitError,
    SortTrace,
    StackConfig,
    contains,
    decompose_11,
    fertility,
    hare_blocks,
    hat,
    is_popstack_sortable,
    is_sigma_sortable,
    is_weakly_increasing,
    machine_output,
    normalize,
    reverse,
    run_popstack,
    run_stack,
    s_sigma,
    tortoise_blocks,
)
from cayleysort.census import (
    HARE_BASIS,
    TORTOISE_BASIS,
    _P2341,
    _class_targets,
    sigma_panel,
)
from cayleysort.core import _iter_letters
from cayleysort.pattern import _extend
from cayleysort.stack import (
    _POPSTACK_PATTERNS,
    Machine,
    _accept,
    _avoids_231,
    _creates_occurrence,
    _outputs,
    _run_word,
    _step,
)
from conftest import SIGMA_PANEL16, random_words, universe, words_up_to
from reference import brute_contains, naive_machine, order_isomorphic


class TestStackConfig:
    def test_coerces_patterns(self):
        cfg = StackConfig({(2, 1)})
        assert all(isinstance(s, CayleyPerm) for s in cfg.forbidden)
        assert cfg.pop_mode == SINGLE

    def test_rejects_empty_pattern_set(self):
        with pytest.raises(ValueError):
            StackConfig(frozenset())

    def test_rejects_short_patterns(self):
        with pytest.raises(ValueError):
            StackConfig({(1,)})

    def test_rejects_unknown_pop_mode(self):
        with pytest.raises(ValueError):
            StackConfig({(2, 1)}, pop_mode="drain")


class TestRunStack:
    def test_equal_pair_stack_full_trace(self):
        trace = run_stack((4, 2, 1, 3, 2), StackConfig({(1, 1)}))
        assert trace.output == (3, 1, 2, 2, 4)
        assert trace.events == (
            ("PUSH", 4), ("PUSH", 2), ("PUSH", 1), ("PUSH", 3),
            ("POP", 3), ("POP", 1), ("POP", 2), ("PUSH", 2),
            ("POP", 2), ("POP", 4),
        )

    def test_ascent_stack(self):
        trace = run_stack((1, 2, 1, 2), StackConfig({(1, 2)}))
        assert trace.output == (2, 2, 1, 1)

    def test_descent_stack(self):
        assert run_stack((2, 3, 1), StackConfig({(2, 1)})).output == (2, 1, 3)
        assert run_stack((1, 2, 3), StackConfig({(2, 1)})).output == (1, 2, 3)

    def test_empty_input(self):
        trace = run_stack((), StackConfig({(2, 1)}))
        assert trace.events == ()
        assert trace.output == ()

    def test_trace_to_text(self):
        trace = run_stack((2, 1), StackConfig({(1, 1)}))
        assert trace.to_text() == "PUSH 2\nPUSH 1\nPOP 1\nPOP 2\nOUTPUT: 1 2"

    def test_trace_to_dict(self):
        trace = run_stack((2, 1), StackConfig({(1, 1)}))
        assert trace.to_dict() == {
            "events": [["PUSH", 2], ["PUSH", 1], ["POP", 1], ["POP", 2]],
            "output": [1, 2],
        }

    def test_trace_is_frozen(self):
        trace = run_stack((1,), StackConfig({(2, 1)}))
        with pytest.raises(AttributeError):
            trace.output = ()


class TestAgainstNaiveSimulator:
    """The engine matches the incoming letter to the first pattern letter
    only; the naive simulator re-tests the whole content by brute force.
    They must agree event for event."""

    @pytest.mark.parametrize(
        "sigma", SIGMA_PANEL16, ids=["".join(map(str, s)) for s in SIGMA_PANEL16]
    )
    def test_single_pop(self, sigma):
        cfg = StackConfig({sigma})
        for p in words_up_to(5):
            trace = run_stack(p, cfg)
            out, events, _ = naive_machine(p, [sigma])
            assert trace.output == out, (p, sigma)
            assert trace.events == events, (p, sigma)

    def test_flush_all_multi_pattern(self):
        patterns = [(2, 1), (1, 1)]
        cfg = StackConfig(set(patterns), pop_mode=FLUSH_ALL)
        for p in words_up_to(5):
            trace = run_stack(p, cfg)
            out, events, _ = naive_machine(p, patterns, flush_all=True)
            assert trace.output == out
            assert trace.events == events

    @settings(max_examples=200, deadline=None)
    @given(random_words(2, 5, 6).map(normalize), random_words(0, 12, 7))
    def test_random_sigma_and_word(self, sigma, word):
        events = []
        out = _run_word(tuple(word), (tuple(sigma),), False, events)
        assert (out, tuple(events)) == naive_machine(word, [sigma])[:2]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(random_words(2, 4, 4).map(normalize), min_size=2, max_size=3, unique=True),
        st.sampled_from([SINGLE, FLUSH_ALL]),
        random_words(0, 12, 7).map(normalize),
    )
    def test_random_multi_pattern_config(self, patterns, pop_mode, word):
        trace = run_stack(word, StackConfig(set(patterns), pop_mode=pop_mode))
        out, events, _ = naive_machine(word, patterns, flush_all=pop_mode == FLUSH_ALL)
        assert (trace.output, trace.events) == (out, events)


def _per_word_outputs(n, sigmas, flush_all):
    return [(w, _run_word(w, sigmas, flush_all)) for w in _iter_letters(n)]


#: sigma-stacks (single pops) and both pop-stacks, as (sigmas, flush_all)
_SWEEP_MACHINES = [
    (((1, 1),), False),
    (((2, 1),), False),
    (((2, 2, 1),), False),
    (((3, 2, 1),), False),
    (((2, 2, 1, 3),), False),
    (_POPSTACK_PATTERNS["hare"], True),
    (_POPSTACK_PATTERNS["tortoise"], True),
]
_SWEEP_IDS = ["11", "21", "221", "321", "2213", "hare", "tortoise"]


class TestOutputsSweep:
    """The prefix-tree output sweep `_outputs` behind the law checks, word
    for word against a run of the machine on each word."""

    def test_sigma_panel_to_five(self):
        for sigma in sigma_panel():
            sigmas = (tuple(sigma),)
            for n in range(6):
                assert list(_outputs(n, sigmas, False)) == _per_word_outputs(
                    n, sigmas, False
                ), (sigma, n)

    @pytest.mark.parametrize("sigmas, flush_all", _SWEEP_MACHINES, ids=_SWEEP_IDS)
    def test_machines_to_seven(self, sigmas, flush_all):
        for n in range(8):
            assert list(_outputs(n, sigmas, flush_all)) == _per_word_outputs(
                n, sigmas, flush_all
            ), n

    def test_21_and_hare_at_eight(self):
        for sigmas, flush_all in [(((2, 1),), False), (_POPSTACK_PATTERNS["hare"], True)]:
            count = 0
            for w, out in _outputs(8, sigmas, flush_all):
                assert out == _run_word(w, sigmas, flush_all), (sigmas, w)
                count += 1
            assert count == 545835

    @pytest.mark.parametrize("sigmas, flush_all", _SWEEP_MACHINES, ids=_SWEEP_IDS)
    def test_naive_simulator_to_five(self, sigmas, flush_all):
        for n in range(6):
            got = list(_outputs(n, sigmas, flush_all))
            assert [w for w, _ in got] == list(universe(n))
            for w, out in got:
                assert out == naive_machine(w, sigmas, flush_all=flush_all)[0], w


class TestAccept:
    """`_accept`, the sorted-output test behind `Machine.accepts`, resumed
    mid-output as the census walk resumes it."""

    @settings(max_examples=300, deadline=None)
    @given(random_words(0, 12, 7), st.integers(0, 12), st.booleans())
    def test_resumes_at_any_split(self, word, cut, flush_all):
        u, v = word[:cut], word[cut:]
        head = _accept((0, ()), u, flush_all)
        resumed = None if head is None else _accept(head, v, flush_all)
        assert resumed == _accept((0, ()), u + v, flush_all)

    @settings(max_examples=300, deadline=None)
    @given(random_words(0, 12, 7))
    def test_machine_accepts(self, word):
        for mode in ("hare", "tortoise"):
            assert Machine.popstack(mode).accepts(word) == is_weakly_increasing(word)
        avoids = not brute_contains(word, (2, 3, 1))
        for sigma in [(2, 1), (1, 1), (2, 3, 1)]:
            assert Machine.sigma(sigma).accepts(word) == _avoids_231(word) == avoids


class TestStep:
    """`_step`, the one machine step of the prefix-tree walks, folded over
    every word: a node it declares dead has no sortable completion, and at
    a leaf it is the exact test."""

    @pytest.mark.parametrize("sigmas, flush_all", _SWEEP_MACHINES, ids=_SWEEP_IDS)
    def test_dead_nodes_have_no_sortable_completion_to_six(self, sigmas, flush_all):
        machine = Machine("under test", sigmas, flush_all)
        for w in words_up_to(6, start=1):
            sortable = machine.accepts(_run_word(w, sigmas, flush_all))
            node = (), (0, ())
            for x in w:
                node = _step(*node, x, sigmas, flush_all)
                if node is None:
                    assert not sortable, w
                    break
            assert (node is not None) == sortable, w


def _brute_first_letter_occurrence(u, sigmas):
    """Does some pattern of `sigmas` occur in u at positions that include 0?"""
    return any(
        order_isomorphic((u[0],) + tuple(u[i] for i in rest), sig)
        for sig in sigmas
        for rest in combinations(range(1, len(u)), len(sig) - 1)
    )


#: Pattern sets the push test gets: each panel sigma alone, and the
#: reversed bases `census._law_walk` passes for the hare and tortoise laws,
#: the class law of 321 and the mesh21 law's 2341.
_PUSH_TEST_SETS = [(tuple(sigma),) for sigma in sigma_panel()] + [
    tuple(p[::-1] for p in basis)
    for basis in (HARE_BASIS, TORTOISE_BASIS, _class_targets((3, 2, 1)), (_P2341,))
]

_EQUAL_FIRST = [(tuple(sigma),) for sigma in sigma_panel() if sigma[0] == sigma[1]]


class TestCreatesOccurrence:
    """The push test on arbitrary stacks, not only occurrence-free ones,
    since the law walk passes a raw prefix."""

    def test_matches_brute_force_to_five(self):
        cases = 0
        for n in range(1, 6):
            for u in _iter_letters(n):
                stack = list(u[:0:-1])
                for sigmas in _PUSH_TEST_SETS:
                    expected = _brute_first_letter_occurrence(u, sigmas)
                    assert _creates_occurrence(stack, u[0], sigmas) == expected, (u, sigmas)
                    cases += 1
        assert cases == 633 * 95

    def test_equal_first_searches_start_below_a_copy(self, monkeypatch):
        assert len(_EQUAL_FIRST) == 17
        pushed = []
        searches = []

        def push_test(stack, x, sigmas):
            pushed.append(x)
            return _creates_occurrence(stack, x, sigmas)

        def extend(text, pat, vals, pos, t, start, accept):
            searches.append((pat, t, vals[:2], pushed[-1]))
            return _extend(text, pat, vals, pos, t, start, accept)

        monkeypatch.setattr("cayleysort.stack._creates_occurrence", push_test)
        monkeypatch.setattr("cayleysort.stack._extend", extend)
        for sigmas in _EQUAL_FIRST:
            for n in range(6):
                for _ in _outputs(n, sigmas, False):
                    pass
        assert searches and len(searches) < len(pushed)
        for pat, t, first_two, x in searches:
            assert pat[0] == pat[1]
            assert (t, first_two) == (2, [x, x]), pat


class TestSSigma:
    def test_examples(self):
        assert s_sigma((1, 3, 2), (1, 1)) == (2, 3, 1)
        assert s_sigma((3, 2, 4, 1), (2, 1)) == (2, 3, 1, 4)
        assert s_sigma((4, 2, 1, 3, 2), (1, 1)) == (3, 1, 2, 2, 4)

    def test_collision_when_first_letters_differ(self):
        # both reversals of sigma and sigma-hat land on sigma-hat
        assert s_sigma((2, 1), (1, 2)) == (2, 1)
        assert s_sigma((1, 2), (1, 2)) == (2, 1)

    def test_preserves_letter_multiset(self):
        for sigma in [(1, 1), (2, 1), (2, 3, 1)]:
            for p in words_up_to(5):
                assert sorted(s_sigma(p, sigma)) == sorted(p)

    def test_sigma_must_have_two_letters(self):
        with pytest.raises(ValueError):
            s_sigma((1,), (1,))

    def test_first_letter_swap_remark(self):
        # whenever p avoids reverse(sigma) the stack just reverses p;
        # otherwise the output reveals hat(sigma)
        for sigma in SIGMA_PANEL16:
            sig_r = reverse(sigma)
            sig_hat = hat(sigma)
            for p in words_up_to(6):
                out = s_sigma(p, sigma)
                if not contains(p, sig_r):
                    assert out == reverse(p), (p, sigma)
                else:
                    assert contains(out, sig_hat), (p, sigma)


class TestTwoStackMachine:
    def test_sortable_examples(self):
        assert is_sigma_sortable((3, 1, 3, 2), (1, 1))
        assert not is_sigma_sortable((1, 3, 2), (1, 1))
        assert is_sigma_sortable((3, 6, 1, 4, 2, 5), (2, 3, 1))
        assert not is_sigma_sortable((1, 3, 2, 4), (2, 3, 1))
        assert is_sigma_sortable((3, 4, 2, 4, 1), (2, 1))
        assert not is_sigma_sortable((3, 2, 4, 1), (2, 1))

    def test_machine_output_example(self):
        assert machine_output((2, 3, 1), (2, 1)) == (1, 2, 3)

    def test_sortable_iff_machine_output_sorted(self):
        for sigma in SIGMA_PANEL16:
            for p in words_up_to(5):
                assert is_sigma_sortable(p, sigma) == is_weakly_increasing(
                    machine_output(p, sigma)
                )

    def test_descent_single_stack_sorts_iff_avoids_231(self):
        # one 21-stack alone (no second pass) sorts exactly the 231-avoiders
        for p in words_up_to(6):
            sorted_out = is_weakly_increasing(_run_word(tuple(p), ((2, 1),), False))
            assert sorted_out == (not contains(p, (2, 3, 1)))

    def test_ascent_machine_sorts_iff_avoids_213(self):
        for p in words_up_to(5):
            assert is_sigma_sortable(p, (1, 2)) == (not contains(p, (2, 1, 3)))


class TestPopstacks:
    def test_traces(self):
        assert run_popstack((2, 1, 2, 1), "hare").output == (1, 2, 1, 2)
        assert run_popstack((2, 1, 1), "tortoise").output == (1, 2, 1)
        assert run_popstack((2, 1, 1), "hare").output == (1, 1, 2)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            run_popstack((1,), "snail")

    def test_sortable_examples(self):
        assert is_popstack_sortable((1, 2, 1), "hare")
        assert is_popstack_sortable((1, 2, 1), "tortoise")
        assert not is_popstack_sortable((2, 1, 2, 1), "hare")
        assert not is_popstack_sortable((2, 1, 1), "tortoise")
        assert is_popstack_sortable((2, 1, 1), "hare")

    def test_blocks(self):
        assert hare_blocks((4, 2, 1, 3, 2)) == [(4, 2, 1), (3, 2)]
        assert hare_blocks((2, 2, 1)) == [(2, 2, 1)]
        assert tortoise_blocks((2, 1, 2)) == [(2, 1), (2,)]
        assert tortoise_blocks((2, 2, 1)) == [(2,), (2, 1)]
        assert hare_blocks(()) == []

    def test_output_is_concatenation_of_reversed_blocks(self):
        for p in words_up_to(6):
            hare_out = run_popstack(p, "hare").output
            assert hare_out == sum((b[::-1] for b in hare_blocks(p)), ())
            tort_out = run_popstack(p, "tortoise").output
            assert tort_out == sum((b[::-1] for b in tortoise_blocks(p)), ())

    def test_characterizations(self):
        hare_basis = [(2, 3, 1), (3, 1, 2), (2, 1, 2, 1)]
        tortoise_basis = [(2, 3, 1), (3, 1, 2), (2, 2, 1), (2, 1, 1)]
        for p in words_up_to(6):
            assert is_popstack_sortable(p, "hare") == all(
                not contains(p, b) for b in hare_basis
            )
            assert is_popstack_sortable(p, "tortoise") == all(
                not contains(p, b) for b in tortoise_basis
            )


class TestFertility:
    def test_examples(self):
        assert fertility((1, 2), (2, 1)) == 2
        assert fertility((1, 2), (1, 2)) == 0

    def test_equal_pair_stack_is_bijective(self):
        for t in words_up_to(4):
            assert fertility((1, 1), t) == 1

    def test_fertilities_partition_the_universe(self):
        assert sum(fertility((2, 1), t) for t in universe(3)) == 13

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            fertility((2, 1), tuple(range(1, 10)))


class TestDecompose11:
    def test_examples(self):
        assert decompose_11((4, 2, 1, 3, 2)) == (4, [(2, 1, 3, 2)])
        assert decompose_11((1, 1)) == (1, [(), ()])
        assert decompose_11((2, 1, 2)) == (2, [(1,), ()])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decompose_11(())

    def test_block_count_is_first_value_multiplicity(self):
        for p in words_up_to(6, start=1):
            v, blocks = decompose_11(p)
            assert v == p[0]
            assert len(blocks) == p.count(v)
            assert all(v not in b for b in blocks)

    def test_reassembly_reproduces_the_equal_pair_stack(self):
        # s_11(p) = s_11(B_1) v s_11(B_2) v ... s_11(B_j) v
        for p in words_up_to(6, start=1):
            v, blocks = decompose_11(p)
            rebuilt = ()
            for block in blocks:
                rebuilt += _run_word(block, ((1, 1),), False) + (v,)
            assert s_sigma(p, (1, 1)) == rebuilt
