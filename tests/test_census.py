"""Censuses, classness verdicts, witnesses, and the verification laws."""

import gc
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cayleysort import (
    HARE_BASIS,
    MESH_W,
    MESH_Z,
    TORTOISE_BASIS,
    CayleyMeshPattern,
    CayleyPerm,
    ResourceLimitError,
    class_violations,
    classify_sigma,
    contains,
    contains_mesh,
    count_sortable,
    involution_violations,
    is_sigma_sortable,
    mesh21_violations,
    popstack_violations,
    sigma_panel,
    sort11_equinumerosity,
    sortable_predicate,
    tortoise_blocks,
    tortoise_refined,
    verify_21_machine_mesh,
    verify_bijectivity,
    verify_class,
    verify_fubini,
    verify_involution,
    verify_popstack_characterization,
    verify_tortoise_count,
    verify_tortoise_refined,
    witness_non_class,
)
from cayleysort import census, pattern
from cayleysort.census import (
    _TORTOISE,
    WITNESS_TABLE,
    _class_targets,
    _word_sortable,
)
from cayleysort.core import _iter_letters, fubini_numbers
from cayleysort.pattern import _closure_sweep
from cayleysort.stack import Machine, _avoids_231, _outputs, _run_word, _step
from conftest import corrupt_law_basis, universe, words_up_to
from reference import (
    brute_contains,
    brute_contains_mesh,
    brute_search_witness,
    insertion_words,
    naive_machine,
    standardize,
)


def _naive_sorts(letters, sigma):
    """Run the naive sigma-stack, then the naive 21-stack; is the result sorted?"""
    first, _, _ = naive_machine(letters, [sigma])
    out, _, _ = naive_machine(first, [(2, 1)])
    return list(out) == sorted(out)


class TestMachineDescriptors:
    def test_sigma_machine_forms(self):
        assert Machine.parse("sigma-machine 21") == Machine("sigma-machine 2 1", ((2, 1),), False)
        assert Machine.parse("sigma-machine 2 1") == Machine.sigma((2, 1))
        assert Machine.parse("sigma machine 1 1") == Machine.sigma((1, 1))

    def test_popstack_forms(self):
        assert Machine.parse("popstack hare") == Machine("popstack hare", ((2, 1),), True)
        assert Machine.parse("popstack-tortoise") == Machine.popstack("tortoise")
        assert Machine.parse("popstack  hare") == Machine.popstack("hare")

    @pytest.mark.parametrize(
        "bad",
        [
            "", "sigma-machine", "sigma-machine 1", "popstack", "popstack snail", "bogus 21",
            "hare", "sigma-machine 2 -1", "sigma-machine 1 -1 2", "popstack-hare-",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Machine.parse(bad)

    def test_name_parses_back(self):
        machines = [Machine.sigma(s) for s in sigma_panel()]
        machines += [Machine.popstack("hare"), Machine.popstack("tortoise")]
        assert len(machines) == 93
        for m in machines:
            assert Machine.parse(m.name) == m

    def test_sortable_predicate(self):
        pred = sortable_predicate("sigma-machine 21")
        assert pred(CayleyPerm((3, 4, 2, 4, 1)))
        assert not pred(CayleyPerm((3, 2, 4, 1)))
        hare = sortable_predicate("popstack hare")
        assert hare(CayleyPerm((2, 2, 1)))
        assert not hare(CayleyPerm((2, 3, 1)))


class TestCountSortable:
    def test_21_machine_small(self):
        report = count_sortable("sigma-machine 21", 4)
        assert report.machine == "sigma-machine 2 1"
        assert report.counts == {1: 1, 2: 3, 3: 13, 4: 73}
        assert report.universe_sizes == {1: 1, 2: 3, 3: 13, 4: 75}
        assert report.count_list() == [1, 3, 13, 73]
        assert report.refined is None
        assert report.elapsed >= 0.0

    def test_hare_small(self):
        assert count_sortable("popstack hare", 4).count_list() == [1, 3, 11, 41]

    def test_tortoise_carries_refinement(self):
        report = count_sortable("popstack tortoise", 3)
        assert report.count_list() == [1, 3, 9]
        assert report.refined == {
            (1, 1): 1,
            (2, 1): 1, (2, 2): 2,
            (3, 1): 1, (3, 2): 4, (3, 3): 4,
        }

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            count_sortable("sigma-machine 21", 9)

    def test_env_override_admits_larger_n(self, monkeypatch):
        # only the bound check changes; don't actually run a census at 9
        from cayleysort import census_limit

        monkeypatch.setenv("CAYLEYSORT_MAX_N", "9")
        assert census_limit() == 9


class TestReportEmitters:
    def test_to_text(self):
        report = count_sortable("sigma-machine 21", 3)
        text = report.to_text()
        assert text.splitlines()[0] == "machine: sigma-machine 2 1"
        assert "   3          13          13" in text
        assert text.splitlines()[-1].startswith("elapsed:")

    def test_to_text_pruned_line(self):
        report = count_sortable("popstack tortoise", 4)
        lines = report.to_text().splitlines()
        assert lines[-2] == "pruned: 52 of 92 words below skipped edges"
        assert all(len(line.split()) == 3 for line in lines if line[:4].strip().isdigit())

    def test_to_csv_plain(self):
        report = count_sortable("sigma-machine 21", 3)
        assert report.to_csv() == "n,count\n1,1\n2,3\n3,13"

    def test_to_csv_refined(self):
        report = count_sortable("popstack tortoise", 2)
        assert report.to_csv() == (
            "n,count,k,refined_count\n1,1,1,1\n2,3,1,1\n2,3,2,2"
        )

    def test_to_bfile(self):
        report = count_sortable("popstack hare", 4)
        assert report.to_bfile() == "1 1\n2 3\n3 11\n4 41"


class TestTortoiseRefined:
    def test_length_three(self):
        assert tortoise_refined(3) == {1: 1, 2: 4, 3: 4}

    def test_length_four(self):
        assert tortoise_refined(4) == {1: 1, 2: 6, 3: 12, 4: 8}

    def test_length_one(self):
        assert tortoise_refined(1) == {1: 1}

    def test_totals_are_powers_of_three(self):
        for n in range(1, 6):
            assert sum(tortoise_refined(n).values()) == 3 ** (n - 1)


class TestClassification:
    def test_sort_321_is_a_class(self):
        verdict = classify_sigma((3, 2, 1))
        assert verdict.predicted_is_class
        assert verdict.predicted_basis == {(1, 3, 2), (1, 2, 3)}
        assert verdict.witness is None

    def test_reversed_sigma_absorbed_when_it_contains_132(self):
        verdict = classify_sigma((4, 2, 3, 1))
        assert verdict.predicted_is_class
        assert verdict.predicted_basis == {(1, 3, 2)}

    def test_sort_12_is_the_213_avoiders(self):
        verdict = classify_sigma((1, 2))
        assert verdict.predicted_is_class
        assert verdict.predicted_basis == {(2, 1, 3)}

    @pytest.mark.filterwarnings("ignore:candidate witness")
    def test_non_classes_carry_validated_witnesses(self):
        for sigma in [(1, 1), (2, 1), (2, 3, 1)]:
            verdict = classify_sigma(sigma)
            assert not verdict.predicted_is_class
            assert verdict.predicted_basis is None
            alpha, beta = verdict.witness
            assert contains(beta, alpha)
            assert is_sigma_sortable(beta, sigma)
            assert not is_sigma_sortable(alpha, sigma)

    def test_among_length_three_only_321_is_a_class(self):
        classes = [
            s for s in sigma_panel()
            if len(s) == 3 and classify_sigma(s).predicted_is_class
        ]
        assert classes == [(3, 2, 1)]

    def test_sigma_panel(self):
        panel = sigma_panel()
        assert len(panel) == 91
        assert panel[0] == (1, 1)
        assert panel[-1] == (4, 3, 2, 1)
        assert {len(s) for s in panel} == {2, 3, 4}


class TestVerifyClass:
    def test_class_sweep_agrees(self):
        verdict = verify_class((3, 2, 1), 5)
        assert verdict.equality_holds
        assert verdict.checked_to_length == 5

    def test_ascent_machine_class_sweep(self):
        assert verify_class((1, 2), 7).equality_holds

    def test_verdict_carries_the_first_counterexample(self, monkeypatch):
        assert verify_class((3, 2, 1), 5).counterexample is None
        corrupt_law_basis(monkeypatch)
        verdict = verify_class((3, 2, 1), 5)
        assert not verdict.equality_holds
        assert verdict.counterexample == (1, 2, 3)

    def test_non_class_revalidates_witness(self):
        verdict = verify_class((1, 1), 5)
        assert not verdict.predicted_is_class
        assert verdict.equality_holds
        assert verdict.checked_to_length == 0  # nothing swept, witness only
        assert verdict.witness == ((1, 3, 2), (3, 1, 3, 2))

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            verify_class((1, 1), 9)


class TestWitnesses:
    def test_reference_pairs(self):
        assert witness_non_class((1, 1)) == ((1, 3, 2), (3, 1, 3, 2))
        assert witness_non_class((2, 3, 1)) == ((1, 3, 2, 4), (3, 6, 1, 4, 2, 5))

    def test_constructed_pair_strict_minimum_first_letter(self):
        # sigma = 123: beta from the sigma+1 construction
        alpha, beta = witness_non_class((1, 2, 3))
        assert alpha == (1, 3, 2)
        assert beta == (4, 1, 3, 2)

    def test_constructed_pair_general_case(self):
        alpha, beta = witness_non_class((1, 2, 2))
        assert alpha == (1, 3, 2)
        assert beta == (3, 1, 3, 2)

    def test_21_row_falls_back_to_search(self):
        # the reference alpha = 132 is actually sortable by the 21-machine,
        # so the table row fails validation and the exhaustive search runs
        with pytest.warns(UserWarning, match="fails validation"):
            alpha, beta = witness_non_class((2, 1))
        assert (alpha, beta) == ((3, 2, 4, 1), (3, 4, 2, 4, 1))
        assert contains(beta, alpha)
        assert is_sigma_sortable(beta, (2, 1))
        assert not is_sigma_sortable(alpha, (2, 1))

    def test_21_row_checked_by_naive_oracle(self):
        # independent of the library: the stored alpha = 132 is sorted, so the
        # row cannot be a witness; the searched pair 3241/34241 is one
        alpha, beta = WITNESS_TABLE[(2, 1)]
        assert alpha == (1, 3, 2)
        assert _naive_sorts(alpha, (2, 1))
        assert _naive_sorts(beta, (2, 1))
        assert brute_contains((3, 4, 2, 4, 1), (3, 2, 4, 1))
        assert _naive_sorts((3, 4, 2, 4, 1), (2, 1))
        assert not _naive_sorts((3, 2, 4, 1), (2, 1))

    def test_search_witness_directly(self):
        sortable = sortable_predicate("sigma-machine 21")
        beta, alphas = next(_closure_sweep(sortable, 5))
        assert (alphas[0], beta) == ((3, 2, 4, 1), (3, 4, 2, 4, 1))

    @pytest.mark.parametrize(
        "sigma, max_len",
        [((2, 1), 5)]
        + [
            (tuple(s), len(s) + 3)
            for s in sigma_panel()
            if len(s) <= 3 and _class_targets(tuple(s)) is None
        ],
        ids=str,
    )
    def test_search_witness_matches_subset_search(self, sigma, max_len):
        # the closure sweep's first item is the witness the 2^n subset
        # search finds: the same beta and the same smallest alpha
        sortable = sortable_predicate("sigma-machine " + " ".join(map(str, sigma)))
        beta, alphas = next(_closure_sweep(sortable, max_len))
        assert (alphas[0], beta) == brute_search_witness(sortable, max_len)

    def test_21_fallback_ignores_census_bound(self, monkeypatch):
        # the search runs to k + 3 = 5 even when sweeps are bounded at 4
        monkeypatch.setenv("CAYLEYSORT_MAX_N", "4")
        with pytest.warns(UserWarning, match="fails validation"):
            assert witness_non_class((2, 1)) == ((3, 2, 4, 1), (3, 4, 2, 4, 1))

    def test_search_stops_at_its_first_witness(self):
        # asking for the first item runs the machine on no word longer
        # than the witness beta = 34241
        sortable = sortable_predicate("sigma-machine 21")
        lengths = set()

        def member(w):
            lengths.add(len(w))
            return sortable(w)

        beta, _ = next(_closure_sweep(member, 8))
        assert len(beta) == 5
        assert max(lengths) == 5

    def test_rejected_for_classes(self):
        with pytest.raises(ValueError):
            witness_non_class((1, 2))
        with pytest.raises(ValueError):
            witness_non_class((3, 2, 1))
        with pytest.raises(ValueError):
            witness_non_class((1,))


class TestOperatorLaws:
    def test_bijectivity_equal_first_letters(self):
        assert verify_bijectivity((1, 1), 5)
        assert verify_bijectivity((1, 1, 2), 5)

    def test_bijectivity_collision_branch(self):
        assert verify_bijectivity((1, 2), 6)
        assert verify_bijectivity((2, 1), 6)
        assert verify_bijectivity((2, 3, 1), 6)

    def test_involution(self):
        assert verify_involution((1, 1), 5)
        assert verify_involution((2, 2, 1), 4)
        # reverse-then-sort does not square to the identity when the
        # first two letters differ
        assert not verify_involution((2, 1), 4)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            verify_involution((1,), 3)

    def test_equinumerosity(self):
        assert sort11_equinumerosity(5)

    def test_equinumerosity_common_count(self):
        from conftest import universe

        sortable = [p for p in universe(3) if is_sigma_sortable(p, (1, 1))]
        avoiders = [p for p in universe(3) if not contains(p, (2, 3, 1))]
        assert len(sortable) == len(avoiders) == 12


class TestCharacterizations:
    def test_mesh_21_machine(self):
        assert verify_21_machine_mesh(5)
        assert list(mesh21_violations(5)) == []

    def test_popstack_bases(self):
        assert HARE_BASIS == ((2, 3, 1), (3, 1, 2), (2, 1, 2, 1))
        assert TORTOISE_BASIS == ((2, 3, 1), (3, 1, 2), (2, 2, 1), (2, 1, 1))
        assert verify_popstack_characterization("hare", 6)
        assert verify_popstack_characterization("tortoise", 6)
        assert list(popstack_violations("hare", 5)) == []

    def test_tortoise_counts(self):
        assert verify_tortoise_count(6)
        assert verify_tortoise_refined(5)

    def test_fubini(self):
        assert verify_fubini(6)


def _per_word_census(machine, n_max):
    """Counts, universe sizes and block-refined counts by running the
    per-word predicate on every Cayley permutation."""
    m = Machine.parse(machine)
    counts, sizes, refined = {}, {}, {}
    for n in range(1, n_max + 1):
        counts[n] = 0
        sizes[n] = len(universe(n))
        for w in universe(n):
            if _word_sortable(m, w):
                counts[n] += 1
                k = len(tortoise_blocks(w))
                refined[n, k] = refined.get((n, k), 0) + 1
    return counts, sizes, refined


def _assert_walk_matches_sweep(machine, n_max):
    report = count_sortable(machine, n_max)
    counts, sizes, refined = _per_word_census(machine, n_max)
    assert report.counts == counts
    assert report.universe_sizes == sizes
    if machine == "popstack tortoise":
        assert report.refined == refined


def _per_word_count(machine, n):
    """The sortable length-n words, one run per word: for the tortoise a
    tuple whose entry k counts those with k blocks (`tortoise_blocks`), for
    every other machine a count."""
    sortable = [
        w for w in universe(n) if machine.accepts(_run_word(w, machine.patterns, machine.flush_all))
    ]
    if machine != _TORTOISE:
        return len(sortable)
    by_blocks = [0] * (n + 1)
    for w in sortable:
        by_blocks[len(tortoise_blocks(w))] += 1
    return tuple(by_blocks)


def _assert_root_walk_matches_per_word_runs(machine, n_max):
    for n in range(1, n_max + 1):
        assert census._walk(n, machine) == _per_word_count(machine, n), (machine.name, n)


WALK_MACHINES = [
    Machine.sigma((2, 1)), Machine.sigma((3, 2, 1)), Machine.sigma((2, 2, 1, 3)),
    Machine.popstack("hare"), _TORTOISE,
]


@lru_cache(maxsize=None)
def _sortable_words_to_seven(machine):
    """The words of lengths 1..7 that the machine sorts, one run per word."""
    return sum(
        machine.accepts(_run_word(w, machine.patterns, machine.flush_all))
        for n in range(1, 8)
        for w in universe(n)
    )


class TestCensusWalk:
    """The insertion-tree walk behind count_sortable against per-word sweeps."""

    def test_memoised_walk_sigma_panel_to_six(self):
        for sigma in sigma_panel():
            _assert_root_walk_matches_per_word_runs(Machine.sigma(sigma), 6)

    @pytest.mark.parametrize("machine", WALK_MACHINES, ids=lambda m: m.name)
    def test_memoised_walk_to_seven(self, machine):
        _assert_root_walk_matches_per_word_runs(machine, 7)

    @pytest.mark.parametrize("machine", WALK_MACHINES, ids=lambda m: m.name)
    def test_pruned_line_counts_the_unsortable_words(self, machine):
        report = count_sortable(machine.name, 7)
        universe_size = sum(fubini_numbers(7)[1:])
        pruned = universe_size - _sortable_words_to_seven(machine)
        line = f"pruned: {pruned} of {universe_size} words below skipped edges"
        assert report.to_text().splitlines()[-2] == line

    def test_walk_keeps_no_memo(self):
        # descend refers to itself, so only emptying the memo frees it
        # without a gc pass
        machine = Machine.sigma((2, 1))
        census._walk(7, machine)  # warm up once
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            census._walk(7, machine)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert after - before < 64 * 1024

    def test_21_walk_agrees_with_naive_oracle(self):
        m21 = Machine.sigma((2, 1))
        for n in range(1, 7):
            naive = [w for w in universe(n) if _naive_sorts(w, (2, 1))]
            assert [w for w in universe(n) if _word_sortable(m21, w)] == naive
            assert census._walk(n, m21) == len(naive)

    def test_sigma_panel_to_five(self):
        for sigma in sigma_panel():
            _assert_walk_matches_sweep("sigma-machine " + str(sigma), 5)

    @pytest.mark.parametrize("sigma", ["1 1", "1 2", "2 1", "2 3 1", "3 2 1", "2 2 1 3"])
    def test_sigmas_to_seven(self, sigma):
        _assert_walk_matches_sweep("sigma-machine " + sigma, 7)

    @pytest.mark.parametrize("machine", ["popstack hare", "popstack tortoise"])
    def test_popstacks_to_seven(self, machine):
        _assert_walk_matches_sweep(machine, 7)

    @pytest.mark.parametrize(
        "machine", ["sigma-machine 21", "sigma-machine 3 2 1", "popstack hare", "popstack tortoise"]
    )
    def test_visited_plus_pruned_is_the_universe(self, machine):
        # the walk reaches the sortable words and prunes the rest
        report = count_sortable(machine, 7)
        fubini = fubini_numbers(7)
        assert report.universe_sizes == {n: fubini[n] for n in range(1, 8)}
        pruned = sum(fubini[1:]) - sum(report.counts.values())
        line = f"pruned: {pruned} of {sum(fubini[1:])} words below skipped edges"
        assert report.to_text().splitlines()[-2] == line
        assert fubini[7] - report.counts[7] > 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=7), max_size=12))
    def test_avoids_231_matches_brute_force(self, word):
        assert _avoids_231(word) == (not brute_contains(word, (2, 3, 1)))


def _standardized_state(node, values):
    """A machine node (stack, `_accept` state) with each letter replaced by
    its rank among the distinct `values`; low = 0 stays 0."""
    rank = dict(zip(values, standardize(values))) | {0: 0}
    stack, (low, above) = node
    return tuple(rank[y] for y in stack), (rank[low], tuple(rank[y] for y in above))


class TestInsertionTree:
    """The tree `census._walk` descends: words grown by relative insertion."""

    @pytest.mark.parametrize("n", range(8))
    def test_every_cayley_permutation_once(self, n):
        words = insertion_words(n)
        assert len(words) == len(set(words)) == fubini_numbers(n)[n]
        assert set(words) == set(universe(n))

    @pytest.mark.parametrize("machine", WALK_MACHINES, ids=lambda m: m.name)
    def test_edge_step_tracks_the_standardised_state(self, machine):
        # follow each word's insertion path through the walk's edges, and
        # the machine along the word's own letters
        sigmas, flush_all = machine.patterns, machine.flush_all
        for w in words_up_to(6, 1):
            node = actual = ((), (0, ()))
            for i, x in enumerate(w):
                seen = sorted(set(w[:i]))
                k = len(seen)
                move = seen.index(x) if x in seen else k + sum(y < x for y in seen)
                v, values, stack, state = list(census._edges(k, *node))[move]
                assert (v, values) == (standardize(w[: i + 1])[-1], len(set(w[: i + 1])))
                node = _step(stack, state, v, sigmas, flush_all)
                actual = _step(*actual, x, sigmas, flush_all)
                if actual is None:
                    assert node is None, (machine.name, w[: i + 1])
                    break
                # the memo key leaves k out: the state fixes it
                st, (low, above) = node
                assert max((*st, *above, low)) == values, (machine.name, w[: i + 1])
                assert node == _standardized_state(actual, w[: i + 1]), (machine.name, w[: i + 1])


class TestAnchorsPastTheBound:
    """Census values above the default length bound of 8, from the
    formulas and tables they are known by."""

    @pytest.fixture(autouse=True)
    def _raise_bound(self, monkeypatch):
        monkeypatch.setenv("CAYLEYSORT_MAX_N", "10")

    def test_21_machine_at_nine(self):
        assert count_sortable("sigma-machine 21", 9).counts[9] == 1990419

    def test_321_machine(self):
        counts = count_sortable("sigma-machine 321", 8).count_list()
        assert counts == [(2 * 4 ** (n - 1) + 1) // 3 for n in range(1, 9)]

    def test_hare_recurrence(self):
        a = [0, *count_sortable("popstack hare", 10).count_list()]
        assert a[10] == 99081
        for n in range(4, 11):
            assert a[n] == 5 * a[n - 1] - 6 * a[n - 2] + 4 * a[n - 3], n

    def test_tortoise(self):
        assert count_sortable("popstack tortoise", 10).count_list() == [
            3 ** (n - 1) for n in range(1, 11)
        ]
        assert sum(tortoise_refined(10).values()) == 3**9


def _involutive(w, sig):
    """reverse(s(reverse(s(w)))) == w, by two runs of the machine."""
    once = _run_word(w, (sig,), False)[::-1]
    return _run_word(once, (sig,), False)[::-1] == tuple(w)


def _per_word_bijectivity(sig, n_max):
    """verify_bijectivity with two machine runs per word."""
    if sig[0] != sig[1]:
        r_sig = sig[::-1]
        r_hat = ((sig[1], sig[0]) + sig[2:])[::-1]
        image = _run_word(r_sig, (sig,), False)
        other = _run_word(r_hat, (sig,), False)
        return r_sig != r_hat and image == other == (sig[1], sig[0]) + sig[2:]
    for n in range(n_max + 1):
        seen = set()
        for w in _iter_letters(n):
            out = _run_word(w, (sig,), False)
            if sorted(out) != sorted(w) or not _involutive(w, sig):
                return False
            seen.add(out)
        if len(seen) != len(universe(n)):
            return False
    return True


def _per_word_sort11(n_max):
    """sort11_equinumerosity with a machine run per word and per avoider."""
    for n in range(n_max + 1):
        sortable = {w for w in universe(n) if _avoids_231(_run_word(w, ((1, 1),), False))}
        avoiders = [w for w in universe(n) if _avoids_231(w)]
        image = {_run_word(w[::-1], ((1, 1),), False)[::-1] for w in avoiders}
        if len(sortable) != len(avoiders) or image != sortable:
            return False
    return True


class TestLawSweeps:
    """The law checks read s_sigma off one prefix-tree sweep per length and
    check the involution by table lookup; here they are compared with runs
    of the machine on every word."""

    def test_operator_laws_agree_with_per_word_runs(self):
        for sigma in sigma_panel():
            sig = tuple(sigma)
            assert verify_bijectivity(sigma, 5) == _per_word_bijectivity(sig, 5), sig
            bad = [w for w in words_up_to(5) if not _involutive(w, sig)]
            assert list(involution_violations(sigma, 5)) == bad, sig
            assert verify_involution(sigma, 5) == (not bad), sig

    def test_sort11_agrees_with_per_word_runs(self):
        for n in range(6):
            assert sort11_equinumerosity(n) == _per_word_sort11(n)

    def test_corrupted_output_fails_the_laws(self, monkeypatch):
        """One wrong output from the sweep must fail both law checks; it
        keeps the multiset, so only the injectivity and lookup checks can
        catch it."""
        real = census._outputs

        def corrupted(n, sigmas, flush_all):
            for w, out in real(n, sigmas, flush_all):
                if w == (1, 2, 2, 1):
                    assert out != out[::-1]
                    out = out[::-1]
                yield w, out

        assert verify_bijectivity((1, 1), 4)
        assert verify_involution((1, 1), 4)
        monkeypatch.setattr(census, "_outputs", corrupted)
        assert not verify_bijectivity((1, 1), 4)
        assert not verify_involution((1, 1), 4)
        assert list(involution_violations((1, 1), 4))

    @pytest.mark.parametrize(
        "wrong", [(1, 1, 2, 2), (9, 9, 9, 9)], ids=["not-injective", "not-a-rearrangement"]
    )
    def test_bijectivity_checks_catch_a_corruption_without_the_lookup(
        self, monkeypatch, wrong
    ):
        """The injectivity and multiset checks each fail a wrong output on
        their own, with the involution lookup switched off."""
        real = census._outputs

        def corrupted(n, sigmas, flush_all):
            for w, out in real(n, sigmas, flush_all):
                yield w, (wrong if w == (1, 2, 2, 1) else out)

        monkeypatch.setattr(census, "_non_involutive", lambda table: iter(()))
        assert verify_bijectivity((1, 1), 4)
        monkeypatch.setattr(census, "_outputs", corrupted)
        assert not verify_bijectivity((1, 1), 4)

    def test_class_violations(self):
        assert list(class_violations((3, 2, 1), 5)) == []
        assert list(class_violations((1, 2), 5)) == []
        with pytest.raises(ValueError, match="not an avoidance class"):
            list(class_violations((1, 1), 3))

    def test_class_violations_reports_a_corrupted_output(self, monkeypatch):
        # s_321(123) = 231, so 123 is not sortable; with 123 dropped from
        # the basis it is not blocked either
        corrupt_law_basis(monkeypatch)
        assert list(class_violations((3, 2, 1), 4)) == [(1, 2, 3)]
        assert not verify_class((3, 2, 1), 4).equality_holds


def _per_word_violations(n, machine, basis, meshes=()):
    """The law walk's answer by a per-word loop over `_outputs`: the words
    on which sortability equals containing a pattern of basis or meshes."""
    return [
        w
        for w, out in _outputs(n, machine.patterns, machine.flush_all)
        if machine.accepts(out)
        == (any(contains(w, b) for b in basis) or any(contains_mesh(w, mp) for mp in meshes))
    ]


_M21 = Machine.sigma((2, 1))
_HARE = Machine.popstack("hare")
_TORTOISE = Machine.popstack("tortoise")
_P123, _P132, _P2341 = (1, 2, 3), (1, 3, 2), (2, 3, 4, 1)

#: (machine, basis, meshes) of the laws the sweeps check.
_TRUE_LAWS = {
    "mesh21": (_M21, (_P2341,), (MESH_Z,)),
    "hare": (_HARE, HARE_BASIS, ()),
    "tortoise": (_TORTOISE, TORTOISE_BASIS, ()),
    "class-321": (Machine.sigma((3, 2, 1)), (_P132, _P123), ()),
    "class-12": (Machine.sigma((1, 2)), ((2, 1, 3),), ()),
    "class-1342": (Machine.sigma((1, 3, 4, 2)), census._class_targets((1, 3, 4, 2)), ()),
}

#: Wrong laws: a basis pattern dropped or added, W for Z, Z alone, the
#: class formula for sigma in {11, 231} (not classes) and 321 without 123.
_WRONG_LAWS = {
    "mesh21-W": (_M21, (_P2341,), (MESH_W,)),
    "mesh21-Z-alone": (_M21, (), (MESH_Z,)),
    "mesh21-no-mesh": (_M21, (_P2341,), ()),
    "mesh21-plus-123": (_M21, (_P2341, _P123), (MESH_Z,)),
    "hare-without-2121": (_HARE, HARE_BASIS[:2], ()),
    "hare-tortoise-basis": (_HARE, TORTOISE_BASIS, ()),
    "tortoise-without-231": (_TORTOISE, TORTOISE_BASIS[1:], ()),
    "tortoise-plus-11": (_TORTOISE, TORTOISE_BASIS + ((1, 1),), ()),
    "class-11": (Machine.sigma((1, 1)), (_P132, (1, 1)), ()),
    "class-231": (Machine.sigma((2, 3, 1)), (_P132, (1, 3, 2)), ()),
    "class-321-without-123": (Machine.sigma((3, 2, 1)), (_P132,), ()),
}


def _naive_violations(n, machine, basis, meshes=()):
    """The law walk's answer from its definition, with no package code:
    every length-n word by relative insertion, sorted; sortability by the
    naive first stack (and the naive 21-stack behind a sigma-stack);
    containment by trying every index subset."""

    def sorts(w):
        out = naive_machine(w, machine.patterns, machine.flush_all)[0]
        if not machine.flush_all:
            out = naive_machine(out, [(2, 1)])[0]
        return list(out) == sorted(out)

    def contained(w):
        return any(brute_contains(w, b) for b in basis) or any(
            brute_contains_mesh(w, mp) for mp in meshes
        )

    return [w for w in sorted(insertion_words(n)) if sorts(w) == contained(w)]


class TestLawWalk:
    """`_law_walk`, the insertion-tree sweep behind the law checks, against
    a per-word loop over the machine outputs with `contains` and
    `contains_mesh`, and against the naive machine and brute-force
    containment of `reference`.  The walk's leaves come in insertion
    order, so these also pin the per-length sort into lexicographic order
    and the relabelling of the word on a new-value edge."""

    @pytest.mark.parametrize("law", _TRUE_LAWS.values(), ids=_TRUE_LAWS.keys())
    def test_true_laws_to_six(self, law):
        for n in range(7):
            assert list(census._law_walk(n, *law)) == _per_word_violations(n, *law) == []

    @pytest.mark.parametrize("name", ["mesh21", "hare", "tortoise", "class-321"])
    def test_cli_laws_at_seven(self, name):
        # the four avoidance laws that `cayleysort verify` checks
        law = _TRUE_LAWS[name]
        assert list(census._law_walk(7, *law)) == _per_word_violations(7, *law) == []

    @pytest.mark.parametrize("law", _WRONG_LAWS.values(), ids=_WRONG_LAWS.keys())
    def test_wrong_laws_match_the_naive_oracle(self, law):
        found = 0
        for n in range(6):
            expected = _naive_violations(n, *law)
            assert list(census._law_walk(n, *law)) == expected, n
            found += len(expected)
        assert found

    @pytest.mark.parametrize("law", _WRONG_LAWS.values(), ids=_WRONG_LAWS.keys())
    def test_wrong_laws_to_six(self, law):
        found = 0
        for n in range(7):
            expected = _per_word_violations(n, *law)
            assert list(census._law_walk(n, *law)) == expected, n
            found += len(expected)
        assert found

    def test_one_search_per_pattern_and_node(self, monkeypatch):
        # the walk searches once per unblocked node and pattern, not once
        # per edge: count the top-level calls of the kernel (its recursion
        # goes through the same name, so the wrapper sees nested ones too)
        real = pattern._extend
        calls = depth = 0

        def extend(*args):
            nonlocal calls, depth
            calls += depth == 0
            depth += 1
            try:
                return real(*args)
            finally:
                depth -= 1

        monkeypatch.setattr(pattern, "_extend", extend)
        assert list(census._law_walk(6, _M21, (_P2341,), (MESH_Z,))) == []
        # every node above the leaves that avoids both patterns is reached,
        # since a blocked node never has an unblocked child
        unblocked = [
            w for w in words_up_to(5)
            if not brute_contains(w, _P2341) and not brute_contains_mesh(w, MESH_Z)
        ]
        edges = sum(2 * max(w, default=0) + 1 for w in unblocked)
        assert 0 < calls <= 2 * len(unblocked) < edges / 4

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_cell_after_the_last_position_is_rejected(self, column):
        for cells in ({"gap_cells": {(column, 0)}}, {"eq_cells": {(column, 1)}}):
            mp = CayleyMeshPattern(CayleyPerm((2, 1)), **cells)
            walk = census._law_walk(3, _M21, (), (mp,))
            if column == 2:
                with pytest.raises(ValueError, match="after its last position"):
                    next(walk, None)
            else:
                assert list(walk) == _per_word_violations(3, _M21, (), (mp,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_sortable("popstack hare", -1),
        lambda: tortoise_refined(-1),
        lambda: verify_class((3, 2, 1), -1),
        lambda: next(class_violations((3, 2, 1), -1)),
        lambda: next(mesh21_violations(-1)),
        lambda: verify_21_machine_mesh(-2),
        lambda: verify_bijectivity((1, 1), -1),
        lambda: verify_bijectivity((2, 1), -1),
        lambda: verify_involution((1, 1), -1),
        lambda: next(involution_violations((1, 1), -1)),
        lambda: sort11_equinumerosity(-1),
        lambda: next(popstack_violations("hare", -1)),
        lambda: verify_popstack_characterization("tortoise", -1),
        lambda: verify_tortoise_count(-1),
        lambda: verify_tortoise_refined(-1),
        lambda: verify_fubini(-1),
    ],
)
def test_negative_length_is_rejected(call):
    with pytest.raises(ValueError, match="nonnegative") as info:
        call()
    assert not isinstance(info.value, ResourceLimitError)
