"""Exhaustive sweeps: machine censuses and verification of their laws.

Every census and law check covers all Cayley permutations up to a length
bound (default 8), mostly by walking a tree of them one machine step per
edge: the insertion tree, whose nodes are the standardised prefixes, for
censuses and avoidance laws, and the prefix tree (`stack._outputs`) for
the laws of s_sigma as a map.  It checks with no sampling that the
simulated machines agree with their closed-form characterizations:
avoidance-set descriptions of sortable sets, the mesh characterization
of the 21-machine, bijectivity and involution laws of the maps s_sigma,
pop-stack counting formulas, and non-closure witnesses.
"""

from __future__ import annotations

import math
from itertools import pairwise
import time
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

from .core import (
    CayleyPerm,
    Word,
    _check_limit,
    _iter_letters,
    _wrap,
    census_limit,
    fubini_numbers,
    generate_all,
    hat,
)
from .pattern import (
    MESH_Z,
    CayleyMeshPattern,
    _closure_sweep,
    _creates_mesh,
    _reverse_mesh,
    contains,
)
from .stack import (
    HARE,
    TORTOISE,
    Machine,
    _avoids_231,
    _creates_occurrence,
    _outputs,
    _run_word,
    _sigma_letters,
    _step,
)

# Not called here (the census walk counts blocks itself, the law sweeps
# reverse tuples by slicing and find mesh occurrences edge by edge,
# `stack._accept` is the one sorted-output test, and the witness search
# steps down by one-point deletions); kept because perfbench/tracer.py
# wraps these five names in census.
from .core import is_weakly_increasing, reverse  # noqa: F401
from .pattern import contains_mesh, subpatterns  # noqa: F401
from .stack import tortoise_blocks  # noqa: F401

_P132 = (1, 3, 2)
_P2341 = (2, 3, 4, 1)

#: Avoidance characterizations of the pop-stack-sortable sets.
HARE_BASIS = ((2, 3, 1), (3, 1, 2), (2, 1, 2, 1))
TORTOISE_BASIS = ((2, 3, 1), (3, 1, 2), (2, 2, 1), (2, 1, 1))
_POPSTACK_BASES = {HARE: HARE_BASIS, TORTOISE: TORTOISE_BASIS}
_TORTOISE = Machine.popstack(TORTOISE)
_MACHINE_21 = Machine.sigma((2, 1))


class VerificationError(RuntimeError):
    """A law that should hold by construction failed — an implementation bug."""


# ---------------------------------------------------------------------------
# Per-word sortability.


def _word_sortable(machine: Machine, w: Word) -> bool:
    """Does the machine sort w?  Runs it on the one word."""
    return machine.accepts(_run_word(w, machine.patterns, machine.flush_all))


def sortable_predicate(machine: str) -> Callable[[CayleyPerm], bool]:
    """Membership test "the machine sorts p" for a machine descriptor (see
    `Machine.parse`), which is read once; each call runs the machine on p."""
    m = Machine.parse(machine)
    return lambda p: _word_sortable(m, tuple(p))


# ---------------------------------------------------------------------------
# Reports.


@dataclass(frozen=True)
class SequenceReport:
    """Counting sequence of one census, with the universe sizes alongside.

    The census walk reaches exactly the sortable words as leaves and skips
    every other word below an edge it prunes, so the text report's
    `pruned:` line is the universe less the sortable words.
    """

    machine: str
    counts: dict[int, int]
    universe_sizes: dict[int, int]
    refined: dict[tuple[int, int], int] | None = None
    elapsed: float = 0.0

    def count_list(self) -> list[int]:
        return [self.counts[n] for n in sorted(self.counts)]

    def to_text(self) -> str:
        lines = [f"machine: {self.machine}"]
        header = f"{'n':>4}  {'universe':>10}  {'sortable':>10}"
        lines.append(header)
        for n in sorted(self.counts):
            lines.append(f"{n:>4}  {self.universe_sizes[n]:>10}  {self.counts[n]:>10}")
        if self.refined:
            lines.append("refined by block count:")
            lines.append(f"{'n':>4}  {'k':>4}  {'count':>10}")
            for n, k in sorted(self.refined):
                lines.append(f"{n:>4}  {k:>4}  {self.refined[n, k]:>10}")
        universe = sum(self.universe_sizes.values())
        pruned = universe - sum(self.counts.values())
        lines.append(f"pruned: {pruned} of {universe} words below skipped edges")
        lines.append(f"elapsed: {self.elapsed:.2f} s")
        return "\n".join(lines)

    def to_csv(self) -> str:
        if self.refined:
            lines = ["n,count,k,refined_count"]
            for n, k in sorted(self.refined):
                lines.append(f"{n},{self.counts[n]},{k},{self.refined[n, k]}")
        else:
            lines = ["n,count"]
            for n in sorted(self.counts):
                lines.append(f"{n},{self.counts[n]}")
        return "\n".join(lines)

    def to_bfile(self) -> str:
        return "\n".join(f"{n} {self.counts[n]}" for n in sorted(self.counts))


def _raise(values: tuple, g: int) -> tuple:
    """Make room for a new value g + 1: every value above g rises by one."""
    # from a list, tuple() takes a tuple of the exact size off CPython's
    # free list; from a generator it shrinks a larger one, whose release
    # grows the free list (a law walk at n = 7 left 2,000 tuples of each
    # length 1..6 there, 0.6 MB, for the life of the process)
    return tuple([y + (y > g) for y in values])


#: The stack and `_accept` state at the root of the insertion tree.
_ROOT = (), (0, ())


def _edges(k: int, stack: tuple, state: tuple):
    """The 2k + 1 edges below an insertion-tree node, a Cayley permutation
    on the values 1..k: (letter, values, stack, state) with the node's
    stack and `_accept` state as the letter's step starts from.  A repeat
    of a value v in 1..k keeps them; a new value in gap g in 0..k is the
    letter g + 1, and every value above g in the stack, `low` and `above`
    rises by one (`low` = 0 stays 0)."""
    for v in range(1, k + 1):
        yield v, k, stack, state
    low, above = state
    for g in range(k + 1):
        yield g + 1, k + 1, _raise(stack, g), (low + (low > g), _raise(above, g))


def _walk(n: int, machine: Machine):
    """The sortable words among the length-n Cayley permutations, counted
    on the insertion tree by running the machine's first stack one letter
    per edge.

    The insertion tree grows words by relative insertion (`_edges`): the
    nodes on a word's path are the standardisations of its prefixes, so
    each Cayley permutation is exactly one root-to-leaf path.  Each node
    carries the stack content and the `_accept` state of the letters popped
    so far, in the node's values; an edge relabels them and advances them
    by one `stack._step`, which only compares letters.  When the step finds
    that no completion is sortable, the subtree is skipped.  The step's
    test is exact at a leaf, so every leaf reached is sortable and every
    unsortable word lies below a skipped edge.

    The subtree below a node depends only on the letters to come, the stack
    and the `_accept` state (the top of the stack, the last letter, decides
    where a tortoise block starts).  Those also fix the node's number of
    values k = max(stack, above, low): every letter read so far is in the
    stack or popped, and the largest popped letter stays in `above` behind
    a 21-stack and is `low` behind a pop-stack, whose accepted output only
    increases weakly.  So each such state's sortable count is computed once
    and memoised; the memo lives for this one call.

    Returns the number of sortable words, except for the tortoise (whose
    census is refined): a tuple of length n + 1 whose entry k counts the
    sortable words with k maximal strictly decreasing blocks.
    """
    sigmas, flush_all = machine.patterns, machine.flush_all
    refine = machine == _TORTOISE
    memo: dict[tuple, int | tuple[int, ...]] = {}

    def descend(left, k, stack, state):
        """The sortable words below a node on k values with `left` letters
        to come: for the tortoise a tuple indexed by the blocks started
        below the node, otherwise a count."""
        if not left:
            return (1,) if refine else 1
        sortable = [0] * (left + 1) if refine else 0
        for v, values, st, stt in _edges(k, stack, state):
            child = _step(st, stt, v, sigmas, flush_all)
            if child is None:
                continue
            if left == 1:
                got = (1,) if refine else 1
            else:
                key = left - 1, child
                got = memo.get(key)
                if got is None:
                    got = memo[key] = descend(left - 1, values, *child)
            if refine:
                for b, c in enumerate(got, (st[-1] if st else 0) <= v):
                    sortable[b] += c
            else:
                sortable += got
        return tuple(sortable) if refine else sortable

    sortable = descend(n, 0, *_ROOT)
    memo.clear()  # descend refers to itself, so the memo would outlive the call
    return sortable


def count_sortable(machine: str, n_max: int) -> SequenceReport:
    """Count sortable inputs per length 1..n_max.

    `machine` is a descriptor (see `Machine.parse`); the report names it in
    canonical form.  One walk of the insertion tree of Cayley permutations
    per length, with one memo (see `_walk`), runs the first stack once per
    tree edge (`stack._step`), which tests the popped letters followed by
    the stack read top to bottom with `_accept`, the resumable
    `Machine.accepts`.  That sequence is a subsequence of every
    completion's output, so a prefix that fails it is never extended, and
    the walk counts only the sortable words.  The universe sizes are the
    Fubini numbers, which `verify fubini` checks against generation.  The
    tests compare the walk against one run of the machine per word
    (`_run_word`).  Only the tortoise report carries the block-count
    refinement.
    """
    m = Machine.parse(machine)
    _check_limit(n_max, census_limit(), "census")
    refine = m == _TORTOISE
    started = time.perf_counter()
    counts: dict[int, int] = {}
    refined: dict[tuple[int, int], int] = {}
    for n in range(1, n_max + 1):
        sortable = _walk(n, m)
        if refine:
            refined.update(((n, k), c) for k, c in enumerate(sortable) if c)
            sortable = sum(sortable)
        counts[n] = sortable
    fubini = fubini_numbers(n_max)
    return SequenceReport(
        machine=m.name,
        counts=counts,
        universe_sizes={n: fubini[n] for n in counts},
        refined=refined if refine else None,
        elapsed=time.perf_counter() - started,
    )


def tortoise_refined(n: int) -> dict[int, int]:
    """Sortable-by-tortoise counts at length n, refined by the number of
    maximal strictly decreasing blocks; checked against C(n-1,k-1)*2^(k-1).
    """
    _check_limit(n, census_limit(), "census")
    refined = {k: c for k, c in enumerate(_walk(n, _TORTOISE)) if c}
    expected = {k: math.comb(n - 1, k - 1) * 2 ** (k - 1) for k in range(1, n + 1)}
    if n >= 1 and refined != expected:
        raise VerificationError(
            f"refined tortoise counts at n={n} are {refined}, formula gives {expected}"
        )
    return refined


def tortoise_refined_mismatch(n_max: int) -> str | None:
    """The first length 1..n_max whose refined tortoise counts miss the
    binomial formula (see `tortoise_refined`), as a message; None if none."""
    _check_limit(n_max, census_limit(), "census")
    try:
        for n in range(1, n_max + 1):
            tortoise_refined(n)
    except VerificationError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# Law sweeps.


def _law_walk(
    n: int,
    machine: Machine,
    basis: tuple[Word, ...],
    meshes: tuple[CayleyMeshPattern, ...] = (),
) -> Iterator[Word]:
    """Yield, in `_iter_letters` (lexicographic) order, the length-n words w
    on which "the machine sorts w" equals "w contains a pattern of `basis`
    or of `meshes`": the counterexamples to Sort(machine) = Av(basis,
    meshes).

    Walks the insertion tree down `_edges` as the census walk does, one
    `stack._step` per edge.  A node is a Cayley permutation on 1..k, the
    standardised prefix; a new-value edge relabels it with `_raise`
    together with the stack and the `_accept` state.  The node carries the
    machine's (stack, `_accept` state), or None once a step has found that
    no completion is sorted: the machine is then dead.  At a leaf the step
    tests the whole output, so there `child is not None` is exactly "the
    machine sorts w".  The node also carries whether it is blocked
    (contains a pattern).  Every test only compares letters, and a node is
    a pattern of each node below it, so death and blocking pass down the
    tree.  An unblocked node asks only whether its new letter completes an
    occurrence as its last letter: the reversed pattern with that letter
    fixed first, embedded into the reversed word.  That fails for a mesh
    pattern with a cell after its last position, which later letters can
    fill, so such a pattern raises ValueError, at the first `next`.

    A node that is dead and blocked is settled: every leaf below it is
    unsortable and blocked, so none is a counterexample, and its subtree is
    skipped unvisited.  The leaves come in insertion order, so the length's
    counterexamples are sorted before the first is yielded.
    """
    for mp in meshes:
        if any(i == len(mp.tau) for i, _ in mp.gap_cells | mp.eq_cells):
            raise ValueError(f"mesh pattern {mp} has a cell after its last position")
    sigmas, flush_all = machine.patterns, machine.flush_all
    reversed_basis = tuple(tuple(p)[::-1] for p in basis)
    reversed_meshes = tuple(_reverse_mesh(mp) for mp in meshes)
    found: list[Word] = []

    def descend(left, k, word, node, blocked):
        # a dead node has no state to relabel; its edges carry the root's
        for v, values, stack, state in _edges(k, *(node or _ROOT)):
            w = _raise(word, v - 1) if values > k else word
            hit = (
                blocked
                or _creates_occurrence(w, v, reversed_basis)
                or any(_creates_mesh(w, v, rmp) for rmp in reversed_meshes)
            )
            child = None if node is None else _step(stack, state, v, sigmas, flush_all)
            if child is None and hit:
                continue  # settled
            if left > 1:
                descend(left - 1, values, (*w, v), child, hit)
            elif (child is not None) == hit:
                found.append((*w, v))

    if n:
        descend(n, 0, (), _ROOT, False)
    yield from sorted(found)


def _law_violations(n_max: int, machine: Machine, basis, meshes=()) -> Iterator[CayleyPerm]:
    """Counterexamples to Sort(machine) = Av(basis, meshes) of length
    <= n_max, shortest first: `_law_walk` on each length."""
    _check_limit(n_max, census_limit(), "census")
    for n in range(n_max + 1):
        for w in _law_walk(n, machine, basis, meshes):
            yield _wrap(w)


# ---------------------------------------------------------------------------
# Classness of sortable sets.


@dataclass(frozen=True)
class ClassVerdict:
    """Is Sort(sigma) a pattern-avoidance class, and what certifies it?

    For a predicted class, `predicted_basis` is the reduced basis and
    `equality_holds` reports the exhaustive sweep (False until verify_class
    has run), which covered the lengths up to `checked_to_length`, and
    `counterexample` is the first input on which it found sortability and
    avoidance to disagree (None when they agree everywhere).  For a
    predicted non-class, `witness` is a validated pair (alpha, beta): beta
    sortable, alpha a pattern of beta, alpha not sortable — which no
    containment-closed set allows.  Nothing is swept then, so
    `checked_to_length` stays 0.
    """

    sigma: CayleyPerm
    predicted_is_class: bool
    predicted_basis: frozenset[CayleyPerm] | None
    checked_to_length: int
    equality_holds: bool
    witness: tuple[CayleyPerm, CayleyPerm] | None
    counterexample: CayleyPerm | None = None


#: Reference witness pairs for the smallest non-class machines.  The row for
#: sigma = 21 never validates: its alpha = 132 is 21-sortable (s_21(132) = 123
#: avoids 231), so witness_non_class warns and returns the searched pair
#: (3241, 34241) instead.  The source of the stored row is not recorded, so
#: it is left as is; (3241, 35241) is also a valid pair, which suggests the
#: alpha was mis-copied.
WITNESS_TABLE: dict[Word, tuple[Word, Word]] = {
    (1, 1): ((1, 3, 2), (3, 1, 3, 2)),
    (2, 1): ((1, 3, 2), (3, 5, 2, 4, 1)),
    (2, 3, 1): ((1, 3, 2, 4), (3, 6, 1, 4, 2, 5)),
}


def _witness_valid(machine: Machine, alpha: Word, beta: Word) -> bool:
    try:
        CayleyPerm(beta)
        CayleyPerm(alpha)
    except ValueError:
        return False
    return (
        contains(beta, alpha)
        and _word_sortable(machine, beta)
        and not _word_sortable(machine, alpha)
    )


def witness_non_class(sigma) -> tuple[CayleyPerm, CayleyPerm]:
    """A pair (alpha, beta) showing Sort(sigma) is not containment-closed.

    Requires hat(sigma) to avoid 231 and sigma != 12 (otherwise Sort(sigma)
    is a class and no witness exists).  Uses the reference pair for sigma in
    {11, 21, 231} and otherwise the constructive beta: with sigma' = sigma
    shifted by 1 and sigma'' by 2,

    - first letter a strict minimum:  beta = s'_k ... s'_3 1 s'_2 s'_1
    - otherwise:                      beta = s''_k ... s''_2 1 s''_1 2

    with alpha = 132.  Every returned pair is validated (beta sortable,
    alpha a non-sortable pattern of it); a pair that fails validation is
    reported and replaced by the first item of `_closure_sweep` up to length
    k + 3, with no census bound.  The stored row for sigma = 21 is such a
    pair, so witness_non_class((2, 1)) always warns and returns (3241, 34241).
    """
    machine = Machine.sigma(sigma)
    letters = machine.patterns[0]
    sig = _wrap(letters)
    if letters == (1, 2):
        raise ValueError("Sort(12) is an avoidance class; no witness exists")
    if not _avoids_231(hat(sig)):
        raise ValueError(
            f"hat({sig}) contains 231, so Sort({sig}) is an avoidance class"
        )
    k = len(letters)
    if letters in WITNESS_TABLE:
        alpha, beta = WITNESS_TABLE[letters]
    elif letters[0] == 1 and letters.count(1) == 1:
        shifted = [v + 1 for v in letters]
        beta = tuple(shifted[:1:-1]) + (1, shifted[1], shifted[0])
        alpha = _P132
    else:
        shifted = [v + 2 for v in letters]
        beta = tuple(shifted[:0:-1]) + (1, shifted[0], 2)
        alpha = _P132
    if not _witness_valid(machine, alpha, beta):
        warnings.warn(
            f"candidate witness {alpha}/{beta} for sigma={sig} fails validation; "
            "falling back to exhaustive search",
            stacklevel=2,
        )
        # the smallest sortable beta and its smallest non-sortable pattern
        found = next(_closure_sweep(lambda w: _word_sortable(machine, w), k + 3), None)
        if found is None:
            raise VerificationError(f"no witness pair exists for sigma={sig} up to length {k + 3}")
        beta, (alpha, *_) = found
    return _wrap(alpha), _wrap(beta)


def _class_targets(sig: Word) -> tuple[Word, ...] | None:
    """Patterns whose avoiders make up Sort(sig) when it is a class (213 for
    sig = 12, otherwise 132 and the reverse of sig), or None when it is not."""
    if sig == (1, 2):
        return ((2, 1, 3),)
    if _avoids_231(hat(sig)):
        return None
    return (_P132, sig[::-1])


def classify_sigma(sigma) -> ClassVerdict:
    """Predict whether Sort(sigma) is an avoidance class (no sweep yet).

    Sort(12) is the class avoiding 213.  For any other sigma, Sort(sigma)
    is a class exactly when hat(sigma) contains 231, in which case it is the
    set avoiding {132, reverse(sigma)} (the reverse is redundant in the
    basis when it already contains 132).  Non-classes carry a witness.
    """
    sig = _wrap(_sigma_letters(sigma))
    targets = _class_targets(tuple(sig))
    if targets is None:
        return ClassVerdict(sig, False, None, 0, False, witness_non_class(sig))
    basis = {_wrap(targets[0])}
    basis.update(_wrap(t) for t in targets[1:] if not contains(t, _P132))
    return ClassVerdict(sig, True, frozenset(basis), 0, False, None)


def class_violations(sigma, n_max: int) -> Iterator[CayleyPerm]:
    """Inputs of length <= n_max where sigma-machine sortability disagrees
    with avoiding the patterns of `_class_targets`.  Raises ValueError when
    Sort(sigma) is not predicted to be a class."""
    sig = _sigma_letters(sigma)
    targets = _class_targets(sig)
    if targets is None:
        raise ValueError(f"Sort({_wrap(sig)}) is not an avoidance class")
    yield from _law_violations(n_max, Machine.sigma(sig), targets)


def verify_class(sigma, n_max: int) -> ClassVerdict:
    """Run the exhaustive check behind classify_sigma up to length n_max.

    Predicted classes are compared set-for-set against their avoidance
    description on every length (`class_violations`), in one sweep that
    stops at the first counterexample; predicted non-classes
    succeed when the witness pair validates (witness_non_class already
    guarantees it), and report checked_to_length = 0 because no length is
    swept.
    """
    _check_limit(n_max, census_limit(), "census")
    verdict = classify_sigma(sigma)
    if not verdict.predicted_is_class:
        alpha, beta = verdict.witness
        ok = _witness_valid(Machine.sigma(verdict.sigma), tuple(alpha), tuple(beta))
        return replace(verdict, equality_holds=ok)
    bad = next(class_violations(verdict.sigma, n_max), None)
    return replace(
        verdict, checked_to_length=n_max, equality_holds=bad is None, counterexample=bad
    )


def sigma_panel() -> list[CayleyPerm]:
    """All 91 Cayley permutations of lengths 2..4, the sweep panel."""
    return [p for n in (2, 3, 4) for p in generate_all(n)]


# ---------------------------------------------------------------------------
# Law checks.  Each law is decided once, by a *_violations stream of
# counterexamples or a function that returns the counts and what they
# should be; the verify_* bool is a view of that decision, and the CLI
# reports from the same call.


def mesh21_violations(n_max: int) -> Iterator[CayleyPerm]:
    """Inputs where 21-machine sortability disagrees with "avoids 2341 and
    does not contain the mesh pattern Z"."""
    return _law_violations(n_max, _MACHINE_21, (_P2341,), (MESH_Z,))


def verify_21_machine_mesh(n_max: int) -> bool:
    """Sortable under the 21-machine == no 2341 and no mesh-Z occurrence."""
    return next(mesh21_violations(n_max), None) is None


def _reverse_images(sig: Word, n: int) -> dict[bytes, bytes]:
    """w -> reverse(s_sigma(w)) for every length-n w, in generation order:
    one walk of the prefix tree (`_outputs`) instead of a run per word.
    Words are stored as bytes, which takes half the memory of tuples."""
    return {bytes(w): bytes(out[::-1]) for w, out in _outputs(n, (sig,), False)}


def _non_involutive(table: dict[bytes, bytes]) -> Iterator[bytes]:
    """Keys w of `table` with table[table[w]] != w, in table order."""
    return (w for w, image in table.items() if table.get(image) != w)


def verify_bijectivity(sigma, n_max: int) -> bool:
    """Laws of s_sigma as a map on each length.

    Equal first two letters: s_sigma permutes each length up to n_max
    (injective and multiset-preserving) and reverse-then-sort is an
    involution, checked by looking each word's image up in the same
    length's table.  Unequal first letters: confirms the collision
    s(reverse(sigma)) = s(reverse(hat(sigma))) = hat(sigma) on those two
    distinct inputs only; n_max must be nonnegative but the census bound
    plays no part.
    """
    sig = _sigma_letters(sigma)
    if sig[0] != sig[1]:
        _check_limit(n_max, math.inf, "census")
        r_sig = sig[::-1]
        r_hat = (sig[1], sig[0]) + sig[2:]
        r_hat = r_hat[::-1]
        image = _run_word(r_sig, (sig,), False)
        other = _run_word(r_hat, (sig,), False)
        return r_sig != r_hat and image == other == (sig[1], sig[0]) + sig[2:]
    _check_limit(n_max, census_limit(), "census")
    for n in range(n_max + 1):
        table = _reverse_images(sig, n)
        if any(sorted(image) != sorted(w) for w, image in table.items()):
            return False
        # injective: no two equal neighbours once sorted (a set of the
        # images would take about 30 MB more at n = 8)
        if any(a == b for a, b in pairwise(sorted(table.values()))):
            return False
        # (R o S)^2 = identity: reverse the output, sort again, reverse
        if next(_non_involutive(table), None) is not None:
            return False
    return True


def involution_violations(sigma, n_max: int) -> Iterator[CayleyPerm]:
    """Inputs w of length <= n_max with reverse(s_sigma(reverse(s_sigma(w))))
    != w, found by looking each image up in its length's table."""
    sig = _sigma_letters(sigma)
    _check_limit(n_max, census_limit(), "census")
    for n in range(n_max + 1):
        for w in _non_involutive(_reverse_images(sig, n)):
            yield _wrap(tuple(w))


def verify_involution(sigma, n_max: int) -> bool:
    """Does reverse-compose-s_sigma square to the identity up to n_max?"""
    return next(involution_violations(sigma, n_max), None) is None


def sort11_equinumerosity(n_max: int) -> bool:
    """Per length: 11-sortable inputs are equinumerous with 231-avoiders,
    and reverse/sort-by-11/reverse maps the avoiders onto them."""
    _check_limit(n_max, census_limit(), "census")
    for n in range(n_max + 1):
        sortable = set()
        image = set()
        avoider_count = 0
        # reversal permutes each length, so the avoiders are the words
        # reverse(u), and their images are the words reverse(s_11(u))
        for u, out in _outputs(n, ((1, 1),), False):
            if _avoids_231(out):
                sortable.add(u)
            if _avoids_231(u[::-1]):
                avoider_count += 1
                image.add(out[::-1])
        if len(sortable) != avoider_count or image != sortable:
            return False
    return True


def popstack_violations(mode: str, n_max: int) -> Iterator[CayleyPerm]:
    """Inputs where pop-stack sortability disagrees with its avoidance basis."""
    return _law_violations(n_max, Machine.popstack(mode), _POPSTACK_BASES[mode])


def verify_popstack_characterization(mode: str, n_max: int) -> bool:
    return next(popstack_violations(mode, n_max), None) is None


def tortoise_counts(n_max: int) -> tuple[list[int], list[int]]:
    """Tortoise-sortable counts for n = 1..n_max, and the 3^(n-1) expected."""
    counts = count_sortable("popstack tortoise", n_max).count_list()
    return counts, [3 ** (n - 1) for n in range(1, n_max + 1)]


def verify_tortoise_count(n_max: int) -> bool:
    """Tortoise-sortable counts equal 3^(n-1) for n = 1..n_max."""
    counts, expected = tortoise_counts(n_max)
    return counts == expected


def verify_tortoise_refined(n_max: int) -> bool:
    """Refined tortoise counts match the binomial formula for n = 1..n_max."""
    return tortoise_refined_mismatch(n_max) is None


def fubini_counts(n_max: int) -> tuple[list[int], list[int]]:
    """The number of words generation yields at each length 0..n_max, and
    the Fubini numbers (the ordered-set-partition recurrence) expected."""
    _check_limit(n_max, census_limit(), "census")
    counts = [sum(1 for _ in _iter_letters(n)) for n in range(n_max + 1)]
    return counts, fubini_numbers(n_max)


def verify_fubini(n_max: int) -> bool:
    """Generation agrees with the ordered-set-partition recurrence."""
    counts, expected = fubini_counts(n_max)
    return counts == expected
