"""Exhaustive sweeps: machine censuses and verification of their laws.

Everything here enumerates the full universe of Cayley permutations up to a
length bound (default 8) and checks, with no sampling, that the simulated
machines agree with their closed-form characterizations: avoidance-set
descriptions of sortable sets, the mesh characterization of the 21-machine,
bijectivity and involution laws of the maps s_sigma, pop-stack counting
formulas, and non-closure witnesses.
"""

from __future__ import annotations

import functools
import math
from itertools import pairwise
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

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
    is_weakly_increasing,
)
from .pattern import MESH_Z, contains, contains_mesh, subpatterns
from .stack import (
    _POPSTACK_PATTERNS,
    _avoids_231,
    _creates_occurrence,
    _outputs,
    _run_word,
    _sigma_letters,
)

# Not called here (the census walk counts blocks itself, and the law sweeps
# reverse tuples by slicing); kept because perfbench/tracer.py wraps
# census.tortoise_blocks and census.reverse by name.
from .core import reverse  # noqa: F401
from .stack import tortoise_blocks  # noqa: F401

_P132 = (1, 3, 2)
_P2341 = (2, 3, 4, 1)

#: Avoidance characterizations of the pop-stack-sortable sets.
HARE_BASIS = ((2, 3, 1), (3, 1, 2), (2, 1, 2, 1))
TORTOISE_BASIS = ((2, 3, 1), (3, 1, 2), (2, 2, 1), (2, 1, 1))


class VerificationError(RuntimeError):
    """A law that should hold by construction failed — an implementation bug."""


# ---------------------------------------------------------------------------
# Machine descriptors.


def _parse_machine(machine: str) -> tuple:
    """Descriptor -> ("sigma", letters) or ("popstack", mode)."""
    tokens = machine.replace("-", " ").split()
    if len(tokens) >= 2 and tokens[0] == "sigma" and tokens[1] == "machine":
        rest = " ".join(tokens[2:])
        if not rest:
            raise ValueError(f"descriptor {machine!r} names no sigma")
        sigma = CayleyPerm.parse(rest)
        if len(sigma) < 2:
            raise ValueError("sigma needs at least two letters")
        return ("sigma", tuple(sigma))
    if len(tokens) == 2 and tokens[0] == "popstack" and tokens[1] in ("hare", "tortoise"):
        return ("popstack", tokens[1])
    raise ValueError(
        f"unknown machine {machine!r}; expected 'sigma-machine <perm>', "
        "'popstack hare' or 'popstack tortoise'"
    )


def _canonical_machine(desc: tuple) -> str:
    if desc[0] == "sigma":
        return "sigma-machine " + " ".join(map(str, desc[1]))
    return f"popstack {desc[1]}"


def _word_sortable(desc: tuple, w: Word) -> bool:
    """Does the machine sort w?  Runs it on the one word."""
    if desc[0] == "sigma":
        return _avoids_231(_run_word(w, (desc[1],), False))
    return is_weakly_increasing(_run_word(w, _POPSTACK_PATTERNS[desc[1]], True))


def sortable_predicate(machine: str) -> Callable[[CayleyPerm], bool]:
    """Membership test "the machine sorts p" for a machine descriptor."""
    desc = _parse_machine(machine)
    return lambda p: _word_sortable(desc, tuple(p))


# ---------------------------------------------------------------------------
# Reports.


@dataclass(frozen=True)
class SequenceReport:
    """Counting sequence of one census, with the universe sizes alongside.

    Per length, `visited` counts the words the census walk reached and
    `pruned` the words it counted in closed form; they sum to the universe.
    """

    machine: str
    counts: dict[int, int]
    universe_sizes: dict[int, int]
    refined: dict[tuple[int, int], int] | None = None
    elapsed: float = 0.0
    visited: dict[int, int] = field(default_factory=dict)
    pruned: dict[int, int] = field(default_factory=dict)

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
        lines.append(
            f"pruned: {sum(self.pruned.values())} of {sum(self.universe_sizes.values())}"
            " words counted in closed form"
        )
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


@functools.cache
def _completions(left: int, top: int, missing: int) -> int:
    """Number of ways to append `left` letters to a prefix whose maximum is
    `top` with `missing` values below it unused, ending in a Cayley
    permutation."""
    if missing > left:
        return 0
    if left == 0:
        return 1
    total = (top - missing) * _completions(left - 1, top, missing)
    if missing:
        total += missing * _completions(left - 1, top, missing - 1)
    for v in range(top + 1, top + 1 + left - missing):
        total += _completions(left - 1, v, missing + v - top - 1)
    return total


def _walk(n: int, first: int, sigmas: tuple[Word, ...], flush_all: bool):
    """Walk the prefix tree of the length-n Cayley permutations that start
    with `first`, running the machine's first stack one letter per edge.

    Letters are tried as `_iter_letters` tries them.  Each node also carries
    the stack content and the state of the sortability test of the letters
    popped so far: for a sigma-stack (single pops) the 231 state of
    `_avoids_231`, for a pop-stack (`flush_all`) the last output letter.
    Popped letters are final, so once they fail the test no completion is
    sortable, and the subtree is counted by `_completions` unvisited.  At a
    leaf the stack is flushed through the same test.

    Returns (visited, pruned, by_blocks): the leaves reached, the words
    counted in closed form, and the sortable words keyed by their number of
    maximal strictly decreasing blocks (the tortoise refinement).
    """
    counts = [0] * (n + 2)
    by_blocks: dict[int, int] = {}
    visited = pruned = 0

    def drain(st, v, low, above):
        """Pop st into the output test as the machine does before pushing v,
        or entirely when v is None (the input has run out).  Returns the
        new test state, or None once the output fails."""
        above = above[:]
        while st:
            y = st.pop()
            if y < low:
                return None
            if flush_all:
                low = y
                continue
            while above and above[-1] < y:
                low = above.pop()
            above.append(y)
            if v is not None and not (st and _creates_occurrence(st, v, sigmas)):
                break
        return low, above

    def descend(pos, top, missing, stack, low, above, prev, blocks):
        nonlocal visited, pruned
        left = n - pos - 1
        if pos:
            letters = range(1, min(n, top + 1 + left - missing) + 1)
        else:
            letters = (first,)
        for v in letters:
            if v > top:
                v_top, v_missing = v, missing + v - top - 1
            else:
                v_top, v_missing = top, missing - (counts[v] == 0)
            if v_missing > left:
                continue
            st = stack[:]
            state = low, above
            if st and _creates_occurrence(st, v, sigmas):
                state = drain(st, v, low, above)
                if state is None:
                    pruned += _completions(left, v_top, v_missing)
                    continue
            st.append(v)
            k = blocks + (prev <= v)
            if left:
                counts[v] += 1
                descend(pos + 1, v_top, v_missing, st, *state, v, k)
                counts[v] -= 1
            else:
                visited += 1
                if drain(st, None, *state) is not None:
                    by_blocks[k] = by_blocks.get(k, 0) + 1

    if 1 <= first <= n:
        descend(0, 0, 0, [], 0, [], 0, 0)
    return visited, pruned, by_blocks


def _shard_counts(args: tuple[str, int, int]) -> tuple[int, int, int, dict[int, int]]:
    """Walk the length-n inputs that start with `first`: (n, visited,
    pruned, sortable words by tortoise block count)."""
    machine, n, first = args
    desc = _parse_machine(machine)
    if desc[0] == "sigma":
        return n, *_walk(n, first, (desc[1],), False)
    return n, *_walk(n, first, _POPSTACK_PATTERNS[desc[1]], True)


def count_sortable(machine: str, n_max: int, threads: int = 1) -> SequenceReport:
    """Count sortable inputs per length 1..n_max.

    One walk of the prefix tree of Cayley permutations per length (see
    `_walk`) runs the first stack once per tree edge and tests the popped
    letters as they leave it: for sigma-machines that they avoid 231, for
    pop-stacks that they are weakly increasing.  Popped letters are final,
    so a prefix whose output already fails is never extended: its
    completions join the universe in closed form and are recorded as
    pruned.  The per-word predicate `_word_sortable` is the oracle the tests
    compare the walk against.  With threads > 1 each length is sharded by
    leading letter over a process pool; counts are summed, so the report
    does not depend on the parallelism degree.
    """
    desc = _parse_machine(machine)
    _check_limit(n_max, census_limit(), "census")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    refine = desc == ("popstack", "tortoise")
    started = time.perf_counter()
    counts: dict[int, int] = {}
    visited: dict[int, int] = {}
    pruned: dict[int, int] = {}
    refined: dict[tuple[int, int], int] = {}
    jobs = [(machine, n, first) for n in range(1, n_max + 1) for first in range(1, n + 1)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_shard_counts, jobs))
    else:
        results = [_shard_counts(job) for job in jobs]
    for n, shard_visited, shard_pruned, by_blocks in results:
        visited[n] = visited.get(n, 0) + shard_visited
        pruned[n] = pruned.get(n, 0) + shard_pruned
        counts[n] = counts.get(n, 0) + sum(by_blocks.values())
        for k, c in by_blocks.items():
            refined[n, k] = refined.get((n, k), 0) + c
    return SequenceReport(
        machine=_canonical_machine(desc),
        counts=counts,
        universe_sizes={n: visited[n] + pruned[n] for n in visited},
        refined=refined if refine else None,
        elapsed=time.perf_counter() - started,
        visited=visited,
        pruned=pruned,
    )


def tortoise_refined(n: int) -> dict[int, int]:
    """Sortable-by-tortoise counts at length n, refined by the number of
    maximal strictly decreasing blocks; checked against C(n-1,k-1)*2^(k-1).
    """
    _check_limit(n, census_limit(), "census")
    refined: dict[int, int] = {} if n else {0: 1}  # the empty word has no blocks
    for first in range(1, n + 1):
        for k, c in _shard_counts(("popstack tortoise", n, first))[3].items():
            refined[k] = refined.get(k, 0) + c
    expected = {k: math.comb(n - 1, k - 1) * 2 ** (k - 1) for k in range(1, n + 1)}
    expected = {k: v for k, v in expected.items() if v}
    if n >= 1 and refined != expected:
        raise VerificationError(
            f"refined tortoise counts at n={n} are {refined}, formula gives {expected}"
        )
    return refined


# ---------------------------------------------------------------------------
# Classness of sortable sets.


@dataclass(frozen=True)
class ClassVerdict:
    """Is Sort(sigma) a pattern-avoidance class, and what certifies it?

    For a predicted class, `predicted_basis` is the reduced basis and
    `equality_holds` reports the exhaustive sweep (False until verify_class
    has run), which covered the lengths up to `checked_to_length`.  For a
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


def _witness_valid(sig: Word, alpha: Word, beta: Word) -> bool:
    try:
        CayleyPerm(beta)
        CayleyPerm(alpha)
    except ValueError:
        return False
    return (
        contains(beta, alpha)
        and _word_sortable(("sigma", sig), beta)
        and not _word_sortable(("sigma", sig), alpha)
    )


def _search_witness(sig: Word, max_len: int) -> tuple[Word, Word] | None:
    """Exhaustive fallback: smallest sortable beta with a non-sortable
    pattern alpha, beta in generation order and alpha smallest first."""
    for n in range(2, max_len + 1):
        for beta in _iter_letters(n):
            if not _word_sortable(("sigma", sig), beta):
                continue
            for alpha in sorted(subpatterns(_wrap(beta)), key=lambda q: (len(q), q)):
                if len(alpha) >= 2 and not _word_sortable(("sigma", sig), tuple(alpha)):
                    return tuple(alpha), beta
    return None


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
    reported and replaced by an exhaustively searched one.  The stored row
    for sigma = 21 is such a pair, so witness_non_class((2, 1)) always warns
    and returns (3241, 34241).
    """
    sig = sigma if isinstance(sigma, CayleyPerm) else CayleyPerm(sigma)
    if len(sig) < 2:
        raise ValueError("sigma needs at least two letters")
    if tuple(sig) == (1, 2):
        raise ValueError("Sort(12) is an avoidance class; no witness exists")
    if not _avoids_231(hat(sig)):
        raise ValueError(
            f"hat({sig}) contains 231, so Sort({sig}) is an avoidance class"
        )
    letters = tuple(sig)
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
    if not _witness_valid(letters, alpha, beta):
        warnings.warn(
            f"candidate witness {alpha}/{beta} for sigma={sig} fails validation; "
            "falling back to exhaustive search",
            stacklevel=2,
        )
        found = _search_witness(letters, k + 3)
        if found is None:
            raise VerificationError(f"no witness pair exists for sigma={sig} up to length {k + 3}")
        alpha, beta = found
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
    _check_limit(n_max, census_limit(), "census")
    targets = _class_targets(sig)
    if targets is None:
        raise ValueError(f"Sort({_wrap(sig)}) is not an avoidance class")
    for n in range(n_max + 1):
        for w, out in _outputs(n, (sig,), False):
            if _avoids_231(out) == any(contains(w, t) for t in targets):
                yield _wrap(w)


def verify_class(sigma, n_max: int) -> ClassVerdict:
    """Run the exhaustive check behind classify_sigma up to length n_max.

    Predicted classes are compared set-for-set against their avoidance
    description on every length (`class_violations`); predicted non-classes
    succeed when the witness pair validates (witness_non_class already
    guarantees it), and report checked_to_length = 0 because no length is
    swept.
    """
    _check_limit(n_max, census_limit(), "census")
    verdict = classify_sigma(sigma)
    if not verdict.predicted_is_class:
        alpha, beta = verdict.witness
        ok = _witness_valid(tuple(verdict.sigma), tuple(alpha), tuple(beta))
        return replace(verdict, equality_holds=ok)
    ok = next(class_violations(verdict.sigma, n_max), None) is None
    return replace(verdict, checked_to_length=n_max, equality_holds=ok)


def sigma_panel() -> list[CayleyPerm]:
    """All 91 Cayley permutations of lengths 2..4, the sweep panel."""
    panel: list[CayleyPerm] = []
    for n in (2, 3, 4):
        panel.extend(generate_all(n))
    return panel


# ---------------------------------------------------------------------------
# Law checks.  Each verify_* returns a bool; the *_violations generators
# stream counterexamples for reporting.


def mesh21_violations(n_max: int) -> Iterator[CayleyPerm]:
    """Inputs where 21-machine sortability disagrees with "avoids 2341 and
    does not contain the mesh pattern Z"."""
    _check_limit(n_max, census_limit(), "census")
    for n in range(n_max + 1):
        for w, out in _outputs(n, ((2, 1),), False):
            blocked = contains(w, _P2341) or contains_mesh(w, MESH_Z)
            if _avoids_231(out) == blocked:
                yield _wrap(w)


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
    _check_limit(n_max, census_limit(), "census")
    if mode == "hare":
        basis = HARE_BASIS
    elif mode == "tortoise":
        basis = TORTOISE_BASIS
    else:
        raise ValueError("mode must be 'hare' or 'tortoise'")
    for n in range(n_max + 1):
        for w, out in _outputs(n, _POPSTACK_PATTERNS[mode], True):
            sortable = is_weakly_increasing(out)
            if sortable != all(not contains(w, b) for b in basis):
                yield _wrap(w)


def verify_popstack_characterization(mode: str, n_max: int) -> bool:
    return next(popstack_violations(mode, n_max), None) is None


def verify_tortoise_count(n_max: int) -> bool:
    """Tortoise-sortable counts equal 3^(n-1) for n = 1..n_max."""
    report = count_sortable("popstack tortoise", n_max)
    return all(report.counts[n] == 3 ** (n - 1) for n in range(1, n_max + 1))


def verify_tortoise_refined(n_max: int) -> bool:
    """Refined tortoise counts match the binomial formula for n = 1..n_max."""
    _check_limit(n_max, census_limit(), "census")
    try:
        for n in range(1, n_max + 1):
            tortoise_refined(n)
    except VerificationError:
        return False
    return True


def verify_fubini(n_max: int) -> bool:
    """Generation agrees with the ordered-set-partition recurrence."""
    _check_limit(n_max, census_limit(), "census")
    expected = fubini_numbers(n_max)
    for n in range(n_max + 1):
        if sum(1 for _ in _iter_letters(n)) != expected[n]:
            return False
    return True
