"""Pattern-restricted stacks and the sorting maps they induce.

A restricted stack refuses to hold, read from top to bottom, any occurrence
of its forbidden patterns.  The machine is right-greedy: each input letter is
pushed as soon as that is legal; while it is not, the stack pops — either one
letter at a time (`single`) or its whole content (`flush_all`, the pop-stack
discipline).  Popped letters are appended to the output, and the stack is
flushed when the input runs out.

For a single forbidden pattern sigma and the single-pop discipline this
computes the map s_sigma.  Feeding s_sigma(p) to a 21-restricted stack sorts
it exactly when s_sigma(p) avoids 231, which is the sortability criterion
used throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from .core import (
    CayleyPerm,
    Word,
    _check_limit,
    _children,
    _wrap,
    census_limit,
)
from .pattern import _extend

# Not called here (`_accept` is the one sorted-output test); kept because
# perfbench/tracer.py wraps stack.contains, stack._iter_letters and
# stack.is_weakly_increasing by name.
from .core import _iter_letters, is_weakly_increasing  # noqa: F401
from .pattern import contains  # noqa: F401

PUSH = "PUSH"
POP = "POP"

SINGLE = "single"
FLUSH_ALL = "flush_all"

#: Pop-stack flavours: the hare flushes on a strict descent violation only
#: (forbidden 21); the tortoise also refuses repeats (forbidden 21 and 11).
HARE = "hare"
TORTOISE = "tortoise"

_POPSTACK_PATTERNS = {HARE: ((2, 1),), TORTOISE: ((2, 1), (1, 1))}


@dataclass(frozen=True)
class StackConfig:
    """Forbidden patterns plus the pop discipline of one restricted stack."""

    forbidden: frozenset[CayleyPerm]
    pop_mode: str = SINGLE

    def __post_init__(self) -> None:
        patterns = frozenset(
            p if isinstance(p, CayleyPerm) else CayleyPerm(p) for p in self.forbidden
        )
        if not patterns:
            raise ValueError("at least one forbidden pattern is required")
        for p in patterns:
            if len(p) < 2:
                raise ValueError(f"forbidden pattern {p} is shorter than two letters")
        object.__setattr__(self, "forbidden", patterns)
        if self.pop_mode not in (SINGLE, FLUSH_ALL):
            raise ValueError(f"pop_mode must be {SINGLE!r} or {FLUSH_ALL!r}")


@dataclass(frozen=True)
class SortTrace:
    """Event log of one machine run: PUSH/POP with values, then the output."""

    events: tuple[tuple[str, int], ...]
    output: Word

    def to_text(self) -> str:
        lines = [f"{kind} {value}" for kind, value in self.events]
        lines.append("OUTPUT: " + " ".join(map(str, self.output)))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "events": [[kind, value] for kind, value in self.events],
            "output": list(self.output),
        }


@dataclass(frozen=True)
class Machine:
    """A sorting device: a first stack forbidding `patterns` that pops one
    letter at a time into a 21-stack (sigma-machine) or empties whole
    (`flush_all`, pop-stack).  `name` is the descriptor `parse` reads."""

    name: str
    patterns: tuple[Word, ...]
    flush_all: bool

    @classmethod
    def sigma(cls, sigma: Iterable[int]) -> Machine:
        """The sigma-machine: a sigma-stack followed by a 21-stack."""
        letters = _sigma_letters(sigma)
        return cls("sigma-machine " + " ".join(map(str, letters)), (letters,), False)

    @classmethod
    def popstack(cls, mode: str) -> Machine:
        """The hare or the tortoise pop-stack."""
        if mode not in _POPSTACK_PATTERNS:
            raise ValueError(f"mode must be {HARE!r} or {TORTOISE!r}")
        return cls(f"popstack {mode}", _POPSTACK_PATTERNS[mode], True)

    @classmethod
    def parse(cls, text: str) -> Machine:
        """Read 'sigma-machine <perm>', 'popstack hare' or 'popstack
        tortoise'.  A hyphen or a run of spaces separates the keywords; the
        permutation text goes to `CayleyPerm.parse` as written."""
        sigma = re.fullmatch(r"\s*sigma(?:-|\s+)machine(?:\s+(.*))?", text, re.DOTALL)
        if sigma:
            if not (sigma[1] or "").strip():
                raise ValueError(f"descriptor {text!r} names no sigma")
            return cls.sigma(CayleyPerm.parse(sigma[1]))
        pop = re.fullmatch(rf"\s*popstack(?:-|\s+)({HARE}|{TORTOISE})\s*", text)
        if pop:
            return cls.popstack(pop[1])
        raise ValueError(
            f"unknown machine {text!r}; expected 'sigma-machine <perm>', "
            "'popstack hare' or 'popstack tortoise'"
        )

    def accepts(self, out: Sequence[int]) -> bool:
        """Does the rest of the machine sort `out`, the first stack's output?
        A 21-stack sorts exactly the 231-avoiders; nothing follows a
        pop-stack, so its output must already be weakly increasing."""
        return _accept((0, ()), out, self.flush_all) is not None

    def sorts(self, p: Iterable[int]) -> bool:
        """Does the machine sort p?"""
        return self.accepts(_run_word(_as_letters(p), self.patterns, self.flush_all))

    def run(self, p: Iterable[int]) -> SortTrace:
        """Run the first stack over p and record the full event log."""
        events: list[tuple[str, int]] = []
        out = _run_word(_as_letters(p), self.patterns, self.flush_all, events)
        return SortTrace(tuple(events), out)


# ---------------------------------------------------------------------------
# Engine.  Operates on raw letter tuples; the public wrappers validate and
# wrap.  The stack list keeps its bottom at index 0, so reading top to bottom
# means scanning from the end.


def _creates_occurrence(stack: Sequence[int], x: int, sigmas: tuple[Word, ...]) -> bool:
    """Would pushing x complete an occurrence whose first letter is x?

    That is: embed the rest of each pattern into `stack` (bottom first)
    read top to bottom, with x already matched to the pattern's first
    letter.  The answer holds for any stack, so the law walk passes a raw
    prefix; on a machine's stack, which is occurrence-free between events,
    it is exactly whether the push is forbidden, since the incoming letter
    sits on top and can only play a pattern's first letter.

    When the pattern starts with two equal letters, its second letter is a
    copy of x.  With no copy in the stack there is no occurrence; otherwise
    the search starts below the topmost copy with two letters matched.  An
    occurrence through a deeper copy is one through the topmost copy too,
    which has the same value and lies above it.
    """
    depth = len(stack)
    for sig in sigmas:
        k = len(sig)
        if k - 1 > depth:
            continue
        if k == 2:
            a, b = sig
            if a > b:
                for y in stack:
                    if y < x:
                        return True
            elif a < b:
                for y in stack:
                    if y > x:
                        return True
            elif x in stack:
                return True
            continue
        vals = [x] + [0] * (k - 1)
        if sig[0] != sig[1]:
            text, t, start = stack[::-1], 1, 0
        elif x in stack:
            text = stack[::-1]
            vals[1] = x
            t, start = 2, text.index(x) + 1
        else:
            continue
        if _extend(text, sig, vals, [0] * k, t, start, None):
            return True
    return False


def _pops(stack: list[int], x: int, sigmas: tuple[Word, ...], flush_all: bool) -> list[int]:
    """Pop what the machine pops before it can push x, which the caller has
    seen it cannot push yet: one letter at a time until x fits, or the
    whole stack.  Returns the popped letters, top first."""
    if flush_all:
        popped = stack[::-1]
        stack.clear()
        return popped
    popped = []
    while True:
        popped.append(stack.pop())
        if not stack or not _creates_occurrence(stack, x, sigmas):
            return popped


def _run_word(
    letters: Sequence[int],
    sigmas: tuple[Word, ...],
    flush_all: bool,
    events: list[tuple[str, int]] | None = None,
) -> Word:
    """Run the machine; return the output, recording events when asked."""
    record = events is not None
    stack: list[int] = []
    out: list[int] = []
    for x in letters:
        if stack and _creates_occurrence(stack, x, sigmas):
            popped = _pops(stack, x, sigmas, flush_all)
            out += popped
            if record:
                events.extend((POP, v) for v in popped)
        stack.append(x)
        if record:
            events.append((PUSH, x))
    out += stack[::-1]
    if record:
        events.extend((POP, v) for v in reversed(stack))
    return tuple(out)


def _outputs(
    n: int, sigmas: tuple[Word, ...], flush_all: bool
) -> Iterator[tuple[Word, Word]]:
    """Yield (w, output of the machine on w) for every length-n Cayley
    permutation w, in `_iter_letters` order.

    Walks the prefix tree down the `_children` table, pushing one letter
    per tree edge instead of rerunning the stack on every word.  A node
    holds the stack content and the letters popped so far, which no later
    letter changes; a child shares both lists with its parent unless its
    letter forces pops, and copies them then.  At a leaf the stack is
    flushed.  `_run_word` stays the per-word oracle.
    """
    if n == 0:
        yield (), ()
        return
    word: list[int] = []

    def descend(left, top, unused, stack, out):
        for v, t, u in _children(left, top, unused):
            st, o = stack, out
            if st and _creates_occurrence(st, v, sigmas):
                st = st[:]
                o = o + _pops(st, v, sigmas, flush_all)
            st.append(v)
            word.append(v)
            if left > 1:
                yield from descend(left - 1, t, u, st, o)
            else:
                yield tuple(word), tuple(o + st[::-1])
            word.pop()
            st.pop()

    yield from descend(n, 0, 0, [], [])


def _accept(state: tuple, letters: Iterable[int], flush_all: bool) -> tuple | None:
    """`Machine.accepts` made resumable: the state (`low`, `above`) after
    more output letters, or None once no continuation can be sorted.  The
    empty output's state is (0, ()).

    A letter below `low` fails.  Behind a pop-stack the output must be
    weakly increasing, and `low` is its last letter.  Behind a 21-stack it
    must avoid 231 (b, c, a in that order with a < b < c): `above` holds,
    weakly decreasing, the letters not yet followed by a larger one, and
    `low` is the largest letter already followed by one, the "2" of the
    highest 23 read so far.
    """
    low, above = state
    if flush_all:
        for y in letters:
            if y < low:
                return None
            low = y
        return low, above
    above = list(above)
    for y in letters:
        if y < low:
            return None
        while above and above[-1] < y:
            low = above.pop()
        above.append(y)
    return low, tuple(above)


def _step(stack: tuple, state: tuple, x: int, sigmas: tuple[Word, ...], flush_all: bool):
    """One machine step on a prefix-tree edge: push x onto `stack` (a tuple,
    bottom first), with `state` the `_accept` state of the letters popped
    so far.  Returns the new (stack, state), or None when no completion of
    the prefix can be sorted.

    The letters x pops go to `_accept`.  They lead the stack read top to
    bottom, which the previous step accepted, so they never fail.  Then the
    lookahead: the stack empties top first, after everything popped, so
    every completion's output holds the popped letters followed, as a
    subsequence, by the new stack read top to bottom.  231-avoidance and
    weak increase are both closed under subsequences, so when `_accept`
    fails on that sequence no completion is sorted.  At a leaf it is the
    whole output, and the answer is exact.
    """
    st = stack
    if stack and _creates_occurrence(stack, x, sigmas):
        st = list(stack)
        state = _accept(state, _pops(st, x, sigmas, flush_all), flush_all)
    stack = (*st, x)
    if _accept(state, stack[::-1], flush_all) is None:
        return None
    return stack, state


def _avoids_231(word: Sequence[int]) -> bool:
    """Does word avoid 231?  One left-to-right pass of `_accept`."""
    return _accept((0, ()), word, False) is not None


def _as_letters(p: Iterable[int]) -> Word:
    q = p if isinstance(p, CayleyPerm) else CayleyPerm(p)
    return tuple(q)


def _sigma_letters(sigma: Iterable[int]) -> Word:
    s = sigma if isinstance(sigma, CayleyPerm) else CayleyPerm(sigma)
    if len(s) < 2:
        raise ValueError("sigma needs at least two letters")
    return tuple(s)


# ---------------------------------------------------------------------------
# Public operations.


def run_stack(p: Iterable[int], config: StackConfig) -> SortTrace:
    """Run one restricted stack over p and record the full event log."""
    letters = _as_letters(p)
    sigmas = tuple(sorted(tuple(s) for s in config.forbidden))
    events: list[tuple[str, int]] = []
    output = _run_word(letters, sigmas, config.pop_mode == FLUSH_ALL, events)
    return SortTrace(tuple(events), output)


def s_sigma(p: Iterable[int], sigma: Iterable[int]) -> CayleyPerm:
    """Output of the sigma-restricted stack (single-pop) on p."""
    return _wrap(_run_word(_as_letters(p), (_sigma_letters(sigma),), False))


def machine_output(p: Iterable[int], sigma: Iterable[int]) -> CayleyPerm:
    """Output of the two-stack machine: the sigma-stack, then a 21-stack."""
    first = _run_word(_as_letters(p), (_sigma_letters(sigma),), False)
    return _wrap(_run_word(first, ((2, 1),), False))


def is_sigma_sortable(p: Iterable[int], sigma: Iterable[int]) -> bool:
    """Does the two-stack machine sort p?  Tested as s_sigma(p) avoiding 231;
    the physically-run form is `machine_output(p, sigma)` being sorted."""
    return Machine.sigma(sigma).sorts(p)


def run_popstack(p: Iterable[int], mode: str) -> SortTrace:
    """Run the hare or tortoise pop-stack over p with the full event log."""
    return Machine.popstack(mode).run(p)


def is_popstack_sortable(p: Iterable[int], mode: str) -> bool:
    """Is the pop-stack output weakly increasing?"""
    return Machine.popstack(mode).sorts(p)


def hare_blocks(p: Iterable[int]) -> list[Word]:
    """Maximal weakly decreasing blocks of p.

    The hare pop-stack swallows each block whole and flushes it reversed, so
    its output is the concatenation of the reversed blocks.
    """
    return _blocks(_as_letters(p), strict=False)


def tortoise_blocks(p: Iterable[int]) -> list[Word]:
    """Maximal strictly decreasing blocks of p (tortoise analogue)."""
    return _blocks(_as_letters(p), strict=True)


def _blocks(letters: Word, strict: bool) -> list[Word]:
    blocks: list[Word] = []
    cur: list[int] = []
    for v in letters:
        if cur and (cur[-1] < v or (strict and cur[-1] == v)):
            blocks.append(tuple(cur))
            cur = [v]
        else:
            cur.append(v)
    if cur:
        blocks.append(tuple(cur))
    return blocks


def fertility(sigma: Iterable[int], target: Iterable[int]) -> int:
    """Number of preimages of `target` under s_sigma, by exhaustive search."""
    sig = _sigma_letters(sigma)
    goal = _as_letters(target)
    n = len(goal)
    _check_limit(n, census_limit(), "fertility search")
    return sum(1 for _, out in _outputs(n, (sig,), False) if out == goal)


def decompose_11(p: Iterable[int]) -> tuple[int, list[Word]]:
    """Split p around the occurrences of its first value.

    Returns (v, blocks) where v = p[0] and the i-th block holds the letters
    strictly between the i-th and (i+1)-th occurrences of v (the last block
    holds whatever follows the final occurrence).  The 11-stack treats the
    blocks independently: its output is the concatenation of each block's
    own 11-stack output followed by one copy of v.
    """
    letters = _as_letters(p)
    if not letters:
        raise ValueError("cannot decompose the empty permutation")
    v = letters[0]
    blocks: list[Word] = []
    cur: list[int] = []
    for x in letters[1:]:
        if x == v:
            blocks.append(tuple(cur))
            cur = []
        else:
            cur.append(x)
    blocks.append(tuple(cur))
    return v, blocks
