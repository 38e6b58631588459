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

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from .core import (
    CayleyPerm,
    Word,
    _check_limit,
    _children,
    _wrap,
    census_limit,
    is_weakly_increasing,
)
from .pattern import _extend

# Not called here; kept because perfbench/tracer.py wraps stack.contains
# and stack._iter_letters by name.
from .core import _iter_letters  # noqa: F401
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


# ---------------------------------------------------------------------------
# Engine.  Operates on raw letter tuples; the public wrappers validate and
# wrap.  The stack list keeps its bottom at index 0, so reading top to bottom
# means scanning from the end.


def _creates_occurrence(stack: list[int], x: int, sigmas: tuple[Word, ...]) -> bool:
    """Would pushing x leave a forbidden occurrence in the stack?

    The stack content is occurrence-free between events, so any new
    occurrence must use the incoming letter, which sits on top and can only
    play the first letter of a pattern.  It therefore suffices to embed the
    rest of each pattern into the current content below x, read top to
    bottom, with x already matched to the pattern's first letter.
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
        if _extend(stack[::-1], sig, vals, [0] * k, 1, 0, None):
            return True
    return False


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
            if flush_all:
                while stack:
                    v = stack.pop()
                    out.append(v)
                    if record:
                        events.append((POP, v))
            else:
                while True:
                    v = stack.pop()
                    out.append(v)
                    if record:
                        events.append((POP, v))
                    if not stack or not _creates_occurrence(stack, x, sigmas):
                        break
        stack.append(x)
        if record:
            events.append((PUSH, x))
    while stack:
        v = stack.pop()
        out.append(v)
        if record:
            events.append((POP, v))
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
                if flush_all:
                    st, o = [], o + st[::-1]
                else:
                    st, o = st[:], o[:]
                    while True:
                        o.append(st.pop())
                        if not st or not _creates_occurrence(st, v, sigmas):
                            break
            st.append(v)
            word.append(v)
            if left > 1:
                yield from descend(left - 1, t, u, st, o)
            else:
                yield tuple(word), tuple(o + st[::-1])
            word.pop()
            st.pop()

    yield from descend(n, 0, 0, [], [])


def _avoids_231(word: Sequence[int]) -> bool:
    """Does word avoid 231 (letters b, c, a in that order with a < b < c)?

    One left-to-right pass.  `above` holds, weakly decreasing from bottom to
    top, the letters not yet followed by a larger one; `low` is the largest
    letter already followed by a larger one, the "2" of the highest 23 read
    so far.  A letter below `low` completes a 231.  The census walk streams
    the same state.
    """
    low = 0
    above: list[int] = []
    for x in word:
        if x < low:
            return False
        while above and above[-1] < x:
            low = above.pop()
        above.append(x)
    return True


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
    """Does the two-stack machine sort p?

    Equivalent to s_sigma(p) avoiding 231, which is how it is computed; the
    physically-run form is `machine_output(p, sigma)` being weakly
    increasing.
    """
    return _avoids_231(_run_word(_as_letters(p), (_sigma_letters(sigma),), False))


def run_popstack(p: Iterable[int], mode: str) -> SortTrace:
    """Run the hare or tortoise pop-stack over p with the full event log."""
    patterns = _popstack_patterns(mode)
    letters = _as_letters(p)
    events: list[tuple[str, int]] = []
    output = _run_word(letters, patterns, True, events)
    return SortTrace(tuple(events), output)


def is_popstack_sortable(p: Iterable[int], mode: str) -> bool:
    """Is the pop-stack output weakly increasing?"""
    out = _run_word(_as_letters(p), _popstack_patterns(mode), True)
    return is_weakly_increasing(out)


def _popstack_patterns(mode: str) -> tuple[Word, ...]:
    try:
        return _POPSTACK_PATTERNS[mode]
    except KeyError:
        raise ValueError(f"mode must be {HARE!r} or {TORTOISE!r}") from None


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
