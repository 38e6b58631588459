"""Cayley permutations: surjective words over {1, ..., m}.

A word w = w_1 ... w_n over the positive integers is a Cayley permutation
when every value between 1 and max(w) occurs at least once.  Ordinary
permutations are the repetition-free special case; for each length n the
Cayley permutations are counted by the Fubini numbers 1, 3, 13, 75, 541, ...

This module holds the value type plus the elementary operations everything
else builds on: normalization of arbitrary words, reversal, the first-two-
letter swap, lexicographic generation, and the sortedness test.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterable, Iterator

#: Raw letters, not necessarily normalized.  Slices and blocks of a
#: CayleyPerm are plain Words.
Word = tuple[int, ...]

#: Environment variable that raises the enumeration bounds below.
LIMIT_ENV_VAR = "CAYLEYSORT_MAX_N"

_GENERATION_LIMIT = 12
_CENSUS_LIMIT = 8


class ResourceLimitError(ValueError):
    """An enumeration request exceeded the configured length bound."""


def _env_limit() -> int | None:
    """The bound set in LIMIT_ENV_VAR, or None when it is unset or empty."""
    value = os.environ.get(LIMIT_ENV_VAR)
    if not value:
        return None
    try:
        limit = int(value)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"{LIMIT_ENV_VAR} must be a nonnegative integer, got {value!r}")
    return limit


def generation_limit() -> int:
    """Largest length `generate_all` accepts (default 12, env-overridable up)."""
    limit = _env_limit()
    return _GENERATION_LIMIT if limit is None else max(limit, _GENERATION_LIMIT)


def census_limit() -> int:
    """Largest length exhaustive sweeps accept (default 8, env-overridable)."""
    limit = _env_limit()
    return _CENSUS_LIMIT if limit is None else limit


def _check_limit(n: int, limit: int, what: str) -> None:
    """Reject a negative length, and a length beyond the bound."""
    if n < 0:
        raise ValueError(f"{what} length must be nonnegative, got {n}")
    if n > limit:
        raise ResourceLimitError(
            f"{what} for length {n} exceeds the configured bound {limit}; "
            f"set {LIMIT_ENV_VAR} to raise it"
        )


class CayleyPerm(tuple):
    """A normalized word: every value 1..max occurs at least once.

    Behaves as a tuple of ints (hashable, comparable, sliceable — slices are
    plain ``Word`` tuples).  The constructor validates; text round-trips via
    ``parse`` and ``str``.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "CayleyPerm":
        self = tuple.__new__(cls, letters)
        reason = _invalid_reason(self)
        if reason is not None:
            raise ValueError(f"{tuple(self)} is not a Cayley permutation: {reason}")
        return self

    @classmethod
    def parse(cls, text: str) -> "CayleyPerm":
        """Parse the text form.

        Canonical form is space-separated positive integers ("4 2 1 3 2").
        A single run of two or more digits is read compactly, one letter per
        digit ("42132"), which is only possible when all values are <= 9.
        """
        tokens = text.split()
        if not tokens:
            raise ValueError("empty permutation text")
        if len(tokens) == 1 and len(tokens[0]) > 1 and tokens[0].isdigit():
            if "0" in tokens[0]:
                raise ValueError(f"compact form {tokens[0]!r} contains the digit 0")
            return cls(int(ch) for ch in tokens[0])
        return cls(int(tok) for tok in tokens)

    def __str__(self) -> str:
        return " ".join(map(str, self))

    def __repr__(self) -> str:
        return f"CayleyPerm({str(self)!r})"

    @property
    def max_letter(self) -> int:
        return max(self, default=0)


def _invalid_reason(letters: tuple) -> str | None:
    """None when `letters` is a valid Cayley permutation, else a message."""
    n = len(letters)
    seen = 0
    top = 0
    for v in letters:
        if not isinstance(v, int) or isinstance(v, bool):
            return f"letter {v!r} is not an integer"
        if v < 1:
            return f"letter {v} is not positive"
        if v > n:
            return f"letter {v} exceeds the length {n}"
        seen |= 1 << v
        if v > top:
            top = v
    if seen != (1 << (top + 1)) - 2:
        missing = [v for v in range(1, top) if not seen >> v & 1]
        return f"value(s) {missing} missing below the maximum {top}"
    return None


def _wrap(letters: Word) -> CayleyPerm:
    """Wrap letters known to satisfy the invariant, skipping validation."""
    return tuple.__new__(CayleyPerm, letters)


def normalize(word: Iterable[int]) -> CayleyPerm:
    """Order-isomorphic Cayley permutation of an arbitrary word.

    Distinct values are replaced by their ranks: normalize((4, 2, 2, 5))
    is (2, 1, 1, 3).  Equalities and strict inequalities are preserved.
    """
    letters = tuple(word)
    for v in letters:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"letter {v!r} is not a positive integer")
    rank = {v: r for r, v in enumerate(sorted(set(letters)), start=1)}
    return _wrap(tuple(rank[v] for v in letters))


def reverse(p: Iterable[int]) -> CayleyPerm:
    """The reverse word, written p^r.  Preserves the Cayley invariant."""
    q = p if isinstance(p, CayleyPerm) else CayleyPerm(p)
    return _wrap(tuple(reversed(q)))


def hat(p: Iterable[int]) -> CayleyPerm:
    """The word with its first two letters exchanged."""
    q = p if isinstance(p, CayleyPerm) else CayleyPerm(p)
    if len(q) < 2:
        raise ValueError("hat needs at least two letters")
    return _wrap((q[1], q[0]) + tuple(q[2:]))


def is_weakly_increasing(seq: Iterable[int]) -> bool:
    """True when each letter is <= the next (the sorted/empty case included)."""
    letters = tuple(seq)
    return all(a <= b for a, b in zip(letters, letters[1:]))


def generate_all(n: int) -> Iterator[CayleyPerm]:
    """All Cayley permutations of length n, lexicographically.

    Streams; never materializes the universe.  The length bound is checked
    eagerly, before the first element is drawn.
    """
    _check_limit(n, generation_limit(), "generation")
    return (_wrap(letters) for letters in _iter_letters(n))


@functools.cache
def _children(left: int, top: int, unused: int) -> tuple[tuple[int, int, int], ...]:
    """The letter rule of the prefix tree of Cayley permutations.

    A node is a prefix with `left` letters still to come, maximum `top`,
    and `unused` the bitmask (bit v for value v) of the values below `top`
    it has not used.  Returns (v, top', unused') for every letter v that
    some completion puts next, in increasing order: v may be any used
    value, an unused one, or a new maximum, as long as the values left
    unused still fit in the `left - 1` letters after it.  This also keeps
    every letter within the length, so the table serves every length.
    """
    kids = []
    for v in range(1, top + left + 1):
        if v > top:
            child = v, v, unused | ((1 << v) - (2 << top))
        else:
            child = v, top, unused & ~(1 << v)
        if child[2].bit_count() < left:
            kids.append(child)
    return tuple(kids)


def _iter_letters(n: int) -> Iterator[Word]:
    """Raw-tuple generator behind `generate_all` (no guard, no wrapping).

    Walks the prefix tree down the `_children` table depth first, children
    in increasing order, so it yields in lexicographic order.
    """
    word: list[int] = []

    def descend(left, top, unused):
        for v, t, u in _children(left, top, unused):
            word.append(v)
            if left > 1:
                yield from descend(left - 1, t, u)
            else:
                yield tuple(word)
            word.pop()

    if n:
        yield from descend(n, 0, 0)
    else:
        yield ()


def fubini_numbers(n_max: int) -> list[int]:
    """[a(0), ..., a(n_max)] where a(n) counts Cayley permutations of length n.

    Computed by the ordered-set-partition recurrence
    a(n) = sum over k >= 1 of C(n, k) * a(n - k), independent of generation.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    values = [1]
    for n in range(1, n_max + 1):
        values.append(sum(math.comb(n, k) * values[n - k] for k in range(1, n + 1)))
    return values
