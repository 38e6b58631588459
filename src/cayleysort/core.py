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


def generate_all(n: int, prefix: Word = ()) -> Iterator[CayleyPerm]:
    """All Cayley permutations of length n, lexicographically.

    Streams; never materializes the universe.  `prefix` restricts to the
    permutations starting with those letters (used to shard sweeps).
    Guards are checked eagerly, before the first element is drawn.
    """
    _check_limit(n, generation_limit(), "generation")
    return (_wrap(letters) for letters in _iter_letters(n, prefix))


def _iter_letters(n: int, prefix: Word = ()) -> Iterator[Word]:
    """Raw-tuple generator behind `generate_all` (no guard, no wrapping).

    Iterative DFS: at each open position try letters in increasing order,
    pruning any state whose count of missing values 1..max exceeds the
    positions left to fill.  Yields in lexicographic order.
    """
    prefix = tuple(prefix)
    if len(prefix) > n:
        return
    counts = [0] * (n + 2)
    cur_max = 0
    missing = 0
    for v in prefix:
        if v < 1 or v > n:
            return
        if v > cur_max:
            missing += v - cur_max - 1
            cur_max = v
        elif counts[v] == 0:
            missing -= 1
        counts[v] += 1
    if missing > n - len(prefix):
        return
    if len(prefix) == n:
        yield prefix
        return

    base = len(prefix)
    word = list(prefix) + [0] * (n - base)
    saved_max = [0] * n
    saved_missing = [0] * n
    cand = [1] * n
    pos = base
    while pos >= base:
        remaining = n - pos - 1
        v = cand[pos]
        v_cap = min(n, cur_max + 1 + remaining - missing)
        placed = False
        while v <= v_cap:
            if v > cur_max:
                new_missing = missing + (v - cur_max - 1)
            elif counts[v] == 0:
                new_missing = missing - 1
            else:
                new_missing = missing
            if new_missing <= remaining:
                saved_max[pos] = cur_max
                saved_missing[pos] = missing
                word[pos] = v
                counts[v] += 1
                if v > cur_max:
                    cur_max = v
                missing = new_missing
                cand[pos] = v + 1
                placed = True
                break
            v += 1
        if not placed:
            word[pos] = 0
            pos -= 1
            if pos >= base:
                counts[word[pos]] -= 1
                cur_max = saved_max[pos]
                missing = saved_missing[pos]
            continue
        if pos == n - 1:
            yield tuple(word)
            counts[word[pos]] -= 1
            cur_max = saved_max[pos]
            missing = saved_missing[pos]
            word[pos] = 0
        else:
            pos += 1
            cand[pos] = 1


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
