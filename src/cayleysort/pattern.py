"""Pattern containment for words with repeated letters, classical and mesh.

An occurrence of a pattern is a subsequence that is order-isomorphic to it:
equal pattern letters must map to equal text letters and strict inequalities
to strict inequalities in the same direction.  So 1 4 2 2 1 5 contains 2 1 1 3
(via 4 2 2 5) but avoids 1 2 3 4.

Mesh patterns refine this by forbidding text elements inside designated
regions around an occurrence; see CayleyMeshPattern for the cell convention.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from .core import (
    CayleyPerm,
    Word,
    _check_limit,
    _wrap,
    census_limit,
    generate_all,
    normalize,
)


def _extend(
    text: Sequence[int],
    pat: Sequence[int],
    vals: list[int],
    pos: list[int],
    t: int,
    start: int,
    accept: Callable[[list[int]], bool] | None,
) -> bool:
    """The one order-isomorphic search: extend a partial occurrence of `pat`.

    `vals[:t]` are the text letters already matched to `pat[:t]` and
    `pos[:t]` their 0-based positions; letters for `pat[t:]` are sought from
    position `start` on, pruning branches that cannot supply enough
    remaining letters.  Each complete occurrence is handed to `accept`, in
    lexicographic order of positions, and the search stops (returning True)
    at the first one `accept` takes; `accept=None` takes the first.  Needs
    0 <= t < len(pat).
    """
    k = len(pat)
    pt = pat[t]
    last = t + 1 == k
    for i in range(start, len(text) - (k - 1 - t)):
        v = text[i]
        for u in range(t):
            pu = pat[u]
            vu = vals[u]
            if (pt > pu) != (v > vu) or (pt == pu) != (v == vu):
                break
        else:
            vals[t] = v
            pos[t] = i
            if last:
                if accept is None or accept(pos):
                    return True
            elif _extend(text, pat, vals, pos, t + 1, i + 1, accept):
                return True
    return False


def contains(text: Sequence[int], pat: Sequence[int]) -> bool:
    """True when some subsequence of `text` is order-isomorphic to `pat`.

    The empty pattern is contained in everything.
    """
    k = len(pat)
    if k == 0:
        return True
    return _extend(text, pat, [0] * k, [0] * k, 0, 0, None)


def occurrences(text: Sequence[int], pat: Sequence[int]) -> list[tuple[int, ...]]:
    """All occurrences of `pat` in `text` as 1-based position tuples.

    Complete and in lexicographic order; e.g. the pattern 1 2 occurs in
    1 3 2 at positions (1, 2) and (1, 3).
    """
    k = len(pat)
    if k == 0:
        return [()]
    found: list[tuple[int, ...]] = []

    def record(pos: list[int]) -> bool:
        found.append(tuple(j + 1 for j in pos))
        return False

    _extend(text, pat, [0] * k, [0] * k, 0, 0, record)
    return found


def avoids_all(text: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True when `text` contains none of `patterns`."""
    return not any(contains(text, pat) for pat in patterns)


def subpatterns(p: Sequence[int], proper: bool = True) -> set[CayleyPerm]:
    """Normalized patterns of all subsequences of `p` (proper ones by default)."""
    n = len(p)
    top = n if proper else n + 1
    out: set[CayleyPerm] = set()
    for r in range(top):
        for idx in itertools.combinations(range(n), r):
            out.add(normalize(p[i] for i in idx))
    return out


@dataclass(frozen=True)
class CayleyMeshPattern:
    """A pattern together with forbidden regions around each occurrence.

    For an underlying pattern tau of length k and maximum m, an occurrence
    at text positions q_1 < ... < q_k maps each pattern value v to a text
    value image(v).  Cells address the regions between consecutive chosen
    positions (index i = 0 means before q_1, i = k means after q_k) and
    between consecutive images:

    - gap cell (i, j), 0 <= j <= m: no text element strictly between
      positions q_i and q_{i+1} may have value strictly between image(j)
      and image(j+1); j = 0 is unbounded below and j = m unbounded above.
    - eq cell (i, v), 1 <= v <= m: no such element may equal image(v).

    The pattern is contained when some classical occurrence violates no cell.
    """

    tau: CayleyPerm
    gap_cells: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    eq_cells: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        tau = self.tau if isinstance(self.tau, CayleyPerm) else CayleyPerm(self.tau)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "gap_cells", frozenset(self.gap_cells))
        object.__setattr__(self, "eq_cells", frozenset(self.eq_cells))
        k = len(tau)
        m = tau.max_letter
        for i, j in self.gap_cells:
            if not (0 <= i <= k and 0 <= j <= m):
                raise ValueError(f"gap cell {(i, j)} outside 0..{k} x 0..{m}")
        for i, v in self.eq_cells:
            if not (0 <= i <= k and 1 <= v <= m):
                raise ValueError(f"eq cell {(i, v)} outside 0..{k} x 1..{m}")

    @classmethod
    def parse(cls, text: str) -> "CayleyMeshPattern":
        """Parse "<tau text> gap=(i,j);(i,j) eq=(i,v)" (cell lists optional)."""
        gap: list[tuple[int, int]] = []
        eq: list[tuple[int, int]] = []
        tau_tokens: list[str] = []
        for token in text.split():
            if token.startswith("gap="):
                gap.extend(_parse_cells(token[4:]))
            elif token.startswith("eq="):
                eq.extend(_parse_cells(token[3:]))
            else:
                tau_tokens.append(token)
        if not tau_tokens:
            raise ValueError(f"no pattern letters in {text!r}")
        return cls(CayleyPerm.parse(" ".join(tau_tokens)), frozenset(gap), frozenset(eq))

    def __str__(self) -> str:
        parts = [str(self.tau)]
        if self.gap_cells:
            parts.append("gap=" + ";".join(f"({i},{j})" for i, j in sorted(self.gap_cells)))
        if self.eq_cells:
            parts.append("eq=" + ";".join(f"({i},{v})" for i, v in sorted(self.eq_cells)))
        return " ".join(parts)


def _parse_cells(text: str) -> list[tuple[int, int]]:
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"cell {chunk!r} is not of the form (i,j)")
        a, _, b = chunk[1:-1].partition(",")
        cells.append((int(a), int(b)))
    return cells


#: Occurrence of 3241 with nothing larger than the '4' between the first two
#: chosen positions.  On repetition-free words this is the classical barred
#: pattern 3-bar5241.
MESH_W = CayleyMeshPattern(CayleyPerm((3, 2, 4, 1)), frozenset({(1, 4)}))

#: MESH_W strengthened for repeated letters: the same region must not even
#: repeat the value of the '4'.
MESH_Z = CayleyMeshPattern(
    CayleyPerm((3, 2, 4, 1)), frozenset({(1, 4)}), frozenset({(1, 4)})
)


def contains_mesh(text: Sequence[int], mp: CayleyMeshPattern) -> bool:
    """True when some occurrence of mp.tau in `text` violates no cell of mp.

    The occurrence search stops at the first occurrence that is clear.
    """
    tau = mp.tau
    k = len(tau)
    m = tau.max_letter
    n = len(text)
    if k == 0:
        return True
    cells = [(i, j, False) for i, j in mp.gap_cells] + [
        (i, v, True) for i, v in mp.eq_cells
    ]

    def clear(pos: list[int]) -> bool:
        image = {tau[t]: text[pos[t]] for t in range(k)}
        for i, j, is_eq in cells:
            lo = pos[i - 1] if i >= 1 else -1
            hi = pos[i] if i <= k - 1 else n
            for q in range(lo + 1, hi):
                v = text[q]
                if is_eq:
                    bad = v == image[j]
                elif j == 0:
                    bad = v < image[1]
                elif j == m:
                    bad = v > image[m]
                else:
                    bad = image[j] < v < image[j + 1]
                if bad:
                    return False
        return True

    return _extend(text, tau, [0] * k, [0] * k, 0, 0, clear)


Member = Callable[[CayleyPerm], bool]


def _deletions(p: Sequence[int]) -> set[CayleyPerm]:
    """The distinct normalized one-point deletions of a Cayley permutation.

    Deleting a letter whose value occurs again leaves a Cayley permutation
    as it is; deleting the last copy of v leaves a gap at v, closed by
    lowering every letter above v by one.  So each deletion costs O(n) and
    needs neither `normalize` nor validation.  A run of equal letters gives
    one deletion, so only the first letter of each run is deleted.
    """
    out: set[CayleyPerm] = set()
    prev = None
    for i, v in enumerate(p):
        if v == prev:
            continue
        prev = v
        rest = p[:i] + p[i + 1 :]
        if v not in rest:
            rest = tuple(x - (x > v) for x in rest)
        out.add(_wrap(tuple(rest)))
    return out


def _memoised(member: Member) -> Member:
    """member, run at most once per distinct word.

    A plain dict of verdicts: `functools.cache` would also keep a one-tuple
    key per word, which at n_max = 7 raised the peak memory of a basis
    sweep by about 2 MB.  The sweeps below check every word in generation
    order, shortest first, so when they reach a word of length n every
    word shorter than n already has its verdict, and the checks they make
    on one-point deletions and patterns are dictionary lookups.
    """
    verdict: dict[CayleyPerm, bool] = {}

    def check(p: CayleyPerm) -> bool:
        got = verdict.get(p)
        if got is None:
            got = verdict[p] = member(p)
        return got

    return check


_NO_PATTERNS: frozenset[CayleyPerm] = frozenset()


def downward_closure_violations(
    member: Member, n_max: int
) -> list[tuple[CayleyPerm, CayleyPerm]]:
    """All pairs (beta, alpha) with member(beta), alpha a pattern of beta,
    and not member(alpha), over |beta| <= n_max.

    Empty exactly when the member set is closed under pattern containment
    up to that length.  Sorted by (|beta|, beta, |alpha|, alpha).  n_max
    is bounded by `census_limit`, and member runs once per distinct word.

    The proper patterns of a word w are its one-point deletions d together
    with the proper patterns of each d, so its set of non-member proper
    patterns is, over d in `_deletions(w)`, the union of d itself when
    member rejects d and the non-member proper patterns of d.  This holds
    whether or not the member set is closed, so the result is exact.  The
    sets are memoised: for every member, whose patterns the sweep lists
    (a member's set is ready before any longer word asks for it), and on
    demand for the non-members that some member's patterns pass through;
    the sets of the last length are not kept.  Nothing enumerates index
    subsets.
    """
    _check_limit(n_max, census_limit(), "closure sweep")
    violations: list[tuple[CayleyPerm, CayleyPerm]] = []
    check = _memoised(member)
    below: dict[CayleyPerm, frozenset[CayleyPerm]] = {}

    def collect(w: CayleyPerm) -> set[CayleyPerm]:
        """The proper patterns of w that member rejects."""
        acc: set[CayleyPerm] = set()
        for d in _deletions(w):
            if not check(d):
                acc.add(d)
            acc |= non_members(d)
        return acc

    def non_members(w: CayleyPerm) -> frozenset[CayleyPerm]:
        """collect(w), memoised; the many words with none share one set."""
        got = below.get(w)
        if got is None:
            acc = collect(w)
            got = below[w] = frozenset(acc) if acc else _NO_PATTERNS
        return got

    for n in range(n_max + 1):
        # no longer word asks for the sets of the last length: keep none
        patterns = collect if n == n_max else non_members
        for beta in generate_all(n):
            if check(beta):
                violations.extend((beta, alpha) for alpha in patterns(beta))
    violations.sort(key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1]))
    return violations


def minimal_non_members(member: Member, n_max: int) -> list[CayleyPerm]:
    """Minimal non-members of a containment-closed set, up to length n_max.

    A word belongs to the result when member rejects it but accepts every
    proper pattern of it.  For a set that is an avoidance class this is its
    basis restricted to lengths <= n_max.  Sorted by length, then
    lexicographically.  n_max is bounded by `census_limit`, and member runs
    once per distinct word.

    Every one-point deletion is a proper pattern, so a rejected word is a
    candidate only when member accepts all of its `_deletions`; for a
    closed set that already decides it.  A set that is not closed can
    accept the deletions and still reject a shorter pattern, so each
    candidate is confirmed on all of its proper patterns (`subpatterns`)
    before it is kept.  The result is exact either way, and only the few
    candidates pay for the 2^n subsets.
    """
    _check_limit(n_max, census_limit(), "basis sweep")
    minimal: list[CayleyPerm] = []
    check = _memoised(member)
    for n in range(n_max + 1):
        for p in generate_all(n):
            if check(p) or not all(check(d) for d in _deletions(p)):
                continue
            if all(check(q) for q in subpatterns(p)):
                minimal.append(p)
    minimal.sort(key=lambda p: (len(p), p))
    return minimal
