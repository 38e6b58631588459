"""Reference computations for the benchmark, written apart from cayleysort.

Nothing here imports the package under test.  Every routine follows the
definitions literally: containment tries every index subset, the stack
simulator re-tests the whole would-be stack content before each push, and
counts come from closed forms or from this module's own generator.  Speed
matters only as far as a run can afford it, so the simulator memoises its
"is this content blocked" test on the content itself, which changes nothing
about what is computed.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations

#: The paper's 21-machine census, n = 1..8 (acceptance criterion 2).
MACHINE21_COUNTS = (1, 3, 13, 73, 483, 3547, 27939, 231395)

#: The paper's avoidance bases.
HARE_BASIS = frozenset({(2, 3, 1), (3, 1, 2), (2, 1, 2, 1)})
TORTOISE_BASIS = frozenset({(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 2)})
SIGMA321_BASIS = frozenset({(1, 2, 3), (1, 3, 2)})

#: The mesh pattern Z of the 21-machine characterisation: 3241 with nothing
#: greater than or equal to the image of 4 strictly between the first two
#: chosen positions.  Cells follow the (region, value) convention below.
MESH_Z = ((3, 2, 4, 1), frozenset({(1, 4)}), frozenset({(1, 4)}))
P2341 = (2, 3, 4, 1)


# ---------------------------------------------------------------------------
# Universe.


def cayley_words(n: int):
    """All Cayley permutations of length n (every value 1..max occurs)."""

    def extend(prefix: list[int], top: int, used: set[int]):
        if len(prefix) == n:
            if len(used) == top:
                yield tuple(prefix)
            return
        left = n - len(prefix) - 1
        for v in range(1, n + 1):
            new_top = max(top, v)
            new_used = used | {v}
            if new_top - len(new_used) > left:
                continue
            prefix.append(v)
            yield from extend(prefix, new_top, new_used)
            prefix.pop()

    yield from extend([], 0, set())


def fubini(n: int) -> int:
    """Number of Cayley permutations of length n: sum over k of k! S(n, k)."""
    return sum(math.factorial(k) * stirling2(n, k) for k in range(n + 1))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def words_up_to(n_max: int, start: int = 1) -> int:
    """How many Cayley permutations have a length in start..n_max."""
    return sum(fubini(n) for n in range(start, n_max + 1))


def random_cayley(rng: random.Random, n: int) -> tuple[int, ...]:
    """A Cayley permutation of length n drawn uniformly, by rejection."""
    while True:
        w = tuple(rng.randint(1, n) for _ in range(n))
        if set(w) == set(range(1, max(w) + 1)):
            return w


def equal_first_panel() -> list[tuple[int, ...]]:
    """The sigma of length 2 to 4 whose first two letters are equal."""
    return [w for n in (2, 3, 4) for w in cayley_words(n) if w[0] == w[1]]


# ---------------------------------------------------------------------------
# Containment.


def order_isomorphic(a, b) -> bool:
    if len(a) != len(b):
        return False
    for i, j in combinations(range(len(a)), 2):
        if (a[i] < a[j]) != (b[i] < b[j]) or (a[i] == a[j]) != (b[i] == b[j]):
            return False
    return True


def contains(text, pat) -> bool:
    """Some subsequence of text is order-isomorphic to pat."""
    return any(
        order_isomorphic([text[i] for i in idx], pat)
        for idx in combinations(range(len(text)), len(pat))
    )


def contains_mesh(text, mesh) -> bool:
    """Some occurrence of tau leaves every shaded cell empty.

    For positions q_1 < ... < q_k, region i lies strictly between q_i and
    q_{i+1} (q_0 = -infinity, q_{k+1} = +infinity).  A gap cell (i, j)
    forbids there a value strictly between the images of j and j + 1
    (j = 0: below the image of 1; j = max: above the image of max).  An
    eq cell (i, v) forbids there a value equal to the image of v.
    """
    tau, gap_cells, eq_cells = mesh
    k = len(tau)
    top = max(tau)
    for idx in combinations(range(len(text)), k):
        vals = [text[i] for i in idx]
        if not order_isomorphic(vals, tau):
            continue
        image = {tau[t]: vals[t] for t in range(k)}
        bounds = [-1, *idx, len(text)]

        def region(i):
            return [text[q] for q in range(bounds[i] + 1, bounds[i + 1])]

        clear = True
        for i, j in gap_cells:
            lo = image[j] if j >= 1 else -math.inf
            hi = image[j + 1] if j < top else math.inf
            if any(lo < v < hi for v in region(i)):
                clear = False
        for i, v in eq_cells:
            if image[v] in region(i):
                clear = False
        if clear:
            return True
    return False


def count_avoiders(n_max: int, classical=(), mesh=()) -> list[int]:
    """Counts for n = 1..n_max of Cayley permutations avoiding every pattern.

    Walks the prefix tree and drops a prefix once it contains a pattern.
    That is sound for classical patterns and for mesh patterns whose cells
    lie strictly inside the occurrence, as Z's do: appending letters never
    removes an occurrence.  Leaves that are not Cayley permutations are not
    counted.
    """
    counts = [0] * (n_max + 1)

    def blocked(w):
        return any(contains(w, p) for p in classical) or any(
            contains_mesh(w, m) for m in mesh
        )

    def extend(w: tuple[int, ...], top: int, used: frozenset[int]):
        n = len(w)
        if n and len(used) == top:
            counts[n] += 1
        if n == n_max:
            return
        for v in range(1, n_max + 1):
            new_top = max(top, v)
            new_used = used | {v}
            child = w + (v,)
            # the missing values must still fit before length n_max
            if new_top - len(new_used) > n_max - len(child):
                continue
            if not blocked(child):
                extend(child, new_top, new_used)

    extend((), 0, frozenset())
    return counts[1:]


# ---------------------------------------------------------------------------
# Machines.


@lru_cache(maxsize=None)
def _blocked(content: tuple[int, ...], forbidden: tuple[tuple[int, ...], ...]) -> bool:
    return any(contains(content, sig) for sig in forbidden)


def naive_stack(letters, forbidden, flush_all=False) -> tuple[int, ...]:
    """Output of the restricted stack, by its definition.

    Before pushing x, read the would-be content top to bottom (x, then the
    stack from the top down); while it holds a forbidden pattern, pop one
    letter (or, for a pop-stack, all of them).  End of input flushes.
    """
    forbidden = tuple(tuple(s) for s in forbidden)
    stack: list[int] = []
    out: list[int] = []
    for x in letters:
        while stack and _blocked((x, *reversed(stack)), forbidden):
            if flush_all:
                while stack:
                    out.append(stack.pop())
            else:
                out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def weakly_increasing(w) -> bool:
    return all(a <= b for a, b in zip(w, w[1:]))


def sigma_machine_sorts(word, sigma) -> bool:
    """The sigma-stack, then a 21-stack, leave a weakly increasing word."""
    first = naive_stack(word, [sigma])
    return weakly_increasing(naive_stack(first, [(2, 1)]))


def tortoise_count(n: int) -> int:
    return 3 ** (n - 1)


def tortoise_refined(n: int) -> dict[int, int]:
    """Tortoise-sortable words of length n by number of strictly decreasing
    blocks: C(n-1, k-1) * 2^(k-1)."""
    return {k: math.comb(n - 1, k - 1) * 2 ** (k - 1) for k in range(1, n + 1)}
