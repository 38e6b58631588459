"""Shared test helpers: cached enumeration, the fixed sigma panel and
random words."""

from functools import lru_cache

from hypothesis import strategies as st

from cayleysort import census, generate_all

# Fixed panel of forbidden patterns used by the exhaustive unit sweeps.
SIGMA_PANEL16 = [
    (1, 1), (1, 2), (2, 1),
    (1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1),
    (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 1, 1),
    (1, 2, 2, 1), (2, 3, 1, 4), (4, 2, 3, 1),
]


@lru_cache(maxsize=None)
def universe(n):
    """All Cayley permutations of length n, materialized once per session."""
    return tuple(generate_all(n))


def words_up_to(n_max, start=0):
    for n in range(start, n_max + 1):
        yield from universe(n)


def random_words(min_len, max_len, max_letter):
    """Hypothesis strategy: words over 1..max_letter whose length is drawn
    uniformly from min_len..max_len."""
    return st.integers(min_len, max_len).flatmap(
        lambda n: st.lists(st.integers(1, max_letter), min_size=n, max_size=n)
    )


def corrupt_law_basis(monkeypatch) -> list[int]:
    """Make (1, 2, 3) the one counterexample of every law sweep: at length
    3, add 123 to the basis `census._law_walk` gets, or drop it where it is
    there (Sort(321) avoids 132 and 123).  `census._law_violations` calls
    the walk once per length, shortest first, and each call walks the whole
    insertion tree of its length before it yields; so the returned list,
    to which every call appends its length, shows which lengths a sweep
    walked before it stopped."""
    real = census._law_walk
    lengths = []

    def corrupted(n, machine, basis, meshes=()):
        lengths.append(n)
        p123 = (1, 2, 3)
        if n == 3:
            basis = tuple(b for b in basis if b != p123) if p123 in basis else basis + (p123,)
        return real(n, machine, basis, meshes)

    monkeypatch.setattr(census, "_law_walk", corrupted)
    return lengths
