"""Shared test helpers: cached enumeration, the fixed sigma panel and
random words."""

from functools import lru_cache

from hypothesis import strategies as st

from cayleysort import generate_all

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
