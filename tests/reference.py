"""Naive reference implementations used only to cross-check the library.

Everything here is written for obviousness, not speed: containment tries
every index subset, and the machine simulator re-tests the *entire* stack
content against every forbidden pattern before each push, exactly as the
machine is defined.  The library is allowed to be clever (it only matches
the incoming letter against the first pattern letter); this module is not.
Likewise the basis sweep, the closure sweep and the witness search here
list the patterns of every word by `subpatterns`, all 2^n index subsets,
where the library steps down by one-point deletions (`pattern._closure_sweep`
and the memo it shares with `minimal_non_members`).
"""

from itertools import combinations

from cayleysort import generate_all, subpatterns


def order_isomorphic(a, b):
    if len(a) != len(b):
        return False
    pairs = list(zip(a, b))
    for (x1, y1), (x2, y2) in combinations(pairs, 2):
        if (x1 > x2) != (y1 > y2) or (x1 == x2) != (y1 == y2):
            return False
    return True


def brute_contains(text, pat):
    text = tuple(text)
    pat = tuple(pat)
    return any(
        order_isomorphic([text[i] for i in idx], pat)
        for idx in combinations(range(len(text)), len(pat))
    )


def brute_occurrences(text, pat):
    """All occurrences as 1-based index tuples, in lexicographic order."""
    text = tuple(text)
    pat = tuple(pat)
    if not pat:
        return [()]
    return [
        tuple(i + 1 for i in idx)
        for idx in combinations(range(len(text)), len(pat))
        if order_isomorphic([text[i] for i in idx], pat)
    ]


def naive_machine(letters, forbidden, flush_all=False):
    """Literal transcription of the pattern-avoiding stack.

    Before pushing x, read the would-be stack content top to bottom
    (x first, then the current stack from top down) and test it for every
    forbidden pattern by brute force.  While any pattern occurs, pop: one
    element in single mode, the whole stack in flush mode.  End of input
    flushes whatever remains.

    Returns (output, events, triggered) where `triggered` counts the input
    letters whose arrival forced at least one pop.
    """
    stack = []
    out = []
    events = []
    triggered = 0

    def blocked(x):
        content = [x] + stack[::-1]
        return any(brute_contains(content, sig) for sig in forbidden)

    for x in letters:
        fired = False
        while stack and blocked(x):
            fired = True
            if flush_all:
                while stack:
                    v = stack.pop()
                    out.append(v)
                    events.append(("POP", v))
            else:
                v = stack.pop()
                out.append(v)
                events.append(("POP", v))
        if fired:
            triggered += 1
        stack.append(x)
        events.append(("PUSH", x))
    while stack:
        v = stack.pop()
        out.append(v)
        events.append(("POP", v))
    return tuple(out), tuple(events), triggered


def stirling2_table(n_max):
    """S(n, k) for 0 <= k <= n <= n_max, by the triangle recurrence."""
    table = [[1]]
    for n in range(1, n_max + 1):
        row = [0]
        for k in range(1, n):
            row.append(table[n - 1][k - 1] + k * table[n - 1][k])
        row.append(1)
        table.append(row)
    return table


def fubini_via_stirling(n_max):
    """Fubini numbers as sum_k k! * S(n, k) — a different route than the
    binomial recurrence the library uses."""
    from math import factorial

    table = stirling2_table(n_max)
    return [
        sum(factorial(k) * table[n][k] for k in range(n + 1))
        for n in range(n_max + 1)
    ]


def brute_contains_mesh(text, mp):
    """Mesh containment by its definition: some occurrence of mp.tau, as
    listed by brute_occurrences, leaves every shaded cell of mp empty.

    For an occurrence at 1-based positions q_1 < ... < q_k with q_0 = 0 and
    q_{k+1} = len(text) + 1, region i holds the letters strictly between
    q_i and q_{i+1}.  Gap cell (i, j) is hit by a letter of region i
    strictly between image(j) and image(j + 1), where image(0) = -inf and
    image(m + 1) = +inf; eq cell (i, v) by a letter of region i equal to
    image(v).
    """
    text = tuple(text)
    tau = tuple(mp.tau)
    m = max(tau, default=0)
    for occ in brute_occurrences(text, tau):
        image = {tau[t]: text[q - 1] for t, q in enumerate(occ)}
        bounds = [float("-inf")] + [image[v] for v in range(1, m + 1)] + [float("inf")]
        q = (0,) + occ + (len(text) + 1,)

        def region(i):
            return [text[p - 1] for p in range(q[i] + 1, q[i + 1])]

        gap_hit = any(
            bounds[j] < x < bounds[j + 1] for i, j in mp.gap_cells for x in region(i)
        )
        eq_hit = any(x == image[v] for i, v in mp.eq_cells for x in region(i))
        if not gap_hit and not eq_hit:
            return True
    return False


def brute_downward_closure_violations(member, n_max):
    """Closure sweep by its definition: every member beta of length
    <= n_max paired with every proper pattern alpha of it that member
    rejects, the patterns listed by `subpatterns` (all 2^n index subsets).
    Sorted by (|beta|, beta, |alpha|, alpha)."""
    pairs = [
        (beta, alpha)
        for n in range(n_max + 1)
        for beta in generate_all(n)
        if member(beta)
        for alpha in subpatterns(beta)
        if not member(alpha)
    ]
    return sorted(pairs, key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1]))


def brute_minimal_non_members(member, n_max):
    """Basis sweep by its definition: the words of length <= n_max that
    member rejects while accepting every proper pattern (by `subpatterns`).
    Sorted by length, then lexicographically."""
    return [
        p
        for n in range(n_max + 1)
        for p in generate_all(n)
        if not member(p) and all(member(q) for q in subpatterns(p))
    ]


def brute_search_witness(member, max_len):
    """Witness search by its definition: the first member beta of length
    <= max_len, in generation order, with a proper pattern alpha that member
    rejects, and the smallest such alpha by (length, letters), as the pair
    (alpha, beta); None when there is none.  The patterns are listed by
    `subpatterns` (all 2^n index subsets)."""
    for n in range(max_len + 1):
        for beta in generate_all(n):
            if member(beta):
                for alpha in sorted(subpatterns(beta), key=lambda q: (len(q), q)):
                    if not member(alpha):
                        return alpha, beta
    return None
