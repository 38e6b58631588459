"""Self-test of the oracle and the checks; needs no cayleysort.

    python3 perfbench/selftest.py

First the oracle is checked against itself and the paper: its generator
against the Fubini numbers, its naive machines against the paper's
sequences, and its {2341, Z} avoiders against the 21-machine census.  Then
each kind of check is shown a correct output, which it must accept, and a
perturbed one (a count off by one, a basis word dropped, a wrong label, a
FAIL), which it must reject.  Exits 1 on the first disagreement.
"""

from __future__ import annotations

import sys

import oracle
import workloads


def census_report(machine: str, counts: list[int], refined=None) -> str:
    """A report in the shape ``cayleysort enumerate --format text`` prints."""
    lines = [f"machine: {machine}", f"{'n':>4}  {'universe':>10}  {'sortable':>10}"]
    for n, c in enumerate(counts, start=1):
        lines.append(f"{n:>4}  {oracle.fubini(n):>10}  {c:>10}")
    if refined:
        lines += ["refined by block count:", f"{'n':>4}  {'k':>4}  {'count':>10}"]
        lines += [f"{n:>4}  {k:>4}  {c:>10}" for (n, k), c in sorted(refined.items())]
    lines.append("elapsed: 0.01 s")
    return "\n".join(lines)


def expect(label: str, got: bool, want: bool) -> None:
    if got != want:
        print(f"FAIL {label}: got {got}, expected {want}")
        raise SystemExit(1)
    print(f"ok   {label}")


def main() -> int:
    expect("generator matches Stirling Fubini numbers, n <= 6",
           [sum(1 for _ in oracle.cayley_words(n)) for n in range(1, 7)]
           == [oracle.fubini(n) for n in range(1, 7)], True)
    expect("{2341, Z}-avoiders match the 21-machine census, n <= 5",
           oracle.count_avoiders(5, classical=[oracle.P2341], mesh=[oracle.MESH_Z])
           == list(oracle.MACHINE21_COUNTS[:5]), True)
    naive21 = [sum(oracle.sigma_machine_sorts(w, (2, 1)) for w in oracle.cayley_words(n))
               for n in range(1, 6)]
    expect("naive 21-machine matches the census, n <= 5",
           naive21 == list(oracle.MACHINE21_COUNTS[:5]), True)
    tortoise = [sum(oracle.weakly_increasing(oracle.naive_stack(w, [(2, 1), (1, 1)], True))
                    for w in oracle.cayley_words(n)) for n in range(1, 6)]
    expect("naive tortoise counts are 3^(n-1), n <= 5",
           tortoise == [oracle.tortoise_count(n) for n in range(1, 6)], True)
    naive321 = [sum(oracle.sigma_machine_sorts(w, (3, 2, 1)) for w in oracle.cayley_words(n))
                for n in range(1, 6)]
    expect("naive 321-machine counts the {123, 132}-avoiders, n <= 5",
           naive321 == oracle.count_avoiders(5, classical=sorted(oracle.SIGMA321_BASIS)), True)

    counts = oracle.count_avoiders(5, classical=sorted(oracle.SIGMA321_BASIS))
    check = workloads.census_check(lambda: counts, 5)
    expect("census check accepts the true counts", check(census_report("m", counts)), True)
    off = counts[:3] + [counts[3] + 1] + counts[4:]
    expect("census check rejects a count off by one", check(census_report("m", off)), False)
    refined = {(n, k): c for n in range(1, 6) for k, c in oracle.tortoise_refined(n).items()}
    plain = [oracle.tortoise_count(n) for n in range(1, 6)]
    check = workloads.census_check(lambda: plain, 5, refined=True)
    expect("refined check accepts the closed form", check(census_report("t", plain, refined)), True)
    refined[4, 2] -= 1
    expect("refined check rejects a refined count off by one",
           check(census_report("t", plain, refined)), False)

    check = workloads.basis_check(oracle.HARE_BASIS)
    lines = [workloads.text(b) for b in sorted(oracle.HARE_BASIS, key=lambda b: (len(b), b))]
    expect("basis check accepts the hare basis", check("\n".join(lines)), True)
    expect("basis check rejects a dropped basis word", check("\n".join(lines[1:])), False)
    expect("verify check rejects FAIL", workloads.passes("checked\nFAIL"), False)

    sigma, p = (1, 1), (2, 1, 3, 2)
    out = oracle.naive_stack(p, [sigma])
    op = workloads.twice_op(None, sigma, p)
    expect("s_sigma check accepts the naive output", op.check((out, p[::-1])), True)
    swapped = (out[1], out[0]) + out[2:]
    expect("s_sigma check rejects two swapped letters", op.check((swapped, p[::-1])), False)

    # The 11-stack on 1 2 1: push 1, push 2, pop 2, pop 1, push 1, pop 1.
    steps = (("U", 1), ("U", 2), ("D", 2), ("D", 1), ("U", 1), ("D", 1))
    path = (steps, [1, 2, 1, 0, 1, 0], [(3, 1, 1)], [(1, 2), (0, 3), (4, 5)], "UDUUDD")
    op = workloads.dyck_op(None, (1, 1), (1, 2, 1))
    expect("Dyck check accepts the 11-stack path of 121", op.check(path), True)
    wrong = ((("U", 1), ("U", 2), ("D", 1), ("D", 2), ("U", 1), ("D", 1)),) + path[1:]
    expect("Dyck check rejects swapped down labels", op.check(wrong), False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
