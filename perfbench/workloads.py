"""The benchmark's workloads: one round of operations each, and their checks.

An operation is one CLI command run through ``cayleysort.cli.main``, or one
library call on one input (a Dyck-path operation is one ``encode`` and the
four readings of its path; an s_sigma operation is the map applied twice).
Its ``run`` touches only the program and runs in the worker; its ``check``
runs in run.py and compares the output with ``oracle`` (which shares no code
with cayleysort) or with a property the method must have, never with a
stored copy of an earlier output.  Both processes build the same operations
from the same seed, so a workload must build them deterministically.

Inputs depend on the seed only through the sampled words; the commands and
the exhaustive Dyck inputs are fixed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import oracle

#: Census lengths.  sigma = 21 reaches n = 8 as acceptance criterion 2 does;
#: sigma = 321 and the tortoise stop at 7 so that a round fits in a run.
CENSUS21_N = 8
CENSUS321_N = 7
TORTOISE_N = 7
#: Lengths up to which the oracle counts {2341, Z}-avoiders itself (n = 7
#: costs it about 5 s a run); longer lengths use the paper's sequence and the
#: sampled per-word verdicts.
ORACLE21_N = 6
#: Per-word verdicts sampled from each of these lengths.
VERDICT_LENGTHS = (7, 8)
VERDICT_SAMPLES = 100

LAWS_VERIFY_N = 7
LAWS_BASIS_N = 6

OPERATOR_VERIFY_N = 6
#: A fixed subset of the equal-first-letter panel, lengths 2, 3 and 4.
DYCK_SIGMAS = ((1, 1), (1, 1, 1), (2, 2, 1), (1, 1, 2, 3), (2, 2, 1, 3), (3, 3, 2, 1))
DYCK_N = 6
SAMPLE_LENGTHS = (9, 10, 11, 12)
SAMPLES_PER_LENGTH = 40


@dataclass(slots=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    words: int


@dataclass
class Workload:
    """A round of operations.  ``ops`` makes them afresh for every round, so
    that tens of thousands of small operations are not all held at once."""

    ops: Callable[[], Iterable[Op]]

    @property
    def words(self) -> int:
        return sum(op.words for op in self.ops())


def text(w) -> str:
    return " ".join(map(str, w))


def compact(w) -> str:
    return "".join(map(str, w))


def cli_op(mods, argv: list[str], check: Callable[[str], bool], words: int) -> Op:
    """A command: exit status 0 and a checked standard output."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = mods["cli"].main(argv)
        return status, out.getvalue()

    return Op(" ".join(argv), run, lambda r: r[0] == 0 and check(r[1]), words)


# ---------------------------------------------------------------------------
# Census.


def parse_census(output: str):
    """Rows of the text report: {n: (universe, sortable)}, {(n, k): count}."""
    counts: dict[int, tuple[int, int]] = {}
    refined: dict[tuple[int, int], int] = {}
    section = None
    for line in output.splitlines():
        fields = line.split()
        if line.startswith("machine:") or line.startswith("elapsed:"):
            continue
        if line.startswith("refined by block count"):
            section = "refined"
            continue
        if not fields or not fields[0].isdigit():
            continue
        if section == "refined":
            n, k, c = map(int, fields)
            refined[n, k] = c
        else:
            n, universe, sortable = map(int, fields)
            counts[n] = (universe, sortable)
    return counts, refined


def census_check(expected: Callable[[], list[int]], n_max: int, refined: bool = False):
    def check(output: str) -> bool:
        counts, table = parse_census(output)
        want = expected()
        if sorted(counts) != list(range(1, n_max + 1)):
            return False
        for n, (universe, sortable) in counts.items():
            if universe != oracle.fubini(n) or sortable != want[n - 1]:
                return False
        if refined:
            return table == {
                (n, k): c
                for n in range(1, n_max + 1)
                for k, c in oracle.tortoise_refined(n).items()
            }
        return not table

    return check


@functools.cache
def machine21_counts() -> list[int]:
    own = oracle.count_avoiders(ORACLE21_N, classical=[oracle.P2341], mesh=[oracle.MESH_Z])
    return own + list(oracle.MACHINE21_COUNTS[ORACLE21_N:CENSUS21_N])


@functools.cache
def sigma321_counts() -> list[int]:
    return oracle.count_avoiders(CENSUS321_N, classical=sorted(oracle.SIGMA321_BASIS))


def tortoise_counts() -> list[int]:
    return [oracle.tortoise_count(n) for n in range(1, TORTOISE_N + 1)]


def enumerate_argv(machine: str, n: int) -> list[str]:
    return ["enumerate", "--machine", machine, "--n-max", str(n), "--format", "text"]


def verdict_ops(mods, rng: random.Random) -> list[Op]:
    """Per-word sigma = 21 verdicts from the library's predicate."""
    ops = []
    for n in VERDICT_LENGTHS:
        for _ in range(VERDICT_SAMPLES):
            w = oracle.random_cayley(rng, n)

            def run(w=w):
                return mods["stack"].is_sigma_sortable(w, (2, 1))

            def check(got, w=w):
                return got is oracle.sigma_machine_sorts(w, (2, 1))

            ops.append(Op(f"sortable 21 {compact(w)}", run, check, 1))
    return ops


def census(mods, rng) -> Workload:
    ops = [
        cli_op(
            mods,
            enumerate_argv("sigma-machine 21", CENSUS21_N),
            census_check(machine21_counts, CENSUS21_N),
            oracle.words_up_to(CENSUS21_N),
        ),
        cli_op(
            mods,
            enumerate_argv("sigma-machine 321", CENSUS321_N),
            census_check(sigma321_counts, CENSUS321_N),
            oracle.words_up_to(CENSUS321_N),
        ),
        cli_op(
            mods,
            enumerate_argv("popstack tortoise", TORTOISE_N),
            census_check(tortoise_counts, TORTOISE_N, refined=True),
            oracle.words_up_to(TORTOISE_N),
        ),
    ]
    ops += verdict_ops(mods, rng)
    return Workload(lambda: ops)


# ---------------------------------------------------------------------------
# Laws.


def passes(output: str) -> bool:
    lines = output.splitlines()
    return bool(lines) and lines[-1] == "PASS"


def basis_check(basis: frozenset):
    def check(output: str) -> bool:
        got = [tuple(map(int, line.split())) for line in output.splitlines()]
        return len(got) == len(set(got)) and set(got) == basis

    return check


def laws(mods, rng) -> Workload:
    n, b = LAWS_VERIFY_N, LAWS_BASIS_N
    sweep, basis_sweep = oracle.words_up_to(n, 0), oracle.words_up_to(b, 0)
    ops = [
        cli_op(mods, ["verify", "mesh21", "--n", str(n)], passes, sweep),
        cli_op(mods, ["verify", "popstack-hare", "--n", str(n)], passes, sweep),
        cli_op(mods, ["verify", "popstack-tortoise", "--n", str(n)], passes, sweep),
        cli_op(mods, ["verify", "class", "--sigma", "3 2 1", "--n", str(n)], passes, sweep),
        cli_op(mods, ["basis", "--machine", "popstack hare", "--n", str(b)],
               basis_check(oracle.HARE_BASIS), basis_sweep),
        cli_op(mods, ["basis", "--machine", "popstack tortoise", "--n", str(b)],
               basis_check(oracle.TORTOISE_BASIS), basis_sweep),
        cli_op(mods, ["basis", "--sigma", "3 2 1", "--n", str(b)],
               basis_check(oracle.SIGMA321_BASIS), basis_sweep),
    ]
    return Workload(lambda: ops)


# ---------------------------------------------------------------------------
# Operator.


def dyck_op(mods, sigma, p) -> Op:
    def run():
        dyck = mods["dyck"]
        path = dyck.encode(p, sigma)
        return (
            path.steps,
            dyck.heights(path),
            dyck.valleys(path),
            dyck.matched_pairs(path),
            dyck.reverse_path(path),
        )

    def check(result) -> bool:
        steps, hs, vs, pairs, reversed_steps = result
        ups = tuple(v for d, v in steps if d == "U")
        downs = tuple(v for d, v in steps if d == "D")
        shape = "".join(d for d, _ in steps)
        flipped = "".join("U" if d == "D" else "D" for d in reversed(shape))
        return (
            ups == p
            and downs == oracle.naive_stack(p, [sigma])
            and len(hs) == len(steps)
            and all(h >= 0 for h in hs)
            and (not hs or hs[-1] == 0)
            and all(
                steps[i] == ("D", down) and steps[i + 1] == ("U", up) and down == up
                for i, down, up in vs
            )
            and len(pairs) == len(p)
            and all(steps[a][1] == steps[b][1] for a, b in pairs)
            and reversed_steps == flipped
        )

    return Op(f"dyck {compact(sigma)} {compact(p)}", run, check, 1)


def twice_op(mods, sigma, p) -> Op:
    """s_sigma(p), then s_sigma of its reverse, which must give p reversed."""

    def run():
        s_sigma = mods["stack"].s_sigma
        once = s_sigma(p, sigma)
        return tuple(once), tuple(s_sigma(tuple(reversed(once)), sigma))

    def check(result) -> bool:
        once, twice = result
        return (
            once == oracle.naive_stack(p, [sigma])
            and sorted(once) == sorted(p)
            and twice[::-1] == p
        )

    return Op(f"s_sigma twice {compact(sigma)} {text(p)}", run, check, 1)


def operator(mods, rng) -> Workload:
    n = OPERATOR_VERIFY_N
    panel = oracle.equal_first_panel()
    verify = [
        cli_op(
            mods,
            ["verify", target, "--sigma", text(sigma), "--n", str(n)],
            passes,
            oracle.words_up_to(n, 0),
        )
        for sigma in panel
        for target in ("involution", "bijectivity")
    ]
    words = [w for k in range(1, DYCK_N + 1) for w in oracle.cayley_words(k)]
    sample = [
        (rng.choice(panel), oracle.random_cayley(rng, k))
        for k in SAMPLE_LENGTHS
        for _ in range(SAMPLES_PER_LENGTH)
    ]

    def ops():
        yield from verify
        for sigma in DYCK_SIGMAS:
            for p in words:
                yield dyck_op(mods, sigma, p)
        for sigma, p in sample:
            yield twice_op(mods, sigma, p)

    return Workload(ops)


WORKLOADS = {
    "census": census,
    "laws": laws,
    "operator": operator,
}
