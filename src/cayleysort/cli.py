"""Command-line interface.

Subcommands: sort, trace, dyck, enumerate, verify, witness, fertility,
basis.  Permutations are written as space-separated values ("4 2 1 3 2") or
compactly when single-digit ("42132").  Exit status is 0 for success (an
UNSORTABLE answer to a sortability query is a result, not an error), 1 when
a verification target FAILs, 2 for usage errors, including inputs that
are not Cayley permutations and lengths beyond the configured bound, and
141 when standard output is a pipe its reader closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .core import LIMIT_ENV_VAR, CayleyPerm, fubini_numbers
# Not called here; kept because perfbench/tracer.py wraps cli.generate_all
# and cli.reverse by name.
from .core import generate_all, reverse  # noqa: F401
from . import census, dyck, pattern, stack


def _int_at_least(low: int):
    """Argparse type: an integer of at least `low` (else exit status 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleysort",
        description="Pattern-restricted stack machines on Cayley permutations.",
        epilog=(
            "Enumeration lengths are bounded (generation 12, sweeps 8 by "
            f"default); set {LIMIT_ENV_VAR} to override."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sort", help="run the sigma-machine and report sortability")
    p.add_argument("--sigma", required=True, help="forbidden pattern of the first stack")
    p.add_argument("perm", help="input Cayley permutation")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("trace", help="print the PUSH/POP event log of one stack run")
    p.add_argument("--sigma", help="run a sigma-restricted stack (single pops)")
    p.add_argument(
        "--machine", help="run the first stack of a machine descriptor (see enumerate)"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("perm")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("dyck", help="print the labeled Dyck path of a sigma-stack run")
    p.add_argument("--sigma", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("perm")
    p.set_defaults(func=cmd_dyck)

    p = sub.add_parser("enumerate", help="census: count sortable inputs per length")
    p.add_argument(
        "--machine",
        required=True,
        help="'sigma-machine <perm>', 'popstack hare' or 'popstack tortoise'",
    )
    p.add_argument("--n-max", type=_nonnegative_int, required=True)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--format", choices=("text", "csv", "bfile"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustively check one law; PASS or FAIL")
    p.add_argument("target", choices=VERIFY_TARGETS.keys())
    sigma_targets = "/".join(t for t, (_, takes, _) in VERIFY_TARGETS.items() if takes)
    p.add_argument("--sigma", help=f"required for {sigma_targets}")
    p.add_argument(
        "--n", type=_nonnegative_int, help="length bound (target-specific default)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="non-closure witness pair for Sort(sigma)")
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("fertility", help="count preimages of a word under s_sigma")
    p.add_argument("--sigma", required=True)
    p.add_argument("perm", help="target output")
    p.set_defaults(func=cmd_fertility)

    p = sub.add_parser("basis", help="minimal non-sortable inputs of a machine")
    p.add_argument("--machine", help="machine descriptor (see enumerate)")
    p.add_argument("--sigma", help="shorthand for 'sigma-machine <sigma>'")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.set_defaults(func=cmd_basis)

    return parser


def cmd_sort(args) -> int:
    p = CayleyPerm.parse(args.perm)
    sigma = CayleyPerm.parse(args.sigma)
    print(stack.s_sigma(p, sigma))
    print("SORTABLE" if stack.is_sigma_sortable(p, sigma) else "UNSORTABLE")
    return 0


def _machine(args) -> stack.Machine:
    """The machine named by exactly one of --sigma and --machine."""
    if (args.sigma is None) == (args.machine is None):
        raise ValueError("give exactly one of --sigma or --machine")
    if args.sigma is not None:
        return stack.Machine.sigma(CayleyPerm.parse(args.sigma))
    return stack.Machine.parse(args.machine)


def cmd_trace(args) -> int:
    trace = _machine(args).run(CayleyPerm.parse(args.perm))
    if args.format == "json":
        print(json.dumps(trace.to_dict()))
    else:
        print(trace.to_text())
    return 0


def cmd_dyck(args) -> int:
    path = dyck.encode(CayleyPerm.parse(args.perm), CayleyPerm.parse(args.sigma))
    if args.format == "json":
        print(json.dumps(path.to_dict()))
    else:
        print(path.to_text())
    return 0


def cmd_enumerate(args) -> int:
    report = census.count_sortable(args.machine, args.n_max, threads=args.threads)
    if args.format == "csv":
        print(report.to_csv())
    elif args.format == "bfile":
        print(report.to_bfile())
    else:
        print(report.to_text())
    return 0


def cmd_witness(args) -> int:
    alpha, beta = census.witness_non_class(CayleyPerm.parse(args.sigma))
    print(f"alpha: {alpha}")
    print(f"beta: {beta}")
    return 0


def cmd_fertility(args) -> int:
    print(stack.fertility(CayleyPerm.parse(args.sigma), CayleyPerm.parse(args.perm)))
    return 0


def cmd_basis(args) -> int:
    member = census.sortable_predicate(_machine(args).name)
    for p in pattern.minimal_non_members(member, args.n):
        print(p)
    return 0


def cmd_verify(args) -> int:
    default_n, takes_sigma, report = VERIFY_TARGETS[args.target]
    if takes_sigma != (args.sigma is not None):
        raise ValueError(f"verify {args.target} {'needs' if takes_sigma else 'takes no'} --sigma")
    n = default_n if args.n is None else args.n
    ok, lines = report(n, CayleyPerm.parse(args.sigma)) if takes_sigma else report(n)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# Each report makes the one census call that decides its law and returns
# (passed, lines).  It looks that function up when it runs, so a wrapper or
# a patch put in place after import is the one called.


def _words_checked(n: int) -> str:
    """A passing sweep checked every word of length <= n."""
    return f"words checked: {sum(fubini_numbers(n))}"


def _swept(n: int, bad: CayleyPerm | None, *head: str) -> tuple[bool, list[str]]:
    """Report of a sweep over the words of length <= n that stops at its
    first counterexample `bad`, or checks every word when there is none."""
    return bad is None, [*head, _words_checked(n) if bad is None else f"counterexample: {bad}"]


def _counted(counts: list[int], expected: list[int], *tail: str) -> tuple[bool, list[str]]:
    """Report of counts compared with the ones a formula gives; `tail`
    follows them when they agree."""
    lines = ["counts: " + " ".join(map(str, counts))]
    if counts != expected:
        return False, [*lines, "expected: " + " ".join(map(str, expected))]
    return True, [*lines, *tail]


def _class_report(n: int, sigma: CayleyPerm) -> tuple[bool, list[str]]:
    verdict = census.verify_class(sigma, n)
    if not verdict.predicted_is_class:
        alpha, beta = verdict.witness
        return verdict.equality_holds, [
            f"sigma: {sigma}",
            "predicted: not a class",
            f"witness alpha: {alpha}",
            f"witness beta: {beta}",
            "validated the witness pair only; no lengths swept",
        ]
    basis = sorted(verdict.predicted_basis, key=lambda b: (len(b), b))
    return _swept(
        n,
        verdict.counterexample,
        f"sigma: {sigma}",
        "predicted: avoidance class, basis " + "; ".join(map(str, basis)),
        f"sortable set compared with avoidance set for lengths <= {n}",
    )


def _bijectivity_report(n: int, sigma: CayleyPerm) -> tuple[bool, list[str]]:
    ok = census.verify_bijectivity(sigma, n)
    if sigma[0] != sigma[1]:
        return ok, [f"sigma: {sigma}", "checked the collision on 2 inputs"]
    lines = [f"sigma: {sigma}", f"checked bijection laws for lengths <= {n}"]
    return ok, [*lines, _words_checked(n)] if ok else lines


def _involution_report(n: int, sigma: CayleyPerm) -> tuple[bool, list[str]]:
    bad = next(census.involution_violations(sigma, n), None)
    return _swept(n, bad, f"sigma: {sigma}", f"checked lengths <= {n}")


def _mesh21_report(n: int) -> tuple[bool, list[str]]:
    bad = next(census.mesh21_violations(n), None)
    return _swept(n, bad, f"checked all inputs of length <= {n}")


def _popstack_report(mode: str, n: int) -> tuple[bool, list[str]]:
    bad = next(census.popstack_violations(mode, n), None)
    return _swept(n, bad, f"checked all inputs of length <= {n}")


def _tortoise_refined_report(n: int) -> tuple[bool, list[str]]:
    bad = census.tortoise_refined_mismatch(n)
    return bad is None, [bad or f"refined counts match the binomial formula for lengths <= {n}"]


def _sort11_report(n: int) -> tuple[bool, list[str]]:
    ok = census.sort11_equinumerosity(n)
    lines = [f"checked equinumerosity and the constructive map for lengths <= {n}"]
    return ok, [*lines, _words_checked(n)] if ok else lines


def _fubini_report(n: int) -> tuple[bool, list[str]]:
    counts, expected = census.fubini_counts(n)
    return _counted(counts[1:], expected[1:], _words_checked(n))


#: The verify targets in help order: target -> (default length, whether it
#: takes --sigma, report).  A report takes the length, then the sigma.
VERIFY_TARGETS = {
    "class": (6, True, _class_report),
    "mesh21": (7, False, _mesh21_report),
    "bijectivity": (6, True, _bijectivity_report),
    "involution": (6, True, _involution_report),
    "popstack-hare": (7, False, lambda n: _popstack_report("hare", n)),
    "popstack-tortoise": (7, False, lambda n: _popstack_report("tortoise", n)),
    "tortoise-count": (8, False, lambda n: _counted(*census.tortoise_counts(n))),
    "tortoise-refined": (8, False, _tortoise_refined_report),
    "sort11-equinum": (6, False, _sort11_report),
    "fubini": (8, False, _fubini_report),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ResourceLimitError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


#: Exit status when the reader of standard output goes away early, as in
#: `cayleysort enumerate ... | head -1`: 128 + SIGPIPE, what a shell reports
#: for a process the signal ends.
EXIT_BROKEN_PIPE = 141


def console_main() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing more can be written; point stdout at devnull so that the
        # flush at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        status = EXIT_BROKEN_PIPE
    raise SystemExit(status)


if __name__ == "__main__":
    console_main()
