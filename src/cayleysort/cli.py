"""Command-line interface.

Subcommands: sort, trace, dyck, enumerate, verify, witness, fertility,
basis.  Permutations are written as space-separated values ("4 2 1 3 2") or
compactly when single-digit ("42132").  Exit status is 0 for success (an
UNSORTABLE answer to a sortability query is a result, not an error), 1 when
a verification target FAILs, and 2 for usage errors, including inputs that
are not Cayley permutations and lengths beyond the configured bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .core import (
    LIMIT_ENV_VAR,
    CayleyPerm,
    ResourceLimitError,
    fubini_numbers,
)
# Not called here; kept because perfbench/tracer.py wraps cli.generate_all
# and cli.reverse by name.
from .core import generate_all, reverse  # noqa: F401
from . import census, dyck, pattern, stack


_VERIFY_TARGETS = (
    "class",
    "mesh21",
    "bijectivity",
    "involution",
    "popstack-hare",
    "popstack-tortoise",
    "tortoise-count",
    "tortoise-refined",
    "sort11-equinum",
    "fubini",
)

_VERIFY_DEFAULT_N = {
    "class": 6,
    "mesh21": 7,
    "bijectivity": 6,
    "involution": 6,
    "popstack-hare": 7,
    "popstack-tortoise": 7,
    "tortoise-count": 8,
    "tortoise-refined": 8,
    "sort11-equinum": 6,
    "fubini": 8,
}


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
        "--machine",
        help="run a pop-stack instead: popstack-hare or popstack-tortoise",
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
    p.add_argument("target", choices=_VERIFY_TARGETS)
    p.add_argument("--sigma", help="required for class/bijectivity/involution")
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


def cmd_trace(args) -> int:
    if (args.sigma is None) == (args.machine is None):
        raise ValueError("give exactly one of --sigma or --machine")
    p = CayleyPerm.parse(args.perm)
    if args.sigma is not None:
        config = stack.StackConfig(frozenset({CayleyPerm.parse(args.sigma)}))
        trace = stack.run_stack(p, config)
    else:
        mode = args.machine.replace("popstack-", "").replace("popstack ", "")
        trace = stack.run_popstack(p, mode)
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
    if (args.sigma is None) == (args.machine is None):
        raise ValueError("give exactly one of --sigma or --machine")
    descriptor = args.machine if args.machine else f"sigma-machine {args.sigma}"
    member = census.sortable_predicate(descriptor)
    for p in pattern.minimal_non_members(member, args.n):
        print(p)
    return 0


def _require_sigma(args) -> CayleyPerm:
    if args.sigma is None:
        raise ValueError(f"verify {args.target} needs --sigma")
    return CayleyPerm.parse(args.sigma)


def cmd_verify(args) -> int:
    n = args.n if args.n is not None else _VERIFY_DEFAULT_N[args.target]
    ok, lines = _run_verify(args, n)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _run_verify(args, n: int) -> tuple[bool, list[str]]:
    target = args.target
    if target == "class":
        sigma = _require_sigma(args)
        verdict = census.verify_class(sigma, n)
        lines = [f"sigma: {sigma}"]
        if verdict.predicted_is_class:
            basis = sorted(verdict.predicted_basis, key=lambda b: (len(b), b))
            lines.append("predicted: avoidance class, basis " + "; ".join(map(str, basis)))
            lines.append(f"sortable set compared with avoidance set for lengths <= {n}")
            if verdict.equality_holds:
                lines.append(_words_checked(n))
            else:
                lines.append(f"counterexample: {verdict.counterexample}")
        else:
            alpha, beta = verdict.witness
            lines.append("predicted: not a class")
            lines.append(f"witness alpha: {alpha}")
            lines.append(f"witness beta: {beta}")
            lines.append("validated the witness pair only; no lengths swept")
        return verdict.equality_holds, lines
    if target == "mesh21":
        bad = next(census.mesh21_violations(n), None)
        return bad is None, _sweep_lines(n, bad)
    if target == "bijectivity":
        sigma = _require_sigma(args)
        ok = census.verify_bijectivity(sigma, n)
        if sigma[0] != sigma[1]:
            return ok, [f"sigma: {sigma}", "checked the collision on 2 inputs"]
        lines = [f"sigma: {sigma}", f"checked bijection laws for lengths <= {n}"]
        if ok:
            lines.append(_words_checked(n))
        return ok, lines
    if target == "involution":
        sigma = _require_sigma(args)
        bad = next(census.involution_violations(sigma, n), None)
        lines = [f"sigma: {sigma}", f"checked lengths <= {n}"]
        lines.append(_words_checked(n) if bad is None else f"counterexample: {bad}")
        return bad is None, lines
    if target in ("popstack-hare", "popstack-tortoise"):
        mode = target.split("-")[1]
        bad = next(census.popstack_violations(mode, n), None)
        return bad is None, _sweep_lines(n, bad)
    if target == "tortoise-count":
        report = census.count_sortable("popstack tortoise", n)
        counts = report.count_list()
        lines = ["counts: " + " ".join(map(str, counts))]
        ok = counts == [3 ** (i - 1) for i in range(1, n + 1)]
        if not ok:
            lines.append("expected: " + " ".join(str(3 ** (i - 1)) for i in range(1, n + 1)))
        return ok, lines
    if target == "tortoise-refined":
        for length in range(1, n + 1):
            try:
                census.tortoise_refined(length)
            except census.VerificationError as exc:
                return False, [str(exc)]
        return True, [f"refined counts match the binomial formula for lengths <= {n}"]
    if target == "sort11-equinum":
        ok = census.sort11_equinumerosity(n)
        lines = [f"checked equinumerosity and the constructive map for lengths <= {n}"]
        if ok:
            lines.append(_words_checked(n))
        return ok, lines
    if target == "fubini":
        counts = census.generation_counts(n)
        expected = fubini_numbers(n)
        lines = ["counts: " + " ".join(map(str, counts[1:]))]
        if counts == expected:
            lines.append(_words_checked(n))
        else:
            lines.append("expected: " + " ".join(map(str, expected[1:])))
        return counts == expected, lines
    raise ValueError(f"unknown verify target {target!r}")


def _sweep_lines(n: int, bad: CayleyPerm | None) -> list[str]:
    """Report of a sweep over all inputs of length <= n that stops at its
    first counterexample `bad`, or checks every word when there is none."""
    lines = [f"checked all inputs of length <= {n}"]
    lines.append(_words_checked(n) if bad is None else f"counterexample: {bad}")
    return lines


def _words_checked(n: int) -> str:
    """A passing sweep checked every word of length <= n."""
    return f"words checked: {sum(fubini_numbers(n))}"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
