"""One benchmark process: set up cayleysort, then run and time rounds.

Started by run.py, which talks to it in pickled messages over the worker's
standard input and output.  The worker sends ``("ready",)`` once the package
is imported and a tiny warm-up command has run.  Unless ``--setup-only``, it
then runs rounds of the workload.  It never checks an output: it sends the
outputs to run.py in batches and waits until run.py has checked them.  So
the checks, and the memory the oracle uses for them, stay out of this
process, whose clocks and peak memory are the ones reported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pickle
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM_UP = ["enumerate", "--machine", "sigma-machine 21", "--n-max", "3", "--format", "text"]
#: Outputs sent to run.py at a time; the worker holds at most this many.
BATCH = 64


def load_program() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import cayleysort
    from cayleysort import census, cli, core, dyck, pattern, stack

    if Path(cayleysort.__file__).resolve().parent != ROOT / "src" / "cayleysort":
        raise SystemExit(f"cayleysort was imported from {cayleysort.__file__}, not from the checkout")
    return {"census": census, "cli": cli, "core": core, "dyck": dyck, "pattern": pattern, "stack": stack}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (kB on Linux)."""
    kb = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


class Channel:
    """Pickled messages to run.py; a batch of outputs waits for its reply."""

    def __init__(self) -> None:
        self.out = sys.stdout.buffer
        self.replies = sys.stdin.buffer
        # Stray prints must not break the message stream.
        sys.stdout = sys.stderr

    def send(self, *message) -> None:
        pickle.dump(message, self.out)
        self.out.flush()

    def outputs(self, batch: list) -> None:
        if batch:
            self.send("outputs", batch)
            if self.replies.readline() != b"checked\n":
                raise SystemExit("run.py stopped replying")


def run_round(ops, channel: Channel) -> dict:
    """One round, timing each operation on its own.  The clocks are stopped
    while outputs go to run.py and are checked there."""
    wall = cpu = 0.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    batch: list = []
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = (op.label, True, op.run())
        except Exception as exc:  # an operation that raises has failed
            result = (op.label, False, repr(exc))
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        batch.append(result)
        if len(batch) == BATCH:
            channel.outputs(batch)
            batch = []
    channel.outputs(batch)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu += (after.ru_utime + after.ru_stime) - (children.ru_utime + children.ru_stime)
    return {"wall": wall, "cpu": cpu}


def measure(workload, channel: Channel, budget: float, rounds: list) -> None:
    """At least one round; another only while it should end in budget."""
    spent = 0.0
    while True:
        r = run_round(workload.ops(), channel)
        if not rounds:
            r["peak_rss_mb"] = peak_rss_mb()
        rounds.append(r)
        channel.send("round", r)
        spent += r["wall"]
        if spent + r["wall"] > budget:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    channel = Channel()
    mods = load_program()
    with contextlib.redirect_stdout(io.StringIO()):
        status = mods["cli"].main(WARM_UP)
    if status != 0:
        raise SystemExit(f"warm-up command exited with {status}")
    channel.send("ready")
    if args.setup_only:
        return 0

    # Only the inputs come from here; the checks run in run.py.
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload](mods, random.Random(args.seed))
    if not args.trace:
        measure(workload, channel, args.seconds, [])
        channel.send("done", {})
        return 0

    # One untraced round as the reference for the tracing overhead.
    reference = run_round(workload.ops(), channel)
    channel.send("round", reference)
    t = tracer.Tracer()
    tracer.install(t, mods)
    traced: list = []
    measure(workload, channel, max(args.seconds - reference["wall"], 0.0), traced)
    walls = sorted(r["wall"] for r in traced)
    layers = tracer.layer_metrics(t, len(traced))
    layers["trace.overhead_s"] = walls[len(walls) // 2] - reference["wall"]
    if args.trace_file:
        Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trace_file).write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "rounds": len(traced),
                    "round_wall_s": [r["wall"] for r in traced],
                    "reference_wall_s": reference["wall"],
                    "spans": [
                        {"span": name, "parent": parent, "count": c, "total_s": tot,
                         "self_s": own, "items": items}
                        for (name, parent), (c, tot, own, items) in sorted(t.stats.items())
                    ],
                    "layers": layers,
                },
                indent=1,
            )
        )
    channel.send("done", layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
