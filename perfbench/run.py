"""cayleysort benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.  Each
workload runs in a worker process of its own (worker.py), which times the
operations and sends their outputs here; this process checks them against
the oracle, so neither the checks' time nor their memory is measured.
Set-up is timed from the start of a worker's interpreter until it reports
ready, over several workers started before and after the workload, and the
median is reported.  With ``--trace 0`` the last line carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones (the span aggregates also go
to perfbench/out/).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is measured this many times before the workload and as many after
#: it, so that it samples the machine at both ends of the run.  The first
#: start of a fresh checkout also compiles bytecode, so one unmeasured start
#: goes first.
SETUP_SAMPLES = 8
WORKER_TIMEOUT = 170


class Worker:
    """A worker process and its message stream."""

    def __init__(self, extra: list[str]) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *extra],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        if self.receive() != ("ready",):
            raise RuntimeError("worker did not get ready")
        self.setup_s = time.perf_counter() - started

    def receive(self) -> tuple:
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            self.proc.wait()
            raise RuntimeError(f"worker ended early (exit {self.proc.returncode})") from None

    def reply(self) -> None:
        self.proc.stdin.write(b"checked\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Wait for a worker that has said all it has to say."""
        self.proc.stdin.close()
        if self.proc.wait(timeout=30) != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_times(workload: str, count: int) -> list[float]:
    times = []
    for _ in range(count):
        w = Worker(["--workload", workload, "--seed", "0", "--seconds", "0", "--setup-only"])
        w.close()
        times.append(w.setup_s)
    return times


class Checker:
    """Checks the worker's outputs against the same operations built here."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.ops = iter(workload.ops())
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def check(self, batch) -> None:
        for label, ran, output in batch:
            op = next(self.ops, None)
            if op is None or op.label != label:
                raise RuntimeError(f"worker ran {label!r} where {op and op.label!r} was due")
            self.attempted += 1
            if not ran:
                self.failed += 1
                self._note(f"{label}: raised {output}")
                continue
            try:
                good = op.check(output)
            except Exception as exc:  # a malformed output fails its check
                good = False
                output = f"{output!r} ({exc!r})"
            if not good:
                self.failed += 1
                self.wrong += 1
                self._note(f"{label}: output failed its check: {str(output)[:300]}")

    def end_round(self) -> None:
        if next(self.ops, None) is not None:
            raise RuntimeError("worker ended a round early")
        self.ops = iter(self.workload.ops())

    def _note(self, message: str) -> None:
        if len(self.failures) < 10:
            self.failures.append(message)


def drive(worker: Worker, checker: Checker) -> tuple[list[dict], dict]:
    """Check every batch the worker sends; return its rounds and its layers."""
    rounds = []
    while True:
        kind, *body = worker.receive()
        if kind == "outputs":
            checker.check(body[0])
            worker.reply()
        elif kind == "round":
            checker.end_round()
            rounds.append(body[0])
        elif kind == "done":
            worker.close()
            return rounds, body[0]
        else:
            raise RuntimeError(f"unexpected message {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cayleysort" / "__init__.py").is_file():
        print(f"error: no cayleysort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = setup_times(args.workload, SETUP_SAMPLES + 1)[1:]
    # The same operations as the worker's, for their checks; the program's
    # modules are not needed to build them.
    workload = workloads.WORKLOADS[args.workload](None, random.Random(args.seed))
    checker = Checker(workload)
    trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    worker = Worker(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--trace-file", str(trace_file)]
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, worker.kill)
    watchdog.start()
    try:
        rounds, layers = drive(worker, checker)
    finally:
        watchdog.cancel()
        worker.kill()
    setups += setup_times(args.workload, SETUP_SAMPLES)
    for message in checker.failures:
        print(f"failed: {message}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        run_s = statistics.median([r["wall"] for r in rounds])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "words_per_s": {"value": workload.words / run_s, "unit": "words/s"},
            "cpu_s": {"value": statistics.median([r["cpu"] for r in rounds]), "unit": "s"},
            "peak_rss_mb": {"value": rounds[0]["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
