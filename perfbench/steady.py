"""Steadiness mode: run each workload several times and report the spread.

    python3 perfbench/steady.py --runs 10 --seed 1 --out perfbench/out/set-a.json
    python3 perfbench/steady.py --runs 5 --workloads laws --seed 100
    python3 perfbench/steady.py --compare perfbench/out/set-a.json perfbench/out/set-b.json

Runs ``run.py`` once per seed (seed, seed + 1, ...), one run at a time, and
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the distance
between the quartiles as a share of the median.  Each spread is compared with
the metric's bound in BENCHMARK.json, setup_s included: a metric is steady
when its spread is below a third of its bound.  The suggested bound is three
times the spread, at least 0.02 and at most 0.25.  It also checks that the
share of failed operations is the same in every run.  The runs are saved as
JSON (by default perfbench/out/steady.json).  The exit status is 0 only when
every metric of every workload is steady.

``--compare`` reads two saved sets of the same code and prints, for every
workload and metric, how far the second median lies from the first, as a
share of the first, against the metric's bound.  The exit status is 0 only
when every difference is within its bound and the failed shares are equal.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def measure(spec: dict, args) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            result = run_once(workload, args.seed + i, args.seconds)
            runs.append(result)
            print(f"{workload} seed {args.seed + i}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        fail_shares = sorted({r["failed"] / r["attempted"] for r in runs})
        report[workload] = {"runs": runs, "failed_shares": fail_shares}
        if len(fail_shares) != 1 or not all(r["correct"] for r in runs):
            steady = False
            print(f"  {workload}: failed shares {fail_shares}, "
                  f"correct {[r['correct'] for r in runs]}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'bound':>6} {'suggest':>7}  verdict")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            suggest = min(0.25, max(0.02, math.ceil(300 * s["spread"]) / 100))
            if s["spread"] < bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "within bound, above a third of it"
                steady = False
            else:
                verdict = "UNSTEADY"
                steady = False
            report[workload][name] = s
            print(f"  {name:<12} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['spread']:>7.4f} {bound:>6} {suggest:>7}  {verdict}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


def compare(spec: dict, first_file: str, second_file: str) -> int:
    first = json.loads(Path(first_file).read_text())
    second = json.loads(Path(second_file).read_text())
    agree = True
    print(f"  {'workload':<10} {'metric':<12} {'first':>12} {'second':>12} {'change':>8} "
          f"{'bound':>6}  verdict")
    for workload in first:
        if workload not in second:
            continue
        if first[workload]["failed_shares"] != second[workload]["failed_shares"]:
            agree = False
            print(f"  {workload}: failed shares differ: {first[workload]['failed_shares']} "
                  f"against {second[workload]['failed_shares']}")
        for m in spec["end_to_end"]:
            a, b = first[workload][m["name"]]["median"], second[workload][m["name"]]["median"]
            change = (b - a) / a
            within = abs(change) <= m["bound"]
            agree &= within
            print(f"  {workload:<10} {m['name']:<12} {a:>12.5g} {b:>12.5g} {change:>+8.4f} "
                  f"{m['bound']:>6}  {'within bound' if within else 'OUTSIDE BOUND'}")
    print("sets agree" if agree else "sets DISAGREE")
    return 0 if agree else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=str(HERE / "out" / "steady.json"))
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)
    return measure(spec, args)


if __name__ == "__main__":
    sys.exit(main())
