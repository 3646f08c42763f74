#!/usr/bin/env python3
"""Steadiness tool for the fxcpp benchmark.

Runs the benchmark K times per workload, each time with another seed, and
prints for every end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. Use it to
set the bounds and to check them again whenever the benchmark changes.

    python3 fxbench/steady.py [--runs 10] [--workloads a,b] [--seed0 1]
                              [--save out.json] [--compare earlier.json]

--save writes every run's result; --compare reads such a file and adds, per
metric, the shift of this set's median against the earlier set's median
(positive = worse), plus a check that both sets failed the same share of
operations. Run from the repository root; runs are sequential.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, new, old):
    """Relative change of `new` against `old`, positive when worse."""
    if old == 0:
        return 0.0
    rel = (new - old) / old
    return rel if metric["better"] == "lower" else -rel


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    results = {}
    for w in workloads:
        results[w] = []
        for k in range(args.runs):
            seed = args.seed0 + k
            r = run_once(spec, w, seed)
            results[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        runs = results[w]
        print(f"\n== {w} ({len(runs)} runs, {spec['run_seconds']} s each)")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'verdict':>10}" + ("  shift" if earlier.get(w) else ""))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, sp = spread(vals)
            if sp <= m["bound"] / 3:
                verdict = "steady"
            elif sp <= m["bound"]:
                verdict = "in-bound"
            else:
                verdict, ok = "UNSTEADY", False
            line = (f"{m['name']:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                    f"{sp:>8.3f} {m['bound']:>6.2f} {verdict:>10}")
            if earlier.get(w):
                old = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in earlier[w])
                shift = worse_by(m, med, old)
                line += f"  {shift:+.3f}" + (" WORSE" if shift > m["bound"] else "")
                ok = ok and shift <= m["bound"]
            print(line)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"failed share per run: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
        if earlier.get(w):
            old_shares = {r["failed"] / r["attempted"] for r in earlier[w]}
            if old_shares != shares:
                print("failed share differs from the earlier set")
                ok = False
        if not all(r["correct"] for r in runs):
            print("some runs were not correct")
            ok = False
    print("\nall spreads within bounds" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
