#!/usr/bin/env python3
"""Steadiness report: run each workload several times on distinct seeds and
print each end-to-end metric's spread (interquartile range / median)
against its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seconds S]
                                [--first-seed 1] [WORKLOAD ...]

Run from the root of a source tree. A spread above the bound is flagged
FAIL, one above a third of the bound "wide". setup_s is exempt from the
spread limit. With --sets 2 the runs are repeated on the same seeds and
the second median of every metric is compared with the first: it must not
be worse by more than the bound. Exits 1 if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pbstats  # noqa: E402


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    bench = load_bench()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 4:
        raise SystemExit("--runs must be at least 4 for quartiles")

    metrics = bench["end_to_end"]
    ok = True
    for w in args.workloads:
        seeds = [args.first_seed + i for i in range(args.runs)]
        sets = []
        for s in range(args.sets):
            values = []
            for seed in seeds:
                values.append(run_once(w, seed, args.seconds))
                print("  %s set %d seed %d done" % (w, s + 1, seed),
                      file=sys.stderr, flush=True)
            sets.append(values)
        print("== %s: %d runs x %d set(s), %d s each" % (w, args.runs,
                                                        args.sets, args.seconds))
        print("  %-22s %12s %8s %8s %6s %s" % ("metric", "median", "spread",
                                              "bound", "", "median shift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = ""
            for s, values in enumerate(sets):
                xs = [v[name] for v in values]
                sp = pbstats.spread(xs)
                if name == "setup_s":
                    flag = "(exempt)"
                elif sp > bound:
                    flag, ok = "FAIL", False
                elif sp > bound / 3:
                    flag = "wide"
                else:
                    flag = "ok"
                line += "  %-22s %12.6g %8.4f %8.3f %6s" % (
                    name if s == 0 else "", pbstats.median(xs), sp, bound, flag)
            if len(sets) == 2:
                shift = worse_by(pbstats.median([v[name] for v in sets[0]]),
                                 pbstats.median([v[name] for v in sets[1]]),
                                 m["better"])
                verdict = "ok" if shift <= bound else "FAIL"
                ok = ok and shift <= bound
                line += "  %+.4f %s" % (shift, verdict)
            print(line)
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
