#!/usr/bin/env python3
"""Interleaved A/B comparison of two source trees on the same benchmark.

    python3 perfbench/ab.py BASE_TREE CHANGE_TREE --work DIR
                            [--pairs 10] [--seconds S] [--first-seed 1]
                            [WORKLOAD ...]

Each tree is copied into DIR (without its build directory) and this
benchmark — this perfbench directory and BENCHMARK.json — is laid over
both copies, so both sides run identical benchmark code against their own
simulator sources. Executions alternate: pair i runs both sides on seed
first_seed + i, and which side runs first flips with every pair. For every
workload and end-to-end metric it prints each side's median and quartiles,
the pairs the change won (ties count for neither side), and the verdict of
the rule for claiming a gain: the change wins at least nine tenths of the
pairs and the medians differ by more than the base's own interquartile
range. "regressed" means the change's median is worse than the base's by
more than the metric's bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)


def prepare(src, dest):
    if os.path.exists(dest):
        shutil.rmtree(dest)
    shutil.copytree(src, dest, symlinks=True,
                    ignore=shutil.ignore_patterns("_build", ".git"))
    bench_dest = os.path.join(dest, BENCH_DIR)
    if os.path.exists(bench_dest):
        shutil.rmtree(bench_dest)
    shutil.copytree(HERE, bench_dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        raise SystemExit("run failed in %s: %s seed %d" % (tree, workload, seed))
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(base, change, better, bound):
    """Wins of the change, and the verdict, over paired values."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (b - c) < 0)
    bq1, bmed, bq3 = summary(base)
    _, cmed, _ = summary(change)
    gain = sign * (bmed - cmed)
    if wins >= 0.9 * len(base) and gain > bq3 - bq1:
        word = "gain"
    elif -gain > bound * bmed:
        word = "regressed"
    elif bq3 - bq1 > bound * bmed:
        word = "unresolved"
    else:
        word = "same"
    return wins, losses, word


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--work", required=True,
                    help="scratch directory for the two copies")
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_intermixed_args()
    if args.pairs < 4:
        raise SystemExit("--pairs must be at least 4 for quartiles")

    trees = {"base": os.path.join(args.work, "base"),
             "change": os.path.join(args.work, "change")}
    prepare(args.base, trees["base"])
    prepare(args.change, trees["change"])

    for w in args.workloads:
        values = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                values[side].append(run_once(trees[side], w, seed, args.seconds))
            print("  %s pair %d (%s first) done" % (w, i + 1, order[0]),
                  file=sys.stderr, flush=True)
        print("== %s: %d alternating pairs, %d s per run" % (w, args.pairs,
                                                            args.seconds))
        print("  %-22s %-34s %-34s %5s %6s %s" % (
            "metric", "base q1/median/q3", "change q1/median/q3", "wins",
            "losses", "verdict"))
        for m in bench["end_to_end"]:
            name = m["name"]
            base = [v[name] for v in values["base"]]
            change = [v[name] for v in values["change"]]
            wins, losses, word = verdict(base, change, m["better"], m["bound"])
            print("  %-22s %-34s %-34s %5d %6d %s" % (
                name, "%.4g / %.4g / %.4g" % summary(base),
                "%.4g / %.4g / %.4g" % summary(change), wins, losses, word))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
