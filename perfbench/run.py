#!/usr/bin/env python3
"""Build the simulator from source and benchmark one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Prints every metric by name with its
unit, then, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Exits 1 when any run fails an output check (the result
line is still printed) and 2 when the benchmark cannot build or run.
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

EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench", "pb.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/bench/pb.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=700,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


# glibc moves its mmap threshold with the sizes it has freed and trims the
# heap top as it shrinks, so whether a large block costs fresh page faults
# depends on the process's history: relay-n256's set-up settled at either
# ~1.1 or ~1.9 ms for a whole execution. Fixed thresholds serve every block
# from the heap and keep freed memory, so set-up time has one mode.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(64 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


def execute(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=175,
                           env=dict(os.environ, **MALLOC_ENV))
    except (OSError, subprocess.TimeoutExpired) as e:
        die("benchmark did not finish: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("benchmark exited with %d" % r.returncode)
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        die("unreadable benchmark output")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=pbstats.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    build()
    raw = execute(args)
    failures = raw["failures"]
    failed, failed_frac = pbstats.count_failed(failures, raw["attempted"])
    table = pbstats.PER_LAYER if args.trace else pbstats.END_TO_END
    try:
        values = (pbstats.per_layer(raw) if args.trace
                  else pbstats.end_to_end(raw))
    except (ValueError, KeyError, ZeroDivisionError) as e:
        die("cannot compute metrics: %s" % e)
    pbstats.check_names(values)

    print("workload %s  seed %d  trace %d  runs %d"
          % (args.workload, args.seed, args.trace, raw["attempted"]))
    for name, value in values.items():
        print("  %-32s %16.6g %s" % (name, value, table[name][0]))
    if not args.trace:
        print("  %-32s %16.6g %s" % (pbstats.FAILED_FRAC[0], failed_frac,
                                      pbstats.FAILED_FRAC[1]))
    for f in failures:
        print("  FAILED %s: %s (%s)" % (f["run"], f["check"], f["detail"]))

    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
