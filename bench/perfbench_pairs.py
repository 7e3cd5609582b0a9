#!/usr/bin/env python3
"""Run alternating parent/change pairs of one perfbench workload into a CSV.

    python3 bench/perfbench_pairs.py --parent DIR --change DIR --workload W
                                     --seed S --pairs N --out FILE
                                     [--seconds 18] [--first-pair K] [--trace]

DIR is the root of a checkout. Each side runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in its
own checkout, and the end-to-end metrics of its JSON result become one row.
Pair k runs the parent first when k is odd and the change first when k is
even, so neither side always gets the quieter slot.

For cosearch, each side also runs its built perfbench binary directly, once
for 2 s and once for 8 s, and reads getrusage(RUSAGE_CHILDREN) around each
run. The difference between the two runs, divided by the difference in
searches, is the minor page faults and system CPU time of one search, with
set-up cancelled out. Other workloads leave those two columns empty.

With --trace each side runs with `--trace 1` instead, and a row holds the
hit path's per-layer metrics (TRACE_METRICS) in place of the end-to-end ones,
so traced rows go to a FILE of their own.

Rows are appended; the header is written when FILE does not exist yet.
"""
import argparse
import csv
import json
import os
import resource
import subprocess
import sys

METRICS = ("p50_us", "cpu_us_per_req", "setup_s", "peak_rss_mb", "ok_pct")
TRACE_METRICS = ("wire.parse_us", "service.query_us", "wire.serialize_us",
                 "trace.overhead_pct")
KEYS = ("workload", "seed", "pair", "run_order", "side")
COLUMNS = KEYS + METRICS + ("minflt_per_search", "sys_ms_per_search")
SHORT_S, LONG_S = 2.0, 8.0


def last_json(stdout):
    return json.loads(stdout.rstrip("\n").splitlines()[-1])


def bench(root, workload, seed, seconds, names, trace=False):
    """The metrics `names` of one run.py run in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "1" if trace else "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    metrics = last_json(proc.stdout)["metrics"]
    return {name: metrics[name]["value"] for name in names}


def searches_and_usage(root, seed, seconds):
    """(searches, minor faults, system seconds) of one direct cosearch run."""
    binary = os.path.join(root, ".bench_build", "perfbench", "perfbench")
    env = {k: v for k, v in os.environ.items() if not k.startswith("DANCE_")}
    env["DANCE_NUM_THREADS"] = "1"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [binary, "--workload", "cosearch", "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0", "--part", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (last_json(proc.stdout)["attempted"], after.ru_minflt - before.ru_minflt,
            after.ru_stime - before.ru_stime)


def per_search(root, seed):
    n0, f0, s0 = searches_and_usage(root, seed, SHORT_S)
    n1, f1, s1 = searches_and_usage(root, seed, LONG_S)
    if n1 <= n0:
        raise RuntimeError("the long run did no more searches than the short one")
    return (f1 - f0) / (n1 - n0), 1e3 * (s1 - s0) / (n1 - n0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--first-pair", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    names = TRACE_METRICS if args.trace else METRICS

    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    new_file = not os.path.exists(args.out)
    with open(args.out, "a", newline="") as f:
        out = csv.writer(f)
        if new_file:
            out.writerow(KEYS + names if args.trace else COLUMNS)
        for pair in range(args.first_pair, args.first_pair + args.pairs):
            sides = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
            for slot, side in enumerate(sides):
                order = 2 * (pair - 1) + slot + 1
                m = bench(roots[side], args.workload, args.seed, args.seconds,
                          names, args.trace)
                usage = []
                if not args.trace:
                    usage = ["", ""]
                    if args.workload == "cosearch":
                        usage = ["%.1f" % v for v in per_search(roots[side], args.seed)]
                out.writerow([args.workload, args.seed, pair, order, side] +
                             ["%.4f" % m[name] for name in names] + usage)
                f.flush()
                print("%s seed %d pair %d %s: %s %.2f" %
                      (args.workload, args.seed, pair, side, names[0], m[names[0]]),
                      file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
