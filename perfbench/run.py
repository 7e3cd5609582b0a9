#!/usr/bin/env python3
"""Build the benchmark program from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus perfbench) into
.bench_build/perfbench; later runs only rebuild what changed. perfbench runs
with DANCE_NUM_THREADS=1 and every other DANCE_* variable removed, so it
measures the library's default serving and search paths.

An untraced full-size run splits its time over PROCESSES perfbench processes,
one after another, each on its own part of the seed's input stream. On a shared VM
the host's other tenants slow a process down for seconds at a time and never
speed it up. Serve requests are all alike, so for a serve workload p50_us and
cpu_us_per_req are the lowest over the processes: the least disturbed one.
Searches differ from seed to seed, and the lowest would pick the process with
the cheapest seeds, so for cosearch they are the median. setup_s and
peak_rss_mb are always the median, and ok_pct counts every request.
Traced and tiny runs use one process.
The last line of stdout is the JSON result; traced runs write their spans to
.bench_build/traces/.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("nasloop-hit", "miss-exact", "miss-surrogate", "cosearch")
LANES = "1"
PROCESSES = 6
# Combined as the median over processes; the other timings take the lowest,
# except in MEDIAN_WORKLOADS (see the module docstring).
MEDIAN_OF_PROCESSES = ("setup_s", "peak_rss_mb")
MEDIAN_WORKLOADS = ("cosearch",)
RUN_BUDGET_S = 170


def build():
    """Configure (once) and build perfbench; build output goes to stderr."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def combine(results, lowest):
    """One result from several processes (see the module docstring)."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == "ok_pct":
            value = 100.0 * (attempted - failed) / max(attempted, 1)
        elif lowest and name not in MEDIAN_OF_PROCESSES:
            value = min(values)
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("DANCE_")}
    env["DANCE_NUM_THREADS"] = LANES
    processes = PROCESSES if args.trace == 0 and args.size == "full" else 1
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / processes), "--trace", str(args.trace),
            "--size", args.size]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        base += ["--trace-dir", trace_dir]

    deadline = time.monotonic() + RUN_BUDGET_S
    results = []
    for part in range(processes):
        try:
            proc = subprocess.run(base + ["--part", str(part)], env=env, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("perfbench: %s did not finish in time" % args.workload, file=sys.stderr)
            return 3
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            print("perfbench: exited %d" % proc.returncode, file=sys.stderr)
            return proc.returncode or 1
        if processes > 1:
            print("--- process %d of %d" % (part + 1, processes))
        print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))

    if processes > 1:
        result = combine(results, args.workload not in MEDIAN_WORKLOADS)
        print("--- combined over %d processes:" % processes)
        for name, m in result["metrics"].items():
            print("  %-20s %14.4f %s" % (name, m["value"], m["unit"]))
    else:
        result = results[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
