#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny-size pass of every workload.

    python3 perfbench/smoke.py

Runs each of the four workloads at the smoke-test size, untraced and traced,
through perfbench/run.py (miss-surrogate too, which BENCHMARK.json does not
gate; see perfbench/README.md). Every run must print every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json with its unit,
report correct answers and no failures, and reach ok_pct = 100 untraced.
Exits non-zero if any run fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("nasloop-hit", "miss-exact", "miss-surrogate", "cosearch")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                   proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s (trace %d)" % (workload, trace)
            try:
                result = run(workload, trace)
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == want, "metrics differ: missing %s, extra %s" % (
                    sorted(set(want) - set(got)), sorted(set(got) - set(want)))
                assert result["correct"] and result["failed"] == 0, result
                assert result["attempted"] >= 1, result
                if trace == 0:
                    ok = result["metrics"]["ok_pct"]["value"]
                    assert ok == 100, "ok_pct %s" % ok
                print("ok   %s" % name)
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                failures += 1
                print("FAIL %s: %s" % (name, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
