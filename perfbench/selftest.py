#!/usr/bin/env python3
"""Checks the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py [--no-smoke]

1. The same seed produces byte-identical request streams, and another seed
   different ones, for every workload.
2. The smoke mode (`run.py --smoke`) runs every workload briefly in both
   trace modes; each printed result must be correct and carry exactly the
   metric names of BENCHMARK.json.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

STREAMS = ("setup.txt", "stream.txt", "warm.txt", "ingest.txt")


def check_streams(exe):
    base = os.path.join(run.BUILD, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    failures = []
    for workload in run.WORKLOADS:
        dirs = {}
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            d = os.path.join(base, f"{workload}-{tag}")
            run.harness(exe, "prepare", "--workload", workload, "--seed", seed,
                        "--dir", d, "--lines", 3000, "--ingest-lines", 200)
            dirs[tag] = d
        for name in STREAMS:
            a, b, c = (os.path.join(dirs[t], name) for t in "abc")
            if not filecmp.cmp(a, b, shallow=False):
                failures.append(f"{workload}/{name}: same seed, different bytes")
            if os.path.getsize(a) > 0 and filecmp.cmp(a, c, shallow=False):
                failures.append(f"{workload}/{name}: another seed, same bytes")
    shutil.rmtree(base, ignore_errors=True)
    return failures


def check_smoke():
    spec = run.spec_file()
    want = {0: sorted(m["name"] for m in spec["end_to_end"]),
            1: sorted(m["name"] for m in spec["per_layer"])}
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True)
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    failures = []
    if proc.returncode != 0:
        failures.append("smoke run failed: " + proc.stderr.strip()[-500:])
    if len(results) != 2 * len(run.WORKLOADS):
        failures.append(f"smoke printed {len(results)} results")
    for i, res in enumerate(results):
        names = sorted(res["metrics"])
        if names not in (want[0], want[1]) or names != want[i % 2]:
            failures.append(f"result {i}: metric names differ from BENCHMARK.json")
        if not res["correct"]:
            failures.append(f"result {i}: not correct")
    return failures


def main():
    exe, _ = run.build()
    failures = check_streams(exe)
    print(f"streams: {'ok' if not failures else 'FAILED'}")
    if "--no-smoke" not in sys.argv:
        smoke = check_smoke()
        print(f"smoke: {'ok' if not smoke else 'FAILED'}")
        failures += smoke
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
