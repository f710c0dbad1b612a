#!/usr/bin/env python3
"""Gate the simulator's speed on the perfbench ledger.

    python3 tools/check_perf.py

Runs perfbench/run.py --trace 0 once on each gated workload and exits 1
when a run fails, reports correct: false or failed > 0, measures a
sim_s_per_wall_s more than TOLERANCE below the workload's median in
BENCH_perf.json, or a peak_rss_mb more than RSS_TOLERANCE above it. It
takes no flags; CI's perf-smoke job runs it.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Single-point workloads run on one thread, so for a fixed workload
# sim_s_per_wall_s is proportional to events/sec. chain_chaos is one of
# them, and the only one that runs client timeouts, faults, resilience
# and forwarding. The multi-point sweep's throughput follows the
# runner's core count instead, so it stays out of the gate.
GATED = ("host_nmap_high", "cluster_flowhash_high", "chain_chaos")
SEED = 1
SECONDS = 5
# Hosted runners are slower and noisier than the ledger's machine: only
# a drop of more than 40% fails.
TOLERANCE = 0.4
# Peak RSS barely depends on the machine (allocators differ by a few
# MiB), so it gets a tighter ceiling. All three gated workloads read
# the floor run.py itself sets: ru_maxrss includes the high-water mark
# of the Python process the benchmark is started from (~18 MiB), so
# the ceiling only catches a regression that lifts the binary's own
# peak more than ~5 MiB above that floor.
RSS_TOLERANCE = 0.3


def measure(workload):
    """The metrics of one checked run; None if the run failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("%s: perfbench/run.py exited with code %d: FAIL"
              % (workload, proc.returncode))
        return None
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        print("%s: correct %s, %d of %d iterations failed: FAIL"
              % (workload, result["correct"], result["failed"],
                 result["attempted"]))
        return None
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCH_perf.json"), encoding="utf-8") as f:
        ledger = json.load(f)["workloads"]
    ok = True
    for workload in GATED:
        metrics = measure(workload)
        if metrics is None:
            ok = False
            continue
        speed = metrics["sim_s_per_wall_s"]["value"]
        base = ledger[workload]["sim_s_per_wall_s"]["median"]
        floor = base * (1.0 - TOLERANCE)
        passed = speed >= floor
        print("%s %.3f s/s vs ledger %.3f (floor %.3f): %s"
              % (workload, speed, base, floor, "ok" if passed else "FAIL"))
        ok = ok and passed
        rss = metrics["peak_rss_mb"]["value"]
        base = ledger[workload]["peak_rss_mb"]["median"]
        ceiling = base * (1.0 + RSS_TOLERANCE)
        passed = rss <= ceiling
        print("%s %.1f MiB vs ledger %.1f (ceiling %.1f): %s"
              % (workload, rss, base, ceiling, "ok" if passed else "FAIL"))
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
