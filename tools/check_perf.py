#!/usr/bin/env python3
"""Gate the simulator's speed on the perfbench ledger.

    python3 tools/check_perf.py

Runs perfbench/run.py --trace 0 once on each gated workload and exits 1
when a run fails, reports correct: false or failed > 0, or measures a
sim_s_per_wall_s more than TOLERANCE below the workload's median in
BENCH_perf.json. It takes no flags; CI's perf-smoke job runs it.
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


def measure(workload):
    """sim_s_per_wall_s of one checked run; None if the run failed."""
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
    return result["metrics"]["sim_s_per_wall_s"]["value"]


def main():
    with open(os.path.join(ROOT, "BENCH_perf.json"), encoding="utf-8") as f:
        ledger = json.load(f)["workloads"]
    ok = True
    for workload in GATED:
        measured = measure(workload)
        if measured is None:
            ok = False
            continue
        base = ledger[workload]["sim_s_per_wall_s"]["median"]
        floor = base * (1.0 - TOLERANCE)
        passed = measured >= floor
        print("%s %.3f vs ledger %.3f (floor %.3f): %s"
              % (workload, measured, base, floor, "ok" if passed else "FAIL"))
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
