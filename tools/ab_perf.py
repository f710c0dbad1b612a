#!/usr/bin/env python3
"""A/B the benchmark's end-to-end metrics between two checkouts.

    python3 tools/ab_perf.py PARENT_ROOT CHANGE_ROOT --workload W \\
        --pairs N --seconds S [--first-seed K]

Runs each checkout's own `perfbench/run.py --trace 0` (which builds that
checkout's perfbench package on first use) in N alternating pairs: the
side that runs first alternates from pair to pair, and pair i runs both
sides at seed K + i. One discarded warm-up run per side builds both
packages first. Nothing in either checkout is edited.

It prints every pair, then for each end-to-end metric of BENCHMARK.json
each side's median and quartiles, the change/parent ratio of the
medians, the pairs the change won (ties count for neither side), and
two verdicts:

  gain   the change won at least 9/10 of the pairs and the medians
         differ by more than the parent's interquartile range (the
         rule a claimed gain must meet);
  bound  the change's median is no worse than the parent's by more
         than the metric's bound in BENCHMARK.json.

Quartiles interpolate linearly between the sorted runs. Exits 1 when a
run fails or reports incorrect output, 0 otherwise.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def end_to_end_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["end_to_end"]


def run_once(root, workload, seed, seconds):
    """The end-to-end metrics of one run of root's benchmark, or None."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        print("ab_perf: %s seed %d exited with code %d"
              % (root, seed, proc.returncode), file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        print("ab_perf: %s seed %d: correct %s, %d of %d failed"
              % (root, seed, result["correct"], result["failed"],
                 result["attempted"]), file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3) with linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    metrics = end_to_end_metrics(roots["change"])
    if [m["name"] for m in metrics] != [
            m["name"] for m in end_to_end_metrics(roots["parent"])]:
        print("ab_perf: the checkouts' BENCHMARK.json name different "
              "end-to-end metrics", file=sys.stderr)
        return 1

    for side, root in roots.items():
        print("warm-up (builds) %s: %s" % (side, root), flush=True)
        if run_once(root, args.workload, args.first_seed,
                    min(args.seconds, 1.0)) is None:
            return 1

    runs = {"parent": [], "change": []}
    names = [m["name"] for m in metrics]
    print("pair seed first  " + "  ".join(
        "%s parent/change" % n for n in names), flush=True)
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed,
                                  args.seconds)
            if pair[side] is None:
                return 1
        for side in order:
            runs[side].append(pair[side])
        print("%4d %4d %-6s " % (i + 1, seed, order[0]) + "  ".join(
            "%.4g/%.4g" % (pair["parent"][n], pair["change"][n])
            for n in names), flush=True)

    print()
    print("%s, %d pairs of %g s, seeds %d..%d"
          % (args.workload, args.pairs, args.seconds, args.first_seed,
             args.first_seed + args.pairs - 1))
    header = ("metric", "unit", "better", "parent median [q1-q3]",
              "change median [q1-q3]", "change/parent", "wins", "ties",
              "gain", "bound")
    rows = []
    need = math.ceil(0.9 * args.pairs)
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        better = cmed > pmed if higher else cmed < pmed
        gain = wins >= need and better and abs(cmed - pmed) > pq3 - pq1
        worse_by = (pmed - cmed) if higher else (cmed - pmed)
        within = worse_by <= m["bound"] * abs(pmed)
        rows.append((name, m["unit"], m["better"],
                     "%.4g [%.4g-%.4g]" % (pmed, pq1, pq3),
                     "%.4g [%.4g-%.4g]" % (cmed, cq1, cq3),
                     "%.4f" % (cmed / pmed) if pmed else "-",
                     "%d/%d" % (wins, args.pairs), str(ties),
                     "yes" if gain else "no",
                     "ok" if within else "WORSE"))
    widths = [max(len(r[c]) for r in rows + [header])
              for c in range(len(header))]
    for r in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
