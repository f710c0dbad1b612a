#!/usr/bin/env python3
"""Build and run the nmapsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds the standalone
CMake package in perfbench/ (Release, LTO) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload and relays the benchmark
binary's output, checking its metric names and units against BENCHMARK.json.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer ones with --trace 1. Each run also leaves a result file (and, when traced, a span
file) under .bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def call(cmd):
    """Run cmd to completion, its stdout folded into our stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configure (once) and build the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PACKAGE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if call(cmd) != 0:
            fail("cmake configure failed")
    if call(["cmake", "--build", out, "--target", "nmapsim_perfbench",
             "-j", str(BUILD_JOBS)]) != 0:
        fail("build failed")
    return os.path.join(out, "nmapsim_perfbench")


def source_hash():
    """sha256 over src/ (paths and bytes): identifies the code measured,
    also in checkouts that are not git repositories."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build(build_dir())
    expected = expected_metrics(args.trace)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--conf-dir", os.path.join(PACKAGE, "workloads"),
           "--out-dir", out_dir, "--commit", git_commit(),
           "--source-hash", source_hash()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("nmapsim_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        fail("nmapsim_perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("metric names differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(expected)))
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit))

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
