#!/usr/bin/env python3
"""Build and run the Phloem repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, on top of ../src) into .bench_build/;
later calls rebuild incrementally. The benchmark binary's stdout ends with
one JSON result line, which this script re-prints as its own last line.
Traced runs also write Chrome trace JSON to .bench_build/traces/.
--selftest builds everything and runs the benchmark's own tests (ctest).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORKLOADS = ["native-graph", "native-handoff", "sim-sweep", "service-mix"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets`; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    configured = any(os.path.exists(os.path.join(CMAKE_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs]
    for t in targets:
        cmd += ["--target", t]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def clean_env():
    """The process environment without PHLOEM_* overrides (tier, scheduler)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PHLOEM_")}


def selftest():
    if not build(["all"]):
        return 1
    return subprocess.run(["ctest", "--output-on-failure"], cwd=CMAKE_DIR,
                          env=clean_env()).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not build(["phloem-perfbench"]):
        log("build failed")
        return 1
    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(CMAKE_DIR, "phloem-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--run-dir", os.path.relpath(run_dir, ROOT)]
    if args.trace == "1":
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log(f"no result line (exit code {proc.returncode})")
        return 1
    print(lines[-1], flush=True)
    return proc.returncode if proc.returncode else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
