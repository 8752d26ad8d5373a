#!/usr/bin/env python3
"""Run one workload of the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload quad_emc --seed 1 --seconds 36 --trace 0

Builds the emcbench driver from source with CMake (Release) into
.bench_build/perfbench/ at the repository root, configuring once and
rebuilding only what changed, then runs it. emcbench prints one line
per metric with its unit and, as the last line of stdout, the JSON
summary {"correct", "attempted", "failed", "metrics"}. Build output
goes to stderr. Exits non-zero without a summary when the build
fails, for instance when the simulator sources are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("quad_emc", "stream_writeback", "warm_sweep")
# A run must end within 180 s; emcbench itself stops well before.
RUN_TIMEOUT_S = 170


def build():
    """Configure (first run only) and build emcbench; return its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "emcbench",
                    "--parallel", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "emcbench")


def main():
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: smoke-test run lengths")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--size", a.size, "--out-dir", out_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: emcbench ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
