#!/usr/bin/env python3
"""Builds the benchmark from source (Release) and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload ro_snapshot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the repository root. All
build output goes to standard error; the benchmark's last line of
standard output is one JSON object with the result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    sys.stdout.flush()
    result = subprocess.run([BINARY] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
