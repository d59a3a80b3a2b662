#!/usr/bin/env python3
"""Builds and runs the end-to-end rewrite-request benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload hf_fixpoint --seed 1 --seconds 20 --trace 0

The first run configures and builds the pypm library plus the e2ebench
program into .bench_build/e2ebench (cmake, Release); later runs only
re-check the build. Build output goes to stderr, so the last stdout line
stays the benchmark's JSON result. Exits non-zero, printing no result, when
the build fails (for example when the library sources are absent).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: pypm sources (src/) not found next to e2ebench/",
              file=sys.stderr)
        return 2
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
