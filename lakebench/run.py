#!/usr/bin/env python3
"""Builds lakebench from this checkout's sources, then runs one measurement.

    python3 lakebench/run.py --workload analyst_queries --seed 1 \\
        --seconds 10 --trace 0

Run it from the root of a checkout. The build (CMake, Release) goes to
.bench_build/lakebench and is incremental, so only the first call pays
for compiling. Every argument is passed to the lakebench binary, whose
last line on stdout is the result JSON. Build output goes to stderr.
Exits non-zero without a result when the build fails, for instance when
the platform sources under src/ are missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "lakebench")
# A measurement ends well within this; the build is not counted.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "lakebench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "lakebench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"lakebench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"lakebench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
