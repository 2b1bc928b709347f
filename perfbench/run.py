#!/usr/bin/env python3
"""Build and run the FPPN benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/fppn_bench.exe (release profile, dune cache off, build
directory .bench_build) and runs it with the given arguments.  Build
output goes to stderr; the benchmark's last stdout line is its JSON
result.  Exits non-zero, printing no result, when the checkout has no
FPPN sources, the build fails or the benchmark fails or overruns.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/fppn_bench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "fppn_bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", TARGET]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of an FPPN checkout", file=sys.stderr)
        return 2
    if not build():
        return 3
    try:
        done = subprocess.run([EXE] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark overran its time limit", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
