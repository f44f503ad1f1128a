#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build in the checkout; dune's output goes
to standard error so that the benchmark's JSON result stays the last
line of standard output. Exits non-zero, printing no result, when the
build fails, as it does outside a full checkout.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bin/main.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
