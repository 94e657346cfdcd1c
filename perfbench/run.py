#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload active_lp --seed 1 --seconds 20 --trace 0

The arguments are passed to the benchmark executable unchanged; its
last line of output is the JSON result. The build uses dune with its
shared cache disabled, so it reads and writes only under the checkout.
"""
import os
import subprocess
import sys

TARGET = "./perfbench/bench.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
