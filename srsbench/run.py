#!/usr/bin/env python3
"""Build and run the SRS benchmark from the root of a source checkout.

    python3 srsbench/run.py --workload srs_push --seed 1 --seconds 20 --trace 0

Builds srsbench/srsbench.exe with dune (only what it links), then runs
it with the same arguments. The benchmark prints its result as the last
line of standard output; a failed build or run exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TARGET = "./srsbench/srsbench.exe"


def main(argv):
    root = os.getcwd()
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, TARGET],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("srsbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "srsbench", "srsbench.exe")
    try:
        run = subprocess.run([exe] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("srsbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, subprocess.SubprocessError) as e:
        print("srsbench: %s" % e, file=sys.stderr)
        sys.exit(1)
