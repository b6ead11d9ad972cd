#!/usr/bin/env python3
"""Build the benchmark and the blindbox CLI from source, then run it.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to dune's _build directory inside the checkout (shared
cache off, so nothing is written elsewhere).  A failed build exits
non-zero without printing a result.  The arguments are passed to the
benchmark executable unchanged; its last line of standard output is the
JSON result.
"""

import os
import subprocess
import sys

TARGETS = ["./e2ebench/main.exe", "./bin/blindbox_cli.exe"]


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", *TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "e2ebench", "main.exe")
    cli = os.path.join("_build", "default", "bin", "blindbox_cli.exe")
    sys.stdout.flush()
    os.execv(exe, [exe, *sys.argv[1:], "--blindbox", cli])


if __name__ == "__main__":
    sys.exit(main())
