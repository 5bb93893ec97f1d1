#!/usr/bin/env python3
"""Builds the gateway benchmark and runs one workload.

Run from the repository root:

    python3 gwbench/run.py --workload tcp_bulk --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's JSON result. Cargo's
output goes to standard error. The build honours CARGO_TARGET_DIR and
otherwise uses gwbench/target. Traced runs (--trace 1) write their span
dump and layer ledger to gwbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("gwbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(os.path.abspath(target), "release", "gwbench")
    argv = sys.argv[1:]
    if "--out" not in argv:
        argv += ["--out", os.path.join(HERE, "out")]
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main())
