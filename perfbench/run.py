#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bds_perf.exe from
source with dune, then runs it with the same arguments; its last line
of standard output is the run's JSON result.  Build output goes to
standard error.  Exits non-zero, without a result, if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bds_perf.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "perfbench", "bds_perf.ml")):
        print("run.py: run me from the root of the repository", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bds_perf.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 2
    os.makedirs(OUT, exist_ok=True)
    # The runtime's event ring (read back by the traced run) is a file;
    # keep it inside the checkout.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
