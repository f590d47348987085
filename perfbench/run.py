#!/usr/bin/env python3
"""Builds the Cyclops libraries and the perfbench program from source, then runs
one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pr-web|ingest-serve|recover-log \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout; its output goes to standard error. The program's standard
output is passed through unchanged: one line per metric, then the JSON result
as the last line. The exit code is the program's (0 correct, 1 a correctness
check failed, 2 bad usage); a failed build exits 2 without a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pr-web", "ingest-serve", "recover-log")


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: program sources (src/) are missing from this checkout",
              file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test scale: small graphs, one round")
    p.add_argument("--plant", action="store_true",
                   help="self-test: corrupt one vertex value; the run must fail")
    a = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)
    if exe is None:
        return 2
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace), "--out-dir", out_dir]
    if a.tiny:
        cmd.append("--tiny")
    if a.plant:
        cmd.append("--plant")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
