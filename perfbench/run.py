#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the repo's libraries, the ringdde_node launcher and the benchmark
driver from source (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build/ under the current directory), then runs one workload:

    python3 perfbench/run.py --workload local-estimate --seed 1 \
        --seconds 10 --trace 0

Run it from the repo root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("local-estimate", "wire-serve", "live-churn")
HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def configured_source(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return os.path.realpath(line.split("=", 1)[1].strip())
    return None


def build(out):
    """Configures once, then brings the driver and node up to date."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench: %s is missing; run from a full "
                             "ringdde checkout\n" % needed)
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache) and configured_source(cache) != HERE:
        shutil.rmtree(out)  # a build of another checkout; start over
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=300).returncode != 0:
            return False
    cmd = ["cmake", "--build", out, "--target", "perfbench_driver",
           "ringdde_node", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=840).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    out = build_dir()
    try:
        if not build(out):
            sys.stderr.write("perfbench: build failed\n")
            return 2
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 2

    driver = os.path.join(out, "perfbench_driver")
    node = os.path.join(out, "ringdde_tools", "ringdde_node")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--node-bin", node]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
