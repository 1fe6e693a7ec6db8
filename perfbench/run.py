#!/usr/bin/env python3
"""Build perfbench from this source tree and run one workload.

    python3 perfbench/run.py --workload acl10k-zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test      # build and run the harness's own tests

Builds into .bench_build/perfbench at the root of the tree (CMake, Release,
incremental on later runs; build output goes to stderr), then runs the
perfbench binary with the given arguments. Its report and final JSON
result line go to stdout, and its exit code is this script's: 0 when
every checked verdict, update and engine run was correct, 1 on any
mismatch, 2 on a usage or setup error. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no pclass source tree next to perfbench/; "
              "nothing to build", file=sys.stderr)
        sys.exit(2)
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return os.path.join(BUILD, target)


def main():
    args = sys.argv[1:]
    if args == ["--test"]:
        return subprocess.run([build("perfbench_tests")]).returncode
    binary = build("perfbench")
    return subprocess.run([binary, "--out", OUT] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
