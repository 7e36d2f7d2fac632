#!/usr/bin/env python3
"""Builds and runs the wire-to-flag benchmark.

    python3 wirebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark into .bench_build/wirebench (Release); later calls
only rebuild what changed. The benchmark's own output passes through: the
last stdout line is the result JSON, and a failed correctness check exits
non-zero without one. See wirebench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wirebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("wirebench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    """HEAD of the checkout's own .git, without looking above the root."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(git, name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "wirebench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    build()
    command = [os.path.join(BUILD, "wirebench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    env = dict(os.environ, WIREBENCH_GIT_SHA=git_sha())
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
