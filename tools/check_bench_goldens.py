#!/usr/bin/env python3
"""Re-runs the paper benches and compares their stdout with the goldens.

    python3 tools/check_bench_goldens.py --build-dir build [--update]

Each bench under bench/golden/<name>.txt is run from the build directory
with no arguments, and its stdout must equal the golden byte for byte. The
benches print only deterministic tables (seeded simulators, no timings), so
there is no tolerance. --update rewrites the goldens from the current build
instead of comparing; review the diff before committing it.

Exit status: 0 when every bench matches, 1 on a mismatch or a failed run.
"""
import argparse
import difflib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "bench", "golden")
RUN_TIMEOUT_S = 600


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    names = sorted(f[:-4] for f in os.listdir(GOLDEN_DIR)
                   if f.endswith(".txt"))
    if not names:
        print("no goldens under " + GOLDEN_DIR, file=sys.stderr)
        return 1
    failed = []
    for name in names:
        golden_path = os.path.join(GOLDEN_DIR, name + ".txt")
        done = subprocess.run([os.path.join(build_dir, name)], cwd=build_dir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            print("FAIL %s: exit %d\n%s" % (name, done.returncode,
                                            done.stderr.decode()[-2000:]))
            failed.append(name)
            continue
        if args.update:
            with open(golden_path, "wb") as f:
                f.write(done.stdout)
            print("wrote " + golden_path)
            continue
        with open(golden_path, "rb") as f:
            golden = f.read()
        if done.stdout == golden:
            print("ok   " + name)
            continue
        print("FAIL %s: stdout differs from %s" % (name, golden_path))
        diff = difflib.unified_diff(
            golden.decode(errors="replace").splitlines(),
            done.stdout.decode(errors="replace").splitlines(),
            "golden", "actual", lineterm="")
        print("\n".join(list(diff)[:60]))
        failed.append(name)
    if failed:
        print("%d of %d benches differ: %s" % (len(failed), len(names),
                                               ", ".join(failed)))
        return 1
    print("all %d bench outputs match their goldens" % len(names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
