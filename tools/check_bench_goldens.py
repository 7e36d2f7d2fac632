#!/usr/bin/env python3
"""Re-runs the paper benches and compares their results with the goldens.

    python3 tools/check_bench_goldens.py --build-dir build [--update]

Each bench under bench/golden/<name>.txt is run from the build directory
with no arguments, and its stdout must equal the golden byte for byte. The
benches print only deterministic tables (seeded simulators, no timings), so
there is no tolerance.

Each bench/golden/<name>.seed<N>.json is <name> run with `--seed N --json
FILE`: the JSON it writes, minus the wall-clock fields (TIMING_FIELDS) and
re-serialised canonically, must equal the golden byte for byte. This pins
what bench_loop_convergence's improvement loop publishes (flag rates,
events, model versions, test mAP, label counts) for each documented seed.

--update rewrites the goldens from the current build instead of comparing;
review the diff before committing it.

Exit status: 0 when every bench matches, 1 on a mismatch or a failed run.
"""
import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "bench", "golden")
RUN_TIMEOUT_S = 600
SEEDED_JSON = re.compile(r"^(?P<bench>\w+)\.seed(?P<seed>\d+)\.json$")
# Per-arm fields that measure wall time rather than results.
TIMING_FIELDS = ("ingest_seconds", "ingest_examples_per_sec", "total_seconds")


def run(build_dir, argv):
    return subprocess.run([os.path.join(build_dir, argv[0])] + argv[1:],
                          cwd=build_dir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S)


def stdout_result(build_dir, bench):
    """(exit status, stderr, result bytes) of a bench's plain run."""
    done = run(build_dir, [bench])
    return done.returncode, done.stderr, done.stdout


def seeded_json_result(build_dir, bench, seed):
    """(exit status, stderr, result bytes) of `bench --seed N --json F`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "result.json")
        done = run(build_dir, [bench, "--seed", seed, "--json", path])
        if done.returncode != 0:
            return done.returncode, done.stderr, b""
        with open(path) as f:
            result = json.load(f)
    for arm in result["arms"]:
        for field in TIMING_FIELDS:
            del arm[field]
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    return 0, done.stderr, text.encode()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    cases = []  # (golden file, bench, seed or None)
    for f in sorted(os.listdir(GOLDEN_DIR)):
        seeded = SEEDED_JSON.match(f)
        if f.endswith(".txt"):
            cases.append((f, f[:-4], None))
        elif seeded:
            cases.append((f, seeded.group("bench"), seeded.group("seed")))
    if not cases:
        print("no goldens under " + GOLDEN_DIR, file=sys.stderr)
        return 1
    failed = []
    for golden_file, bench, seed in cases:
        label = os.path.splitext(golden_file)[0]
        golden_path = os.path.join(GOLDEN_DIR, golden_file)
        if seed is None:
            status, stderr, actual = stdout_result(build_dir, bench)
        else:
            status, stderr, actual = seeded_json_result(build_dir, bench, seed)
        if status != 0:
            print("FAIL %s: exit %d\n%s" % (label, status,
                                            stderr.decode()[-2000:]))
            failed.append(label)
            continue
        if args.update:
            with open(golden_path, "wb") as f:
                f.write(actual)
            print("wrote " + golden_path)
            continue
        with open(golden_path, "rb") as f:
            golden = f.read()
        if actual == golden:
            print("ok   " + label)
            continue
        print("FAIL %s: result differs from %s" % (label, golden_path))
        diff = difflib.unified_diff(
            golden.decode(errors="replace").splitlines(),
            actual.decode(errors="replace").splitlines(),
            "golden", "actual", lineterm="")
        print("\n".join(list(diff)[:60]))
        failed.append(label)
    if failed:
        print("%d of %d benches differ: %s" % (len(failed), len(cases),
                                               ", ".join(failed)))
        return 1
    print("all %d bench outputs match their goldens" % len(cases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
