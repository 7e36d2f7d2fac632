#!/usr/bin/env python3
"""Runs alternating parent/change wirebench pairs and summarises them.

    python3 tools/wirebench_pairs.py --parent DIR --change DIR \\
        --workload video_consistency_wire --pairs 10 --seconds 15 \\
        [--seed 1] [--trace 0|1]

DIR is the root of a checkout (each side builds its own
.bench_build/wirebench on its first run). Pair i runs both sides on seed
`--seed + i`; even pairs run the parent first, odd pairs the change first,
so drift on the host does not favour one side.

For each side it prints the lower quartile, median and upper quartile of
every metric the runs report that BENCHMARK.json lists (the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1), the change of
the median, the parent's quartile spread relative to its median, and how
many pairs the change won. For wire workloads it also prints each run's
share of the flat-out frame cap.

Exit status: 0 when every run reported "correct":true, 1 otherwise.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 300

# Wire workloads: (examples per frame, paced ex/s, max_flat_eps), as in
# Specs() in wirebench/src/wire_workload.cpp.
WIRE_SPECS = {
    "video_consistency_wire": (64, 20000.0, 300000.0),
    "av_wire": (64, 100000.0, 1200000.0),
    "ecg_smallframe_wire": (8, 60000.0, 800000.0),
}
STREAMS = 8          # kStreams
WARMUP_S = 0.5       # kWarmupSeconds
ROUND_S = 0.2        # kRoundSeconds
PACED_SHARE = 0.55   # kPacedShare


def round_down_to_streams(frames):
    return max(STREAMS, int(frames) // STREAMS * STREAMS)


def flat_cap_share(workload, seconds, attempted):
    """Share of the flat-out frame cap a wire run used.

    Mirrors the run geometry in wirebench/src/wire_workload.cpp (the block
    from `frame_rate` to `flat_cap`): `attempted` is every frame sent times
    the frame size, and the frames beyond the warm-up and the paced windows
    are the flat-out ones, which stop at `flat_cap`.
    """
    frame_examples, paced_eps, max_flat_eps = WIRE_SPECS[workload]
    frame_rate = paced_eps / frame_examples
    rounds = int(max(4.0, math.floor(seconds / ROUND_S + 0.5)))
    round_seconds = seconds / rounds
    warm_frames = round_down_to_streams(WARMUP_S * frame_rate)
    window_frames = round_down_to_streams(
        PACED_SHARE * round_seconds * frame_rate)
    flat_cap = round_down_to_streams(
        max_flat_eps * (1.0 - PACED_SHARE) * seconds / frame_examples)
    flat_frames = (attempted // frame_examples - warm_frames -
                   rounds * window_frames)
    return flat_frames / flat_cap


def run_once(tree, workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "wirebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=RUN_TIMEOUT_S)
    lines = done.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False}
    if done.returncode != 0 or not result.get("correct"):
        sys.stderr.write(done.stderr.decode()[-2000:])
        result["correct"] = False
    result["values"] = {name: metric["value"] for name, metric in
                        result.get("metrics", {}).items()}
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seconds = ("%g" % args.seconds)

    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        declared = json.load(f)
    metrics = declared["per_layer" if args.trace else "end_to_end"]

    runs = {"parent": [], "change": []}
    all_correct = True
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(trees[side], args.workload, seed, seconds,
                              args.trace)
            runs[side].append(result)
            all_correct = all_correct and result["correct"]
            line = "pair %d %-6s seed %d correct=%s" % (
                pair, side, seed, str(result["correct"]).lower())
            if args.workload in WIRE_SPECS and "attempted" in result:
                line += " flat_cap_share=%.2f" % flat_cap_share(
                    args.workload, args.seconds, result["attempted"])
            for name in ("capacity_eps", "cpu_us_per_ex"):
                if name in result["values"]:
                    line += " %s=%g" % (name, result["values"][name])
            print(line, flush=True)

    print("\n%s, %d pairs of %s s, --trace %d" % (
        args.workload, args.pairs, seconds, args.trace))
    print("%-36s %-34s %-34s %8s %7s %5s" % (
        "metric", "parent q1 / median / q3", "change q1 / median / q3",
        "median", "spread", "won"))
    for metric in metrics:
        name = metric["name"]
        parent = [r["values"].get(name) for r in runs["parent"]]
        change = [r["values"].get(name) for r in runs["change"]]
        if None in parent or None in change or not parent:
            continue
        pq, cq = quartiles(parent), quartiles(change)
        higher = metric["better"] == "higher"
        won = sum(1 for p, c in zip(parent, change)
                  if (c > p if higher else c < p))
        delta = (cq[1] / pq[1] - 1.0) if pq[1] else float("nan")
        spread = (pq[2] - pq[0]) / pq[1] if pq[1] else float("nan")
        print("%-36s %-34s %-34s %+7.1f%% %7.3f %2d/%-2d" % (
            name, "%.4g / %.4g / %.4g" % pq, "%.4g / %.4g / %.4g" % cq,
            100.0 * delta, spread, won, len(parent)))

    if not all_correct:
        print("some runs did not report \"correct\":true", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
