#!/usr/bin/env python3
"""Perf regression gate over BENCH_runtime.json, standard library only.

Three checks, each with an explicit failure message so CI output says
*what* regressed, not just that something did:

  facade tax      facade.overhead_frac (typed sharded path vs the
                  type-erased AnyExample facade over the same workload)
                  must stay at or below --max-facade-overhead
                  (default 0.02). The batch-level typed-scorer dispatch
                  and inline (allocation-free) payload storage are what
                  keep this small; a regression here means per-example
                  virtual dispatch or allocator churn crept back into
                  the hot path.

  shard scaling   shard_sweep examples_per_sec must be monotone
                  non-decreasing in shard count within a noise band:
                  eps[i+1] >= eps[i] * (1 - --scaling-tolerance)
                  (default 0.15 — CI boxes are small and noisy; the
                  pre-work-stealing knee this guards against was a
                  >2x collapse, far outside the band).

  tail latency    observe_to_flag_ms.p99 at the highest shard count
                  must stay at or below --max-p99-ms (default 7.97,
                  the committed 4-shard p99 before work stealing: the
                  largest shard count must now beat the old knee).

Exits nonzero listing every failed check. Used by .github/workflows/ci.yml.
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to BENCH_runtime.json")
    parser.add_argument("--max-facade-overhead", type=float, default=0.02)
    parser.add_argument("--scaling-tolerance", type=float, default=0.15)
    parser.add_argument("--max-p99-ms", type=float, default=7.97)
    args = parser.parse_args()

    with open(args.bench) as handle:
        bench = json.load(handle)
    errors = []

    facade = bench.get("facade")
    if not facade:
        errors.append("missing 'facade' block")
    else:
        overhead = facade.get("overhead_frac")
        if overhead is None:
            errors.append("facade block missing 'overhead_frac'")
        elif overhead > args.max_facade_overhead:
            errors.append(
                f"facade overhead_frac {overhead:.4f} exceeds budget "
                f"{args.max_facade_overhead:.4f}: type-erasure tax is back")

    sweep = bench.get("shard_sweep", [])
    if len(sweep) < 2:
        errors.append("shard_sweep needs at least two entries to gate scaling")
    entries = sorted(sweep, key=lambda entry: entry["shards"])
    for prev, curr in zip(entries, entries[1:]):
        floor = prev["examples_per_sec"] * (1.0 - args.scaling_tolerance)
        if curr["examples_per_sec"] < floor:
            errors.append(
                f"throughput knee: {curr['shards']} shards does "
                f"{curr['examples_per_sec']:.0f} eps, below "
                f"{prev['shards']}-shard floor {floor:.0f} "
                f"(tolerance {args.scaling_tolerance:.0%})")
    if entries:
        top = entries[-1]
        p99 = top.get("observe_to_flag_ms", {}).get("p99")
        if p99 is None:
            errors.append(
                f"{top['shards']}-shard entry missing observe_to_flag_ms.p99")
        elif p99 > args.max_p99_ms:
            errors.append(
                f"tail regression: {top['shards']}-shard p99 {p99:.3f} ms "
                f"exceeds bound {args.max_p99_ms:.3f} ms")

    if errors:
        for message in errors:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1
    print(f"bench gate OK: facade {facade['overhead_frac']:.4f} <= "
          f"{args.max_facade_overhead}, scaling monotone within "
          f"{args.scaling_tolerance:.0%} through {entries[-1]['shards']} "
          f"shards, p99 {entries[-1]['observe_to_flag_ms']['p99']:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
