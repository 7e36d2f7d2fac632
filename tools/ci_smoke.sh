#!/usr/bin/env bash
# Runs the smoke commands against the binaries of one build directory:
#
#     tools/ci_smoke.sh build
#
# CI's build-and-test job runs this and then checks the exports and bench
# JSON it leaves in the build directory (obs_out/, net_out/, the UDS
# server's metrics under /tmp, BENCH_runtime.json, BENCH_loop.json); the
# coverage job runs it so that what these commands execute counts as run.
# Exits non-zero on the first command that fails.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$1"

# The overload example Check-fails unless offered == scored + shed +
# dropped + errored under each admission policy.
./overload_shedding

# Declarative-config smoke: one single-domain scenario plus the
# all-domains mixed one prove parse -> domain registry -> erased suites ->
# one serve::Monitor end to end (the harness Check-fails if the shared
# admission accounting does not reconcile).
./scenario_harness "$repo/configs/av_drive_logs.conf" \
  "$repo/configs/mixed_all_domains.conf" "$repo/configs/mixed_overload.conf"

# Observability smoke: a traced loop-enabled mixed scenario writes a
# Chrome trace plus Prometheus and JSONL metrics exports into obs_out/.
./scenario_harness --trace obs_out --export-metrics obs_out \
  "$repo/configs/mixed_trace_loop.conf"

# Networked ingestion smoke: the mixed-tenant scenario served over a
# Unix-domain socket, driven by the load-generator client. ingest_load
# exits non-zero unless the wire accounting identity (offered == scored +
# shed + dropped + errored + quota_rejected + decode_errors) reconciles
# exactly.
./scenario_harness --serve "$repo/configs/net_mixed_tenants.conf" --trace net_out &
server=$!
for _ in $(seq 1 100); do
  [ -S /tmp/omg_mixed_tenants.sock ] && break
  sleep 0.1
done
./ingest_load --connect uds:/tmp/omg_mixed_tenants.sock \
  --streams "alpha@cam-alpha:video,beta@ward-beta:ecg" \
  --tokens "alpha:alpha-secret,beta:beta-secret" \
  --connections 2 --examples 4096 --batch 32
wait "$server"

# Golden-trace replay gate: every shipped trace under traces/ must replay
# deterministically (two byte-identical flag documents) to its committed
# golden digest, in-process and over a Unix-domain socket, with exact
# accounting. A digest change means scoring behaviour changed; update the
# goldens deliberately (docs/REPLAY.md).
python3 "$repo/tools/check_replay_golden.py" --harness ./scenario_harness \
  --repo "$repo" --uds

# Runtime throughput smoke (shard sweep, saturation).
./bench_runtime_throughput --examples 2000 --shards 1,2,4 --json BENCH_runtime.json

# Improvement-loop convergence smoke.
./bench_loop_convergence --json BENCH_loop.json
