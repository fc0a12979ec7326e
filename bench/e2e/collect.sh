#!/usr/bin/env bash
# Runs every workload RUNS times, one fresh seed per round of workloads and
# the workload order rotated each round, and stores each run's result line
# as OUT_DIR/<workload>.seed<N>.json for compare.py.
#
#   bench/e2e/collect.sh OUT_DIR [RUNS=10] [FIRST_SEED=1] [TRACE=0]
set -euo pipefail

out="$1"
runs="${2:-10}"
first_seed="${3:-1}"
trace="${4:-0}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$here/../../BENCHMARK.json")"
workloads=(mms-inproc cs104-persistent iec104-tcp-session modbus-supervised-2w)

mkdir -p "$out"
for ((i = 0; i < runs; i++)); do
  seed=$((first_seed + i))
  for ((k = 0; k < ${#workloads[@]}; k++)); do
    name="${workloads[$(((i + k) % ${#workloads[@]}))]}"
    bash "$here/run.sh" --workload "$name" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" | tail -n 1 >"$out/$name.seed$seed.json"
  done
done
