#!/usr/bin/env bash
# Builds and runs the whole-campaign benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bench/e2e/run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>]
#   bench/e2e/run.sh --smoke
#
# With --workload, the last line of stdout is that workload's result object.
# Without it, every workload runs in its own process and the results are
# merged into one document keyed by workload name. --smoke runs every
# workload at 1/50 budget, untraced and traced, and checks that each metric
# BENCHMARK.json names is emitted with its unit and that the traced time
# shares sum to 100.
#
# The build (Release, build/e2e under the repository root) is refreshed
# first; its log goes to build/e2e/build.log, never to stdout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build/e2e"
work="$build/work"
workloads=(mms-inproc cs104-persistent iec104-tcp-session modbus-supervised-2w)

workload=""
seed=1
seconds=20
trace=0
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
if ! { cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$jobs"; } >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi
driver="$build/icsfuzz-e2e"

if (( smoke )); then
  results="$work/smoke"
  mkdir -p "$results"
  start=$SECONDS
  for name in "${workloads[@]}"; do
    for t in 0 1; do
      "$driver" --workload "$name" --seed "$seed" --seconds 0 --trace "$t" \
        --smoke --work-dir "$work" | tail -n 1 >"$results/$name.trace$t.json"
    done
  done
  python3 - "$root/BENCHMARK.json" "$results" "${workloads[@]}" <<'EOF'
import json
import sys

spec = json.load(open(sys.argv[1]))
results, names = sys.argv[2], sys.argv[3:]
shares = ("fuzzer.exec_share_pct", "fuzzer.crack_share_pct",
          "fuzzer.batch_share_pct", "supervise.checkpoint_share_pct",
          "fuzzer.residual_share_pct")
problems = []
for name in names:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = json.load(open(f"{results}/{name}.trace{trace}.json"))
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{name}: trace {trace} run is not correct")
        metrics = result["metrics"]
        for metric in spec[section]:
            got = metrics.get(metric["name"])
            if got is None or got.get("unit") != metric["unit"]:
                problems.append(f"{name}: {metric['name']} missing or "
                                f"not in {metric['unit']}")
        if trace == 1:
            # Each share is an estimate; at 1/50 budget the in-process exec
            # mean rests on a handful of samples, so a few points below zero
            # are noise, while an aliased or double-counted layer is not.
            values = [metrics[s]["value"] for s in shares]
            if abs(sum(values) - 100.0) > 0.5 or min(values) < -5.0:
                problems.append(f"{name}: trace shares {values}")
for problem in problems:
    print("smoke:", problem, file=sys.stderr)
print(json.dumps({"smoke": "ok" if not problems else "failed",
                  "workloads": len(names)}))
sys.exit(1 if problems else 0)
EOF
  echo "smoke: $((SECONDS - start)) s" >&2
  exit 0
fi

if [[ -n "$workload" ]]; then
  # Not exec'd: the driver reports its reaped children's peak RSS, and an
  # exec'd process would inherit the compiler's from the build above.
  "$driver" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --work-dir "$work"
  exit
fi

mkdir -p "$work/all"
status=0
for name in "${workloads[@]}"; do
  "$driver" --workload "$name" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --work-dir "$work" | tail -n 1 >"$work/all/$name.json" ||
    status=1
done
python3 - "$work/all" "${workloads[@]}" <<'EOF'
import json
import sys

directory, names = sys.argv[1], sys.argv[2:]
print(json.dumps({"workloads": {
    name: json.load(open(f"{directory}/{name}.json")) for name in names}}))
EOF
exit "$status"
