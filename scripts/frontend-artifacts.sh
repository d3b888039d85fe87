#!/usr/bin/env bash
# Byte-identity gate for the simulation front ends.
#
#   scripts/frontend-artifacts.sh BUILD_DIR OUT_DIR
#
# Reruns every dacsim/chaossim invocation in .github/workflows/ci.yml and
# examples/CMakeLists.txt (plus the fault-heavy dacsim run used to gate
# engine changes) with the binaries in BUILD_DIR/examples, and keeps the
# deterministic artifacts under OUT_DIR: traces, spans, timelines, flight
# dumps, kernel JSONL, metrics, chaos matrices, stdout/stderr and exit codes.
# Building two trees and running
#
#   scripts/frontend-artifacts.sh build-before out-before
#   scripts/frontend-artifacts.sh build-after out-after
#   diff -r out-before out-after
#
# shows every artifact a front-end change moved. Wall-clock output is left
# out: profile.json, the wall-time line of --profile's stdout summary, and
# the live ops leg. The ops replay leg is fed a fixed recorded ops log
# instead. Every invocation runs with relative paths from inside OUT_DIR, so
# printed paths match across trees.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=$(cd "$1" && pwd)
mkdir -p "$2"
OUT=$(cd "$2" && pwd)
DACSIM="$BUILD/examples/dacsim"
CHAOSSIM="$BUILD/examples/chaossim"
cd "$OUT"

# run NAME CMD...: stdout, stderr and exit code land in NAME.{stdout,stderr,exit}.
run() {
  local name=$1
  shift
  local status=0
  "$@" >"$name.stdout" 2>"$name.stderr" || status=$?
  echo "$status" >"$name.exit"
}

CI_RUN=(--lambda=20 --warmup=100 --measure=500 --fault-rate=0.0002 --churn-rate=0.002)

# --- ci.yml: observability artifacts (wall-time output dropped) ---
mkdir -p obs
run obs/obs "$DACSIM" "${CI_RUN[@]}" \
  --metrics-out=obs/metrics.prom --spans-out=obs/spans.jsonl \
  --timeline-out=obs/timeline.jsonl --timeline-interval=50 \
  --flight-recorder=obs/flight.jsonl --profile --profile-out=obs/profile.json
rm -f obs/profile.json
grep -v '^engine profile' obs/obs.stdout >obs/obs.stdout.tmp || true
mv obs/obs.stdout.tmp obs/obs.stdout

# --- ci.yml: timeline determinism rerun ---
run obs/rerun "$DACSIM" "${CI_RUN[@]}" \
  --timeline-out=obs/timeline-rerun.jsonl --timeline-interval=50

# --- ci.yml: kernel introspection, attached and plain ---
run obs/kernel "$DACSIM" "${CI_RUN[@]}" \
  --trace=obs/ktrace.csv --spans-out=obs/kspans.jsonl \
  --timeline-out=obs/ktimeline.jsonl --timeline-interval=50 \
  --metrics-out=obs/kmetrics.prom --kernel-stats-out=obs/kernel.jsonl
run obs/kernel-plain "$DACSIM" "${CI_RUN[@]}" --trace=obs/ktrace-plain.csv

# --- ci.yml: ops replay leg, fed a fixed recorded log ---
mkdir -p ops
printf '%s\n' '{"ops":"directive","t":150,"knob":"shed-budget","value":5,"applied":5}' \
  >ops/ops.jsonl
run ops/replay "$DACSIM" --lambda=150 --warmup=100 --measure=60000 --seed=7 \
  --ops-replay=ops/ops.jsonl --ops-log=ops/ops-replayed.jsonl \
  --timeline-out=ops/ops-timeline-replay.jsonl --timeline-interval=500

# --- ci.yml: the three chaos matrices ---
mkdir -p chaos
run chaos/matrix "$CHAOSSIM" --measure=400 --losses=0,0.05,0.2 --churn-rates=0,0.005 \
  --out=chaos/chaos-matrix.csv --metrics-out=chaos/chaos-metrics.prom \
  --spans-out=chaos/chaos-spans.jsonl --kernel-stats-prefix=chaos/chaos-kernel \
  --flight-prefix=chaos/chaos-flight
run chaos/adaptive "$CHAOSSIM" --measure=400 --losses=0,0.05,0.2 --churn-rates=0,0.005 \
  --adaptive --out=chaos/chaos-adaptive.csv --timeline-prefix=chaos/chaos-timeline \
  --flight-prefix=chaos/chaos-adaptive-flight
run chaos/node-faults "$CHAOSSIM" --measure=400 --losses=0,0.05 --churn-rates=0 \
  --node-mtbfs=0,2000 --node-mttr=120 --out=chaos/chaos-node-faults.csv

# --- fault-heavy dacsim run (every failure-domain plane engaged) ---
mkdir -p heavy
run heavy/run "$DACSIM" --seed=11 --measure=800 --algorithm=WD/D+H --node-mtbf=3000 \
  --node-mttr=100 --reconverge-delay=1 --path-repair=true --churn-rate=0.002 --loss=0.05 \
  --trace=heavy/trace.csv --spans-out=heavy/spans.jsonl \
  --timeline-out=heavy/timeline.jsonl --kernel-stats-out=heavy/kernel.jsonl \
  --metrics-out=heavy/metrics.prom

# --- examples/CMakeLists.txt: smoke runs ---
mkdir -p smoke
run smoke/dacsim "$DACSIM" --measure=200 --warmup=50 --lambda=10
(cd smoke && run chaossim "$CHAOSSIM" --measure=200 --losses=0,0.1 --churn-rates=0,0.005)

# --- examples/CMakeLists.txt: determinism_double_run configurations ---
mkdir -p determinism
DET_BASE=(--lambda=25 --warmup=100 --measure=600 --seed=11 --fault-rate=0.0003
          --churn-rate=0.002 --timeline-interval=50)
DET_FAULT=("${DET_BASE[@]}" --node-mtbf=2000 --node-mttr=120 --reconverge-delay=0.5
           --path-repair)
run determinism/base "$DACSIM" "${DET_BASE[@]}" \
  --trace=determinism/trace-base.csv --timeline-out=determinism/timeline-base.jsonl
run determinism/node-faults "$DACSIM" "${DET_FAULT[@]}" \
  --trace=determinism/trace-node-faults.csv \
  --timeline-out=determinism/timeline-node-faults.jsonl
run determinism/kernel-stats "$DACSIM" "${DET_FAULT[@]}" \
  --trace=determinism/trace-kernel-stats.csv \
  --timeline-out=determinism/timeline-kernel-stats.jsonl \
  --kernel-stats-out=determinism/kernel-kernel-stats.jsonl

# --- examples/CMakeLists.txt: ops_replay_double_run configuration ---
printf '%s\n' \
  '{"ops":"directive","t":150,"knob":"retrial-ceiling","value":1,"applied":1}' \
  '{"ops":"directive","t":250,"knob":"shed-budget","value":2,"applied":2}' \
  >ops/steer.jsonl
run ops/steer "$DACSIM" --lambda=25 --warmup=100 --measure=600 --seed=11 \
  --timeline-interval=50 --ops-replay=ops/steer.jsonl --ops-log=ops/steer-replayed.jsonl \
  --trace=ops/steer-trace.csv --timeline-out=ops/steer-timeline.jsonl

# --- examples/CMakeLists.txt: flags vs scenario file ---
mkdir -p equivalence
EQ_FLAGS=(--seed=11 --warmup=100 --measure=600 --lambda=25 --fault-rate=0.0003
          --churn-rate=0.002 --loss=0.05 --node-mtbf=2000 --node-mttr=120
          --reconverge-delay=0.5 --path-repair --adaptive --timeline-interval=50)
run equivalence/flags "$DACSIM" "${EQ_FLAGS[@]}" \
  --trace=equivalence/trace.csv --timeline-out=equivalence/timeline.jsonl
run equivalence/scenario "$DACSIM" \
  --scenario="$ROOT/tests/tools/fixtures/dacsim_flags_equivalent.json" \
  --timeline-interval=50 --trace=equivalence/trace-scenario.csv \
  --timeline-out=equivalence/timeline-scenario.jsonl

# --- examples/CMakeLists.txt: CLI exit codes ---
mkdir -p cli
run cli/dacsim-bad-algorithm "$DACSIM" --algorithm=wdb
run cli/dacsim-unknown-flag "$DACSIM" --trace-out=x
run cli/dacsim-bad-topology "$DACSIM" --topology=ring:x
run cli/chaossim-unknown-flag "$CHAOSSIM" --bogus

echo "front-end artifacts written to $OUT ($(find . -type f | wc -l) files)"
