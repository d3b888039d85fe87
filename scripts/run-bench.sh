#!/usr/bin/env bash
# Kernel microbench snapshot: runs the google-benchmark micro_engine suite
# plus nine repetitions of its attached-telemetry pair and folds both into a
# single BENCH_engine.json (schema anyqos-bench-engine/1), the input of
# compare-bench.py's attached-overhead gate.
#
#   scripts/run-bench.sh [--allow-debug] [BUILD_DIR] [OUT]
#
# BUILD_DIR defaults to ./build, OUT to ./BENCH_engine.json. Exits non-zero
# if a bench fails or the combined record is empty/malformed.
#
# A non-Release build is refused unless --allow-debug is given: the gated
# overhead ratio is the shipped build's, and an unoptimised kernel inflates
# or hides the sink's share of the work. Wall-time comparisons across
# commits belong to perfbench/ (same host, A/B against the parent).
set -euo pipefail

ALLOW_DEBUG=0
if [[ "${1:-}" == "--allow-debug" ]]; then
  ALLOW_DEBUG=1
  shift
fi

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_engine.json}"

CACHE="${BUILD_DIR}/CMakeCache.txt"
if [[ ! -f "$CACHE" ]]; then
  echo "run-bench.sh: no CMakeCache.txt in $BUILD_DIR (configure first)" >&2
  exit 1
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")"
BUILD_TYPE="${BUILD_TYPE:-unspecified}"
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" -ne 1 ]]; then
  echo "run-bench.sh: $BUILD_DIR is a '$BUILD_TYPE' build; benchmark numbers" >&2
  echo "from non-Release builds are not comparable. Rebuild with" >&2
  echo "-DCMAKE_BUILD_TYPE=Release or pass --allow-debug to record anyway." >&2
  exit 1
fi

MICRO="${BUILD_DIR}/bench/micro_engine"
if [[ ! -x "$MICRO" ]]; then
  echo "run-bench.sh: missing benchmark binary $MICRO (build first)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== micro_engine (google-benchmark, short run) ==" >&2
"$MICRO" --benchmark_min_time=0.01 \
         --benchmark_filter='-BM_SimulatedSecond' \
         --benchmark_format=json >"$workdir/micro.json"

# The attached-overhead gate: BM_SimulatedSecondKernelStats alternates a
# detached and an attached simulation run by run inside each repetition, so
# both sides of a repetition's ratio share the same host contention.
# compare-bench.py gates on the median of the per-repetition ratios, which a
# few contended repetitions cannot move.
echo "== micro_engine (kernel-telemetry overhead pair, 9 repetitions) ==" >&2
"$MICRO" --benchmark_min_time=0.5 --benchmark_repetitions=9 \
         --benchmark_filter='^BM_SimulatedSecondKernelStats$' \
         --benchmark_format=json >"$workdir/pair.json"

# Merge the pair's repetitions into the short run and wrap the result as the
# record.
python3 - "$workdir/micro.json" "$workdir/pair.json" "$OUT" <<'EOF'
import json, sys
micro_path, pair_path, out_path = sys.argv[1:4]
with open(micro_path) as f:
    micro = json.load(f)
with open(pair_path) as f:
    pair = json.load(f)
micro["benchmarks"].extend(pair.get("benchmarks", []))
if not micro["benchmarks"]:
    sys.exit(f"run-bench.sh: {out_path} would hold no microbench results")
with open(out_path, "w") as f:
    json.dump({"schema": "anyqos-bench-engine/1", "microbench": micro}, f)
    f.write("\n")
EOF

echo "wrote $OUT" >&2
