#!/usr/bin/env python3
"""Gate the kernel-telemetry overhead recorded in a BENCH_engine.json.

The record (schema anyqos-bench-engine/1, written by run-bench.sh) holds
google-benchmark results for micro_engine. This script asserts that the
attached-telemetry pair in it -- BM_SimulatedSecondKernelStats vs
BM_SimulatedSecond, the full paper model with and without a KernelStats
sink, where real event work amortizes the sink's counters -- stays within
the given relative overhead. The overhead is the median over at least nine
repetitions of attached / detached - 1, where each repetition alternates
detached and attached runs one by one, so host contention that slows a
stretch of the measurement slows both sides of its ratio alike. A
violation is exit 1. Missing or malformed input, or fewer than nine
repetitions, is exit 2: a typo'd artifact path must fail the build, not
silently "pass".

Cross-commit wall-time comparisons are perfbench's job (perfbench/run.py,
same host, A/B against the parent).

  scripts/compare-bench.py --current BENCH_engine.json --attached-overhead 0.05
"""

import argparse
import json
import statistics
import sys


def load_record(path):
    with open(path) as f:
        record = json.load(f)
    schema = record.get("schema", "")
    if schema != "anyqos-bench-engine/1":
        raise ValueError(f"{path}: unexpected schema {schema!r}")
    return record


# Fewest repetitions the gate accepts: with nine, the median ignores up to
# four contended ones.
MIN_REPETITIONS = 9

GATE_BENCHMARK = "BM_SimulatedSecondKernelStats"


def paired_ratios(record):
    """attached_ms / detached_ms of each repetition of the gate benchmark.

    BM_SimulatedSecondKernelStats alternates a detached and an attached run
    of the paper model inside every repetition and reports each side's mean
    in its counters, so a repetition's ratio compares two measurements taken
    under the same host contention. Aggregate rows (mean, median, stddev)
    are skipped.
    """
    benches = record.get("microbench", {}).get("benchmarks")
    if not isinstance(benches, list):
        raise ValueError("record has no microbench.benchmarks list")
    ratios = []
    for bench in benches:
        if bench.get("name") != GATE_BENCHMARK or bench.get("run_type", "iteration") != "iteration":
            continue
        detached = float(bench["detached_ms"])
        attached = float(bench["attached_ms"])
        if detached <= 0:
            raise ValueError(f"{GATE_BENCHMARK}: non-positive detached_ms {detached}")
        ratios.append(attached / detached)
    return ratios


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True, help="freshly produced BENCH_engine.json")
    parser.add_argument("--attached-overhead", type=float, required=True,
                        metavar="RATIO",
                        help="budget for the attached kernel-telemetry benchmark "
                             "relative to the detached one (e.g. 0.05 = 5%%)")
    args = parser.parse_args()
    if args.attached_overhead < 0:
        parser.error("--attached-overhead must be non-negative")

    try:
        ratios = paired_ratios(load_record(args.current))
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"ERROR: unusable benchmark record: {error}", file=sys.stderr)
        return 2

    if len(ratios) < MIN_REPETITIONS:
        print(f"ERROR: record holds {len(ratios)} repetitions of {GATE_BENCHMARK}; "
              f"--attached-overhead needs at least {MIN_REPETITIONS}", file=sys.stderr)
        return 2
    overhead = statistics.median(ratios) - 1.0
    print(f"kernel telemetry attached overhead: median of {len(ratios)} paired "
          f"ratios {overhead:+.1%} (repetitions {min(ratios) - 1:+.1%} .. "
          f"{max(ratios) - 1:+.1%}, budget {args.attached_overhead:.0%})")
    if overhead > args.attached_overhead:
        print(f"FAIL: attached kernel telemetry costs {overhead:.1%} "
              f"(budget {args.attached_overhead:.0%})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
