#!/usr/bin/env python3
"""Gate the kernel-telemetry overhead recorded in a BENCH_engine.json.

The record (schema anyqos-bench-engine/1, written by run-bench.sh) holds
google-benchmark results for micro_engine. This script asserts that the
attached-telemetry pair in it -- BM_SimulatedSecondKernelStats vs
BM_SimulatedSecond, the full paper model with and without a KernelStats
sink, where real event work amortizes the sink's counters -- stays within
the given relative overhead. Being a same-process ratio it does not depend
on the host, so a violation is exit 1. Missing or malformed input is exit 2:
a typo'd artifact path must fail the build, not silently "pass".

Cross-commit wall-time comparisons are perfbench's job (perfbench/run.py,
same host, A/B against the parent).

  scripts/compare-bench.py --current BENCH_engine.json --attached-overhead 0.05
"""

import argparse
import json
import sys


def load_record(path):
    with open(path) as f:
        record = json.load(f)
    schema = record.get("schema", "")
    if schema != "anyqos-bench-engine/1":
        raise ValueError(f"{path}: unexpected schema {schema!r}")
    return record


# google-benchmark time_unit values, in seconds.
UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def microbench_times(record):
    """name -> (real_time, time_unit) for plain benchmarks (skip aggregates).

    real_time is in the benchmark's own time_unit (ns unless the benchmark
    set another, e.g. BM_SimulatedSecond reports ms).

    A name may appear several times when run-bench.sh measured it with
    --benchmark_repetitions (it does for the attached-overhead gate pair);
    repeated entries collapse to their minimum. Scheduler noise is strictly
    additive, so best-of-N is the estimator closest to the true cost — a
    couple of preempted repetitions cannot flip a ratio check.
    """
    samples = {}
    units = {}
    benches = record.get("microbench", {}).get("benchmarks")
    if not isinstance(benches, list):
        raise ValueError("record has no microbench.benchmarks list")
    for bench in benches:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench["name"]
        unit = bench.get("time_unit", "ns")
        if unit not in UNIT_SECONDS:
            raise ValueError(f"{name}: unknown time_unit {unit!r}")
        first_unit = units.setdefault(name, unit)
        value = float(bench["real_time"]) * UNIT_SECONDS[unit] / UNIT_SECONDS[first_unit]
        samples.setdefault(name, []).append(value)
    return {name: (min(values), units[name]) for name, values in samples.items()}


def in_unit(time, unit):
    """Converts a (value, unit) pair from microbench_times() to `unit`."""
    value, own_unit = time
    return value * UNIT_SECONDS[own_unit] / UNIT_SECONDS[unit]


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
        cur_times = microbench_times(load_record(args.current))
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"ERROR: unusable benchmark record: {error}", file=sys.stderr)
        return 2

    detached_time = cur_times.get("BM_SimulatedSecond")
    attached_time = cur_times.get("BM_SimulatedSecondKernelStats")
    if detached_time is None or attached_time is None or detached_time[0] <= 0:
        print("ERROR: record lacks the BM_SimulatedSecond / "
              "BM_SimulatedSecondKernelStats pair needed for "
              "--attached-overhead", file=sys.stderr)
        return 2
    detached, unit = detached_time
    attached = in_unit(attached_time, unit)
    overhead = (attached - detached) / detached
    print(f"kernel telemetry attached overhead: {detached:.1f} -> "
          f"{attached:.1f} {unit} ({overhead:+.1%}, budget "
          f"{args.attached_overhead:.0%})")
    if overhead > args.attached_overhead:
        print(f"FAIL: attached kernel telemetry costs {overhead:.1%} "
              f"(budget {args.attached_overhead:.0%})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
