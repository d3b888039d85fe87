#!/usr/bin/env python3
"""Compare a fresh BENCH_engine.json against a committed baseline.

Two signals are diffed, both from the anyqos-bench-engine/1 schema:

  * engine.events_per_second  -- DES engine throughput (higher is better)
  * microbench.benchmarks[].real_time, keyed by name (lower is better)

Regressions beyond --tolerance are reported. The default mode is warn-only
(exit 0 on regressions) because CI runners have noisy clocks; pass --strict
to turn regressions into a nonzero exit for local A/B runs on quiet
machines. Missing or malformed input files are exit 2 in BOTH modes — a
typo'd artifact path must fail the build, not silently "pass" the diff.
A build-type mismatch (the records' top-level "build_type", stamped by
run-bench.sh from CMAKE_BUILD_TYPE) is also exit 2 in both modes: debug
and Release numbers are not comparable, so the diff would be meaningless.

--attached-overhead RATIO additionally asserts that the kernel-telemetry
benchmark pair in the CURRENT record (BM_SimulatedSecondKernelStats vs
BM_SimulatedSecond — the full paper model with and without a sink, where
real event work amortizes the sink's counters) stays within the given
relative overhead. Being a same-process ratio it is far less
clock-sensitive than cross-run deltas, so a violation is exit 1 even in
warn-only mode. The trivial-chain pair (BM_SimulatorEventChainAttached)
stays visible in the normal diff but is not budgeted: against a do-nothing
event every counter bump is relatively enormous.

  scripts/compare-bench.py --baseline bench/BENCH_baseline.json \
      --current BENCH_engine.json [--tolerance 0.25] [--strict] \
      [--attached-overhead 0.05]
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
    parser.add_argument("--baseline", required=True, help="committed BENCH_baseline.json")
    parser.add_argument("--current", required=True, help="freshly produced BENCH_engine.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative slack before a delta counts as a regression "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regressions instead of warning")
    parser.add_argument("--attached-overhead", type=float, default=None,
                        metavar="RATIO",
                        help="also assert the attached kernel-telemetry chain "
                             "benchmark is within RATIO of the detached one "
                             "(always enforced, e.g. 0.05 = 5%%)")
    args = parser.parse_args()
    if args.tolerance < 0:
        parser.error("--tolerance must be non-negative")
    if args.attached_overhead is not None and args.attached_overhead < 0:
        parser.error("--attached-overhead must be non-negative")

    # Input problems are always fatal (exit 2), even in warn-only mode:
    # warn-only covers noisy-clock *regressions*, never a comparison that
    # silently never happened.
    try:
        baseline = load_record(args.baseline)
        current = load_record(args.current)
        base_times = microbench_times(baseline)
        cur_times = microbench_times(current)
        base_eps = float(baseline["engine"]["events_per_second"])
        cur_eps = float(current["engine"]["events_per_second"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as error:
        print(f"ERROR: unusable benchmark record: {error}", file=sys.stderr)
        return 2
    if base_eps <= 0:
        print(f"ERROR: {args.baseline}: non-positive baseline throughput",
              file=sys.stderr)
        return 2

    base_build = baseline.get("build_type", "unknown")
    cur_build = current.get("build_type", "unknown")
    print(f"build_type: baseline={base_build} current={cur_build}")
    if base_build != cur_build:
        print(f"ERROR: build-type mismatch ({base_build} baseline vs "
              f"{cur_build} current): the numbers are not comparable",
              file=sys.stderr)
        return 2
    regressions = []

    delta = (cur_eps - base_eps) / base_eps
    print(f"engine events_per_second: {base_eps:,.0f} -> {cur_eps:,.0f} ({delta:+.1%})")
    if delta < -args.tolerance:
        regressions.append(f"engine throughput fell {-delta:.1%} "
                           f"(tolerance {args.tolerance:.0%})")

    for name in sorted(base_times):
        if name not in cur_times:
            print(f"microbench {name}: missing from current run")
            regressions.append(f"{name} missing from current run")
            continue
        cur, unit = cur_times[name]
        base = in_unit(base_times[name], unit)
        delta = (cur - base) / base
        print(f"microbench {name}: {base:.1f} -> {cur:.1f} {unit} ({delta:+.1%})")
        if delta > args.tolerance:
            regressions.append(f"{name} slowed {delta:.1%} "
                               f"(tolerance {args.tolerance:.0%})")
    for name in sorted(set(cur_times) - set(base_times)):
        print(f"microbench {name}: new (no baseline)")

    if args.attached_overhead is not None:
        detached_time = cur_times.get("BM_SimulatedSecond")
        attached_time = cur_times.get("BM_SimulatedSecondKernelStats")
        if detached_time is None or attached_time is None or detached_time[0] <= 0:
            print("ERROR: current record lacks the BM_SimulatedSecond / "
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

    if not regressions:
        print("bench comparison: OK (within tolerance)")
        return 0
    for item in regressions:
        print(f"REGRESSION: {item}", file=sys.stderr)
    if args.strict:
        return 1
    print("warn-only mode: not failing the build (use --strict to enforce)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
