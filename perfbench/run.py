#!/usr/bin/env python3
"""Same-host benchmark for the anyqos simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --write-reference
    python3 perfbench/run.py compare BASE.json HEAD.json

A measurement builds perfbench/ (the harness plus the library from src/)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload as a closed loop of jobs for --seconds, and prints a few
human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics with nothing attached; --trace 1
reports the per-layer metrics of a separate traced run. Every job is checked
(exceptions, oracle verdicts, drain watchdog, leaks, conservation); at the
reference seed the pass-0 statistics must also equal reference.json. Each
run also saves a result record (metrics plus a host fingerprint) that the
compare step reads; compare exits 2 when the two records come from
different hosts or builds.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 1
WORKLOADS = ("paper_sweep", "chaos_matrix", "grid_scale")
RUN_TIMEOUT_S = 170
# Fingerprint fields that must match for two records to be comparable.
SAME_HOST_KEYS = ("cpu_model", "ncpu", "compiler", "cxx_flags", "build_type")


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once and builds the harness; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "w") as log_file:
        if not (out / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log_file, stderr=subprocess.STDOUT) != 0:
                raise BenchError(f"configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                           stdout=log_file, stderr=subprocess.STDOUT) != 0:
            raise BenchError(f"build failed, see {log}")
    return out / "perfbench"


def cmake_cache(out):
    cache = {}
    path = out / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("//", "#")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def host_fingerprint():
    cpu_model, mhz = "unknown", None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and cpu_model == "unknown":
                cpu_model = value.strip()
            elif key == "cpu MHz" and mhz is None:
                mhz = float(value)
    except OSError:
        cpu_model = platform.processor() or "unknown"
    cache = cmake_cache(build_dir())
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, check=False).stdout.splitlines()[0]
        except (OSError, IndexError):
            version = ""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [cache.get("CMAKE_CXX_FLAGS", ""),
                                   cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]))
    return {
        "cpu_model": cpu_model,
        "cpu_mhz": mhz,
        "ncpu": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "compiler": version or compiler,
        "cxx_flags": flags,
        "build_type": build_type,
        "libbenchmark": "not used",
    }


def load_reference(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read reference {path}: {error}")


def reference_mismatches(workload, jobs, reference):
    """Pass-0 jobs whose statistics differ from the committed reference."""
    expected = reference.get("workloads", {}).get(workload, {})
    bad = []
    for job in jobs:
        if job["pass"] != 0 or not job["ok"]:
            continue
        want = expected.get(job["name"])
        if want != job["stats"]:
            bad.append(job["name"])
    return bad


def run_harness(binary, workload, seed, seconds, trace, max_jobs, results):
    stem = f"{workload}-seed{seed}-trace{trace}"
    jobs_path = results / f"jobs-{stem}.jsonl"
    spans_path = results / f"spans-{stem}.jsonl"
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--jobs-out", str(jobs_path), "--max-jobs", str(max_jobs)]
    if trace:
        command += ["--spans-out", str(spans_path)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: harness exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"{workload}: harness exited {done.returncode}: {done.stderr.strip()}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    jobs = [json.loads(line) for line in jobs_path.read_text().splitlines()]
    return summary, jobs, spans_path if trace else None


def measure(args):
    binary = build()
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    summary, jobs, spans = run_harness(binary, args.workload, args.seed, args.seconds,
                                       args.trace, args.max_jobs, results)
    failures = list(summary["info"]["failures"])
    failed = int(summary["failed"])
    if args.seed == REFERENCE_SEED:
        mismatched = reference_mismatches(args.workload, jobs, load_reference(args.reference))
        failed += len(mismatched)
        failures += [f"{name}: statistics differ from the reference" for name in mismatched]
    attempted = int(summary["attempted"])
    host = host_fingerprint()
    info = summary["info"]

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={info['passes']} jobs={attempted}")
    print(f"# host: {json.dumps(host, sort_keys=True)}")
    for name, metric in summary["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_job_ratio':44s} {failed / attempted:>16.6g} fraction"
          f"  ({failed} of {attempted} jobs)")
    if not args.trace:
        print(f"# job_ms_p50/p90 over {info['jobs_per_pass']} job slots, "
              f"each at its fastest of {info['passes']} passes")
    else:
        print(f"# spans: {spans}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    if len(failures) > 20:
        print(f"# ... and {len(failures) - 20} more failures")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": attempted, "failed": failed, "metrics": summary["metrics"],
              "host": host}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


def write_reference(args):
    binary = build()
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    reference = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in WORKLOADS:
        summary, jobs, _ = run_harness(binary, workload, REFERENCE_SEED, 0, 0, 0, results)
        if int(summary["failed"]) != 0:
            raise BenchError(f"{workload}: failing jobs, not writing a reference: "
                             f"{summary['info']['failures']}")
        reference["workloads"][workload] = {
            job["name"]: job["stats"] for job in jobs if job["pass"] == 0}
    # One job per line keeps the file diffable when a change moves statistics.
    blocks = []
    for workload, jobs_stats in reference["workloads"].items():
        rows = ",\n".join(f"   {json.dumps(name)}: {json.dumps(stats, sort_keys=True)}"
                          for name, stats in jobs_stats.items())
        blocks.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}")
    Path(args.reference).write_text(
        f'{{\n "seed": {REFERENCE_SEED},\n "workloads": {{\n' + ",\n".join(blocks) + "\n }\n}\n")
    print(f"wrote {args.reference}")
    return 0


def read_records(path):
    data = json.loads(Path(path).read_text())
    return data if isinstance(data, list) else [data]


def compare(paths):
    """Median of each metric per workload, base vs head, same host only."""
    base, head = read_records(paths[0]), read_records(paths[1])
    fingerprints = {tuple(r["host"].get(k) for k in SAME_HOST_KEYS) for r in base + head}
    if len(fingerprints) != 1:
        print("perfbench compare: records come from different hosts or builds:",
              file=sys.stderr)
        for fingerprint in sorted(fingerprints, key=str):
            print("  " + json.dumps(dict(zip(SAME_HOST_KEYS, fingerprint))), file=sys.stderr)
        return 2
    for workload in sorted({r["workload"] for r in base + head}):
        for trace in sorted({r["trace"] for r in base + head if r["workload"] == workload}):
            rows = {}
            for side, records in (("base", base), ("head", head)):
                for record in records:
                    if record["workload"] != workload or record["trace"] != trace:
                        continue
                    for name, metric in record["metrics"].items():
                        rows.setdefault(name, {"unit": metric["unit"]}).setdefault(
                            side, []).append(metric["value"])
            print(f"# {workload} trace={trace}")
            for name, row in rows.items():
                if "base" not in row or "head" not in row:
                    continue
                b, h = statistics.median(row["base"]), statistics.median(row["head"])
                change = (h - b) / b if b else float("nan")
                print(f"{name:44s} {b:>14.6g} -> {h:<14.6g} {row['unit']:10s} {change:+.2%}"
                      f"  (n={len(row['base'])}/{len(row['head'])})")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare BASE.json HEAD.json", file=sys.stderr)
            return 1
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=0,
                        help="truncate each pass to its first N jobs (self-tests)")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference statistics file (default: perfbench/reference.json)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record pass-0 statistics of every workload at the reference seed")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            return write_reference(args)
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
