#!/usr/bin/env python3
"""--profile is a pure observer: profiled and unprofiled runs byte-match.

dacsim --profile times simulation.run() from outside the kernel, so it must
not schedule, categorise or count a single event. This test runs the same
draining, fault- and churn-laden configuration twice at one seed, without
and with --profile/--profile-out, and byte-compares the event trace, the
timeline and the kernel-stats JSONL. The profiled run must also drain to
quiescence (no pending event left, no watchdog trip), and its profile.json
summary must agree with the kernel's own counters.

Usage: profile_double_run.py <path-to-dacsim> [workdir]
Registered via ctest (see examples/CMakeLists.txt).
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile

ARGS = [
    "--lambda=20", "--warmup=100", "--measure=500", "--seed=5",
    "--fault-rate=0.0002", "--churn-rate=0.002", "--timeline-interval=50",
    # A drain that never quiesced would trip this cap instead of hanging.
    "--drain", "--drain-max-events=1000000",
]


def run_once(dacsim, workdir, tag, extra):
    artifacts = {
        "trace": os.path.join(workdir, f"trace-{tag}.csv"),
        "timeline": os.path.join(workdir, f"timeline-{tag}.jsonl"),
        "kernel": os.path.join(workdir, f"kernel-{tag}.jsonl"),
    }
    cmd = [dacsim, *ARGS, f"--trace={artifacts['trace']}",
           f"--timeline-out={artifacts['timeline']}",
           f"--kernel-stats-out={artifacts['kernel']}", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"dacsim run {tag} failed with {proc.returncode}")
    for path in artifacts.values():
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            raise SystemExit(f"dacsim run {tag} left no artifact {path}")
    return artifacts, proc.stdout


def first_diff(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        for lineno, (line_a, line_b) in enumerate(zip(fa, fb), start=1):
            if line_a != line_b:
                return (lineno, line_a.decode(errors="replace").rstrip(),
                        line_b.decode(errors="replace").rstrip())
    return None


def kernel_summary(path):
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if row.get("kernel") == "summary":
                return row
    raise SystemExit(f"{path} has no summary row")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    dacsim = sys.argv[1]
    if not os.path.exists(dacsim):
        print(f"profile_double_run: no such binary {dacsim}", file=sys.stderr)
        return 2
    workdir = sys.argv[2] if len(sys.argv) > 2 else tempfile.mkdtemp(
        prefix="anyqos-profile-")
    os.makedirs(workdir, exist_ok=True)
    profile_path = os.path.join(workdir, "profile.json")

    plain, _ = run_once(dacsim, workdir, "plain", [])
    profiled, stdout = run_once(dacsim, workdir, "profiled",
                                ["--profile", f"--profile-out={profile_path}"])

    failures = []
    for label in ("trace", "timeline", "kernel"):
        a, b = plain[label], profiled[label]
        if filecmp.cmp(a, b, shallow=False):
            print(f"profile[{label}]: byte-identical ({os.path.getsize(a)} bytes)")
            continue
        diff = first_diff(a, b)
        where = (f"line {diff[0]}:\n  plain:    {diff[1]}\n  profiled: {diff[2]}"
                 if diff else "file sizes differ")
        failures.append(f"--profile moved the {label} artifact at {where}")

    summary = kernel_summary(profiled["kernel"])
    if "TRIPPED" in stdout or summary["pending"] != 0:
        failures.append(f"profiled drain did not quiesce: {summary['pending']} "
                        "events pending")
    with open(profile_path) as f:
        profile = json.load(f)["summary"]
    if profile["events"] <= 0 or profile["events"] != summary["dispatched"]:
        failures.append(f"profile counts {profile['events']} events, the kernel "
                        f"dispatched {summary['dispatched']}")
    if profile["peak_queue_depth"] != summary["queue_depth_hwm"]:
        failures.append(f"profile peak queue depth {profile['peak_queue_depth']} "
                        f"!= kernel high-water mark {summary['queue_depth_hwm']}")

    if failures:
        for failure in failures:
            print(f"PROFILE PERTURBATION: {failure}", file=sys.stderr)
        return 1
    print(f"profile: pure observer OK ({profile['events']} events, drained to "
          "quiescence)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
