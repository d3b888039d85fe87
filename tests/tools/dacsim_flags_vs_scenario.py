#!/usr/bin/env python3
"""Flags and scenario files lower to the same run.

dacsim turns its workload/system/fault/resilience/governor flags into a
Scenario and runs it through the same lowering as --scenario. This test
runs dacsim once with flags (link faults, churn, loss, node MTBF,
reconvergence delay, path repair, adaptive governor) and once with
--scenario on the committed equivalent fixture, and requires the event
trace and the timeline to be byte-identical.

Usage: dacsim_flags_vs_scenario.py <path-to-dacsim> <scenario-fixture> [workdir]
Registered via ctest (see examples/CMakeLists.txt).
"""

import filecmp
import os
import subprocess
import sys
import tempfile

FLAGS = [
    "--seed=11", "--warmup=100", "--measure=600", "--lambda=25",
    "--fault-rate=0.0003", "--churn-rate=0.002", "--loss=0.05",
    "--node-mtbf=2000", "--node-mttr=120", "--reconverge-delay=0.5",
    "--path-repair", "--adaptive",
]


def run(dacsim, workdir, tag, args):
    trace = os.path.join(workdir, f"trace-{tag}.csv")
    timeline = os.path.join(workdir, f"timeline-{tag}.jsonl")
    cmd = [dacsim, *args, "--timeline-interval=50", f"--trace={trace}",
           f"--timeline-out={timeline}"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"dacsim {tag} run failed with {proc.returncode}")
    for artifact in (trace, timeline):
        if not os.path.exists(artifact) or os.path.getsize(artifact) == 0:
            raise SystemExit(f"dacsim {tag} run left no artifact {artifact}")
    return trace, timeline


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    dacsim, fixture = sys.argv[1], sys.argv[2]
    workdir = sys.argv[3] if len(sys.argv) > 3 else tempfile.mkdtemp(
        prefix="anyqos-flags-vs-scenario-")
    os.makedirs(workdir, exist_ok=True)
    from_flags = run(dacsim, workdir, "flags", FLAGS)
    from_file = run(dacsim, workdir, "scenario", [f"--scenario={fixture}"])
    failures = 0
    for label, a, b in zip(("trace", "timeline"), from_flags, from_file):
        if filecmp.cmp(a, b, shallow=False):
            print(f"flags == scenario: {label} byte-identical ({os.path.getsize(a)} bytes)")
        else:
            print(f"flags != scenario: {label} differs ({a} vs {b})")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
