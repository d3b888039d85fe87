#!/usr/bin/env python3
"""Flight dumps are byte-identical to the committed golden snapshots.

Runs a small lossy, churning chaossim matrix whose 16-entry flight ring
fills with decision/attempt spans, flow notes (including a rejected flow's
`dst=-`) and the recovery notes `retransmit_exhaustion` and
`orphan_expiry`, then compares each cell's dump byte for byte with the
snapshot committed under tests/tools/fixtures/flight_golden/. The set of
cells that wrote a dump must match too. A change to the recorder or to what
the simulation feeds it that moves one byte fails here.

Usage: flight_dump_golden.py <path-to-chaossim> <golden-dir>
Registered via ctest (see examples/CMakeLists.txt).
"""

import filecmp
import os
import subprocess
import sys
import tempfile

ARGS = [
    "--seed=101", "--lambda=8", "--measure=200", "--losses=0.15",
    "--churn-rates=0.005", "--orphan-hold=0.5", "--max-retransmits=1",
    "--flight-depth=16", "--flight-prefix=flight",
]


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    chaossim = os.path.abspath(sys.argv[1])
    golden = os.path.abspath(sys.argv[2])
    expected = sorted(name for name in os.listdir(golden) if name.endswith(".jsonl"))
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run([chaossim, *ARGS], cwd=workdir, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            print("chaossim exited %d" % proc.returncode)
            return 1
        written = sorted(name for name in os.listdir(workdir) if name.endswith(".jsonl"))
        if written != expected:
            print("dumped cells %s, golden cells %s" % (written, expected))
            return 1
        failed = [name for name in expected
                  if not filecmp.cmp(os.path.join(workdir, name), os.path.join(golden, name),
                                     shallow=False)]
    if failed:
        print("flight dumps differ from the golden snapshots: %s" % ", ".join(failed))
        return 1
    print("ok: %d flight dumps byte-identical to %s" % (len(expected), golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
