#!/usr/bin/env python3
"""End-to-end gate for the chaosfuzz planted-bug contract.

With the duplex-outage idempotency guard defeated (--defeat-duplex-
idempotency), the fuzzer must, within a CI-sized budget:

  1. find a violation of the planted class ("exception:link is already
     failed") and shrink it,
  2. emit a repro scenario that the scenario check accepts
     (`chaosfuzz --base=REPRO --iterations=0` exits 0),
  3. replay that repro deterministically: two replays exit nonzero with
     byte-identical verdicts and flight dumps, and
  4. replay clean (exit 0) once the guard is back in place — the failure
     belongs to the planted bug, not to the scenario.

Usage: chaosfuzz_planted_bug.py <chaosfuzz-binary>
"""

import pathlib
import subprocess
import sys
import tempfile

PLANTED_CLASS = "exception:link is already failed"
# Pinned fuzz seed: seed 1 finds the planted bug within a couple of
# candidates; the iteration cap is just a backstop for the gate.
FUZZ_SEED = "1"
ITERATIONS = "20"
SHRINK_BUDGET = "150"


def run(argv, **kwargs):
    return subprocess.run(argv, capture_output=True, text=True, timeout=600, **kwargs)


def fail(message, *procs):
    for proc in procs:
        sys.stderr.write("--- command: %s (exit %d)\n" % (" ".join(proc.args), proc.returncode))
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    sys.stderr.write("FAIL: %s\n" % message)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    chaosfuzz = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="chaosfuzz-gate-") as tmp:
        prefix = str(pathlib.Path(tmp) / "cf")

        # 1. Find + shrink within budget.
        hunt = run([
            chaosfuzz,
            "--defeat-duplex-idempotency",
            "--seed=" + FUZZ_SEED,
            "--iterations=" + ITERATIONS,
            "--shrink-budget=" + SHRINK_BUDGET,
            "--out-prefix=" + prefix,
            "--quiet",
        ])
        if hunt.returncode != 1:
            fail("fuzzer did not find the planted bug (exit %d)" % hunt.returncode, hunt)
        if "verdict: " + PLANTED_CLASS not in hunt.stdout:
            fail("shrunk verdict is not the planted class", hunt)
        repro = pathlib.Path(prefix + "-repro.json")
        flight = pathlib.Path(prefix + "-flight.jsonl")
        if not repro.is_file():
            fail("no repro scenario written", hunt)
        if not flight.is_file():
            fail("no flight dump written", hunt)

        # 2. The repro passes the scenario check.
        check = run([chaosfuzz, "--base=" + str(repro), "--iterations=0", "--quiet"])
        if check.returncode != 0:
            fail("repro fails the scenario check", check)

        # 3. Deterministic replay: same exit, same verdict, same flight bytes.
        replays = []
        dumps = []
        for attempt in range(2):
            replay_prefix = str(pathlib.Path(tmp) / ("replay%d" % attempt))
            replay = run([
                chaosfuzz,
                "--defeat-duplex-idempotency",
                "--replay=" + str(repro),
                "--out-prefix=" + replay_prefix,
            ])
            if replay.returncode != 1:
                fail("replay %d did not reproduce (exit %d)" % (attempt, replay.returncode),
                     replay)
            if "verdict: " + PLANTED_CLASS not in replay.stdout:
                fail("replay %d verdict drifted from the planted class" % attempt, replay)
            replays.append(replay)
            dumps.append(pathlib.Path(replay_prefix + "-flight.jsonl").read_bytes())
        if dumps[0] != dumps[1]:
            fail("replay flight dumps differ between runs", *replays)

        # 4. With the guard restored, the same repro is clean.
        guarded = run([chaosfuzz, "--replay=" + str(repro)])
        if guarded.returncode != 0:
            fail("repro is not clean with the idempotency guard enabled", guarded)
        if "verdict: clean" not in guarded.stdout:
            fail("guarded replay did not report clean", guarded)

    print("chaosfuzz planted-bug gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
