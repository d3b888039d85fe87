#!/usr/bin/env python3
"""Fixture suite for the scenario check, `chaosfuzz --base=F --iterations=0`.

The check loads, lowers and builds a scenario without running it. It must
accept the fuzzer's built-in base scenario (the canonical well-formed
document) and reject one fixture per error class with exit 2 and the
loader's or the lowering's message. A bad base handed to a real fuzz run
must also exit 2 and write no repro artifact.

Usage: check_scenario_fixtures.py <chaosfuzz-binary>
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def fail(message, proc):
    sys.stderr.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    sys.stderr.write("FAIL: %s\n" % message)
    sys.exit(1)


def check(chaosfuzz, path):
    return run([chaosfuzz, "--base=%s" % path, "--iterations=0", "--quiet"])


def expect_rejected(chaosfuzz, tmp, name, document, needle):
    path = pathlib.Path(tmp) / (name + ".json")
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = check(chaosfuzz, path)
    if proc.returncode != 2:
        fail("fixture %s: expected exit 2, got %d" % (name, proc.returncode), proc)
    if needle not in proc.stderr:
        fail("fixture %s: expected %r in the diagnostic" % (name, needle), proc)
    return path


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    chaosfuzz = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="scenario-check-") as tmp:
        base_path = pathlib.Path(tmp) / "base.json"
        save = run([chaosfuzz, "--save-default=%s" % base_path])
        if save.returncode != 0:
            fail("chaosfuzz --save-default failed", save)
        clean = check(chaosfuzz, base_path)
        if clean.returncode != 0:
            fail("the check rejected the built-in base scenario", clean)

        base = json.loads(base_path.read_text(encoding="utf-8"))

        def fixture(name, needle, mutate):
            document = copy.deepcopy(base)
            mutate(document)
            return expect_rejected(chaosfuzz, tmp, name, document, needle)

        fixture("wrong-schema", "schema",
                lambda d: d.update(schema="anyqos.scenario/999"))
        fixture("unknown-key", "unknown key", lambda d: d.update(surprise=1))
        fixture("bad-window", "repair_at",
                lambda d: d["link_faults"][0].update(
                    fail_at=d["link_faults"][0]["repair_at"] + 10))
        fixture("unsorted-ops", "sorted",
                lambda d: d.update(ops=[
                    {"t": 60, "knob": "retrial-ceiling", "value": 2},
                    {"t": 50, "knob": "retrial-ceiling", "value": 3},
                ]))

        def orphan(document):
            document.pop("governor", None)
            document["ops"] = [{"t": 50, "knob": "retrial-ceiling", "value": 2}]

        orphan_path = fixture("orphan-ops", "governor", orphan)

        # Domain rules only the loader checks: the lowering would run these.
        fixture("alpha", '"alpha" must be in [0,1]',
                lambda d: d["system"].update(algorithm="ED", alpha=3))
        fixture("backoff-jitter", '"backoff_jitter" must be in [0,1]',
                lambda d: d["resilience"].update(backoff_jitter=2))
        fixture("empty-name", '"name" must be non-empty', lambda d: d.update(name=""))
        fixture("axes-mean", '"link_mean_repair_s" must be positive',
                lambda d: d.update(axes={
                    "link_rate": 0, "link_mean_repair_s": -1,
                    "churn_rate": 0, "churn_mean_down_s": 120,
                    "node_rate": 0, "node_mean_repair_s": 120,
                }))
        fixture("negative-t", '"t" must be non-negative',
                lambda d: d.update(ops=[{"t": -5, "knob": "retrial-ceiling", "value": 2}]))

        # A bad base is bad input, not a model violation: a real fuzz run
        # exits 2 before its first candidate and writes no artifact.
        prefix = pathlib.Path(tmp) / "orphan-fuzz"
        fuzz = run([chaosfuzz, "--base=%s" % orphan_path, "--iterations=2",
                    "--out-prefix=%s" % prefix, "--quiet"])
        if fuzz.returncode != 2 or "governor" not in fuzz.stderr:
            fail("fuzzing a bad base did not exit 2 with the lowering's message", fuzz)
        written = sorted(p.name for p in pathlib.Path(tmp).glob(prefix.name + "*"))
        if written:
            fail("fuzzing a bad base wrote artifacts: %s" % ", ".join(written), fuzz)

    print("scenario check fixtures: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
