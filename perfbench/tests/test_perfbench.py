"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the harness (about a minute on four cores);
every run is tiny (--seconds 0 gives one pass, --max-jobs 2 two jobs).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(RUN.parent))
from run import WORKLOADS  # noqa: E402  (every workload, also those BENCHMARK.json leaves out)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def setUpModule():
    build_dir().mkdir(parents=True, exist_ok=True)


def bench(*args, script=RUN, cwd=ROOT):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def tiny(workload, trace, seed=1, extra=()):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--max-jobs", "2", *extra)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def job_stats(workload, seed, trace):
    path = build_dir() / "results" / f"jobs-{workload}-seed{seed}-trace{trace}.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {r["name"]: r["stats"] for r in records if r["pass"] == 0}


class TinyRunsPrintEveryMetric(unittest.TestCase):
    def test_declared_workloads_exist(self):
        for workload in BENCHMARK["workloads"]:
            self.assertIn(workload["name"], WORKLOADS)

    def check(self, workload, trace, declared):
        stdout, result = tiny(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        lines = stdout.splitlines()[:-1]
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float))
            self.assertTrue(any(line.split()[:1] == [metric["name"]] and
                                line.split()[-1] == metric["unit"] for line in lines),
                            f"{metric['name']} not printed with its unit")

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, BENCHMARK["end_to_end"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, BENCHMARK["per_layer"])


class PlantedWrongReference(unittest.TestCase):
    def test_counts_as_failed_job(self):
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        reference["workloads"]["paper_sweep"]["sp@20"]["admitted"] += 1
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=build_dir(),
                                         delete=False) as planted:
            json.dump(reference, planted)
        try:
            _, result = tiny("paper_sweep", 0, extra=("--reference", planted.name))
        finally:
            os.unlink(planted.name)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class TracingDoesNotPerturbTheModel(unittest.TestCase):
    def test_identical_statistics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                tiny(workload, 0, seed=7)
                tiny(workload, 1, seed=7)
                untraced = job_stats(workload, 7, 0)
                self.assertEqual(len(untraced), 2)
                self.assertEqual(untraced, job_stats(workload, 7, 1))


class CompareRefusesCrossHostPairs(unittest.TestCase):
    def test_exit_2(self):
        tiny("grid_scale", 0, seed=3)
        record = build_dir() / "results" / "grid_scale-seed3-trace0.json"
        other = json.loads(record.read_text())
        other["host"]["cpu_model"] += " (another host)"
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=build_dir(),
                                         delete=False) as moved:
            json.dump(other, moved)
        try:
            self.assertEqual(bench("compare", str(record), str(record)).returncode, 0)
            self.assertEqual(bench("compare", str(record), moved.name).returncode, 2)
        finally:
            os.unlink(moved.name)


class FailsWithoutTheLibrary(unittest.TestCase):
    def test_bare_benchmark_directory(self):
        with tempfile.TemporaryDirectory(dir=build_dir()) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench")
            done = bench("--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", script=Path(bare) / "perfbench" / "run.py", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
