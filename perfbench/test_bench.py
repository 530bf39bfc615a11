#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size smoke runs of every workload.

Run from the repository root (builds the benchmark binary first if needed):

    python3 perfbench/test_bench.py

Checks, for each workload in BENCHMARK.json:
  * the untraced run prints every end-to-end metric, and the traced run every
    per-layer metric, by the name and unit BENCHMARK.json gives, and nothing
    else, with fail count 0;
  * a run against a deliberately corrupted reference counts every job failed,
    which proves the output gate can fail;
and that run.py exits non-zero without a result where the PODS sources are
missing.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("run failed (%d):\n%s" % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check_metrics(self, res, specs):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(res["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_prints_every_metric(self):
        for wl in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    res = result(run(wl["name"], trace))
                    self.check_metrics(res, SPEC[key])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    self.assertTrue(res["correct"])
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_reference_fails_every_job(self):
        for wl in SPEC["workloads"]:
            with self.subTest(workload=wl["name"]):
                res = result(run(wl["name"], 0, "--corrupt-reference"))
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], res["attempted"])
                self.assertFalse(res["correct"])

    def test_no_result_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(tmp) / p)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    unittest.main()
