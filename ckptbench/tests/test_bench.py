"""Self-tests of the checkpoint round-trip benchmark.

    python3 -m unittest discover -s ckptbench/tests -v

Run from the repository root. The first test to need the driver builds it
through run.py (about a minute); the driver runs take a few minutes more.
"""

import functools
import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
BUDGET_S = 3420
# Per-run cost beyond run_seconds: the first set-up, probes of a traced
# run, process start and the no-op rebuild check. Builds: two, a minute each.
RUN_OVERHEAD_S = 8
BUILDS_S = 2 * 60

# Per-layer counts that must repeat exactly for a seed.
COUNT_METRICS = [
    "compress.ratio_vs_whole",
    "core.incr.dirty_frac",
    "core.incr.dedup_frac",
    "core.incr.journal_bytes",
    "core.incr.replicated_bytes",
    "io.nfs.rpcs",
    "io.nfs.bytes_sent",
    "io.nfs.frame_overhead_bytes",
    "io.replica.bytes_fetched",
    "io.replica.read_failovers",
    "io.retry.rpc_attempts",
    "io.retry.retries",
    "io.retry.bytes_retransmitted",
    "io.retry.timeouts",
    "io.retry.checksum_failures",
    "io.retry.rejections",
    "io.retry.useful_frac",
]


def load_spec():
    return json.loads(SPEC_PATH.read_text())


@functools.lru_cache(maxsize=None)
def run_bench(workload, seed, trace, *extra, repeat=0):
    """Runs the benchmark; returns (stamp, result) from its last two lines.

    Results are cached per argument set; `repeat` asks for a separate run.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


class SpecGrammar(unittest.TestCase):
    """BENCHMARK.json obeys the benchmark contract's grammar and limits."""

    def setUp(self):
        self.spec = load_spec()

    def test_top_level_keys_and_size(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(SPEC_PATH.stat().st_size, 64 * 1024)

    def test_command_and_paths(self):
        cmd = self.spec["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertIsInstance(arg, str)
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        paths = self.spec["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue((ROOT / p).is_dir())
        for arg in cmd[1:]:
            if (ROOT / arg).exists():
                self.assertTrue(any(arg == p or arg.startswith(p + "/") for p in paths),
                                f"{arg} lies outside paths")

    def test_names_units_and_counts(self):
        workloads = self.spec["workloads"]
        e2e = self.spec["end_to_end"]
        layer = self.spec["per_layer"]
        self.assertTrue(2 <= len(workloads) <= 8)
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layer) <= 128)
        names = [w["name"] for w in workloads] + [m["name"] for m in e2e + layer]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, NAME)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layer:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_metric_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_runs_fit_the_time_budget(self):
        seconds = self.spec["run_seconds"]
        self.assertIsInstance(seconds, int)
        self.assertTrue(1 <= seconds <= 60)
        runs = 4 + 22 * len(self.spec["workloads"])
        self.assertLess(runs * (seconds + RUN_OVERHEAD_S) + BUILDS_S, BUDGET_S)


class DriverOutput(unittest.TestCase):
    """The driver prints exactly the metrics BENCHMARK.json names."""

    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()

    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]))

    def test_end_to_end_run(self):
        stamp, result = run_bench("ckpt_recover", 5, 0)
        self.check_result(result, self.spec["end_to_end"])
        for m in self.spec["end_to_end"]:
            self.assertNotEqual(result["metrics"][m["name"]]["value"], 0, m["name"])
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
        for key in ("source", "host", "nproc", "simd", "build_type"):
            self.assertIn(key, stamp)
        self.assertIs(stamp["optimized"], True)
        # Tails are block medians: up to 5 blocks of at least 40 samples.
        self.assertEqual(stamp["tail_blocks"],
                         min(5, max(1, stamp["tail_samples"] // 40)))

    def test_traced_run(self):
        stamp, result = run_bench("ckpt_incremental", 5, 1)
        self.check_result(result, self.spec["per_layer"])
        self.assertGreater(stamp["spans"], 0)

    def test_failing_check_lowers_ok_frac(self):
        _, result = run_bench("ckpt_incremental", 5, 0, "--fail-op", "3")
        self.assertIs(result["correct"], False)
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)


class CountDeterminism(unittest.TestCase):
    """Counts repeat exactly for a seed; another seed keeps the sizes."""

    def test_counts_repeat_for_a_seed(self):
        for w in load_spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                _, a = run_bench(w["name"], 5, 1)
                _, b = run_bench(w["name"], 5, 1, repeat=1)
                for k in COUNT_METRICS:
                    self.assertEqual(a["metrics"][k], b["metrics"][k], k)
        # wire_ratio sums the same window as the counts; check it where
        # retransmits enter it.
        _, c = run_bench("ckpt_recover", 5, 0)
        _, d = run_bench("ckpt_recover", 5, 0, repeat=1)
        self.assertEqual(c["metrics"]["wire_ratio"], d["metrics"]["wire_ratio"])

    def test_other_seed_changes_pattern_not_sizes(self):
        stamps = {}
        for seed in (5, 6):
            stamps[seed], result = run_bench("ckpt_incremental", seed, 1)
            stamps[seed]["replicated"] = result["metrics"]["core.incr.replicated_bytes"]
        self.assertEqual(stamps[5]["raw_bytes"], stamps[6]["raw_bytes"])
        self.assertNotEqual(stamps[5]["replicated"], stamps[6]["replicated"])
        for seed in (5, 6):
            stamps[seed], result = run_bench("ckpt_recover", seed, 1)
            stamps[seed]["retries"] = result["metrics"]["io.retry.retries"]["value"]
        self.assertEqual(stamps[5]["raw_bytes"], stamps[6]["raw_bytes"])
        # Fixed fault counts at seeded positions: same retry work.
        self.assertEqual(stamps[5]["retries"], stamps[6]["retries"])


if __name__ == "__main__":
    unittest.main()
