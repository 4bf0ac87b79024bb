"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s benchmark/tests

The plan tests need the measurement binary (built by any run of
benchmark/run.py under .bench_build/dpbench/); they are skipped without it.
"""

import hashlib
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import benchlib  # noqa: E402

DPBENCH = ROOT / ".bench_build" / "dpbench" / "dpbench"


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(105), 90.0)
        self.assertEqual(benchlib.tail_percentile(99), 75.0)
        self.assertEqual(benchlib.tail_percentile(40), 75.0)
        self.assertEqual(benchlib.tail_percentile(39), 50.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_too_few_samples_support_no_percentile(self):
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))

    def test_linear_interpolation(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        self.assertAlmostEqual(benchlib.percentile(values, 50), 50.5)
        self.assertAlmostEqual(benchlib.percentile(values, 90), 90.1)
        self.assertEqual(benchlib.percentile([3.0], 90), 3.0)
        self.assertEqual(benchlib.percentile([4.0, 1.0, 2.0], 50), 2.0)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / q2)
        self.assertEqual(benchlib.spread([1.0] * 10), 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(benchlib.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(benchlib.worse_by(100.0, 110.0, "higher"),
                               -0.1)


class NameValidationTest(unittest.TestCase):
    def test_accepts_benchmark_names(self):
        for name in ("serve_fused", "latency_p90_ms", "tensor.gemm_gflops",
                     "a-b", "9lives", "x" * 64):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "_lead", ".lead", "has space", "slash/name",
                     "x" * 65, "ü", None, 3):
            self.assertFalse(benchlib.valid_name(name), repr(name))

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "GFLOP/s"):
            self.assertTrue(benchlib.valid_unit(unit), unit)
        for unit in ("", "a" * 17, "m s"):
            self.assertFalse(benchlib.valid_unit(unit), unit)

    def test_benchmark_json_is_valid(self):
        spec = benchlib.load_spec(ROOT / "BENCHMARK.json")
        self.assertEqual(sorted(spec),
                         ["command", "end_to_end", "paths", "per_layer",
                          "run_seconds", "workloads"])
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(benchlib.valid_unit(m["unit"]), m)


class ResultShapeTest(unittest.TestCase):
    def good(self):
        return {"correct": True, "attempted": 100, "failed": 0,
                "metrics": {"latency_p50_ms": {"value": 1.25, "unit": "ms"},
                            "setup_s": {"value": 3.5, "unit": "s"}}}

    def test_accepts_contract_shape(self):
        self.assertEqual(benchlib.validate_result(
            self.good(), ["latency_p50_ms", "setup_s"]), [])

    def test_rejects_extra_or_missing_keys(self):
        r = self.good()
        r["extra"] = 1
        self.assertTrue(benchlib.validate_result(r, ["latency_p50_ms",
                                                     "setup_s"]))
        r = self.good()
        del r["failed"]
        self.assertTrue(benchlib.validate_result(r, ["latency_p50_ms",
                                                     "setup_s"]))

    def test_rejects_missing_metric_and_bad_values(self):
        names = ["latency_p50_ms", "setup_s"]
        r = self.good()
        del r["metrics"]["setup_s"]
        self.assertTrue(benchlib.validate_result(r, names))
        for bad in (float("nan"), "1.0", True, None):
            r = self.good()
            r["metrics"]["setup_s"]["value"] = bad
            self.assertTrue(benchlib.validate_result(r, names), bad)
        r = self.good()
        r["attempted"] = 0
        self.assertTrue(benchlib.validate_result(r, names))
        r = self.good()
        r["metrics"]["setup_s"]["extra"] = 1
        self.assertTrue(benchlib.validate_result(r, names))

    def test_result_round_trips_through_json(self):
        r = json.loads(json.dumps(self.good()))
        self.assertEqual(benchlib.validate_result(
            r, ["latency_p50_ms", "setup_s"]), [])


@unittest.skipUnless(DPBENCH.exists(), "dpbench not built (run run.py once)")
class PlanStabilityTest(unittest.TestCase):
    # sha256 of `dpbench plan --workload W --seed 7 --seconds 15`; a change
    # here changes every run's inputs and needs a new baseline.
    PINNED = {
        "serve_fused":
            "35b258e2f08029b0b766c957e0d376bc51e0b362b33fa05dd5b812bb325e3bfc",
        "routed_stream":
            "1df277f4b076e362f731d96457a1fd3da02bdac4c621435bc20ce2e36752db21",
    }

    def plan(self, workload, seed, seconds=15):
        return subprocess.run(
            [str(DPBENCH), "plan", "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds)],
            check=True, stdout=subprocess.PIPE).stdout

    def test_same_seed_same_bytes(self):
        for workload in self.PINNED:
            self.assertEqual(self.plan(workload, 7), self.plan(workload, 7))

    def test_pinned_digests(self):
        for workload, digest in self.PINNED.items():
            got = hashlib.sha256(self.plan(workload, 7)).hexdigest()
            self.assertEqual(got, digest, workload)

    def test_other_seed_other_requests(self):
        for workload in self.PINNED:
            self.assertNotEqual(self.plan(workload, 7),
                                self.plan(workload, 8))

    def test_at_least_100_requests_and_ordered_arrivals(self):
        for workload in self.PINNED:
            lines = self.plan(workload, 3, seconds=1).decode().splitlines()
            self.assertGreaterEqual(len(lines), 100, workload)
        arrivals = [int(line.split()[4]) for line in
                    self.plan("routed_stream", 3).decode().splitlines()]
        self.assertEqual(arrivals, sorted(arrivals))
        self.assertGreater(arrivals[-1], 0)


if __name__ == "__main__":
    unittest.main()
