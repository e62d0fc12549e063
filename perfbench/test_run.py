#!/usr/bin/env python3
"""Tests of the benchmark's own code: statistics, span self time, the output
schema and the BENCHMARK.json contract.

Run from the root of a checkout: python3 perfbench/test_run.py
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import run

BENCHMARK = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


REF = run.CONFIG["calibration_ref_s"]


def raw_document(trace):
    """A minimal raw output of measure.cpp with every field the reductions read."""
    return {
        "reps": [{"seconds": 2.0, "work_s": 1.0, "pages": 1000.0, "trials": 1.0, "calibration_s": REF},
                 {"seconds": 4.0, "work_s": 2.0, "pages": 1000.0, "trials": 1.0, "calibration_s": REF},
                 {"seconds": 1.0, "work_s": 0.5, "pages": 1000.0, "trials": 1.0, "calibration_s": REF}],
        "setup_s": [3.0, 1.0, 2.0],
        "setup_calibration_s": [REF, REF, REF],
        "peak_rss_mb": 12.5,
        "sim": {"sim_iops": 100.0, "sim_erases": 7.0, "waf": 1.5, "sim_lat_p50_us": 40.0,
                "sim_lat_p999_us": 900.0, "sim_lat_samples": 1000.0},
        "layers": {"sim.run_s": 1.0} if trace else {},
        "wall_s": 10.0,
        "spans": [span("bench.main", 0.0, 10.0, -1), span("sim.run", 1.0, 9.0, 0)],
    }


class Statistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q[0], q[2]))
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0))

    def test_relative_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q3 = run.quartiles(values)
        self.assertAlmostEqual(run.relative_spread(values), (q3 - q1) / 3.0)
        self.assertEqual(run.relative_spread([2.0, 2.0, 2.0]), 0.0)


class ReferenceSpeed(unittest.TestCase):
    def test_a_slower_host_is_scaled_back(self):
        # The kernel ran twice as long as on the reference host: the host is
        # half as fast, so 4 s here are 2 s at reference speed.
        self.assertAlmostEqual(run.at_reference_speed(4.0, 2 * REF), 2.0)
        self.assertAlmostEqual(run.at_reference_speed(4.0, REF), 4.0)

    def test_scaling_is_per_repetition(self):
        raw = raw_document(trace=False)
        raw["reps"][1]["calibration_s"] = 2 * REF  # the 2 s repetition ran on a slow host
        self.assertEqual(run.end_to_end(raw)["kops"], 1.0)  # medians of {1, 1, 2} kop/s


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("bench.main", 0.0, 10.0, -1),
            span("sim.setup", 1.0, 5.0, 0),
            span("workload.generate", 1.5, 2.5, 1),
            span("sim.precondition", 3.0, 4.0, 1),
            span("nand.drive", 6.0, 9.0, 0),
            span("ftl.drive", 7.0, 8.0, 4),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["bench"], 10.0 - 4.0 - 3.0)
        self.assertAlmostEqual(selfs["sim"], (4.0 - 1.0 - 1.0) + 1.0)
        self.assertAlmostEqual(selfs["workload"], 1.0)
        self.assertAlmostEqual(selfs["nand"], 2.0)
        self.assertAlmostEqual(selfs["ftl"], 1.0)
        self.assertAlmostEqual(sum(selfs.values()), 10.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [span("sim.trial", 0.0, 4.0, -1), span("ftl.a", 1.0, 3.0, 0),
                 span("ftl.b", 2.0, 3.5, 0)]
        self.assertAlmostEqual(run.self_times(spans)["sim"], 4.0 - 2.5)


class OutputSchema(unittest.TestCase):
    def test_end_to_end_result_is_valid(self):
        values = run.end_to_end(raw_document(trace=False))
        self.assertEqual(values["kops"], 1.0)  # median of 1000 pages / {1, 2, 0.5} s
        self.assertEqual(values["trials_per_s"], 0.5)
        self.assertEqual(values["setup_s"], 2.0)
        result = run.result_line(True, 3, 0, values, BENCHMARK["end_to_end"])
        self.assertEqual(run.validate_result(result, BENCHMARK["end_to_end"]), [])
        self.assertEqual(sorted(values), sorted(m["name"] for m in BENCHMARK["end_to_end"]))
        json.loads(json.dumps(result))

    def test_per_layer_result_is_valid(self):
        values = run.per_layer(raw_document(trace=True))
        self.assertAlmostEqual(values["sim.self_share"], 0.8)
        self.assertAlmostEqual(values["bench.span_coverage"], 0.8)
        result = run.result_line(True, 3, 0, values, BENCHMARK["per_layer"])
        self.assertEqual(run.validate_result(result, BENCHMARK["per_layer"]), [])
        self.assertTrue(set(values) <= {m["name"] for m in BENCHMARK["per_layer"]})

    def test_schema_errors_are_reported(self):
        declared = BENCHMARK["end_to_end"]
        good = run.result_line(True, 1, 0, {}, declared)
        self.assertEqual(run.validate_result(good, declared), [])
        missing = json.loads(json.dumps(good))
        del missing["metrics"]["kops"]
        self.assertTrue(run.validate_result(missing, declared))
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"]["kops"]["unit"] = "ms"
        self.assertTrue(run.validate_result(wrong_unit, declared))
        extra_key = dict(good, extra=1)
        self.assertTrue(run.validate_result(extra_key, declared))
        self.assertTrue(run.validate_result(dict(good, attempted=0), declared))
        self.assertTrue(run.validate_result(dict(good, failed=1.5), declared))


class BenchmarkContract(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(BENCHMARK["workloads"]) <= 8)
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        names = [w["name"] for w in BENCHMARK["workloads"]]
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(NAME.match(w["name"]))
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertTrue(NAME.match(m["name"]), m["name"])
            self.assertTrue(UNIT.match(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))

    def test_every_metric_is_documented(self):
        self.assertEqual(sorted(run.CONFIG["end_to_end"]),
                         sorted(m["name"] for m in BENCHMARK["end_to_end"]))
        self.assertEqual(sorted(run.CONFIG["per_layer"]),
                         sorted(m["name"] for m in BENCHMARK["per_layer"]))
        self.assertNotEqual(run.CONFIG["default_seed"], run.CONFIG["held_out_seed"])


if __name__ == "__main__":
    unittest.main()
