"""Tests of the benchmark's statistics and metric helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(stats.median([7.0]), 7.0)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.9, 1.3, 1.0, 1.1, 2.5, 1.05, 0.95, 1.2, 1.15, 1.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0))

    def test_spread_is_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 3.0)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)
        self.assertEqual(stats.spread([0.0, 0.0]), 0.0)

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(stats.geomean([2.0, 8.0, 4.0]), 4.0)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])

    def test_geomean_of_medians_takes_each_inputs_median_first(self):
        # Medians 1.0 and 9.0 (the 100.0 outlier does not move the first).
        samples = [[1.0, 100.0, 0.5], [9.0]]
        self.assertAlmostEqual(stats.geomean_of_medians(samples), 3.0)

    def test_compiles_per_s_counts_every_timed_compile(self):
        samples = [[0.5, 0.5], [1.0], [2.0]]
        self.assertAlmostEqual(stats.compiles_per_s(samples), 4 / 4.0)
        with self.assertRaises(ValueError):
            stats.compiles_per_s([[], []])

    def test_host_speed_is_reference_over_median_gauge_sample(self):
        self.assertAlmostEqual(stats.host_speed([2.0, 4.0, 3.0], 1.5), 0.5)
        self.assertAlmostEqual(stats.host_speed([1.0], 2.0), 2.0)
        with self.assertRaises(ValueError):
            stats.host_speed([], 1.0)


def raw_record(errors=("", ""), gauge=(1.0, 1.0, 1.0)):
    """A raw record of two inputs, shaped like hca_perfbench's output. The
    gauge samples of the set-up, untraced and traced phases are the given
    multiples of the reference (1 = reference host speed)."""
    inputs = []
    for index, error in enumerate(errors):
        inputs.append({
            "name": f"k{index}", "faults": 0, "error": error,
            "compile_s": [0.1 * (index + 1)] * 4,
            "traced_compile_s": [0.11 * (index + 1)] * 2,
            "compiles": 6, "failed": 6 if error else 0,
            "legal": True, "ii": 4 * (index + 1), "recvs": 10 * (index + 1),
            "rung": 1 + 2 * index,
            "counts": {"hca.outer_attempts": 2, "hca.legal_attempts": 1,
                       "hca.cache_hits.L2": 3, "hca.cache_misses.L2": 1,
                       "see.routed_operands": 1, "see.route_failures": 3,
                       "see.fresh_states": 1000},
            "layer_s": {"see.self_s": 0.004, "trace.compile_s": 0.1,
                        "trace.unattributed_s": 0.001},
        })
    ref = run.GAUGE_REFERENCE_S
    return {"inputs": inputs, "setup_s": [0.3, 0.1, 0.2],
            "gauge_s": {phase: [ref * scale] * 3 for phase, scale in
                        zip(("setup", "untraced", "traced"), gauge)},
            "peak_rss_mb": 20.5,
            "setup_layers": {"machine.model_build_s": 0.01,
                             "ddg.parse_s": 0.02, "ddg.interp_s": 0.03},
            "check_layers": {"sched.modulo_s": 0.04, "sim.check_s": 0.05}}


class MetricsTest(unittest.TestCase):
    def test_end_to_end_metrics(self):
        m = run.end_to_end(raw_record())
        self.assertAlmostEqual(m["compile_s.geomean"], math.sqrt(0.1 * 0.2))
        self.assertAlmostEqual(m["compiles_per_s"], 8 / 1.2)
        self.assertAlmostEqual(m["ii.geomean"], math.sqrt(4 * 8))
        self.assertAlmostEqual(m["recvs.geomean"], math.sqrt(10 * 20))
        self.assertEqual(m["legal_frac"], 1.0)
        self.assertEqual(m["output_ok_frac"], 1.0)
        self.assertEqual(m["ladder_rung.mean"], 2.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 20.5)

    def test_times_are_scaled_to_reference_host_speed(self):
        # The untraced phase ran at half speed, the set-up at double speed.
        m = run.end_to_end(raw_record(gauge=(0.5, 2.0, 1.0)))
        self.assertAlmostEqual(m["compile_s.geomean"], math.sqrt(0.1 * 0.2) / 2)
        self.assertAlmostEqual(m["compiles_per_s"], 2 * 8 / 1.2)
        self.assertAlmostEqual(m["setup_s"], 0.4)
        self.assertAlmostEqual(m["ii.geomean"], math.sqrt(4 * 8))
        layers = run.per_layer(raw_record(gauge=(0.5, 2.0, 4.0)))
        self.assertAlmostEqual(layers["see.self_s"], 0.008 / 4)
        self.assertAlmostEqual(layers["ddg.parse_s"], 0.04)
        self.assertAlmostEqual(layers["bench.host_speed"], 0.5)
        self.assertAlmostEqual(layers["bench.compile_wall_s.geomean"],
                               math.sqrt(0.1 * 0.2))
        # Traced compiles take 1.1x the untraced ones at equal host speed.
        self.assertAlmostEqual(layers["trace.overhead_frac"], 1.1 * 2 / 4 - 1)

    def test_failed_output_check_lowers_output_ok_frac(self):
        m = run.end_to_end(raw_record(errors=("", "simulated memory differs")))
        self.assertEqual(m["output_ok_frac"], 0.5)

    def test_per_layer_ratios(self):
        m = run.per_layer(raw_record())
        self.assertEqual(m["hca.attempt_yield"], 0.5)
        self.assertEqual(m["hca.cache_hit_frac.L2"], 0.75)
        self.assertEqual(m["see.route_yield"], 0.25)
        self.assertAlmostEqual(m["see.us_per_state"], 1e6 * 0.008 / 2000)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertAlmostEqual(m["trace.unattributed_frac"], 0.01)

    def test_benchmark_json_names_every_computed_metric(self):
        spec = run.load_spec()
        raw = raw_record()
        self.assertEqual({d["name"] for d in spec["end_to_end"]},
                         set(run.end_to_end(raw)))
        self.assertEqual({d["name"] for d in spec["per_layer"]},
                         set(run.per_layer(raw)))


if __name__ == "__main__":
    unittest.main()
