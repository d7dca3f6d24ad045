"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench`` (or
``python3 -m unittest discover -s perfbench``).
"""

from __future__ import annotations

import json
import os
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402


class TestGenerators(unittest.TestCase):
    def test_campaign_streams_are_a_function_of_the_seed(self):
        for workload in ("campaign_direct", "campaign_served"):
            a = inputs.campaign_specs(workload, 7, 60)
            b = inputs.campaign_specs(workload, 7, 60)
            c = inputs.campaign_specs(workload, 8, 60)
            self.assertEqual(inputs.stream_digest(a), inputs.stream_digest(b))
            self.assertNotEqual(inputs.stream_digest(a), inputs.stream_digest(c))

    def test_solver_stream_is_a_function_of_the_seed(self):
        a = inputs.solver_instances(3, 200)
        self.assertEqual(inputs.stream_digest(a),
                         inputs.stream_digest(inputs.solver_instances(3, 200)))
        self.assertNotEqual(inputs.stream_digest(a),
                            inputs.stream_digest(inputs.solver_instances(4, 200)))
        again = inputs.solver_instances(3, 200)
        for first, second in zip(a[:20], again[:20]):
            built_a, built_b = first.build(), second.build()
            if first.kind in ("chain_dp", "budget_dp"):
                self.assertEqual(list(built_a.works), list(built_b.works))
            elif first.kind == "independent":
                self.assertEqual(built_a, built_b)

    def test_served_specs_are_distinct_so_nothing_deduplicates(self):
        specs = inputs.campaign_specs("campaign_served", 1, 300)
        self.assertEqual(len({spec.cache_key() for spec in specs}), len(specs))

    def test_campaign_parameters_stay_in_their_ranges(self):
        for spec in inputs.campaign_specs("campaign_direct", 5, 96):
            self.assertTrue(10 <= spec.chain.n <= 200)
            load = sum(spec.build_chain().works) / spec.failure.mtbf
            self.assertTrue(0.2 <= load <= 1.0, load)

    def test_low_discrepancy_draws_cover_the_range_evenly(self):
        for seed in range(5):
            start = np.random.default_rng(seed).uniform()
            sampler = inputs.Weyl(0.0, 10.0, inputs._STEPS[0], start)
            draws = [sampler.draw() for _ in range(13)]
            self.assertTrue(all(0.0 <= x < 10.0 for x in draws))
            # every tenth of the range holds one or two of 13 draws
            counts = np.bincount([int(x) for x in draws], minlength=10)
            self.assertTrue(counts.min() >= 1 and counts.max() <= 2, counts)
            ints = inputs.Weyl(5, 12, inputs._STEPS[1], start)
            values = [ints.draw_int() for _ in range(200)]
            self.assertEqual(set(values), set(range(5, 13)))


class TestPercentileRule(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_supported_percentile(19))
        self.assertEqual(stats.highest_supported_percentile(20), 50.0)
        self.assertEqual(stats.highest_supported_percentile(199), 90.0)
        self.assertEqual(stats.highest_supported_percentile(200), 95.0)
        self.assertEqual(stats.highest_supported_percentile(1000), 99.0)
        self.assertEqual(stats.highest_supported_percentile(10000), 99.9)

    def test_min_samples_for_p95(self):
        self.assertEqual(stats.min_samples_for(95.0), 200)
        self.assertGreaterEqual(stats.samples_beyond(200, 95.0), 10)
        self.assertLess(stats.samples_beyond(199, 95.0), 10)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 201))
        self.assertEqual(stats.percentile(values, 95.0), 190)
        self.assertEqual(stats.median(values), 100.5)


class TestMetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("op_p50_ms", "jobs.update_progress_count", "a-b.c_1"):
            self.assertTrue(stats.valid_metric_name(good))
        for bad in ("", "_x", "op p50", "ms/s", "é", "x" * 65):
            self.assertFalse(stats.valid_metric_name(bad), bad)

    def test_benchmark_json_matches_what_the_runner_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            config = json.load(handle)
        e2e = [(m["name"], m["unit"]) for m in config["end_to_end"]]
        layer = [(m["name"], m["unit"]) for m in config["per_layer"]]
        self.assertEqual(e2e, list(run.END_TO_END))
        self.assertEqual(layer, list(run.PER_LAYER))
        names = [name for name, _ in e2e + layer]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(stats.valid_metric_name(name), name)
        self.assertEqual([w["name"] for w in config["workloads"]], list(run.WORKLOADS))


class TestServedCheck(unittest.TestCase):
    def test_one_ulp_perturbation_is_caught(self):
        rng = np.random.default_rng(0)
        direct = {"optimal_dp": list(rng.uniform(10, 20, 100)),
                  "checkpoint_all": list(rng.uniform(10, 20, 100))}
        served = json.loads(json.dumps(direct))  # the service's JSON round trip
        self.assertTrue(checks.same_samples(direct, served))
        served["checkpoint_all"][57] = float(np.nextafter(served["checkpoint_all"][57], np.inf))
        self.assertFalse(checks.same_samples(direct, served))

    def test_swapped_strategies_are_caught(self):
        direct = {"a": [1.0, 2.0], "b": [3.0, 4.0]}
        self.assertFalse(checks.same_samples(direct, {"a": [3.0, 4.0], "b": [1.0, 2.0]}))


class TestSolverCheck(unittest.TestCase):
    def test_chain_trivial_bounds_match_the_library_placements(self):
        from repro.baselines.strategies import checkpoint_all_chain, checkpoint_none_chain
        from repro.workflows.generators import uniform_random_chain

        chain = uniform_random_chain(40, seed=3, initial_recovery=0.3)
        bounds = checks._chain_trivial(chain, 0.5, 0.004)
        self.assertAlmostEqual(bounds["checkpoint_all"] / checkpoint_all_chain(
            chain, 0.5, 0.004).expected_makespan, 1.0, places=12)
        self.assertAlmostEqual(bounds["checkpoint_none"] / checkpoint_none_chain(
            chain, 0.5, 0.004).expected_makespan, 1.0, places=12)

    def test_every_kind_of_the_stream_passes(self):
        import workloads

        seen = set()
        for instance in inputs.solver_instances(11, 160):
            if instance.kind in seen:
                continue
            seen.add(instance.kind)
            data = instance.build()
            self.assertIsNone(checks.solver_violation(
                instance, data, workloads.solve(instance, data)))
        self.assertEqual(len(seen), 4)


class TestSpans(unittest.TestCase):
    def test_self_time_subtracts_child_coverage(self):
        tracer = Tracer()
        tracer.op = 0
        root = tracer.add("root", 0.0, 10.0)
        tracer._stack.append(0)
        tracer.add("a", 1.0, 4.0)
        tracer.add("b", 3.0, 6.0)  # overlaps a: covered once
        tracer.add("c", 9.0, 12.0)  # runs past the parent: clipped
        tracer._stack.pop()
        self.assertEqual(root[0], "root")
        self.assertEqual(tracer.self_times(), [10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0])

    def test_nested_spans_record_parent_and_op(self):
        tracer = Tracer()
        tracer.op = 4
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        self.assertEqual([r[3] for r in tracer.spans], [-1, 0])
        self.assertEqual([r[4] for r in tracer.spans], [4, 4])


if __name__ == "__main__":
    unittest.main()
