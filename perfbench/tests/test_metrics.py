"""Metric arithmetic of perfbench/metrics.py, and its agreement with
BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def span(name, tag, start, end, parent=-1, replayed=0, work=0, op=1):
    return [name, tag, start, end, parent, op, replayed, work]


def synthetic_doc(workload="dense-overlap"):
    """A measurement document with hand-picked numbers, shaped like the
    C++ program's output."""
    spans = [
        # Two passes over a two-instance set, serial and N_t=4.
        span("gentrius.run_serial", "serial#0", 0, 100),
        span("gentrius.run_serial", "serial#1", 0, 300),
        span("gentrius.run_serial", "serial#0", 0, 120),
        span("gentrius.run_serial", "serial#1", 0, 260),
        span("parallel.run_parallel", "4t#0", 0, 40),
        span("parallel.run_parallel", "4t#1", 0, 80),
        span("parallel.run_parallel", "1t#0", 0, 110),
        span("parallel.run_parallel", "1t#1", 0, 290),
        span("gentrius.build_problem", "#0", 0, 4),
        span("gentrius.build_problem", "#1", 0, 6),
        span("gentrius.terrace.choose_dynamic", "", 0, 7),
        span("gentrius.terrace.insert", "", 0, 3),
        span("gentrius.terrace.remove", "", 0, 2),
        span("gentrius.enumerator.adopt_task", "", 0, 30, work=10),
        span("gentrius.enumerator.rewind_to_split", "", 0, 20, work=10),
        # apply [1000, 2000] with one replayed child per layer.
        span("incremental.apply", "", 1000, 2000),
        span("decompose.analyze_pam", "after", 3000, 3100, 15, 1),
        span("gentrius.canonicalize_instance", "", 3100, 3300, 15, 1),
        span("perfbench.replay", "", 4000, 4000),
        span("decompose.plan_shards", "", 4000, 4500, 18, 1),
        span("pam.fingerprint", "", 4500, 4540, 18, 1),
        # From-scratch runs next to three more applies, one per operation.
        span("incremental.apply", "", 0, 100, op=7),
        span("decompose.run_sharded", "scratch", 0, 500, op=7),
        span("incremental.apply", "", 0, 100, op=8),
        span("decompose.run_sharded", "scratch", 0, 1000, op=8),
        span("incremental.apply", "", 0, 100, op=9),
        span("decompose.run_sharded", "scratch", 0, 200, op=9),
    ]
    return {
        "workload": workload,
        "peak_rss_kb": 2048,
        "samples": {
            "setup_engine_s": [0.3, 0.1, 0.2],
            "setup_session_s": [0.5],
            # Per instance of the set: "<configuration>#<instance>".
            "solve_serial_s#0": [0.5, 0.4, 0.6],
            "solve_serial_s#1": [0.7, 0.8],
            "solve_2t_s#0": [0.6],
            "solve_4t_s#0": [0.2, 0.1],
            "solve_4t_s#1": [0.3],
            "solve_4t_deques_gw_s#0": [0.35],
            # Three edits, the first two played twice.
            "edit_id": [0, 1, 2, 0, 1],
            "edit_ms": [1.0, 2.0, 4.0, 3.0, 5.0],
            "read_ms": [0.5, 0.5, 0.6, 0.4, 0.7],
            # The host ran at half the reference speed.
            "host_probe_s": [2 * metrics.PROBE_REFERENCE_S] * 3,
            "parallel.tasks_executed": [5],
            "parallel.tasks_offered": [30],
            "parallel.tasks_stolen": [5],
            "parallel.steal_attempts": [6],
            "parallel.failed_probes": [1],
            "parallel.queue_full_rejections": [90],
            "parallel.max_queue_depth": [3],
            "parallel.adopted_actual_states": [500],
            "incremental.hits": [2, 2, 1],
            "incremental.misses": [1, 1, 1],
            "incremental.evictions": [0],
            "incremental.recomputed_states": [10, 20, 30],
            "incremental.recomputed_components": [1, 1, 0],
        },
        "untraced_samples": {
            "solve_serial_s#0": [0.5], "solve_serial_s#1": [0.5],
            "solve_4t_s#0": [0.15], "solve_4t_s#1": [0.3],
            "edit_id": [0, 1, 2], "edit_ms": [2.0, 1.0, 4.0],
            "read_ms": [0.4, 0.4, 0.4],
        },
        "values": {
            "gentrius.states": 1000, "gentrius.dead_ends": 50,
            "gentrius.selection.fresh": 300,
            "gentrius.selection.cached": 100,
            "gentrius.selection.existence": 20,
            "gentrius.selection.rebuilt": 400,
            "vthread.makespan_1t": 800.0, "vthread.makespan_4t": 200.0,
        },
        "spans": spans,
    }


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(metrics.percentile(values, 0.5), 5)
        self.assertEqual(metrics.percentile(values, 0.9), 9)
        self.assertEqual(metrics.percentile(values, 1.0), 10)
        self.assertEqual(metrics.percentile([7, 3], 0.0), 3)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail(list(range(99))))
        self.assertEqual(metrics.tail(list(range(100)))[0], 0.9)
        self.assertEqual(metrics.samples_beyond(100, 0.9), 10)
        self.assertEqual(metrics.tail(list(range(1000)))[0], 0.99)
        self.assertEqual(metrics.tail(list(range(10000)))[0], 0.999)
        p, value = metrics.tail(list(range(1, 101)))
        self.assertEqual(value, 90)


class SelfTime(unittest.TestCase):
    def child(self, start, end, replayed=0):
        return {"start": start, "end": end, "replayed": replayed}

    def test_nested_children_are_subtracted_once(self):
        parent = {"start": 0, "end": 100}
        kids = [self.child(10, 30), self.child(20, 40), self.child(90, 120)]
        # Covered: [10, 40] and the in-span part [90, 100].
        self.assertEqual(metrics.self_time(parent, kids), 60)

    def test_replayed_children_subtract_their_duration(self):
        parent = {"start": 0, "end": 100}
        kids = [self.child(10, 30), self.child(200, 215, replayed=1)]
        self.assertEqual(metrics.self_time(parent, kids), 65)

    def test_no_children(self):
        self.assertEqual(metrics.self_time({"start": 5, "end": 9}, []), 4)


class Samples(unittest.TestCase):
    def test_per_edit_takes_each_edits_median_play(self):
        s = {"edit_id": [0, 1, 0, 1, 0], "edit_ms": [4, 2, 1, 3, 5]}
        self.assertEqual(sorted(metrics.per_edit(s, "edit_ms")), [2.5, 4])

    def test_set_median_sums_per_instance_medians(self):
        s = {"solve_serial_s#0": [3, 1, 2], "solve_serial_s#1": [5, 7],
             "solve_serial_s_other#0": [100]}
        self.assertEqual(metrics.set_median(s, "solve_serial_s"), (2 + 6, 5))

    def test_host_factor(self):
        doc = {"samples": {"host_probe_s": [
            metrics.PROBE_REFERENCE_S * x for x in (4, 1, 2)]}}
        self.assertAlmostEqual(metrics.host_factor(doc), 0.5)


class EndToEnd(unittest.TestCase):
    def test_values_and_ratio_bases(self):
        m = metrics.end_to_end(synthetic_doc())
        # Medians, scaled by the host factor (0.5 here).
        self.assertAlmostEqual(m["setup_s"][0], 0.2 * 0.5)
        self.assertEqual(m["setup_s"][1:], ("s", 3))
        # Per instance the median call, summed over the set.
        self.assertAlmostEqual(m["solve_serial_s"][0], (0.5 + 0.75) * 0.5)
        self.assertEqual(m["solve_serial_s"][2], 5)
        self.assertAlmostEqual(m["solve_4t_s"][0], (0.15 + 0.3) * 0.5)
        # speedup_4t = serial set time / N_t=4 set time.
        self.assertAlmostEqual(m["speedup_4t"][0], 1.25 / 0.45)
        # Per edit the median play (2, 3.5, 4), then across edits.
        self.assertAlmostEqual(m["edit_p50_ms"][0], 3.5 * 0.5)
        self.assertEqual(m["edit_p50_ms"][1:], ("ms", 5))
        self.assertAlmostEqual(m["edit_p90_ms"][0], 4.0 * 0.5)
        self.assertAlmostEqual(m["read_p50_ms"][0], 0.6 * 0.5)
        # Memory is not a timing.
        self.assertEqual(m["peak_rss_mb"][0], 2.0)

    def test_setup_follows_the_workload(self):
        m = metrics.end_to_end(synthetic_doc("edit-stream"))
        self.assertEqual(m["setup_s"], (0.5 * 0.5, "s", 1))


class PerLayer(unittest.TestCase):
    def setUp(self):
        self.m = {k: v[0] for k, v in
                  metrics.per_layer(synthetic_doc()).items()}

    def test_set_time_sums_per_instance_medians(self):
        spans = metrics.parse_spans(synthetic_doc()["spans"])
        # Instance 0: median(100, 120) = 110; instance 1: median(300, 260).
        self.assertEqual(metrics.set_time(spans, "gentrius.run_serial",
                                          "serial"), 110 + 280)

    def test_engine_ratios(self):
        m = self.m
        self.assertAlmostEqual(m["gentrius.ns_per_state"], 390 / 1000)
        self.assertAlmostEqual(m["gentrius.dead_end_ratio"], 0.05)
        self.assertAlmostEqual(m["gentrius.selection.cache_ratio"],
                               100 / 400)
        self.assertAlmostEqual(m["gentrius.selection.rebuilt_per_state"], 0.4)
        self.assertEqual(m["gentrius.terrace.insert_remove_ns"], 5)
        # (adopt + rewind) per replayed insertion.
        self.assertEqual(m["gentrius.replay_ns_per_insertion"], 5)
        # N_t=1 pool over run_serial.
        self.assertAlmostEqual(m["parallel.pool_overhead_1t"], 400 / 390)
        # offered / (offered + rejections); adopted states per stolen task.
        self.assertAlmostEqual(m["parallel.offer_accept_ratio"], 0.25)
        self.assertEqual(m["parallel.task_states_mean"], 100)

    def test_simulator_error_is_against_the_traced_observation(self):
        m = self.m
        self.assertEqual(m["vthread.predicted_speedup_4t"], 4.0)
        observed = 390 / (40 + 80)
        self.assertAlmostEqual(m["vthread.speedup_error_4t"],
                               4.0 / observed - 1)

    def test_session_layers(self):
        m = self.m
        self.assertEqual(m["decompose.analyze_pam_ms"], 100 / 1e6)
        self.assertEqual(m["decompose.plan_shards_ms"], 500 / 1e6)
        self.assertEqual(m["pam.fingerprint_us"], 40 / 1e3)
        self.assertEqual(m["gentrius.canonicalize_us"], 200 / 1e3)
        # apply 1000 ns minus its replayed children (100 + 200); the
        # plan_shards and fingerprint replays hang off their own root. The
        # other applies have no children: median(700, 100, 100, 100).
        self.assertEqual(m["incremental.apply_self_ms"], 100 / 1e6)
        self.assertAlmostEqual(m["incremental.cache_hit_ratio"], 5 / 8)
        self.assertEqual(m["incremental.recomputed_states_per_edit"], 20)
        # Median of per-edit from-scratch / apply ratios: 5, 10, 2 (the
        # first apply has no from-scratch run in its operation).
        self.assertEqual(m["incremental.wall_speedup_p50"], 5)

    def test_trace_overhead_is_traced_over_untraced(self):
        # Uncorrected: both sides ran in the same run.
        o = metrics.overheads(synthetic_doc())
        self.assertAlmostEqual(o["solve_serial_s"], 0.25)
        self.assertAlmostEqual(o["solve_4t_s"], 0.0)
        self.assertAlmostEqual(o["edit_ms"], 0.75)
        self.assertAlmostEqual(o["read_ms"], 0.5)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON) as f:
            self.spec = json.load(f)

    def check(self, declared, computed):
        self.assertEqual([m["name"] for m in declared], list(computed))
        for m in declared:
            self.assertEqual(m["unit"], computed[m["name"]][1], m["name"])

    def test_end_to_end_metrics_match(self):
        self.check(self.spec["end_to_end"],
                   metrics.end_to_end(synthetic_doc()))

    def test_per_layer_metrics_match_and_have_targets(self):
        computed = metrics.per_layer(synthetic_doc())
        self.check(self.spec["per_layer"], computed)
        self.assertEqual(set(computed), set(metrics.LAYER_TARGETS))

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(metrics.SETUP_SAMPLE))


if __name__ == "__main__":
    unittest.main()
