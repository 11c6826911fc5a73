"""Tests of the metric report (perfbench/report.py) and of the result
line perfbench/run.py prints. The C++ side (stat-tree digest, record
checks) is covered by `carve-perfbench --self-test`, which
`python3 perfbench/run.py --self-test` runs before these tests."""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import report  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "carve-perfbench")

REPLAY_KEYS = [
    "gen_ns_per_inst", "tag_ns_per_probe", "mshr_ns_per_op",
    "tlb_ns_per_translate", "rdc_ns_per_probe", "dram_ns_per_access",
    "link_ns_per_packet", "imst_ns_per_access", "numa_ns_per_access",
    "numa_commit_us_per_window", "eventq_ns_per_event",
]


def latencies(n, base=0.001):
    return [base * (1 + i / n) for i in range(n)]


def sim_raw(workload="sweep", hits=1100):
    return {
        "workload": workload,
        "passes": [{"winst": 4e6, "busy_s": 3.0, "jobs": 2},
                   {"winst": 4e6, "busy_s": 11.2, "jobs": 2},
                   {"winst": 4e6, "busy_s": 3.6, "jobs": 2}],
        "setup_samples": [[0.002] * 8, [0.003] * 8],
        "rss_kib": 47104,
        "hit_latency_s": latencies(hits),
        "reloads_in_window": hits,
        # The second run of the first job was slowed by the host.
        "job_latency_s": [[1.0, 9.0, 1.2], [2.0, 2.2, 2.4]],
        "jobs_done": 6,
        "window_s": 20.0,
        "attempted": 1140,
        "failed": 0,
    }


def served_raw(hits=1000):
    return {
        "workload": "served",
        "requests": {"hit_latency_s": latencies(hits, 0.004),
                     "miss_latency_s": [0.05] * 100,
                     "submit_s": [0.0004] * (hits + 100),
                     "hit_result_s": [0.004] * hits,
                     "miss_server_s": [0.04] * 100,
                     "miss_winst": [12288.0] * 100,
                     "record_bytes": [107000.0] * (hits + 100),
                     "done_s": [[i / 50 + 0.001 for i in range(500)],
                                [i / 50 + 0.001
                                 for i in range(hits + 100 - 500)]]},
        "completed": hits + 100,
        "window_s": 20.0,
        "phase_s": 10.0,
        "setup_samples": [[0.002] * 5],
        "open_s": [0.001] * 10,
        "server_stats": [{"memo_hits": 400, "disk_hits": 0},
                         {"memo_hits": 590, "disk_hits": 10}],
        "serialize_s": [0.001] * 100,
        "rss_kib": 110000,
        "attempted": hits + 120,
        "failed": 0,
    }


def traced(raw):
    raw["replays"] = {k: [10.0, 12.0, 11.0] for k in REPLAY_KEYS}
    raw["replays"]["accesses"] = 160000
    counts = {"sums": {"events": 1e6, "insts": 1e5, "l1.hits": 7.0,
                       "l1.probes": 10.0, "engine.barrier_wait_ns": 2e8,
                       "engine.windows": 100.0},
              "hists": {"l2.miss_lifetime_p99": [[2047.0, 999.0],
                                                 [1023.0, 5000.0]],
                        "engine.window_occupancy_p50": [[511.0, 40.0]]}}
    raw["layer"] = {"counts": counts}
    if raw["workload"] == "served":
        raw["layer"]["replays"] = {"key_s": [4e-5], "cache_load_s": [8e-5],
                                   "cache_store_s": [9e-5],
                                   "parse_s": [1.2e-3]}
    else:
        raw["layer"].update({
            "job_times": {"build_s": [0.003], "run_s": [1.0],
                          "collect_s": [0.007], "serialize_s": [0.0026],
                          "record_bytes": [128000.0]},
            "untraced_pass": {"winst": 4e6, "busy_s": 9.0, "jobs": 20},
            "sim_threads": 2})
        raw["service_session"] = traced(served_raw())
    return raw


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.doc = json.load(f)

    def test_workloads_and_bounds(self):
        self.assertEqual([w["name"] for w in self.doc["workloads"]],
                         ["sweep", "par"])
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class EndToEndTest(unittest.TestCase):
    def test_every_metric_on_every_workload(self):
        for raw in (sim_raw("sweep"), sim_raw("par"), served_raw()):
            rep, ok = report.end_to_end(raw)
            self.assertTrue(ok)
            self.assertEqual(set(rep.metrics), set(report.END_TO_END))
            self.assertTrue(all(v > 0 for v, _ in rep.metrics.values()))

    def test_rates_from_each_jobs_median(self):
        # A pass at each job's median: 1.2 s + 2.2 s; the slow run of
        # the first job does not enter.
        rep, _ = report.end_to_end(sim_raw())
        self.assertAlmostEqual(rep.metrics["winst_per_s"][0], 4e6 / 3.4)
        self.assertAlmostEqual(rep.metrics["jobs_per_s"][0], 2 / 3.4)
        self.assertAlmostEqual(rep.metrics["miss_p50_s"][0], 1.7)
        line = [l for l in rep.lines if l.startswith("miss_p50_s")][0]
        self.assertIn("Harrell-Davis median over 2 jobs of each job's "
                      "median", line)
        self.assertIn("n=6", line)

    def test_setup_is_summed_over_jobs(self):
        rep, _ = report.end_to_end(sim_raw())
        self.assertAlmostEqual(rep.metrics["setup_s"][0], 0.005)
        line = [l for l in rep.lines if l.startswith("setup_s")][0]
        self.assertIn("median of 5 blocks' set-up summed over 2 job(s), "
                      "n=16", line)

    def test_p99_needs_1000_hits(self):
        rep, ok = report.end_to_end(served_raw(hits=999))
        self.assertFalse(ok)
        self.assertEqual(rep.metrics["hit_p99_ms"][0], 0.0)
        self.assertTrue(any("n=999" in l for l in rep.lines))

    def test_percentiles_print_sample_count(self):
        rep, _ = report.end_to_end(served_raw(hits=2500))
        line = [l for l in rep.lines if l.startswith("hit_p99_ms")][0]
        self.assertIn("median of 2 blocks' p99", line)
        self.assertIn("n=2500", line)

    def test_hit_p50_is_median_of_block_means(self):
        rep, _ = report.end_to_end(sim_raw(hits=3000))
        line = [l for l in rep.lines if l.startswith("hit_p50_ms")][0]
        self.assertIn("median of 3 blocks' mean, n=3000", line)

    def test_served_rates(self):
        rep, _ = report.end_to_end(served_raw(hits=1000))
        self.assertAlmostEqual(rep.metrics["winst_per_s"][0], 12288 / 0.04)
        # One request every 20 ms in each 10 s phase.
        self.assertEqual(rep.metrics["jobs_per_s"][0], 50)


class PerLayerTest(unittest.TestCase):
    def test_every_metric_on_every_workload(self):
        for raw in (sim_raw("sweep"), sim_raw("par"), served_raw()):
            rep = report.per_layer(traced(raw))
            self.assertEqual(set(rep.metrics), set(report.PER_LAYER))

    def test_ratios_printed_with_base(self):
        rep = report.per_layer(traced(sim_raw("sweep")))
        line = [l for l in rep.lines if l.startswith("cache.l1_hit_rate")][0]
        self.assertIn("(hits 7 / probes 10)", line)
        self.assertAlmostEqual(rep.metrics["cache.l1_hit_rate"][0], 0.7)

    def test_histogram_p99_only_with_ten_beyond(self):
        rep = report.per_layer(traced(sim_raw("sweep")))
        # The 999-sample histogram cannot give a p99; the other can.
        self.assertEqual(rep.metrics["cache.l2_miss_lifetime_p99_cyc"][0],
                         1023.0)
        line = [l for l in rep.lines
                if l.startswith("cache.l2_miss_lifetime_p99_cyc")][0]
        self.assertIn("n=5000", line)

    def test_barrier_share_base(self):
        rep = report.per_layer(traced(sim_raw("par")))
        self.assertAlmostEqual(
            rep.metrics["engine.barrier_wait_share"][0], 0.1)

    def test_service_layer_from_embedded_session(self):
        rep = report.per_layer(traced(sim_raw("sweep")))
        self.assertEqual(rep.metrics["service.memo_hits"][0], 990)
        line = [l for l in rep.lines if l.startswith("service.submit_ms")][0]
        self.assertIn("embedded", line)

    def test_overhead_line(self):
        line = report.tracing_overhead(traced(sim_raw("par")))
        self.assertIn("tracing overhead", line)


def emitted(raw, trace):
    """run.emit's result line for raw."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit(raw, trace)
    return json.loads(out.getvalue().splitlines()[-1])


class OutcomeTest(unittest.TestCase):
    def test_clean_traced_run_is_correct(self):
        res = emitted(traced(sim_raw("sweep")), 1)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["attempted"], 1140 + 1120)

    def test_failed_service_session_fails_the_run(self):
        raw = traced(sim_raw("par"))
        raw["service_session"]["failed"] = 1
        raw["service_session"]["errors"] = [
            "CARVE-HWC/Lulesh: record differs from the in-process record"]
        attempted, failed, errors = report.outcome(raw)
        self.assertEqual(failed, 1)
        self.assertEqual(errors, ["service session: CARVE-HWC/Lulesh: "
                                  "record differs from the in-process "
                                  "record"])
        res = emitted(raw, 1)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_failed_check_fails_the_run(self):
        raw = sim_raw("par")
        raw["checks"] = {"par_digest_equals_serial": False}
        self.assertFalse(emitted(raw, 0)["correct"])


@unittest.skipUnless(os.path.exists(BINARY),
                     "carve-perfbench not built; run perfbench/run.py --self-test")
class BinarySelfTest(unittest.TestCase):
    def test_digest_and_record_checks(self):
        p = subprocess.run([BINARY, "--self-test"], cwd=ROOT,
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("host stats do not enter the digest", p.stdout)


if __name__ == "__main__":
    unittest.main()
