"""Turn carve-perfbench's raw samples into the benchmark's metrics.

end_to_end(raw) gives the seven end-to-end metrics of an untraced run
(and whether its hits sufficed for a p99); per_layer(raw) gives the
per-layer metrics of a traced run. Both fill a Report: metrics maps a
name to (value, unit), and lines are the human-readable report, every
ratio with its base and every percentile with its sample count.
"""

import json
import os

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _units(section):
    """name -> unit of one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


END_TO_END = _units("end_to_end")
PER_LAYER = _units("per_layer")

# Samples a p99 needs: ten beyond it.
P99_MIN_SAMPLES = 1000


class Report:
    """Collects metrics and their report lines."""

    def __init__(self, units):
        self.units = units
        self.metrics = {}
        self.lines = []

    def put(self, name, value, note=""):
        unit = self.units[name]
        self.metrics[name] = (float(value), unit)
        self.lines.append("%-32s %16.6g %-12s %s" %
                          (name, value, unit, note))

    def put_ratio(self, name, num_name, num, den_name, den):
        value = stats.ratio(num, den)
        self.put(name, value,
                 stats.ratio_text(value, num_name, num, den_name, den))

    def absent(self, name, why):
        """A layer this workload does not reach through the
        benchmark's calls: reported as 0 with the reason."""
        self.put(name, 0.0, "n/a: " + why)


def _spread_line(rep, samples, scale, unit_name, what):
    """Quartiles of a run's own samples, with the highest percentile
    that has ten samples beyond it."""
    if len(samples) < 2:
        return
    q1, q2, q3 = (q * scale for q in stats.quartiles(samples))
    top = stats.highest_reportable(len(samples))
    tail = ""
    if top is not None and top > 50:
        v, _ = stats.percentile(samples, top)
        tail = ", pooled p%g %.4g" % (top, v * scale)
    rep.lines.append("%s: n=%d, quartiles %.4g / %.4g / %.4g %s "
                     "(spread %.3f)%s" %
                     (what, len(samples), q1, q2, q3, unit_name,
                      stats.iqr_share(samples), tail))


def outcome(raw):
    """(attempted, failed, errors) of a run, the served session that a
    traced sweep or par run embeds included: its checks are the run's
    checks too."""
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    errors = list(raw.get("errors", []))
    session = raw.get("service_session")
    if session:
        attempted += int(session["attempted"])
        failed += int(session["failed"])
        errors += ["service session: " + e for e in session.get("errors", [])]
    return attempted, failed, errors


def end_to_end(raw):
    """The seven end-to-end metrics of an untraced run."""
    rep = Report(END_TO_END)
    served = raw["workload"] == "served"
    if served:
        q = raw["requests"]
        hits, misses = q["hit_latency_s"], q["miss_latency_s"]
        rates = [w / t for w, t in zip(q["miss_winst"], q["miss_server_s"])]
        rep.put("winst_per_s", stats.median(rates),
                "median over %d misses of warp-insts / server run seconds"
                % len(rates))
        bins = []
        for done in q["done_s"]:
            bins += stats.per_second(done, raw["phase_s"])
        rep.put("jobs_per_s", stats.median(bins),
                "median of %d one-second bins, %d requests in %.2f s"
                % (len(bins), raw["completed"], raw["window_s"]))
    else:
        # A pass at each job's median time: a host slowdown of a few
        # seconds hits a few runs of a few jobs, not every job's median.
        per_job = raw["job_latency_s"]
        job_medians = [stats.median(runs) for runs in per_job]
        pass_s = sum(job_medians)
        runs = min(len(r) for r in per_job)
        rep.put("winst_per_s", raw["passes"][0]["winst"] / pass_s,
                "warp-insts of a pass / %.4g s, the sum over %d jobs of "
                "each job's median of >= %d runs"
                % (pass_s, len(job_medians), runs))
        rep.put("jobs_per_s", len(job_medians) / pass_s,
                "%d jobs / %.4g s; %d jobs run in %.2f s"
                % (len(job_medians), pass_s, raw["jobs_done"],
                   raw["window_s"]))
        hits = raw["hit_latency_s"]
        misses = [x for r in per_job for x in r]

    setup, n, blocks = stats.blocked_sum_of_means(raw["setup_samples"])
    rep.put("setup_s", setup,
            "median of %d blocks' set-up summed over %d job(s), n=%d"
            % (blocks, len(raw["setup_samples"]), n))
    rep.put("peak_rss_mb", raw["rss_kib"] / 1024.0,
            "peak resident set of this workload's process")

    hit_what = ("requests answered without simulating" if served else
                "stored records reloaded without simulating, %d inside "
                "the window" % raw["reloads_in_window"])
    typical, n, blocks = stats.blocked_mean(hits)
    p99, _, _ = stats.blocked_percentile(hits, 99)
    ok = p99 is not None
    rep.put("hit_p50_ms", (typical or 0.0) * 1e3,
            "median of %d blocks' mean, n=%d %s" % (blocks, n, hit_what))
    rep.put("hit_p99_ms", (p99 or 0.0) * 1e3,
            "median of %d blocks' p99 (>= %d samples, ten beyond each), n=%d"
            % (blocks, P99_MIN_SAMPLES, n) if ok else
            "n=%d: fewer than %d samples, no p99" % (n, P99_MIN_SAMPLES))
    if served:
        rep.put("miss_p50_s", stats.median(misses),
                "n=%d requests that simulated" % len(misses))
    else:
        rep.put("miss_p50_s", stats.hd_median(job_medians),
                "Harrell-Davis median over %d jobs of each job's median "
                "seconds (runSweep + resultToJson), n=%d"
                % (len(job_medians), len(misses)))
    _spread_line(rep, hits, 1e3, "ms", "hit latency")
    _spread_line(rep, misses, 1.0, "s", "miss latency")
    if not served:
        _spread_line(rep, [p["winst"] / p["busy_s"] for p in raw["passes"]],
                     1.0, "warp-insts/s", "winst_per_s per pass")
    return rep, ok


def _hist_p(entries, p):
    """Highest per-histogram percentile p over entries (value, count)
    whose count puts ten samples beyond it; (value, count) or None."""
    good = [(v, n) for v, n in entries
            if stats.beyond_count(int(n), p) >= stats.MIN_BEYOND]
    if not good:
        return None
    if p >= 99:
        return max(good)
    vals = sorted(v for v, _ in good)
    return stats.median(vals), sum(n for _, n in good)


def _put_hist(rep, name, entries, p, what):
    got = _hist_p(entries or [], p)
    if got is None:
        rep.put(name, 0.0, "no %s histogram with ten samples beyond p%g"
                % (what, p))
    else:
        rep.put(name, got[0], "p%g of %s, n=%d (log2 bucket bound)"
                % (p, what, got[1]))


def per_layer(raw):
    """The per-layer metrics of a traced run."""
    rep = Report(PER_LAYER)
    wl = raw["workload"]
    served = wl == "served"
    layer = raw["layer"]
    c = layer["counts"]["sums"]
    h = layer["counts"]["hists"]
    d = dict(raw["replays"])
    d.update(layer.get("replays", {}))
    cnt = lambda k: c.get(k, 0.0)

    run_s = 0.0
    if served:
        for m in ("core.build_ms", "core.run_s", "core.collect_ms"):
            rep.absent(m, "served simulates inside the service")
    else:
        jt = layer["job_times"]
        run_s = sum(jt["run_s"])
        rep.put("core.build_ms", stats.median(jt["build_s"]) * 1e3,
                "median of %d jobs" % len(jt["build_s"]))
        rep.put("core.run_s", run_s,
                "MultiGpuSystem::run summed over %d jobs" % len(jt["run_s"]))
        rep.put("core.collect_ms", stats.median(jt["collect_s"]) * 1e3,
                "median of %d jobs" % len(jt["collect_s"]))
    rep.put("core.events", cnt("events"),
            "served misses' records" if served else "")
    if served:
        rep.absent("core.ns_per_event", "no in-process run time")
    else:
        rep.put("core.ns_per_event", stats.ratio(run_s * 1e9, cnt("events")),
                "run %.4g s / events %d" % (run_s, cnt("events")))
    rep.put("core.sim_cycles", cnt("cycles"))

    ns = {k: stats.median(v) for k, v in d.items()
          if isinstance(v, list) and v}
    explained = {
        "workloads (insts x gen)": cnt("insts") * ns["gen_ns_per_inst"],
        "tlb (translates)": cnt("tlb.translates") * ns["tlb_ns_per_translate"],
        "cache tags (L1+L2 probes)":
            (cnt("l1.probes") + cnt("l2.probes")) * ns["tag_ns_per_probe"],
        "mshr (2 x L1+L2 misses)":
            2 * (cnt("l1.misses") + cnt("l2.misses")) * ns["mshr_ns_per_op"],
        "rdc (probes)": cnt("rdc.probes") * ns["rdc_ns_per_probe"],
        "dram (accesses)": cnt("dram.accesses") * ns["dram_ns_per_access"],
        "links (packets)": cnt("link.packets") * ns["link_ns_per_packet"],
        "imst (writes)": cnt("coh.imst_writes") * ns["imst_ns_per_access"],
        "numa (lines)": cnt("sm.lines") * ns["numa_ns_per_access"],
        "numa commits (windows)":
            cnt("engine.windows") * ns["numa_commit_us_per_window"] * 1e3,
        "event queue (events)":
            cnt("events") * ns["eventq_ns_per_event"],
    }
    if served:
        rep.absent("core.unexplained_share", "no in-process run time")
    else:
        covered = sum(explained.values()) * 1e-9
        share = 1.0 - stats.ratio(covered, run_s)
        rep.put("core.unexplained_share", share,
                "1 - count x ns per call %.4g s / run %.4g s"
                % (covered, run_s))
        for k, v in sorted(explained.items(), key=lambda kv: -kv[1]):
            rep.lines.append("    covered by %-28s %8.4f s (%.1f%% of run)"
                             % (k, v * 1e-9, 100 * stats.ratio(v * 1e-9,
                                                               run_s)))

    rep.put("workloads.gen_ns_per_inst", ns["gen_ns_per_inst"],
            "over %d accesses' instructions" % d["accesses"])
    rep.put_ratio("gpu.lines_per_inst", "lines", cnt("sm.lines"),
                  "insts", cnt("insts"))
    rep.put("gpu.sm_mshr_stalls", cnt("sm.mshr_stalls"))
    rep.put_ratio("cache.l1_hit_rate", "hits", cnt("l1.hits"),
                  "probes", cnt("l1.probes"))
    rep.put_ratio("cache.l2_hit_rate", "hits", cnt("l2.hits"),
                  "probes", cnt("l2.probes"))
    rep.put("cache.l2_probes", cnt("l2.probes"))
    rep.put("cache.mshr_parks", cnt("cache.mshr_parks"), "L1 + L2 parks")
    _put_hist(rep, "cache.l2_miss_lifetime_p99_cyc",
              h.get("l2.miss_lifetime_p99"), 99, "per-GPU L2 miss lifetime")
    rep.put("cache.tag_ns_per_probe", ns["tag_ns_per_probe"],
            "TagArray lookup/insert, replay median")
    rep.put("cache.mshr_ns_per_op", ns["mshr_ns_per_op"],
            "MshrFile allocate or complete, replay median")
    rep.put_ratio("tlb.l1_hit_rate", "l1_hits", cnt("tlb.l1_hits"),
                  "translates", cnt("tlb.translates"))
    rep.put("tlb.walks", cnt("tlb.walks"))
    rep.put("tlb.ns_per_translate", ns["tlb_ns_per_translate"],
            "TlbHierarchy::translate, replay median")
    rep.put("rdc.probes", cnt("rdc.probes"))
    rep.put_ratio("rdc.hit_rate", "hits", cnt("rdc.hits"),
                  "probes", cnt("rdc.probes"))
    rep.put_ratio("rdc.predictor_accuracy", "correct",
                  cnt("rdc.pred_correct"), "predictions",
                  cnt("rdc.pred_total"))
    rep.put("rdc.mshr_parks", cnt("rdc.mshr_parks"))
    _put_hist(rep, "rdc.miss_lifetime_p99_cyc",
              h.get("rdc.miss_lifetime_p99"), 99, "per-GPU RDC miss lifetime")
    rep.put("rdc.ns_per_probe", ns["rdc_ns_per_probe"],
            "AlloyCache lookup/insert, replay median")
    rep.put("dram.accesses", cnt("dram.accesses"))
    rep.put_ratio("dram.row_hit_rate", "row_hits", cnt("dram.row_hits"),
                  "accesses", cnt("dram.accesses"))
    rep.put_ratio("dram.read_q_delay_cyc", "delay_cycles",
                  cnt("dram.read_q_delay_sum"), "reads",
                  cnt("dram.read_q_delay_count"))
    rep.put("dram.ns_per_access", ns["dram_ns_per_access"],
            "MemoryController::access + its events, replay median")
    rep.put("link.gpu_bytes", cnt("link.gpu_bytes"))
    rep.put("link.packets", cnt("link.packets"))
    rep.put_ratio("link.queue_delay_cyc", "delay_cycles",
                  cnt("link.queue_delay_sum"), "packets",
                  cnt("link.queue_delay_count"))
    _put_hist(rep, "fabric.remote_read_p99_cyc",
              h.get("fabric.remote_read_p99"), 99, "remote-read latency")
    rep.put("link.ns_per_packet", ns["link_ns_per_packet"],
            "Network::send, replay median")
    rep.put("coh.invalidates", cnt("coh.invalidates"))
    rep.put("coh.writes_filtered", cnt("coh.writes_filtered"))
    rep.put("coh.flush_bytes", cnt("coh.flush_bytes"))
    rep.put("coh.imst_ns_per_access", ns["imst_ns_per_access"],
            "Imst::onAccess, replay median")
    rep.put_ratio("numa.frac_remote", "remote", cnt("traffic.remote"),
                  "post-LLC accesses", cnt("traffic.total"))
    rep.put("numa.first_touches", cnt("numa.first_touches"))
    rep.put("numa.replications", cnt("numa.replications"))
    rep.put("numa.collapses", cnt("numa.collapses"))
    rep.put("numa.route_ns_per_access", ns["numa_ns_per_access"],
            "PageManager recordAccess + route, replay median")
    rep.put("numa.commit_us_per_window", ns["numa_commit_us_per_window"],
            "PageManager::commitWindow every 256 accesses, replay median")
    rep.put("engine.windows", cnt("engine.windows"))
    rep.put("engine.exchange_msgs", cnt("engine.exchange_msgs"))
    _put_hist(rep, "engine.window_occupancy_p50",
              h.get("engine.window_occupancy_p50"), 50,
              "events per window")
    wait_ns = cnt("engine.barrier_wait_ns")
    if wl == "par":
        threads = layer["sim_threads"]
        rep.put_ratio("engine.barrier_wait_share", "barrier_wait_s",
                      wait_ns * 1e-9, "worker_s", run_s * threads)
    else:
        rep.absent("engine.barrier_wait_share",
                   "host_timing is on for par only")
    rep.put("engine.eventq_ns_per_event", ns["eventq_ns_per_event"],
            "EventQueue schedule + dispatch, replay median")

    if served:
        rep.put("harness.serialize_ms", stats.median(raw["serialize_s"]) * 1e3,
                "resultToJson of %d in-process check records"
                % len(raw["serialize_s"]))
        rep.put("harness.parse_ms", ns["parse_s"] * 1e3,
                "parse + resultFromJson of the cells' records")
        rep.put("harness.record_kb",
                stats.median(raw["requests"]["record_bytes"]) / 1024.0,
                "median served record")
    else:
        jt = layer["job_times"]
        rep.put("harness.serialize_ms", stats.median(jt["serialize_s"]) * 1e3,
                "resultToJson per job, median of %d" % len(jt["serialize_s"]))
        rep.put("harness.parse_ms", stats.median(raw["hit_latency_s"]) * 1e3,
                "record reload, median of %d" % len(raw["hit_latency_s"]))
        rep.put("harness.record_kb", stats.median(jt["record_bytes"]) / 1024.0,
                "median record of %d jobs" % len(jt["record_bytes"]))

    # The service layer: the served run itself, or the short served
    # session sweep and par embed in their traced run.
    sv = raw if served else raw["service_session"]
    q = sv["requests"]
    st = sv["server_stats"]
    sd = sv["layer"]["replays"]
    where = "" if served else " (embedded %.0f s served session)" % sv["window_s"]
    rep.put("service.open_ms", stats.median(sv["open_s"]) * 1e3,
            "Server construction to first ping, n=%d%s"
            % (len(sv["open_s"]), where))
    rep.put("service.submit_ms", stats.median(q["submit_s"]) * 1e3,
            "Client::submit, n=%d%s" % (len(q["submit_s"]), where))
    rep.put("service.result_ms", stats.median(q["hit_result_s"]) * 1e3,
            "Client::result of hits, n=%d%s" % (len(q["hit_result_s"]), where))
    rep.put("service.key_us", stats.median(sd["key_s"]) * 1e6,
            "jobKey, replay median")
    rep.put("service.cache_load_ms", stats.median(sd["cache_load_s"]) * 1e3,
            "ResultCache::get, replay median")
    rep.put("service.memo_hits", sum(x["memo_hits"] for x in st), where)
    rep.put("service.disk_hits", sum(x["disk_hits"] for x in st), where)
    rep.put("service.cache_store_ms", stats.median(sd["cache_store_s"]) * 1e3,
            "ResultCache::put, replay median")
    rep.put("service.misses", len(q["miss_latency_s"]), where)
    return rep


def tracing_overhead(raw):
    """Untraced over traced winst_per_s, as a line of text."""
    if raw["workload"] == "served":
        return ("tracing overhead: n/a (served jobs cannot enable "
                "telemetry; spans wrap client calls only)")
    traced = [p["winst"] / p["busy_s"] for p in raw["passes"]]
    plain = raw["layer"]["untraced_pass"]
    untraced = plain["winst"] / plain["busy_s"]
    t = stats.median(traced)
    return ("tracing overhead: %+.1f%% (traced %.4g vs untraced %.4g "
            "warp-insts/s over whole jobs, same process)" %
            (100.0 * (untraced / t - 1.0), t, untraced))
