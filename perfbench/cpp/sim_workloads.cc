/**
 * @file
 * The two in-process workloads.
 *
 * sweep: the Figure 13 preset set x Lulesh, XSBench, bfs-road and
 * stream-triad, serial engine, profile_lines off, one job at a time.
 * Its four simulated workloads cover the four memory-behaviour
 * classes, so the RDC/link/coherence share of the work ranges from
 * none (1-GPU, stream-triad) to most (NUMA-GPU x XSBench).
 *
 * par: one long CARVE-HWC x Lulesh-s190 run on the parallel engine
 * with 2 sim-threads, the only workload where window barriers and
 * outbox exchange sit on the critical path.
 *
 * Both time runs through harness::runSweep, one job at a time, in
 * passes over their jobs until the run's seconds are spent. Each
 * job's first run is also its reference: the record every later run
 * must equal. Only the traced run uses the benchmark's own split call
 * sequence (runJob), for its spans.
 */

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.hh"
#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "workloads/suite.hh"

namespace perfbench {

using namespace carve;

namespace {

/** par trace length: Lulesh-s190's native length, twice the sweep
 * cells' so each timed run is long enough to time steadily. */
constexpr std::uint64_t kParInstsPerWarp = 6;
constexpr unsigned kParSimThreads = 2;
/** Set-up-only builds of a job after each of its timed runs. */
constexpr int kSetupRepsPerJob = 4;
/** Record reloads per run: fifteen blocks of 1000, each with ten
 * samples beyond its p99. With ten blocks, par's hit_p99_ms spread
 * 0.20-0.28 over ten runs, most of it sampling noise of the tail. */
constexpr std::size_t kMinReloads = 15000;
/** Share of the window's expected jobs the reloads are spread over,
 * so a somewhat slower host still takes them all inside the window. */
constexpr double kReloadJobShare = 0.9;

const std::vector<Preset> kFig13Presets = {
    Preset::SingleGpu, Preset::NumaGpu, Preset::NumaGpuReplRO,
    Preset::CarveHwc, Preset::Ideal};

SimJob
jobOf(const harness::RunSpec &s)
{
    return makePresetJob(s.preset, s.base, s.workload, s.opts);
}

/** One job the way a sweep user's job runs: harness::runSweep with
 * one worker, then its record serialized. */
struct HarnessJob
{
    bool ok = false;
    std::string error;
    double seconds = 0.0;  ///< runSweep + resultToJson
    std::uint64_t warp_insts = 0;
    std::uint64_t events = 0;
    std::string record;
    std::string digest;
};

HarnessJob
harnessJob(const harness::RunSpec &spec)
{
    harness::SweepOptions so;
    so.threads = 1;
    HarnessJob out;
    const Clock::time_point t0 = Clock::now();
    const std::vector<harness::RunResult> rs = harness::runSweep({spec}, so);
    out.record = harness::resultToJson(rs.front()).dump(0);
    out.seconds = secondsSince(t0);
    const harness::RunResult &r = rs.front();
    out.ok = r.ok() && !out.record.empty();
    out.error = r.error;
    out.warp_insts = r.sim.warp_insts;
    out.events = r.sim.events;
    out.digest = statDigest(r.sim.stat_tree);
    return out;
}

/** Timings of one timed pass over a job list. */
struct Pass
{
    double winst = 0.0;
    double busy_s = 0.0;  ///< every call of the pass's jobs
    std::uint64_t jobs = 0;

    void
    add(std::uint64_t warp_insts, double seconds)
    {
        winst += static_cast<double>(warp_insts);
        busy_s += seconds;
        ++jobs;
    }

    Value
    toJson() const
    {
        Value v{json::Members{}};
        v.set("winst", winst);
        v.set("busy_s", busy_s);
        v.set("jobs", jobs);
        return v;
    }
};

/** Per-job timings the traced run reports per layer. */
struct JobTimes
{
    std::vector<double> build_s, run_s, collect_s, serialize_s;
    std::vector<double> record_bytes;

    void
    add(const JobRun &r)
    {
        build_s.push_back(r.build_s);
        run_s.push_back(r.run_s);
        collect_s.push_back(r.collect_s);
        serialize_s.push_back(r.serialize_s);
        record_bytes.push_back(static_cast<double>(r.record.size()));
    }

    Value
    toJson() const
    {
        Value v{json::Members{}};
        v.set("build_s", toArray(build_s));
        v.set("run_s", toArray(run_s));
        v.set("collect_s", toArray(collect_s));
        v.set("serialize_s", toArray(serialize_s));
        v.set("record_bytes", toArray(record_bytes));
        return v;
    }
};

/**
 * The untimed work between timed jobs: record reloads (the hits of
 * sweep and par) and set-up-only builds. Taken in small batches after
 * every job, so they sample the host across the whole window rather
 * than one second of it; their time is excluded from the window. A
 * shared host switches between a fast and a slow state every second
 * or so, and a block of 1000 reloads then spans many switches.
 */
struct Between
{
    const std::vector<std::string> &records;
    const std::vector<std::string> &digests;
    const std::vector<SimJob> &jobs;
    const bool sample_setup;
    /** Set after every pass from the reloads still due and the pace
     * so far. */
    std::size_t reloads_per_job = 0;
    std::vector<double> hit_latencies;
    /** Per job, its set-up-only build seconds in time order. */
    std::vector<std::vector<double>> setup;
    Clock::time_point start = Clock::now();
    double seconds = 0.0;
    bool reloads_ok = true;

    Between(const std::vector<std::string> &r,
            const std::vector<std::string> &d, const std::vector<SimJob> &j,
            bool with_setup)
        : records(r), digests(d), jobs(j), sample_setup(with_setup),
          setup(with_setup ? j.size() : 0)
    {
    }

    /** Seconds since start, less the work between jobs. */
    double
    window() const
    {
        return secondsSince(start) - seconds;
    }

    void
    reload(std::size_t n)
    {
        const Clock::time_point t0 = Clock::now();
        // The first batch checks every record against its digest.
        reloads_ok = reloadRecords(records, digests, hit_latencies.size(),
                                   n, hit_latencies.empty(),
                                   hit_latencies) &&
            reloads_ok;
        seconds += secondsSince(t0);
    }

    void
    afterJob(std::size_t i)
    {
        reload(reloads_per_job);
        if (!sample_setup)
            return;
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < kSetupRepsPerJob; ++r)
            setup[i].push_back(buildOnly(jobs[i]));
        seconds += secondsSince(t0);
    }
};

/**
 * Run every spec once through harnessJob, appending each job's seconds
 * to its latencies. In the first pass (@p digests empty) each job's
 * record and digest become its reference and there is no work between
 * jobs; later passes check each digest against the reference.
 */
void
harnessPass(const std::vector<harness::RunSpec> &specs,
            std::vector<std::string> &records,
            std::vector<std::string> &digests, Tally &t, Pass &pass,
            std::vector<std::vector<double>> &latencies, Between &between,
            Value *lengths)
{
    const bool first = digests.size() < specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        HarnessJob r = harnessJob(specs[i]);
        ++t.attempted;
        if (!r.ok)
            t.fail(specs[i].key() + ": " + r.error);
        else if (!first && r.digest != digests[i])
            t.fail(specs[i].key() + ": digest differs from the job's "
                                    "first run");
        pass.add(r.warp_insts, r.seconds);
        latencies[i].push_back(r.seconds);
        if (lengths) {
            lengths->push(runLength(specs[i].key(),
                                    specs[i].workload.insts_per_warp,
                                    r.warp_insts, r.events));
        }
        if (first) {
            records.push_back(std::move(r.record));
            digests.push_back(r.digest);
        } else {
            between.afterJob(i);
        }
    }
}

/**
 * The traced pass: every job once through runJob, with spans, per-call
 * timings and the stat trees kept for the per-layer counts.
 */
void
tracedPass(const std::vector<SimJob> &jobs,
           const std::vector<std::string> &expect, SpanLog &log, Tally &t,
           Pass &pass, std::vector<std::vector<double>> &latencies,
           Between &between, JobTimes &times, LayerCounts &counts,
           Value &lengths)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobRun r =
            runJob(jobs[i], log, static_cast<std::int64_t>(i), true);
        ++t.attempted;
        const std::string key =
            jobs[i].preset_label + "/" + jobs[i].workload.name;
        if (!r.ok)
            t.fail(key + ": " + r.error);
        else if (r.digest != expect[i])
            t.fail(key + ": digest differs from the job's first run");
        const double secs =
            r.build_s + r.run_s + r.collect_s + r.serialize_s;
        pass.add(r.warp_insts, secs);
        latencies[i].push_back(secs);
        times.add(r);
        counts.add(r.tree);
        lengths.push(runLength(key, jobs[i].workload.insts_per_warp,
                               r.warp_insts, r.events));
        between.afterJob(i);
    }
}

/**
 * The shared body of sweep and par: timed passes through harnessJob
 * until @p s.seconds are spent (at least @p min_passes), the first of
 * them each job's reference run, with record reloads and set-up-only
 * builds after each later job. In a traced run untimed reference runs
 * come first, one traced pass replaces the timed window and one
 * untraced pass prices the tracing.
 */
Value
runInProcess(const char *name, const Settings &s, SpanLog &log,
             const std::vector<harness::RunSpec> &specs,
             const std::vector<harness::RunSpec> &untraced_specs,
             int min_passes, const std::string *serial_digest)
{
    Tally t;
    std::vector<SimJob> jobs;
    for (const harness::RunSpec &sp : specs) {
        jobs.push_back(jobOf(sp));
        if (sp.workload.insts_per_warp <= kClampInstsPerWarp)
            t.fail(sp.key() + ": trace length at the duration clamp");
    }

    Value out{json::Members{}};
    out.set("workload", name);
    out.set("host", hostRecord());

    std::vector<std::string> records, digests;
    Between between(records, digests, jobs, !s.trace);
    if (s.trace) {
        // Untimed reference runs, which the traced pass is checked
        // against.
        Pass reference;
        std::vector<std::vector<double>> untimed(specs.size());
        harnessPass(specs, records, digests, t, reference, untimed, between,
                    nullptr);
    }
    // Spread the reloads still due over the jobs still expected.
    const auto spreadReloads = [&](double later_jobs) {
        const std::size_t done = between.hit_latencies.size();
        const double due = done < kMinReloads
            ? static_cast<double>(kMinReloads - done)
            : 0.0;
        between.reloads_per_job = static_cast<std::size_t>(std::ceil(
            due / std::max(1.0, kReloadJobShare * later_jobs)));
    };

    std::vector<Pass> passes;
    std::vector<std::vector<double>> latencies(specs.size());
    Value lengths{json::Array{}};
    between.start = Clock::now();
    double window_s = 0.0;
    if (!s.trace) {
        // The window closes after the pass that ends nearest to
        // s.seconds, so it overruns by at most half a pass.
        for (int p = 0;; ++p) {
            Pass pass;
            harnessPass(specs, records, digests, t, pass, latencies,
                        between, p == 0 ? &lengths : nullptr);
            passes.push_back(pass);
            // Judged again after every pass, at the pace so far.
            const double done = static_cast<double>((p + 1) * specs.size());
            spreadReloads(std::max<double>(
                (s.seconds - between.window()) /
                    std::max(between.window() / done, 1e-3),
                (min_passes - 1 - p) * static_cast<double>(specs.size())));
            if (p + 1 >= min_passes &&
                between.window() + 0.5 * pass.busy_s >= s.seconds)
                break;
        }
        window_s = between.window();
    } else {
        spreadReloads(static_cast<double>(specs.size()));
        Pass traced;
        JobTimes times;
        LayerCounts counts;
        tracedPass(jobs, digests, log, t, traced, latencies, between, times,
                   counts, lengths);
        passes.push_back(traced);
        window_s = between.window();

        // One untraced pass of the same jobs without telemetry or
        // spans: the difference is the tracing overhead.
        Pass untraced;
        for (const harness::RunSpec &sp : untraced_specs) {
            const HarnessJob r = harnessJob(sp);
            ++t.attempted;
            if (!r.ok)
                t.fail(sp.key() + ": " + r.error);
            untraced.add(r.warp_insts, r.seconds);
        }
        Value layer{json::Members{}};
        layer.set("counts", counts.toJson());
        layer.set("job_times", times.toJson());
        layer.set("untraced_pass", untraced.toJson());
        layer.set("sim_threads",
                  specs.front().opts.sim_threads.value_or(1));
        Value self{json::Members{}};
        for (const auto &[span, secs] : log.selfSeconds())
            self.set(span, secs);
        layer.set("span_self_s", std::move(self));
        out.set("layer", std::move(layer));
    }

    Value checks{json::Members{}};
    if (serial_digest) {
        // par only: the parallel engine must reproduce the serial
        // engine's stat tree for the same job.
        const bool same = digests.front() == *serial_digest;
        if (!same)
            t.fail("parallel digest differs from the serial engine's");
        checks.set("par_digest_equals_serial", same);
    }
    const std::size_t in_window = between.hit_latencies.size();
    if (in_window < kMinReloads)
        between.reload(kMinReloads - in_window);
    if (!between.reloads_ok)
        t.fail("a reloaded record's stat tree differs from its run");
    t.attempted += between.hit_latencies.size();

    Value pass_list{json::Array{}};
    std::uint64_t jobs_done = 0;
    for (const Pass &p : passes) {
        pass_list.push(p.toJson());
        jobs_done += p.jobs;
    }
    Value setup{json::Array{}};
    for (const std::vector<double> &per_job : between.setup)
        setup.push(toArray(per_job));
    out.set("checks", std::move(checks));
    out.set("run_lengths", std::move(lengths));
    out.set("setup_samples", std::move(setup));
    out.set("passes", std::move(pass_list));
    Value per_job{json::Array{}};
    for (const std::vector<double> &l : latencies)
        per_job.push(toArray(l));
    out.set("job_latency_s", std::move(per_job));
    out.set("jobs_done", jobs_done);
    out.set("window_s", window_s);
    out.set("hit_latency_s", toArray(between.hit_latencies));
    out.set("reloads_in_window", in_window);
    out.set("attempted", t.attempted);
    out.set("failed", t.failed);
    out.set("errors", std::move(t.errors));
    out.set("rss_kib", peakRssKib());
    return out;
}

} // namespace

Value
runSweepWorkload(const Settings &s, SpanLog &log)
{
    std::vector<harness::RunSpec> specs, plain;
    for (const Preset p : kFig13Presets) {
        for (const char *w : kSweepWorkloads) {
            const WorkloadParams params = suiteAt(w, kSweepInstsPerWarp);
            specs.push_back(
                makeSpec(p, params, s.seed, s.trace, false));
            plain.push_back(
                makeSpec(p, params, s.seed, false, false));
        }
    }
    // At least three runs of each job, so its median discards one
    // disturbed run.
    return runInProcess("sweep", s, log, specs, plain, 3, nullptr);
}

Value
runParWorkload(const Settings &s, SpanLog &log)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && hw < kParSimThreads) {
        Value out{json::Members{}};
        out.set("workload", "par");
        out.set("fatal", "par needs at least 2 hardware threads");
        return out;
    }
    const WorkloadParams params =
        suiteAt("Lulesh-s190", kParInstsPerWarp);
    const auto parallel = [&](bool telemetry) {
        harness::RunSpec sp = makeSpec(Preset::CarveHwc, params, s.seed,
                                       telemetry, telemetry);
        sp.opts.engine = SimEngine::Parallel;
        sp.opts.sim_threads = kParSimThreads;
        return sp;
    };

    // The serial engine's digest of the same job, once per
    // invocation and outside the timed runs.
    harness::RunSpec serial =
        makeSpec(Preset::CarveHwc, params, s.seed, s.trace, false);
    serial.opts.engine = SimEngine::Serial;
    const harness::RunResult ref = harness::executeRun(serial);
    const std::string serial_digest = ref.ok()
        ? statDigest(ref.sim.stat_tree)
        : std::string("serial run failed: ") + ref.error;

    return runInProcess("par", s, log, {parallel(s.trace)},
                        {parallel(false)}, 3, &serial_digest);
}

} // namespace perfbench
