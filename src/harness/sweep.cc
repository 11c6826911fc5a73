#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include <sys/resource.h>

#include "common/logging.hh"
#include "harness/thread_pool.hh"

namespace carve {
namespace harness {

namespace {

/** Peak resident set size of this process, in bytes. */
std::uint64_t
peakRssBytes()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

/** Insert @p st into @p tree keeping it sorted by dotted name. */
void
insertSorted(std::vector<stats::FlatStat> &tree, stats::FlatStat st)
{
    const auto pos = std::lower_bound(
        tree.begin(), tree.end(), st,
        [](const stats::FlatStat &a, const stats::FlatStat &b) {
            return a.name < b.name;
        });
    tree.insert(pos, std::move(st));
}

} // namespace

RunResult
executeRun(const RunSpec &spec)
{
    RunResult res;
    res.preset = presetName(spec.preset);
    res.workload = spec.workload.name;
    res.seed = spec.opts.seed;

    const auto start = std::chrono::steady_clock::now();

    // Capture panic()/fatal() on this thread for the duration of the
    // run: a bad configuration or a simulator invariant violation
    // becomes a Failed result instead of taking the process down.
    SimJob job =
        makePresetJob(spec.preset, spec.base, spec.workload,
                      spec.opts);
    job.options.tolerate_watchdog = true;
    if (job.options.trace.enabled &&
        job.options.trace.out_path.empty() &&
        !job.options.trace.out_dir.empty()) {
        // Per-run file in the trace directory, named by the run key
        // with path separators flattened.
        std::string name = spec.key();
        std::replace(name.begin(), name.end(), '/', '_');
        job.options.trace.out_path =
            job.options.trace.out_dir + "/" + name + ".trace.json";
    }
    try {
        ScopedErrorCapture capture;
        res.sim = run(job);
        res.status = res.sim.watchdog_tripped ? RunStatus::Watchdog
                                              : RunStatus::Ok;
        if (res.status == RunStatus::Watchdog)
            res.error = "watchdog tripped (max_cycles/max_wall)";
    } catch (const SimAbortError &e) {
        res.status = RunStatus::Failed;
        res.error = e.what();
    } catch (const std::exception &e) {
        res.status = RunStatus::Failed;
        res.error = std::string("exception: ") + e.what();
    }

    res.wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    // Host-cost stats ride the stat tree (and thus schema v2 results)
    // so regressions in simulator speed and footprint are visible in
    // the same reports as simulated metrics. Skipped for Failed runs
    // (their trees are empty) and when the spec opts out for
    // byte-reproducible results.
    if (spec.host_stats && !res.sim.stat_tree.empty()) {
        stats::FlatStat wall;
        wall.name = "sim.wall_seconds";
        wall.integral = false;
        wall.dbl = res.wall_seconds;
        insertSorted(res.sim.stat_tree, std::move(wall));

        stats::FlatStat rss;
        rss.name = "sim.peak_rss_bytes";
        rss.u64 = peakRssBytes();
        insertSorted(res.sim.stat_tree, std::move(rss));
    }
    return res;
}

std::vector<RunResult>
runSweep(const std::vector<RunSpec> &specs, const SweepOptions &opt)
{
    std::vector<RunResult> results(specs.size());
    if (specs.empty())
        return results;

    std::atomic<std::size_t> done{0};
    const auto run_one = [&](std::size_t i) {
        // Index-addressed writes keep result order equal to spec
        // order no matter which worker finishes when.
        results[i] = executeRun(specs[i]);
        const std::size_t d =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (opt.on_progress)
            opt.on_progress(d, specs.size(), results[i]);
    };

    unsigned threads = opt.threads == 0
        ? ThreadPool::hardwareThreads()
        : opt.threads;
    if (threads > specs.size())
        threads = static_cast<unsigned>(specs.size());

    if (threads <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            run_one(i);
        if (opt.telemetry) {
            // Inline execution: one synthetic "worker" (the calling
            // thread, which never NUMA-binds itself).
            opt.telemetry->workers.assign(
                1, SweepTelemetry::Worker{specs.size(), -1});
        }
    } else {
        // The pool is owned here so the per-worker WorkerState
        // survives until it can be read into the telemetry record.
        // One pool job per run balances load dynamically (run times
        // vary by an order of magnitude across the suite) and makes
        // jobs_run count simulations.
        ThreadPool pool(threads);
        for (std::size_t i = 0; i < specs.size(); ++i)
            pool.submit([&run_one, i] { run_one(i); });
        pool.wait();
        if (opt.telemetry) {
            opt.telemetry->workers.resize(pool.size());
            for (unsigned w = 0; w < pool.size(); ++w) {
                opt.telemetry->workers[w] = SweepTelemetry::Worker{
                    pool.jobsRun(w), pool.workerNode(w)};
            }
        }
    }

    if (opt.telemetry) {
        // Filled post-hoc in spec order, single-threaded, so the
        // bucket contents do not depend on completion order.
        for (const RunResult &r : results) {
            opt.telemetry->job_wall_us.sample(
                static_cast<std::uint64_t>(r.wall_seconds * 1e6));
        }
    }
    return results;
}

} // namespace harness
} // namespace carve
