/** @file Shared plumbing for the figure/table reproduction benches.
 *
 * Every bench binary prints the series of one paper figure or table.
 * Common knobs come from the environment:
 *
 *   CARVE_BENCH_SCALE      capacity scale divisor (default 8)
 *   CARVE_BENCH_DURATION   trace-length multiplier (default 0.2; use
 *                          1.0 or more for slower, tighter runs)
 *   CARVE_BENCH_WORKLOADS  comma list to restrict the suite (optional)
 *   CARVE_BENCH_THREADS    harness worker threads for benches that
 *                          run through runGrid() (default: all cores)
 *   CARVE_BENCH_MAX_CYCLES per-run cycle watchdog (default 1e9;
 *                          0 disables — a livelocked run then hangs)
 *
 * Malformed numeric values are fatal, not silently zero.
 */

#ifndef CARVE_BENCH_BENCH_UTIL_HH
#define CARVE_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/report.hh"
#include "core/simulator.hh"
#include "core/system_preset.hh"
#include "harness/sweep.hh"
#include "harness/thread_pool.hh"
#include "workloads/suite.hh"

namespace carve {
namespace bench {

/** Environment-configured context shared by all benches. */
struct BenchContext
{
    SuiteOptions suite;
    SystemConfig base;   ///< Table III scaled by suite.memory_scale
    RunOptions opts;
};

inline double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    double out = fallback;
    const char *end = v + std::string_view(v).size();
    const auto res = std::from_chars(v, end, out);
    if (res.ec != std::errc() || res.ptr != end)
        fatal("%s: expected a number, got '%s'", name, v);
    return out;
}

inline std::uint64_t
envUnsigned(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    std::uint64_t out = fallback;
    const char *end = v + std::string_view(v).size();
    const auto res = std::from_chars(v, end, out);
    if (res.ec != std::errc() || res.ptr != end)
        fatal("%s: expected an unsigned integer, got '%s'", name, v);
    return out;
}

/** Harness worker threads for grid benches. */
inline unsigned
benchThreads()
{
    return static_cast<unsigned>(envUnsigned(
        "CARVE_BENCH_THREADS",
        harness::ThreadPool::hardwareThreads()));
}

inline BenchContext
makeContext(bool profile_lines = false)
{
    BenchContext ctx;
    ctx.suite.memory_scale = static_cast<unsigned>(
        envDouble("CARVE_BENCH_SCALE", 8));
    ctx.suite.duration = envDouble("CARVE_BENCH_DURATION", 0.2);
    ctx.base = SystemConfig{}.scaled(ctx.suite.memory_scale);
    ctx.opts.profile_lines = profile_lines;
    // Real default watchdog: a livelocked simulation must fail the
    // bench, not hang a sweep forever. The scaled suite finishes runs
    // in well under 10M cycles, so 1e9 is generous at any duration.
    ctx.opts.max_cycles =
        envUnsigned("CARVE_BENCH_MAX_CYCLES", 1'000'000'000);
    return ctx;
}

/** The (possibly restricted) workload list for this bench run. */
inline std::vector<WorkloadParams>
benchWorkloads(const BenchContext &ctx,
               const char *default_filter = nullptr)
{
    std::vector<WorkloadParams> all = standardSuite(ctx.suite);
    const char *filter = std::getenv("CARVE_BENCH_WORKLOADS");
    if (!filter)
        filter = default_filter;
    if (!filter)
        return all;
    const std::string list = filter;
    std::vector<WorkloadParams> picked;
    for (const auto &wl : all) {
        if (list.find(wl.name) != std::string::npos)
            picked.push_back(wl);
    }
    return picked.empty() ? all : picked;
}

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *claim,
       const BenchContext &ctx)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s\n", experiment);
    std::printf("paper claim: %s\n", claim);
    std::printf("(capacities scaled 1/%u, trace duration x%.2f; see "
                "EXPERIMENTS.md)\n",
                ctx.suite.memory_scale, ctx.suite.duration);
    std::printf("================================================="
                "=============\n");
}

inline SimResult
run(const BenchContext &ctx, Preset preset, const WorkloadParams &wl)
{
    return carve::run(makePresetJob(preset, ctx.base, wl, ctx.opts));
}

/** One harness spec for a (preset, workload) cell of a bench grid. */
inline harness::RunSpec
makeSpec(const BenchContext &ctx, Preset preset,
         const WorkloadParams &wl)
{
    harness::RunSpec s;
    s.preset = preset;
    s.workload = wl;
    s.base = ctx.base;
    s.opts = ctx.opts;
    return s;
}

/**
 * Execute @p specs on the harness with CARVE_BENCH_THREADS workers
 * and return results in spec order. Results are identical to calling
 * run() spec-by-spec; any failed or watchdog-tripped run is fatal —
 * a bench's series is meaningless with holes in it.
 */
inline std::vector<SimResult>
runSpecs(const std::vector<harness::RunSpec> &specs)
{
    harness::SweepOptions opt;
    opt.threads = benchThreads();
    std::vector<harness::RunResult> rr =
        harness::runSweep(specs, opt);
    std::vector<SimResult> out;
    out.reserve(rr.size());
    for (auto &r : rr) {
        if (r.status == harness::RunStatus::Watchdog)
            fatal("%s: watchdog tripped — raise "
                  "CARVE_BENCH_MAX_CYCLES or shorten the trace",
                  r.key().c_str());
        if (!r.ok())
            fatal("%s: %s", r.key().c_str(), r.error.c_str());
        out.push_back(std::move(r.sim));
    }
    return out;
}

/**
 * Run the cross product @p presets x @p workloads in parallel.
 * grid[w][p] is the result for workloads[w] under presets[p].
 */
inline std::vector<std::vector<SimResult>>
runGrid(const BenchContext &ctx, const std::vector<Preset> &presets,
        const std::vector<WorkloadParams> &workloads)
{
    std::vector<harness::RunSpec> specs;
    specs.reserve(presets.size() * workloads.size());
    for (const auto &wl : workloads) {
        for (const Preset p : presets)
            specs.push_back(makeSpec(ctx, p, wl));
    }
    std::vector<SimResult> flat = runSpecs(specs);

    std::vector<std::vector<SimResult>> grid(workloads.size());
    std::size_t i = 0;
    for (auto &row : grid) {
        row.reserve(presets.size());
        for (std::size_t p = 0; p < presets.size(); ++p)
            row.push_back(std::move(flat[i++]));
    }
    return grid;
}

} // namespace bench
} // namespace carve

#endif // CARVE_BENCH_BENCH_UTIL_HH
