/**
 * @file
 * Parallel sweep executor: runs a vector of independent RunSpecs on a
 * fixed-size thread pool with per-run failure isolation.
 *
 * Guarantees:
 *  - results[i] always corresponds to specs[i] (deterministic
 *    ordering independent of thread count or scheduling), so a sweep
 *    serialises byte-identically whether run on 1 or N threads;
 *  - a run that panic()s, fatal()s, throws, or trips its watchdog is
 *    reported as Failed/Watchdog in its own RunResult while sibling
 *    runs complete normally;
 *  - each simulation is a self-contained MultiGpuSystem instance —
 *    nothing in src/common (logging aside, which is thread-safe) is
 *    shared mutable state across runs.
 */

#ifndef CARVE_HARNESS_SWEEP_HH
#define CARVE_HARNESS_SWEEP_HH

#include <functional>
#include <vector>

#include "harness/run_spec.hh"
#include "telemetry/histogram.hh"

namespace carve {
namespace harness {

/**
 * Harness-side telemetry captured by runSweep: per-worker load (the
 * ThreadPool WorkerState fields) and the per-job wall-time
 * distribution. Workers and wall times are host facts, so this rides
 * results files only under host_stats (CI byte-compare workflows
 * exclude it exactly like sim.wall_seconds).
 */
struct SweepTelemetry
{
    struct Worker
    {
        std::uint64_t jobs_run = 0;  ///< runs executed by this worker
    };
    std::vector<Worker> workers;
    /** Wall time per run, in microseconds. */
    telemetry::Histogram job_wall_us;
};

/** Sweep execution knobs. */
struct SweepOptions
{
    /** Worker threads; 0 == all hardware threads, 1 == serial. */
    unsigned threads = 1;
    /** Called after each run completes (from the finishing worker
     * thread; must be thread-safe). (done, total, result). */
    std::function<void(std::size_t, std::size_t, const RunResult &)>
        on_progress;
    /** When set, runSweep fills in worker load and the job wall-time
     * histogram after the sweep completes. */
    SweepTelemetry *telemetry = nullptr;
};

/** Execute one spec in-process with failure isolation. */
RunResult executeRun(const RunSpec &spec);

/**
 * Execute all @p specs and return their results in spec order.
 * Never throws for per-run failures; see RunResult::status.
 */
std::vector<RunResult> runSweep(const std::vector<RunSpec> &specs,
                                const SweepOptions &opt = {});

} // namespace harness
} // namespace carve

#endif // CARVE_HARNESS_SWEEP_HH
