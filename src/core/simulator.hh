/**
 * @file
 * One-call simulation driver: workload description + configuration in,
 * SimResult out. This is the primary public entry point of the
 * library (see examples/quickstart.cpp).
 */

#ifndef CARVE_CORE_SIMULATOR_HH
#define CARVE_CORE_SIMULATOR_HH

#include <optional>
#include <string>

#include "common/config.hh"
#include "core/report.hh"
#include "core/system_preset.hh"
#include "telemetry/histogram.hh"
#include "trace/trace.hh"
#include "workloads/synthetic.hh"

namespace carve {

/** Options for a single simulation run. */
struct RunOptions
{
    /** Safety abort in simulated cycles; 0 == unlimited. */
    Cycle max_cycles = 0;
    /** Safety abort in host wall-clock seconds; 0 == unlimited.
     * Catches livelocks where simulated time barely advances. */
    double max_wall_seconds = 0.0;
    /** Line-granularity sharing profiling (memory-hungry). */
    bool profile_lines = true;
    /** Trace RNG seed. */
    std::uint64_t seed = 1;
    /** When a watchdog trips: false (default) keeps the historical
     * fatal() behaviour; true returns the partial result with
     * SimResult::watchdog_tripped set so batch drivers can mark the
     * run failed without killing sibling runs. */
    bool tolerate_watchdog = false;
    /** carve-audit: in-flight token tracking plus conservation/
     * invariant passes at kernel boundaries and end of sim. A
     * violation panics with the offending dotted stat names. */
    bool audit = false;
    /** Cycle-level timeline tracing (see trace/trace.hh). Disabled by
     * default; enabling never changes simulation results, only emits
     * a Chrome trace-event JSON file alongside them. Tracing samples
     * at window barriers and requires the serial engine; run() warns
     * and forces SimEngine::Serial when both are requested. */
    trace::Options trace;
    /** Runtime telemetry (see telemetry/histogram.hh): latency/
     * occupancy histograms in the stat tree plus engine self-
     * profiling. Off by default and provably free when off — no
     * telemetry stat is registered and no sampling site executes.
     * Everything it records (except barrier_wait_ns, which needs
     * telemetry.host_timing) is a pure function of the simulated
     * schedule, so enabling it never changes simulation results and
     * its histograms are identical across engines and thread
     * counts. */
    telemetry::Options telemetry;
    /** Simulation engine override: when set, wins over config.engine.
     * Serial and Parallel run the same window loop (Serial with one
     * worker) and produce byte-identical stat trees. */
    std::optional<SimEngine> engine;
    /** Worker-thread override for SimEngine::Parallel: when set, wins
     * over config.sim_threads. Must be >= 1 and no larger than the
     * host's hardware threads (run() fatals otherwise). */
    std::optional<unsigned> sim_threads;
};

/**
 * One fully-described simulation: everything run() needs, in one
 * value. A SimJob is cheap to copy, trivially serializable by the
 * harness, and the single currency every driver (carve-sweep, the
 * bench binaries, the examples) trades in.
 */
struct SimJob
{
    /** Complete machine description (validated by run()). */
    SystemConfig config;
    /** Trace generator parameters. */
    WorkloadParams workload;
    /** Label recorded in SimResult::preset for reporting; presets
     * fill it with presetName(), ad-hoc configs pick any tag. */
    std::string preset_label;
    /** Watchdogs, profiling granularity, seed. */
    RunOptions options;
};

/**
 * THE simulation entry point: build the machine described by
 * @p job.config, run @p job.workload through it, and collect the
 * result. Every other runner in the tree is a thin wrapper over
 * this call.
 *
 * Engine selection is resolved here: config.engine/config.sim_threads,
 * overridden by the RunOptions fields when set. The resolved values
 * are what the machine is built with and what SimResult reports.
 */
SimResult run(const SimJob &job);

/**
 * Describe a run of @p params on the named @p preset derived from
 * @p base. Pairs with run(): the job is inspectable/editable before
 * launch, which is what the sweep and bench drivers exploit.
 */
SimJob makePresetJob(Preset preset, const SystemConfig &base,
                     const WorkloadParams &params,
                     const RunOptions &opt = {});

} // namespace carve

#endif // CARVE_CORE_SIMULATOR_HH
