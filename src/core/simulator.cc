#include "core/simulator.hh"

#include <memory>
#include <thread>

#include "common/logging.hh"
#include "core/multi_gpu_system.hh"
#include "trace/chrome_export.hh"

namespace carve {

namespace {

/**
 * Resolve the engine selection for one run: config fields, then the
 * SimJob option overrides. Returns the config the machine is actually
 * built with.
 */
SystemConfig
resolveEngine(const SimJob &job)
{
    SystemConfig cfg = job.config;
    if (job.options.engine)
        cfg.engine = *job.options.engine;
    if (job.options.sim_threads)
        cfg.sim_threads = *job.options.sim_threads;

    // Tracing samples counters at window barriers and interleaves
    // with the executing domains; it is only supported serially.
    if (cfg.engine == SimEngine::Parallel &&
        job.options.trace.enabled) {
        warn("tracing requires the serial engine; forcing "
             "engine=serial for this run");
        cfg.engine = SimEngine::Serial;
    }

    // Validate here, not in SystemConfig::validate(): the hardware
    // bound is a property of the host running the job, not of the
    // machine description (the same job may be serialized on one
    // machine and run on another).
    const unsigned hw = std::thread::hardware_concurrency();
    if (cfg.sim_threads == 0)
        fatal("config: sim_threads must be >= 1");
    if (hw != 0 && cfg.sim_threads > hw) {
        fatal("config: sim_threads=%u exceeds this host's %u "
              "hardware threads", cfg.sim_threads, hw);
    }
    return cfg;
}

} // namespace

SimResult
run(const SimJob &job)
{
    const RunOptions &opt = job.options;
    const SystemConfig cfg = resolveEngine(job);
    SyntheticWorkload wl(job.workload, cfg.line_size, opt.seed);
    std::unique_ptr<trace::Session> session;
    if (opt.trace.enabled)
        session = std::make_unique<trace::Session>(opt.trace);
    MultiGpuSystem sys(cfg, wl, opt.profile_lines, opt.audit,
                       opt.telemetry, session.get());

    sys.run(opt.max_cycles, opt.max_wall_seconds);
    if (sys.watchdogTripped() && !opt.tolerate_watchdog) {
        fatal("MultiGpuSystem: simulation did not converge "
              "(deadlock or watchdog: max_cycles=%llu, "
              "max_wall_seconds=%.1f, stopped at cycle %llu)",
              static_cast<unsigned long long>(opt.max_cycles),
              opt.max_wall_seconds,
              static_cast<unsigned long long>(sys.now()));
    }
    SimResult r =
        collectResult(sys, job.workload.name, job.preset_label);
    r.watchdog_tripped = sys.watchdogTripped();
    if (session && !opt.trace.out_path.empty()) {
        trace::writeChromeTrace(*session, opt.trace.out_path,
                                {job.workload.name, job.preset_label});
    }
    return r;
}

SimJob
makePresetJob(Preset preset, const SystemConfig &base,
              const WorkloadParams &params, const RunOptions &opt)
{
    SimJob job;
    job.config = makePreset(preset, base);
    job.workload = params;
    job.preset_label = presetName(preset);
    job.options = opt;
    return job;
}

} // namespace carve
