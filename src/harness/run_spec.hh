/**
 * @file
 * The unit of work of the experiment harness: one RunSpec describes
 * one independent simulation (preset x workload x config override x
 * seed); one RunResult records its outcome. A sweep is a vector of
 * RunSpecs; results keep spec order regardless of execution order so
 * parallel sweeps serialise byte-identically to serial ones.
 */

#ifndef CARVE_HARNESS_RUN_SPEC_HH
#define CARVE_HARNESS_RUN_SPEC_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "core/report.hh"
#include "core/simulator.hh"
#include "core/system_preset.hh"
#include "workloads/synthetic.hh"

namespace carve {
namespace harness {

/** Full description of one independent simulation run. */
struct RunSpec
{
    Preset preset = Preset::NumaGpu;
    WorkloadParams workload;
    /** Base configuration the preset is derived from (already scaled;
     * carries any sweep-point override such as a link bandwidth). */
    SystemConfig base;
    RunOptions opts;
    /** Append host-cost stats (sim.wall_seconds, sim.peak_rss_bytes)
     * to the run's stat tree. They are the one sanctioned exception
     * to results being a pure function of the specs; byte-compare
     * workflows (CI determinism checks) turn this off. */
    bool host_stats = true;

    /** "preset/workload/seed" — unique within a well-formed sweep. */
    std::string key() const;
};

/** Outcome class of one run. */
enum class RunStatus : std::uint8_t {
    Ok,        ///< completed normally; result is full
    Watchdog,  ///< cycle/wall watchdog tripped; result is partial
    Failed,    ///< panic()/fatal()/exception; result is empty
};

/** Display name of a RunStatus ("ok", "watchdog", "failed"). */
const char *runStatusName(RunStatus s);
/** Inverse of runStatusName() (fatal on unknown name). */
RunStatus parseRunStatus(const std::string &s);

/** Outcome of one executed RunSpec. */
struct RunResult
{
    /** Identity (copied from the spec so results are self-contained). */
    std::string preset;
    std::string workload;
    std::uint64_t seed = 1;

    RunStatus status = RunStatus::Ok;
    /** Diagnostic for Failed/Watchdog runs. */
    std::string error;
    /** Collected statistics (partial for Watchdog, empty for Failed). */
    SimResult sim;
    /** Host execution time. Deliberately NOT serialised into results
     * files — those must be a pure function of the specs and the
     * simulator version (see results_io.hh). */
    double wall_seconds = 0.0;

    bool ok() const { return status == RunStatus::Ok; }
    std::string key() const;
};

/**
 * Parse a preset name: either the exact figure-legend form from
 * presetName() or a forgiving lowercase alias with punctuation
 * ignored ("carvehwc", "carve-hwc", "numa-gpu"...). fatal() listing
 * the valid names when @p name matches nothing.
 */
Preset parsePresetName(const std::string &name);

/** All presets, in declaration order (including SingleGpu). */
std::vector<Preset> allPresets();

/**
 * fatal() when a preset would replace a value the user asked for: for
 * each "key=value" in @p overrides (the --set list that built
 * @p base), makePreset(p, base) must keep the key's value in @p base
 * for every p in @p presets. The error names the key, the value asked
 * for, the preset and the value the preset sets.
 */
void checkPresetOverrides(const std::vector<Preset> &presets,
                          const SystemConfig &base,
                          const std::vector<std::string> &overrides);

/**
 * Expand the cross product presets x workloads x seeds into specs in
 * deterministic order (preset-major, then workload, then seed), all
 * sharing @p base and @p opts with per-spec seed applied.
 */
std::vector<RunSpec> expandGrid(const std::vector<Preset> &presets,
                                const std::vector<WorkloadParams> &workloads,
                                const std::vector<std::uint64_t> &seeds,
                                const SystemConfig &base,
                                const RunOptions &opts);

} // namespace harness
} // namespace carve

#endif // CARVE_HARNESS_RUN_SPEC_HH
