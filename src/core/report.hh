/**
 * @file
 * Simulation result record and reporting helpers shared by the
 * examples, tests and every bench harness.
 */

#ifndef CARVE_CORE_REPORT_HH
#define CARVE_CORE_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "gpu/gpu.hh"
#include "numa/sharing_profiler.hh"

namespace carve {

class MultiGpuSystem;

/** Everything a bench needs from one simulation. */
struct SimResult
{
    std::string workload;
    std::string preset;
    Cycle cycles = 0;
    std::uint64_t warp_insts = 0;
    /** Discrete events the engine executed (host-cost proxy). */
    std::uint64_t events = 0;
    /** True when the run was cut short by a cycle or wall-clock
     * watchdog (see RunOptions); stats below are then partial. */
    bool watchdog_tripped = false;

    /** Post-LLC traffic summed over all GPUs. */
    GpuTraffic traffic;
    /** Fraction of post-LLC accesses serviced by remote GPU memory
     * (RDC hits count as local, as in Figure 8). */
    double frac_remote = 0.0;

    std::uint64_t gpu_gpu_bytes = 0;
    std::uint64_t cpu_gpu_bytes = 0;

    std::uint64_t rdc_hits = 0;
    std::uint64_t rdc_misses = 0;
    std::uint64_t hw_invalidates = 0;

    std::uint64_t migrations = 0;
    std::uint64_t replications = 0;
    std::uint64_t collapses = 0;
    std::uint64_t um_migrations = 0;
    double capacity_pressure = 1.0;

    double l2_hit_rate = 0.0;

    SharingBreakdown page_sharing;
    SharingBreakdown line_sharing;
    std::uint64_t shared_page_footprint = 0;
    std::uint64_t shared_line_footprint = 0;
    std::uint64_t total_page_footprint = 0;

    /** The full stat registry flattened to (dotted name, value),
     * sorted by name — the summary fields above are all derived from
     * this view, and schema v2 embeds it per run. */
    std::vector<stats::FlatStat> stat_tree;

    /** Warp instructions per cycle (throughput metric). */
    double
    ipc() const
    {
        return cycles == 0
            ? 0.0
            : static_cast<double>(warp_insts) /
                  static_cast<double>(cycles);
    }
};

/** Harvest a finished system into a SimResult. */
SimResult collectResult(const MultiGpuSystem &sys,
                        const std::string &workload,
                        const std::string &preset);

/** Geometric mean (empty input == 1.0; non-positive values fatal). */
double geomean(const std::vector<double> &values);

/** Speedup of @p result over @p baseline (cycles ratio). */
double speedupOver(const SimResult &baseline, const SimResult &result);

/** Human-readable one-line summary. */
void printSummary(std::ostream &os, const SimResult &r);

} // namespace carve

#endif // CARVE_CORE_REPORT_HH
