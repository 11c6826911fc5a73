#include "core/report.hh"

#include <cmath>
#include <iomanip>
#include <string_view>

#include "common/logging.hh"
#include "core/multi_gpu_system.hh"

namespace carve {

SimResult
collectResult(const MultiGpuSystem &sys, const std::string &workload,
              const std::string &preset)
{
    SimResult r;
    r.workload = workload;
    r.preset = preset;

    // Flatten the registry once; every summary field below resolves
    // against this single sorted view of the stat tree, never against
    // component getters.
    std::vector<stats::FlatStat> flat = stats::flattenStats(sys.stats());

    using stats::sumMatching;
    const auto valueU64 = [&](std::string_view name) {
        const stats::FlatStat *f = stats::lookup(flat, name);
        return f ? f->u64 : std::uint64_t{0};
    };

    r.cycles = valueU64("sim.cycles");
    r.warp_insts = valueU64("sim.insts_issued");
    r.events = valueU64("sim.events");

    r.traffic.local_reads = sumMatching(flat, "gpu*.traffic.local_reads");
    r.traffic.remote_reads = sumMatching(flat, "gpu*.traffic.remote_reads");
    r.traffic.rdc_hit_reads =
        sumMatching(flat, "gpu*.traffic.rdc_hit_reads");
    r.traffic.cpu_reads = sumMatching(flat, "gpu*.traffic.cpu_reads");
    r.traffic.local_writes = sumMatching(flat, "gpu*.traffic.local_writes");
    r.traffic.remote_writes =
        sumMatching(flat, "gpu*.traffic.remote_writes");
    r.traffic.rdc_hit_writes =
        sumMatching(flat, "gpu*.traffic.rdc_hit_writes");
    r.traffic.cpu_writes = sumMatching(flat, "gpu*.traffic.cpu_writes");
    r.frac_remote = r.traffic.fracRemote();

    const std::uint64_t l2_hits = sumMatching(flat, "gpu*.l2.hits");
    const std::uint64_t l2_misses = sumMatching(flat, "gpu*.l2.misses");
    r.l2_hit_rate = (l2_hits + l2_misses) == 0
        ? 0.0
        : static_cast<double>(l2_hits) /
              static_cast<double>(l2_hits + l2_misses);

    // Every link's byte counter lives at "link.<src>.<dst>.bytes";
    // a "cpu" endpoint segment marks the CPU links.
    for (const auto &f : flat) {
        if (!stats::nameMatches("link.*.*.bytes", f.name))
            continue;
        if (f.name.find(".cpu.") != std::string::npos)
            r.cpu_gpu_bytes += f.u64;
        else
            r.gpu_gpu_bytes += f.u64;
    }

    r.rdc_hits = sumMatching(flat, "gpu*.rdc.read_hits");
    r.rdc_misses = sumMatching(flat, "gpu*.rdc.read_misses");
    r.hw_invalidates = valueU64("coherence.invalidates_sent");

    r.migrations = valueU64("numa.migrations");
    r.replications = valueU64("numa.replications");
    r.collapses = valueU64("numa.collapses");
    r.um_migrations = valueU64("numa.um_migrations");
    if (const stats::FlatStat *f =
            stats::lookup(flat, "numa.capacity_pressure"))
        r.capacity_pressure = f->asDouble();

    r.page_sharing.private_accesses =
        valueU64("numa.sharing.page_private");
    r.page_sharing.read_only_shared =
        valueU64("numa.sharing.page_read_only");
    r.page_sharing.read_write_shared =
        valueU64("numa.sharing.page_read_write");
    r.line_sharing.private_accesses =
        valueU64("numa.sharing.line_private");
    r.line_sharing.read_only_shared =
        valueU64("numa.sharing.line_read_only");
    r.line_sharing.read_write_shared =
        valueU64("numa.sharing.line_read_write");
    r.shared_page_footprint =
        valueU64("numa.sharing.shared_page_bytes");
    r.shared_line_footprint =
        valueU64("numa.sharing.shared_line_bytes");
    r.total_page_footprint =
        valueU64("numa.sharing.total_page_bytes");

    r.stat_tree = std::move(flat);
    return r;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (const double v : values) {
        if (v <= 0.0)
            fatal("geomean: non-positive value %f", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
speedupOver(const SimResult &baseline, const SimResult &result)
{
    if (result.cycles == 0)
        fatal("speedupOver: zero-cycle result");
    return static_cast<double>(baseline.cycles) /
        static_cast<double>(result.cycles);
}

void
printSummary(std::ostream &os, const SimResult &r)
{
    os << std::left << std::setw(14) << r.workload << " "
       << std::setw(20) << r.preset
       << " cycles=" << std::setw(10) << r.cycles
       << " ipc=" << std::fixed << std::setprecision(2)
       << std::setw(6) << r.ipc()
       << " remote=" << std::setprecision(1)
       << r.frac_remote * 100.0 << "%"
       << " l2hit=" << r.l2_hit_rate * 100.0 << "%";
    if (r.rdc_hits + r.rdc_misses > 0) {
        os << " rdchit="
           << 100.0 * static_cast<double>(r.rdc_hits) /
                  static_cast<double>(r.rdc_hits + r.rdc_misses)
           << "%";
    }
    os << "\n";
}

} // namespace carve
