#include "common/audit.hh"

#include <string_view>

namespace carve {
namespace audit {

namespace {

/** Exact integer value of @p name; 0 when absent. */
std::uint64_t
value(const std::vector<stats::FlatStat> &flat, std::string_view name)
{
    const stats::FlatStat *f = stats::lookup(flat, name);
    return f ? f->u64 : 0;
}

std::string
eqFail(const std::string &lhs_name, std::uint64_t lhs,
       const std::string &rhs_name, std::uint64_t rhs)
{
    return lhs_name + " (" + std::to_string(lhs) + ") != " + rhs_name +
        " (" + std::to_string(rhs) + ")";
}

} // namespace

const char *
boundaryName(Boundary b)
{
    switch (b) {
      case Boundary::SmL2:
        return "sm_l2";
      case Boundary::L2Fill:
        return "l2_fill";
      case Boundary::RdcFetch:
        return "rdc_fetch";
      case Boundary::DramAccess:
        return "dram_access";
      case Boundary::LinkDelivery:
        return "link_delivery";
      case Boundary::BulkTransfer:
        return "bulk_transfer";
    }
    return "unknown";
}

void
InflightTracker::registerStats(stats::StatGroup &g)
{
    for (unsigned b = 0; b < num_boundaries; ++b) {
        const std::string name =
            boundaryName(static_cast<Boundary>(b));
        g.addScalar(name + "_issued", &issued_[b].scalar());
        g.addScalar(name + "_retired", &retired_[b].scalar());
    }
}

void
InflightTracker::check(std::vector<std::string> &out) const
{
    for (unsigned b = 0; b < num_boundaries; ++b) {
        const Boundary bd = static_cast<Boundary>(b);
        if (issued(bd) != retired(bd)) {
            out.push_back(eqFail(
                std::string("audit.inflight.") + boundaryName(bd) +
                    "_issued",
                issued(bd),
                std::string("audit.inflight.") + boundaryName(bd) +
                    "_retired",
                retired(bd)));
        }
    }
}

void
checkCacheProbes(const std::vector<stats::FlatStat> &flat,
                 std::vector<std::string> &out)
{
    constexpr std::string_view suffix = ".probes";
    for (const auto &f : flat) {
        if (f.name.size() <= suffix.size() ||
            f.name.compare(f.name.size() - suffix.size(),
                           suffix.size(), suffix) != 0) {
            continue;
        }
        const std::string base =
            f.name.substr(0, f.name.size() - suffix.size());
        std::uint64_t accounted = value(flat, base + ".hits") +
            value(flat, base + ".misses");
        std::string rhs = base + ".hits + " + base + ".misses";
        if (stats::lookup(flat, base + ".stale_hits")) {
            accounted += value(flat, base + ".stale_hits");
            rhs += " + " + base + ".stale_hits";
        }
        if (accounted != f.u64)
            out.push_back(eqFail(f.name, f.u64, rhs, accounted));
    }
}

void
checkConservation(const std::vector<stats::FlatStat> &flat,
                  const ConservationParams &p,
                  std::vector<std::string> &out)
{
    // ---- per-GPU classification and write-back conservation --------
    std::vector<std::string> gpu_prefixes;
    for (const auto &f : flat) {
        if (stats::nameMatches("gpu*.traffic.remote_reads", f.name)) {
            gpu_prefixes.push_back(
                f.name.substr(0, f.name.find('.')));
        }
    }

    const bool has_rdc = !gpu_prefixes.empty() &&
        stats::lookup(flat, gpu_prefixes.front() + ".rdc.read_misses");

    for (const auto &g : gpu_prefixes) {
        if (!stats::lookup(flat, g + ".rdc.read_misses"))
            continue;
        // The GPU classifies a post-LLC read as remote exactly when
        // the RDC missed it, and as an RDC hit exactly when it hit.
        if (value(flat, g + ".traffic.remote_reads") !=
            value(flat, g + ".rdc.read_misses")) {
            out.push_back(eqFail(
                g + ".traffic.remote_reads",
                value(flat, g + ".traffic.remote_reads"),
                g + ".rdc.read_misses",
                value(flat, g + ".rdc.read_misses")));
        }
        if (value(flat, g + ".traffic.rdc_hit_reads") !=
            value(flat, g + ".rdc.read_hits")) {
            out.push_back(eqFail(
                g + ".traffic.rdc_hit_reads",
                value(flat, g + ".traffic.rdc_hit_reads"),
                g + ".rdc.read_hits",
                value(flat, g + ".rdc.read_hits")));
        }
        // Every dirty line displaced from the carve-out must have
        // been written back to its home.
        if (stats::lookup(flat, g + ".rdc.writeback_victims") &&
            value(flat, g + ".rdc.alloy.dirty_evictions") !=
                value(flat, g + ".rdc.writeback_victims")) {
            out.push_back(eqFail(
                g + ".rdc.alloy.dirty_evictions",
                value(flat, g + ".rdc.alloy.dirty_evictions"),
                g + ".rdc.writeback_victims",
                value(flat, g + ".rdc.writeback_victims")));
        }
    }

    // ---- kernel-boundary flushes reach the fabric ------------------
    if (stats::lookup(flat, "fabric.flush_bytes")) {
        const std::uint64_t controller_flush =
            stats::sumMatching(flat, "gpu*.rdc.flush_bytes");
        if (controller_flush != value(flat, "fabric.flush_bytes")) {
            out.push_back(eqFail("sum(gpu*.rdc.flush_bytes)",
                                 controller_flush, "fabric.flush_bytes",
                                 value(flat, "fabric.flush_bytes")));
        }
    }

    if (!stats::lookup(flat, "fabric.remote_read_msgs"))
        return; // doctored partial tree: nothing further to check

    // ---- message conservation --------------------------------------
    // Writes classified remote (plus write-back victim evictions) are
    // exactly the posted write messages the fabric accepted.
    const std::uint64_t classified_writes =
        stats::sumMatching(flat, "gpu*.traffic.remote_writes") +
        stats::sumMatching(flat, "gpu*.rdc.writeback_victims");
    if (classified_writes != value(flat, "fabric.remote_write_msgs")) {
        out.push_back(eqFail(
            "sum(gpu*.traffic.remote_writes + "
            "gpu*.rdc.writeback_victims)",
            classified_writes, "fabric.remote_write_msgs",
            value(flat, "fabric.remote_write_msgs")));
    }

    // Read messages: every RDC read miss launches one fetch unless it
    // merged behind an in-flight one; without an RDC the classifier
    // itself issues the message.
    const std::uint64_t expected_reads = has_rdc
        ? stats::sumMatching(flat, "gpu*.rdc.read_misses") -
            stats::sumMatching(flat, "gpu*.rdc.mshrs.merges")
        : stats::sumMatching(flat, "gpu*.traffic.remote_reads");
    if (expected_reads != value(flat, "fabric.remote_read_msgs")) {
        out.push_back(eqFail(
            has_rdc ? "sum(gpu*.rdc.read_misses - gpu*.rdc.mshrs"
                      ".merges)"
                    : "sum(gpu*.traffic.remote_reads)",
            expected_reads, "fabric.remote_read_msgs",
            value(flat, "fabric.remote_read_msgs")));
    }

    // Reads block warps, so every read message has been serviced at
    // its home by the time a kernel boundary is reached.
    const std::uint64_t serviced_reads =
        stats::sumMatching(flat, "gpu*.remote_serviced_reads");
    if (serviced_reads != value(flat, "fabric.remote_read_msgs")) {
        out.push_back(eqFail(
            "sum(gpu*.remote_serviced_reads)", serviced_reads,
            "fabric.remote_read_msgs",
            value(flat, "fabric.remote_read_msgs")));
    }

    // Writes are posted: only after the queue drains must every
    // message have landed in the home's DRAM.
    if (p.final_pass) {
        const std::uint64_t serviced_writes =
            stats::sumMatching(flat, "gpu*.remote_serviced_writes");
        if (serviced_writes !=
            value(flat, "fabric.remote_write_msgs")) {
            out.push_back(eqFail(
                "sum(gpu*.remote_serviced_writes)", serviced_writes,
                "fabric.remote_write_msgs",
                value(flat, "fabric.remote_write_msgs")));
        }
    }

    // ---- link byte conservation ------------------------------------
    std::uint64_t gpu_link_bytes = 0;
    std::uint64_t cpu_link_bytes = 0;
    for (const auto &f : flat) {
        if (!stats::nameMatches("link.*.*.bytes", f.name))
            continue;
        if (f.name.find(".cpu.") != std::string::npos)
            cpu_link_bytes += f.u64;
        else
            gpu_link_bytes += f.u64;
    }

    const std::uint64_t per_read =
        p.ctrl_packet_size + p.line_size;
    const std::uint64_t expected_gpu_bytes =
        value(flat, "fabric.remote_read_msgs") * per_read +
        value(flat, "fabric.remote_write_msgs") * p.line_size +
        value(flat, "fabric.flush_bytes") +
        value(flat, "fabric.coh_ctrl_bytes") +
        value(flat, "fabric.bulk_gpu_bytes");
    if (gpu_link_bytes != expected_gpu_bytes) {
        out.push_back(eqFail(
            "sum(gpu-gpu link.*.*.bytes)", gpu_link_bytes,
            "read msgs x (ctrl + line) + write msgs x line + "
            "flush + coherence ctrl + charged bulk bytes",
            expected_gpu_bytes));
    }

    const std::uint64_t expected_cpu_bytes =
        value(flat, "fabric.cpu_read_msgs") * per_read +
        value(flat, "fabric.cpu_write_msgs") * p.line_size +
        value(flat, "fabric.bulk_cpu_bytes");
    if (cpu_link_bytes != expected_cpu_bytes) {
        out.push_back(eqFail(
            "sum(cpu link.*.*.bytes)", cpu_link_bytes,
            "cpu read msgs x (ctrl + line) + cpu write msgs x "
            "line + charged bulk bytes",
            expected_cpu_bytes));
    }
}

} // namespace audit
} // namespace carve
