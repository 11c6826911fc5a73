/**
 * @file
 * Multi-GPU interconnect fabric: a fully-connected mesh of
 * uni-directional GPU<->GPU links plus one bi-directional CPU link per
 * GPU, mirroring a DGX-style 4-GPU box (Figure 1 of the paper).
 */

#ifndef CARVE_INTERCONNECT_NETWORK_HH
#define CARVE_INTERCONNECT_NETWORK_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/domain_engine.hh"
#include "common/stats.hh"
#include "interconnect/link.hh"

namespace carve {

/**
 * Owns every link in the system and routes by (src, dst) node pair.
 * GPU ids are 0..num_gpus-1; the CPU is addressed via the dedicated
 * cpu-link helpers.
 */
class Network
{
  public:
    using Callback = Link::Callback;

    /**
     * @param engine domain engine (GPU g = domain g, CPU = system
     *        domain) delivering every packet
     * @param cfg link bandwidths/latency
     * @param num_gpus GPU node count
     */
    Network(DomainEngine &engine, const LinkConfig &cfg,
            unsigned num_gpus);

    /**
     * Send @p bytes from GPU @p src to GPU @p dst (src != dst);
     * @p delivered fires at the destination.
     */
    void send(NodeId src, NodeId dst, std::uint64_t bytes,
              Callback delivered);

    /** Send from GPU @p gpu up to the CPU. */
    void sendToCpu(NodeId gpu, std::uint64_t bytes, Callback delivered);

    /** Send from the CPU down to GPU @p gpu. */
    void sendFromCpu(NodeId gpu, std::uint64_t bytes,
                     Callback delivered);

    /** The link carrying src->dst traffic (tests and reporting). */
    const Link &link(NodeId src, NodeId dst) const;

    /** Aggregate GPU<->GPU payload bytes moved. */
    std::uint64_t totalGpuGpuBytes() const;

    /** Aggregate CPU<->GPU payload bytes moved. */
    std::uint64_t totalCpuGpuBytes() const;


    unsigned numGpus() const { return num_gpus_; }

    /** Register every link into @p g as nested "<src>.<dst>" groups
     * ("0.3", "0.cpu", "cpu.0"); nested groups are owned here. */
    void registerStats(stats::StatGroup &g);

    /** Wire every link's probes and audit tracker (see
     * Link::instrument()); a traced network is process @p pid
     * ("interconnect") with one row and one utilization counter per
     * link. Call before registerStats(). */
    void instrument(trace::Session *session, std::uint32_t pid,
                    bool telemetry, audit::InflightTracker *audit);

  private:
    std::size_t index(NodeId src, NodeId dst) const;

    /** Visit every link in trace-row order: gpu->gpu src-major, then
     * gpu->cpu, then cpu->gpu (matches registerStats naming). */
    template <typename Fn>
    void
    forEachLink(Fn &&fn)
    {
        for (auto &l : gpu_links_)
            if (l)
                fn(*l);
        for (auto &l : to_cpu_)
            fn(*l);
        for (auto &l : from_cpu_)
            fn(*l);
    }

    const LinkConfig &cfg_;
    unsigned num_gpus_;
    /** gpu_links_[src * num_gpus + dst], diagonal unused. */
    std::vector<std::unique_ptr<Link>> gpu_links_;
    std::vector<std::unique_ptr<Link>> to_cpu_;
    std::vector<std::unique_ptr<Link>> from_cpu_;
    std::vector<std::unique_ptr<stats::StatGroup>> link_groups_;
};

} // namespace carve

#endif // CARVE_INTERCONNECT_NETWORK_HH
