/**
 * @file
 * GPU-VI hardware coherence engine (Singh et al., HPCA '13) extended
 * with IMST broadcast filtering — the paper's CARVE-HWC design.
 *
 * Directory-less write-invalidate protocol: caches are write-through;
 * a write observed at a line's home node broadcasts invalidates to
 * every other GPU *unless* the IMST proves the line is private. The
 * engine owns one IMST per home node and reaches the other GPUs
 * through the SystemFabric (control packets and invalidates).
 */

#ifndef CARVE_COHERENCE_GPU_VI_HH
#define CARVE_COHERENCE_GPU_VI_HH

#include <memory>
#include <vector>

#include "coherence/imst.hh"
#include "common/config.hh"
#include "common/domain_engine.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/fabric.hh"

namespace carve {

/**
 * System-wide GPU-VI + IMST coherence.
 */
class GpuVi
{
  public:
    /**
     * @param cfg system configuration (control-packet size, demotion)
     * @param num_gpus node count
     * @param fabric control packets and invalidates of the fan-out
     */
    GpuVi(const SystemConfig &cfg, unsigned num_gpus,
          SystemFabric &fabric);

    /**
     * Record a read observed at @p home's memory controller.
     */
    void onRead(NodeId home, NodeId requester, Addr line_addr);

    /**
     * Record a write observed at @p home's memory controller;
     * broadcasts write-invalidates when required.
     * @return number of invalidate packets sent
     */
    unsigned onWrite(NodeId home, NodeId requester, Addr line_addr);

    /** IMST of one home node. */
    const Imst &imst(NodeId home) const { return imsts_[home]; }

    /** Total invalidate packets broadcast (barrier-synced read). */
    std::uint64_t
    invalidatesSent() const
    {
        return invalidates_sent_.scalar().value();
    }

    /** Fold the per-domain invalidate counts into the registered
     * scalar; call only at a window barrier. */
    void
    foldShards()
    {
        invalidates_sent_.fold();
    }

    /** Writes whose broadcast the IMST filtered away. */
    std::uint64_t writesFiltered() const;

    /** Register engine counters plus one "imst<h>" child group per
     * home node into @p g (child groups owned here). */
    void registerStats(stats::StatGroup &g);

  private:
    const SystemConfig &cfg_;
    unsigned num_gpus_;
    SystemFabric &fabric_;
    std::vector<Imst> imsts_;
    std::vector<std::unique_ptr<stats::StatGroup>> imst_groups_;

    /** Incremented from whichever home domain observes the write, so
     * sharded per executing domain and folded at barriers. */
    ShardedScalar invalidates_sent_;  ///< write-invalidate packets sent
};

} // namespace carve

#endif // CARVE_COHERENCE_GPU_VI_HH
