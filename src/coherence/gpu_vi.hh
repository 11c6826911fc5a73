/**
 * @file
 * GPU-VI hardware coherence engine (Singh et al., HPCA '13) extended
 * with IMST broadcast filtering — the paper's CARVE-HWC design.
 *
 * Directory-less write-invalidate protocol: caches are write-through;
 * a write observed at a line's home node broadcasts invalidates to
 * every other GPU *unless* the IMST proves the line is private. The
 * engine owns one IMST per home node and calls back into the system
 * to invalidate remote copies and charge control-packet traffic.
 */

#ifndef CARVE_COHERENCE_GPU_VI_HH
#define CARVE_COHERENCE_GPU_VI_HH

#include <functional>
#include <memory>
#include <vector>

#include "coherence/imst.hh"
#include "common/config.hh"
#include "common/domain_engine.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace carve {

/** Plumbing into the rest of the system, wired by MultiGpuSystem. */
struct CoherenceOps
{
    /** Drop every cached copy of @p line at @p node (RDC + LLC). */
    std::function<void(NodeId node, Addr line)> invalidate_at;
    /** Transmit a control packet of @p bytes from @p src to @p dst. */
    std::function<void(NodeId src, NodeId dst, unsigned bytes)>
        send_ctrl;
};

/**
 * System-wide GPU-VI + IMST coherence.
 */
class GpuVi
{
  public:
    /**
     * @param cfg system configuration (control-packet size, demotion)
     * @param num_gpus node count
     * @param ops invalidation/traffic callbacks
     * @param use_imst when false every write to remote-visible memory
     *        broadcasts (the unfiltered GPU-VI baseline, used by the
     *        IMST ablation bench)
     */
    GpuVi(const SystemConfig &cfg, unsigned num_gpus, CoherenceOps ops,
          bool use_imst = true);

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

    bool usesImst() const { return use_imst_; }

    /** Register engine counters plus one "imst<h>" child group per
     * home node into @p g (child groups owned here). */
    void registerStats(stats::StatGroup &g);

  private:
    const SystemConfig &cfg_;
    unsigned num_gpus_;
    CoherenceOps ops_;
    bool use_imst_;
    std::vector<Imst> imsts_;
    std::vector<std::unique_ptr<stats::StatGroup>> imst_groups_;

    /** Incremented from whichever home domain observes the write, so
     * sharded per executing domain and folded at barriers. */
    ShardedScalar invalidates_sent_;  ///< write-invalidate packets sent
};

} // namespace carve

#endif // CARVE_COHERENCE_GPU_VI_HH
