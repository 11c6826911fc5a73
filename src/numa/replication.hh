/**
 * @file
 * Software page replication: the runtime copies read-only shared
 * pages into each consuming GPU's memory so future reads are local.
 * Any store to a replicated page collapses the replicas (expensive
 * TLB shootdown) and the page is never replicated again — the paper's
 * model of why read-write pages cannot be handled in software.
 *
 * The ReplicationPolicy::All mode is the paper's *ideal* upper bound:
 * every shared page is replicated at zero cost and never collapses.
 */

#ifndef CARVE_NUMA_REPLICATION_HH
#define CARVE_NUMA_REPLICATION_HH

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "numa/page_table.hh"

namespace carve {

/** Manages page replicas under the configured policy. */
class ReplicationManager
{
  public:
    /**
     * @param cfg replication policy
     * @param table page table to operate on
     */
    ReplicationManager(const NumaConfig &cfg, PageTable &table);

    /**
     * Consider replicating the page for reader @p node after a
     * post-LLC remote read.
     * @return true when a replica was created at @p node (caller
     *         charges the page transfer)
     */
    bool maybeReplicate(PageEntry &page, NodeId node);

    /**
     * Handle a store to the page by @p node: under the ReadOnly
     * policy any existing replicas collapse.
     * @return true when replicas were dropped (caller charges the
     *         shootdown stall)
     */
    bool onWrite(PageEntry &page, NodeId node);

    /** Replicas created. */
    std::uint64_t replications() const { return replications_.value(); }
    /** Collapse events. */
    std::uint64_t collapses() const { return collapses_.value(); }
    /** Replications skipped due to exhausted GPU memory capacity. */
    std::uint64_t
    capacitySkips() const
    {
        return capacity_skips_.value();
    }

    /** Register this manager's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("replications", &replications_);
        g.addScalar("collapses", &collapses_);
        g.addScalar("capacity_skips", &capacity_skips_);
    }

  private:
    const NumaConfig &cfg_;
    PageTable &table_;
    stats::Scalar replications_;    ///< read-only replicas created
    stats::Scalar collapses_;       ///< replica collapses on writes
    stats::Scalar capacity_skips_;  ///< skipped for lack of capacity
};

} // namespace carve

#endif // CARVE_NUMA_REPLICATION_HH
