/**
 * @file
 * Page migration engine (Carrefour-style): moves a page's home to a
 * remote node that dominates its access stream. Works for private
 * pages; fails for concurrently shared pages — which is exactly the
 * limitation the paper's Figure 2/13 "page migration" configuration
 * exhibits.
 */

#ifndef CARVE_NUMA_MIGRATION_HH
#define CARVE_NUMA_MIGRATION_HH

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "numa/page_table.hh"

namespace carve {

/** Decides and performs page-home changes. */
class MigrationEngine
{
  public:
    /**
     * @param cfg thresholds and stall costs
     * @param table page table to operate on
     */
    MigrationEngine(const NumaConfig &cfg, PageTable &table);

    /**
     * Consider migrating the page after a post-LLC access by @p node.
     * Policy: migrate when @p node has issued at least
     * migration_threshold accesses since the last action *and*
     * dominates all other nodes' recent accesses 4:1 (a page that is
     * genuinely shared never meets this and stays put).
     *
     * @return true when the page was migrated to @p node (the caller
     *         must charge the page transfer and TLB shootdown)
     */
    bool maybeMigrate(PageEntry &page, NodeId node);

    /** Pages migrated so far. */
    std::uint64_t migrations() const { return migrations_.value(); }

    /** Register this engine's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("migrations", &migrations_);
    }

  private:
    const NumaConfig &cfg_;
    PageTable &table_;
    stats::Scalar migrations_;  ///< page-home changes performed
};

} // namespace carve

#endif // CARVE_NUMA_MIGRATION_HH
