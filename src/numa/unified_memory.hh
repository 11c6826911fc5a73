/**
 * @file
 * Unified-Memory engine: pages resident in CPU system memory are
 * serviced over the 32 GB/s CPU link; pages that prove hot are
 * migrated into the accessing GPU's memory, NVIDIA UM style. Models
 * the paper's Section V-C claim that a small carve-out's capacity
 * loss is tolerable because only the cold end of the footprint spills.
 */

#ifndef CARVE_NUMA_UNIFIED_MEMORY_HH
#define CARVE_NUMA_UNIFIED_MEMORY_HH

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "numa/page_table.hh"

namespace carve {

/** Demand-migration policy for CPU-resident (spilled) pages. */
class UnifiedMemory
{
  public:
    /**
     * @param cfg UM migration threshold
     * @param table page table to operate on
     */
    UnifiedMemory(const NumaConfig &cfg, PageTable &table);

    /**
     * Record a post-LLC access by @p node to a CPU-resident page.
     * @return true when the access crossed the migration threshold
     *         and the page moved into @p node's memory (caller
     *         charges the CPU->GPU page transfer)
     */
    bool onAccess(PageEntry &page, NodeId node);

    /** Pages migrated from system memory into GPU memory. */
    std::uint64_t migrationsIn() const { return migrations_.value(); }

    /** Register this engine's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("um_migrations", &migrations_);
    }

  private:
    const NumaConfig &cfg_;
    PageTable &table_;
    stats::Scalar migrations_;  ///< pages pulled from system memory
};

} // namespace carve

#endif // CARVE_NUMA_UNIFIED_MEMORY_HH
