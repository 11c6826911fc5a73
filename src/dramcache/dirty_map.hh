/**
 * @file
 * Dirty-region map for a write-back Remote Data Cache (Sim et al.,
 * MICRO '12 "mostly-clean" dirty tracking, cited as [45]).
 *
 * Tracks exactly which RDC sets hold dirty lines (keyed by the set's
 * storage offset, with the dirty line's home node) and reports flush
 * work at coarse region granularity: a kernel-boundary flush reads
 * back whole regions, so dirtyBytes() is the number of regions with
 * at least one dirty set times the region size. Exact per-set entries
 * (rather than a lossy per-region bit) let a displacement or
 * invalidation clear its set without forgetting other dirty sets in
 * the same region. The paper ultimately adopts a write-through RDC;
 * the write-back + dirty-map design is kept for the ablation bench.
 */

#ifndef CARVE_DRAMCACHE_DIRTY_MAP_HH
#define CARVE_DRAMCACHE_DIRTY_MAP_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace carve {

/** Region-granularity dirty tracker over the RDC carve-out. */
class DirtyMap
{
  public:
    /**
     * @param region_size bytes per tracked region (power of two)
     */
    explicit DirtyMap(std::uint64_t region_size = 4096);

    /** Record a write to the RDC storage offset @p rdc_offset of a
     * line homed at @p home (the flush destination). */
    void markDirty(Addr rdc_offset, NodeId home);

    /** Forget the dirty set at @p rdc_offset (its line was displaced
     * or invalidated; the data left the carve-out). */
    void clearDirty(Addr rdc_offset);

    /** True when the region containing @p rdc_offset has at least one
     * dirty set. */
    bool isDirty(Addr rdc_offset) const;

    /** True when the set at exactly @p rdc_offset is dirty. */
    bool
    isDirtyLine(Addr rdc_offset) const
    {
        return sets_.contains(rdc_offset);
    }

    /** Number of dirty sets tracked. */
    std::size_t dirtyLines() const { return sets_.size(); }

    /** Number of regions with at least one dirty set. */
    std::size_t dirtyRegions() const;

    /** Bytes that a flush must read back and transmit. */
    std::uint64_t
    dirtyBytes() const
    {
        return dirtyRegions() * region_size_;
    }

    /**
     * Flush plan: (home node, bytes) per destination, sorted by home
     * id for determinism. Each dirty region is attributed to the home
     * of its lowest dirty set offset (regions cover contiguous sets,
     * which map to address-adjacent lines, so mixed-home regions are
     * rare); bytes sum to dirtyBytes().
     */
    std::vector<std::pair<NodeId, std::uint64_t>> flushTargets() const;

    /** Clear after a flush. */
    void clear() { sets_.clear(); }

    std::uint64_t regionSize() const { return region_size_; }

    /** Lifetime count of set markings (including re-marks). */
    std::uint64_t markings() const { return markings_.value(); }

    /** Dirty sets keyed by storage offset, with the line's home
     * (audit cross-checks this against the alloy tag state). */
    const std::unordered_map<std::uint64_t, NodeId> &
    dirtySets() const
    {
        return sets_;
    }

    /** Register this map's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("markings", &markings_);
    }

  private:
    std::uint64_t region_size_;
    /** Dirty set storage offset -> home of the resident dirty line. */
    std::unordered_map<std::uint64_t, NodeId> sets_;
    stats::Scalar markings_;  ///< set markings, re-marks included
};

} // namespace carve

#endif // CARVE_DRAMCACHE_DIRTY_MAP_HH
