/**
 * @file
 * Epoch counter (EPCTR) for instant software-coherence invalidation of
 * the Remote Data Cache (Figure 10 of the paper).
 *
 * Each RDC line stores the epoch it was installed in (in spare ECC
 * bits alongside the tag). A lookup only hits when the stored epoch
 * matches the current one, so bumping the counter at a kernel boundary
 * invalidates the whole multi-GB carve-out in zero time. On the rare
 * rollover of the 20-bit counter the controller physically clears all
 * lines.
 */

#ifndef CARVE_DRAMCACHE_EPOCH_HH
#define CARVE_DRAMCACHE_EPOCH_HH

#include <cstdint>

#include "common/stats.hh"

namespace carve {

/** One kernel/stream's epoch counter. */
class EpochCounter
{
  public:
    /** @param bits counter width; wraps to zero after 2^bits - 1 */
    explicit EpochCounter(unsigned bits = 20);

    /** Current epoch value. */
    std::uint32_t current() const { return value_; }

    /**
     * Advance to the next epoch (kernel boundary).
     * @return true when the counter rolled over and the owner must
     *         physically reset all cached lines
     */
    bool increment();

    /** Number of increments performed. */
    std::uint64_t increments() const { return increments_.value(); }
    /** Number of rollovers observed. */
    std::uint64_t rollovers() const { return rollovers_.value(); }

    /** Register this counter's stats into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("increments", &increments_);
        g.addScalar("rollovers", &rollovers_);
    }

  private:
    std::uint32_t value_ = 0;
    std::uint32_t max_;
    stats::Scalar increments_;  ///< epoch bumps at kernel boundaries
    stats::Scalar rollovers_;   ///< wraps forcing a physical clear
};

} // namespace carve

#endif // CARVE_DRAMCACHE_EPOCH_HH
