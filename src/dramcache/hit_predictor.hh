/**
 * @file
 * MAP-I style DRAM-cache hit predictor (Qureshi & Loh, MICRO '12).
 *
 * The Alloy RDC serializes a local tags-with-data probe before a
 * remote fetch on a miss; for miss-heavy, latency-sensitive workloads
 * (the paper's RandAccess outlier, Section IV-A) that extra local
 * access costs ~10%. The predictor keeps per-region saturating
 * counters; on a confident miss prediction the controller launches the
 * remote fetch in parallel with the probe, trading a little local
 * bandwidth for latency.
 */

#ifndef CARVE_DRAMCACHE_HIT_PREDICTOR_HH
#define CARVE_DRAMCACHE_HIT_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace carve {

/** Table of 3-bit saturating hit/miss counters indexed by region. */
class HitPredictor
{
  public:
    /**
     * @param table_entries number of counters (power of two)
     * @param region_bits log2 of the address-region granularity that
     *        shares a counter
     */
    explicit HitPredictor(unsigned table_entries = 1024,
                          unsigned region_bits = 12);

    /** @return true when the line is predicted to hit in the RDC. */
    bool predictHit(Addr line_addr) const;

    /** Train with the actual outcome of a probe. */
    void update(Addr line_addr, bool was_hit);

    /** Prediction accuracy so far (1.0 when untrained). */
    double accuracy() const;

    std::uint64_t predictions() const
    {
        return correct_.value() + wrong_.value();
    }

    /** Register this predictor's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("correct", &correct_);
        g.addScalar("wrong", &wrong_);
        g.addDerived("accuracy", [this] { return accuracy(); });
    }

  private:
    std::size_t indexOf(Addr line_addr) const;

    unsigned region_bits_;
    std::vector<std::uint8_t> table_;  ///< 0..7, >=4 predicts hit

    stats::Scalar correct_;
    stats::Scalar wrong_;
};

} // namespace carve

#endif // CARVE_DRAMCACHE_HIT_PREDICTOR_HH
