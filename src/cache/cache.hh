/**
 * @file
 * Cache component: tag array + hit/miss statistics with GPU-style
 * access semantics (write-through, no write-allocate). Timing and
 * routing live in the owning controller (SM or GPU node).
 */

#ifndef CARVE_CACHE_CACHE_HH
#define CARVE_CACHE_CACHE_HH

#include <optional>
#include <string>

#include "cache/tag_array.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace carve {

/**
 * One cache level. GPU semantics:
 *  - reads allocate on fill;
 *  - writes update a resident line (optionally marking it dirty) and
 *    otherwise do not allocate;
 *  - remote-homed lines are tagged so software coherence can drop them
 *    at kernel boundaries without touching local lines.
 */
class Cache
{
  public:
    /**
     * @param name stat-reporting name
     * @param cfg size/ways/latency
     * @param line_size line size in bytes
     */
    Cache(std::string name, const CacheConfig &cfg,
          std::uint64_t line_size);

    /**
     * Probe for a read. Counts a hit or miss.
     * @return true on hit
     */
    bool readProbe(Addr addr);

    /**
     * Probe for a write: updates the resident line if present.
     * @param mark_dirty when true a hit leaves the line dirty
     *        (write-back behaviour); when false the line stays clean
     *        (write-through)
     * @return true on hit
     */
    bool writeProbe(Addr addr, bool mark_dirty);

    /**
     * Install a line after a fill returns.
     * @param remote the line's home is another node
     * @return evicted line metadata, if a valid line was displaced
     */
    std::optional<Evicted> fill(Addr addr, bool remote);

    /** True when the line is resident (no stats, no recency update). */
    bool
    contains(Addr addr) const
    {
        return tags_.peek(addr) != TagArray::no_line;
    }

    /** Drop one line (hardware-coherence invalidation).
     * @return true when a valid line was dropped */
    bool invalidateLine(Addr addr);

    /** Drop everything (software coherence, L1 at kernel boundary). */
    std::uint64_t invalidateAll();

    /** Drop remote-homed lines only (LLC at kernel boundary). */
    std::uint64_t invalidateRemote();

    /** Lookup latency from config. */
    Cycle hitLatency() const { return hit_latency_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    /** Total read+write probes (== hits + misses). */
    std::uint64_t probes() const { return probes_.value(); }

    /** Hits / (hits + misses); 0 when idle. */
    double
    hitRate() const
    {
        const std::uint64_t total = hits() + misses();
        return total == 0
            ? 0.0
            : static_cast<double>(hits()) / static_cast<double>(total);
    }

    const std::string &name() const { return name_; }
    TagArray &tags() { return tags_; }
    const TagArray &tags() const { return tags_; }

    /** Register this cache's counters into @p g (owned by caller). */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("probes", &probes_);
        g.addScalar("hits", &hits_);
        g.addScalar("misses", &misses_);
        g.addScalar("evictions", &evictions_);
        g.addDerived("hit_rate", [this] { return hitRate(); });
    }

  private:
    std::string name_;
    Cycle hit_latency_;
    TagArray tags_;
    stats::Scalar probes_;     ///< read + write probes
    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar evictions_;  ///< valid lines displaced by fills
};

} // namespace carve

#endif // CARVE_CACHE_CACHE_HH
