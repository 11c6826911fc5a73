/**
 * @file
 * Alloy-style direct-mapped DRAM cache structure (Qureshi & Loh,
 * MICRO '12), used as the Remote Data Cache carve-out (Figure 7).
 *
 * Tags are stored with data (in spare HBM ECC bits), so one DRAM
 * access returns both; the structure here tracks tag/epoch/valid/dirty
 * state while the owning RdcController charges the DRAM timing.
 *
 * The tag store is sparse, so a multi-GB carve-out costs memory in
 * proportion to the sets it has *touched*, not to its capacity: a
 * FlatTable keyed by set index whose 16-byte slots hold the tag, the
 * epoch, the home node and the valid and dirty bits. The set index is
 * derived from the stored tag, so a slot needs no separate key.
 */

#ifndef CARVE_DRAMCACHE_ALLOY_CACHE_HH
#define CARVE_DRAMCACHE_ALLOY_CACHE_HH

#include <cstdint>
#include <optional>

#include "common/flat_table.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace carve {

/** Outcome of an RDC lookup. */
enum class RdcLookup : std::uint8_t {
    Hit,        ///< tag and epoch match
    Miss,       ///< set empty or tag mismatch
    StaleEpoch, ///< tag matches but the line is from an old epoch
};

/** A valid line displaced by an insert. The owning controller must
 * write a dirty victim back to its home or its data is lost. */
struct RdcVictim
{
    Addr tag = 0;      ///< displaced line address
    NodeId home = 0;   ///< the line's home node
    bool dirty = false;
};

/**
 * Direct-mapped tags-with-data cache keyed by line address.
 * Set index = line number mod number of sets.
 */
class AlloyCache
{
  public:
    /**
     * @param size carve-out capacity in bytes
     * @param line_size line size in bytes
     */
    AlloyCache(std::uint64_t size, std::uint64_t line_size);

    /**
     * Probe the set holding @p line_addr.
     * @param epoch current EPCTR value of the accessing kernel
     */
    RdcLookup lookup(Addr line_addr, std::uint32_t epoch);

    /**
     * Install @p line_addr, displacing whatever occupied its set.
     * @param epoch EPCTR value stored with the line
     * @param dirty install in dirty state (write-back mode)
     * @param home the line's home node (kept so a later displacement
     *        knows where a dirty victim must be written back)
     * @return the displaced valid line, when a different one was
     *         resident
     */
    std::optional<RdcVictim> insert(Addr line_addr,
                                    std::uint32_t epoch,
                                    bool dirty = false,
                                    NodeId home = 0);

    /**
     * Mark a resident, epoch-current line dirty (write-back mode).
     * @return true when the line was resident and marked
     */
    bool markDirty(Addr line_addr, std::uint32_t epoch);

    /** True when @p line_addr is resident (any epoch) and dirty. */
    bool lineDirty(Addr line_addr) const;

    /** Clear every resident line's dirty bit (post-flush: the copies
     * are clean again, matching the emptied dirty map). */
    void cleanAll();

    /**
     * Stat-free structural probe (coherence logic and tests).
     * @return true when an epoch-current copy is resident
     */
    bool peek(Addr line_addr, std::uint32_t epoch) const;

    /** Drop @p line_addr if resident (hardware write-invalidate).
     * @return true when a valid line was dropped */
    bool invalidateLine(Addr line_addr);

    /** Physically clear every set (EPCTR rollover). */
    void clear();

    /** Set index of @p line_addr (channel interleave uses this). */
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return sets_map_.traits().setOf(line_addr);
    }

    /**
     * Local physical address of a set's storage inside the carve-out
     * (relative to the carve-out base); interleaves across channels
     * exactly like ordinary memory.
     */
    Addr
    setStorageOffset(Addr line_addr) const
    {
        return setIndex(line_addr) * line_size_;
    }

    std::uint64_t numSets() const { return sets_; }
    std::uint64_t capacity() const { return sets_ * line_size_; }

    /** Number of sets currently tracked (== touched). */
    std::size_t touchedSets() const { return sets_map_.size(); }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t staleHits() const { return stale_.value(); }
    std::uint64_t conflictEvictions() const { return conflicts_.value(); }
    /** Displaced victims that were dirty (each owes a write-back). */
    std::uint64_t dirtyEvictions() const { return dirty_evictions_.value(); }
    /** Total lookup() probes (== hits + misses + stale hits). */
    std::uint64_t probes() const { return probes_.value(); }

    /** Hit rate counting stale-epoch probes as misses. */
    double
    hitRate() const
    {
        const std::uint64_t total =
            hits_.value() + misses_.value() + stale_.value();
        return total == 0
            ? 0.0
            : static_cast<double>(hits_.value()) /
                  static_cast<double>(total);
    }

    /** Register this cache's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("probes", &probes_);
        g.addScalar("hits", &hits_);
        g.addScalar("misses", &misses_);
        g.addScalar("stale_hits", &stale_);
        g.addScalar("conflict_evictions", &conflicts_);
        g.addScalar("dirty_evictions", &dirty_evictions_);
        g.addDerived("hit_rate", [this] { return hitRate(); });
    }

    /** One direct-mapped set's tag state. */
    struct SetEntry
    {
        Addr tag;             ///< full line address (free_tag: unused)
        std::uint32_t epoch;
        std::uint16_t home;   ///< the line's home node
        bool valid;
        bool dirty;
    };
    static_assert(sizeof(SetEntry) == 16, "one RDC set in 16 bytes");

    /** A set's slot key: its index, derived from the stored tag. */
    struct SetKey
    {
        static constexpr Addr free_tag = ~Addr{0};
        static constexpr SetEntry free_slot{free_tag, 0, 0, false, false};

        static bool isFree(const SetEntry &e) { return e.tag == free_tag; }
        std::uint64_t key(const SetEntry &e) const { return setOf(e.tag); }

        std::uint64_t
        setOf(Addr line_addr) const
        {
            return sets.mod(line.div(line_addr));
        }

        Divisor line;  ///< line size
        Divisor sets;  ///< number of sets
    };

    using SetStore = FlatTable<SetEntry, SetKey>;

    /** Sparse tag store keyed by set index (audit walks this). */
    const SetStore &setsMap() const { return sets_map_; }

  private:
    /** The valid entry holding @p line_addr, or nullptr. */
    const SetEntry *resident(Addr line_addr) const;

    std::uint64_t line_size_;
    std::uint64_t sets_;
    SetStore sets_map_;

    stats::Scalar probes_;
    stats::Scalar hits_;             ///< tag + epoch matches
    stats::Scalar misses_;           ///< empty set or tag mismatch
    stats::Scalar stale_;            ///< tag matches from an old epoch
    stats::Scalar conflicts_;        ///< valid lines displaced by inserts
    stats::Scalar dirty_evictions_;
};

} // namespace carve

#endif // CARVE_DRAMCACHE_ALLOY_CACHE_HH
