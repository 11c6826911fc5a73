/**
 * @file
 * Set-associative tag array shared by the L1, L2 and TLB models.
 *
 * Purely structural: lookup / insert / invalidate and recency state.
 * All timing and request routing lives in the owning controller.
 *
 * Layout is structure-of-arrays: one contiguous Addr array of line
 * tags, one byte array of state flags, one recency-stamp array. The
 * hit probe scans only the 8-byte tag lane of a set — invalid slots
 * hold an impossible sentinel tag, so the scan needs no flag load —
 * and callers address lines by a stable 32-bit LineIdx instead of a
 * pointer that the next insert could conceptually invalidate.
 */

#ifndef CARVE_CACHE_TAG_ARRAY_HH
#define CARVE_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/replacement.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace carve {

/** Outcome of an eviction: metadata of the displaced line. */
struct Evicted
{
    Addr line_addr;
    bool dirty;
    bool remote;
};

/**
 * Tag array with per-way recency stamps. Addresses are full byte
 * addresses; the array derives the line/set internally. Resident
 * lines are addressed by LineIdx (set * ways + way), which stays
 * valid until the line is evicted or invalidated.
 */
class TagArray
{
  public:
    /** Stable handle to a resident line (set * ways + way). */
    using LineIdx = std::uint32_t;
    /** lookup()/peek() miss result. */
    static constexpr LineIdx no_line = 0xffffffffu;

    /**
     * @param size total capacity in bytes
     * @param ways associativity
     * @param line_size line size in bytes
     * @param policy replacement policy
     * @param seed RNG seed for random replacement
     */
    TagArray(std::uint64_t size, unsigned ways, std::uint64_t line_size,
             ReplPolicy policy = ReplPolicy::LRU, std::uint64_t seed = 7);

    /**
     * Probe for the line containing @p addr.
     * @param touch update recency on hit
     * @return index of the resident line, or no_line on miss
     */
    LineIdx lookup(Addr addr, bool touch = true);

    /** Const probe without recency update. */
    LineIdx peek(Addr addr) const;

    /**
     * Insert the line containing @p addr (must not already be
     * resident), evicting a victim when the set is full.
     * @param remote mark the line as remote-homed
     * @return metadata of the evicted valid line, if any
     */
    std::optional<Evicted> insert(Addr addr, bool remote);

    /** Invalidate the line containing @p addr if resident.
     * @return true when a valid line was dropped. */
    bool invalidate(Addr addr);

    /** Invalidate every line. @return number dropped. */
    std::uint64_t invalidateAll();

    /** Invalidate every remote-homed line. @return number dropped. */
    std::uint64_t invalidateRemote();

    /**
     * Visit every valid dirty line (e.g., to flush at a kernel
     * boundary); the visitor receives its LineIdx and may clear the
     * dirty bit through it.
     */
    template <class Visitor>
    void
    forEachDirty(Visitor &&visitor)
    {
        const std::uint64_t n = sets_ * ways_;
        for (std::uint64_t i = 0; i < n; ++i) {
            if ((flags_[i] & (kValid | kDirty)) == (kValid | kDirty))
                visitor(static_cast<LineIdx>(i));
        }
    }

    bool isDirty(LineIdx i) const { return flags_[i] & kDirty; }

    void
    setDirty(LineIdx i, bool dirty)
    {
        if (dirty)
            flags_[i] |= kDirty;
        else
            flags_[i] &= static_cast<std::uint8_t>(~kDirty);
    }

    std::uint64_t numSets() const { return sets_; }
    unsigned numWays() const { return ways_; }

    /** Count of currently valid lines (O(capacity); tests only). */
    std::uint64_t validCount() const;

  private:
    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kDirty = 2;
    static constexpr std::uint8_t kRemote = 4;
    /** Tag stored in invalid slots; line addresses are aligned, so
     * all-ones never matches a probe. */
    static constexpr Addr kFreeTag = ~Addr{0};

    std::uint64_t
    setIndex(Addr addr) const
    {
        return set_div_.mod(line_div_.div(addr));
    }
    std::size_t wayBase(std::uint64_t set) const { return set * ways_; }
    void dropLine(std::uint64_t i);

    std::uint64_t sets_;
    unsigned ways_;
    std::uint64_t line_size_;
    Divisor line_div_;
    Divisor set_div_;
    Replacer replacer_;

    std::vector<Addr> tags_;           ///< kFreeTag == invalid slot
    std::vector<std::uint8_t> flags_;  ///< kValid | kDirty | kRemote
    std::vector<std::uint64_t> last_use_;
    std::uint64_t tick_ = 0;

    // Scratch buffers for the replacer (avoid per-insert allocation).
    std::vector<std::uint8_t> valid_scratch_;
    std::vector<std::uint64_t> use_scratch_;
};

} // namespace carve

#endif // CARVE_CACHE_TAG_ARRAY_HH
