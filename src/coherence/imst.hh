/**
 * @file
 * In-Memory Sharing Tracker (IMST), Figure 12 of the paper.
 *
 * A 2-bit state per cacheline, stored in the spare ECC bits at the
 * line's *home* node, tracking the line's global sharing behaviour
 * beyond cache residency: Uncached, Private (one accessor node),
 * Read-Shared, or Read-Write-Shared. GPU-VI consults it to suppress
 * write-invalidate broadcasts for private lines. A small owner field
 * accompanies the Private state (the spare ECC space holds 56 bits,
 * of which the tag uses 6 — Section IV-A footnote 3) so a write by
 * the single owner never broadcasts even when the owner is a remote
 * node; this is what makes fine-grain (line) tracking effective where
 * page-granularity sharing is false. Lines can stick in shared states
 * forever, so writes probabilistically demote to Private (after
 * broadcasting invalidates) to re-learn the sharing pattern.
 *
 * Storage is a FlatTable of 8-byte words, one per line ever accessed:
 * the line address with the 2-bit state and the Private owner packed
 * into its top byte, as the hardware packs them beside the tag.
 */

#ifndef CARVE_COHERENCE_IMST_HH
#define CARVE_COHERENCE_IMST_HH

#include <cstdint>

#include "common/flat_table.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace carve {

/** Global sharing state of one cacheline. */
enum class SharingState : std::uint8_t {
    Uncached,
    Private,
    ReadShared,
    ReadWriteShared,
};

/** Printable name of a sharing state. */
const char *sharingStateName(SharingState s);

/**
 * Sharing tracker for lines homed at one node. Storage is sparse:
 * untouched lines are implicitly Uncached (their ECC metadata would be
 * zero-initialized). Line addresses must be below 2^56 and requesters
 * below 63.
 */
class Imst
{
  public:
    /**
     * @param home node id whose memory this tracker covers
     * @param demote_probability chance that a local write to a shared
     *        line demotes it to Private after invalidating sharers
     * @param seed RNG seed for the probabilistic demotion
     */
    Imst(NodeId home, double demote_probability = 0.01,
         std::uint64_t seed = 11);

    /**
     * Record an access observed at the home memory controller and
     * apply the Figure 12 transitions.
     *
     * @param line_addr line address (must be homed at this node)
     * @param requester accessing node
     * @param type read or write
     * @param[out] needs_invalidate set true when GPU-VI must broadcast
     *        a write-invalidate (write to a shared line)
     * @return the state *after* the transition
     */
    SharingState onAccess(Addr line_addr, NodeId requester,
                          AccessType type, bool &needs_invalidate);

    /** Current state of @p line_addr (Uncached when never touched). */
    SharingState state(Addr line_addr) const;

    /** Owner of a Private line (invalid_node otherwise). */
    NodeId owner(Addr line_addr) const;

    /** Lines currently tracked in a non-Uncached state. */
    std::size_t trackedLines() const { return states_.size(); }

    /** Writes that required a broadcast. */
    std::uint64_t sharedWrites() const { return shared_writes_.value(); }
    /** Writes filtered because the line was private/uncached. */
    std::uint64_t
    filteredWrites() const
    {
        return filtered_writes_.value();
    }
    /** Probabilistic demotions performed. */
    std::uint64_t demotions() const { return demotions_.value(); }

    NodeId home() const { return home_; }

    /** Register this tracker's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("shared_writes", &shared_writes_);
        g.addScalar("filtered_writes", &filtered_writes_);
        g.addScalar("demotions", &demotions_);
    }

  private:
    /** One tracked line: bits 0-55 the line address, 56-61 the owner
     * (meaningful only when Private), 62-63 the SharingState. */
    struct LineState
    {
        std::uint64_t word;
    };

    static constexpr unsigned owner_shift = 56;
    static constexpr unsigned state_shift = 62;
    static constexpr std::uint64_t line_mask =
        (std::uint64_t{1} << owner_shift) - 1;
    /** The 6-bit owner field. Requesters must be below it: an owner
     * of all ones is never stored, so no tracked line packs to the
     * free word. */
    static constexpr NodeId owner_mask = 63;

    struct LineKey
    {
        static constexpr LineState free_slot{~std::uint64_t{0}};
        static bool
        isFree(const LineState &s)
        {
            return s.word == free_slot.word;
        }
        std::uint64_t key(const LineState &s) const
        {
            return s.word & line_mask;
        }
    };

    static SharingState
    stateOf(LineState s)
    {
        return static_cast<SharingState>(s.word >> state_shift);
    }

    static NodeId
    ownerOf(LineState s)
    {
        return static_cast<NodeId>((s.word >> owner_shift) &
                                   owner_mask);
    }

    NodeId home_;
    double demote_probability_;
    Rng rng_;
    FlatTable<LineState, LineKey> states_;

    stats::Scalar shared_writes_;    ///< writes that required a broadcast
    stats::Scalar filtered_writes_;  ///< filtered as private/uncached
    stats::Scalar demotions_;  ///< probabilistic demotions to Private
};

} // namespace carve

#endif // CARVE_COHERENCE_IMST_HH
