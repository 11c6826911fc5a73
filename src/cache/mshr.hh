/**
 * @file
 * Miss Status Holding Registers: merge concurrent misses to the same
 * line and bound the number of distinct outstanding lines.
 *
 * Layout is structure-of-arrays: an open-addressed, linear-probe
 * table of line addresses with parallel head/tail/born arrays, plus
 * a Pool of index-linked waiter records. The table is sized to <=50%
 * load at the configured capacity so probes stay short, and deletion
 * uses backward shifting, so there are no tombstones and no
 * rehashing — outstanding() and allocate() touch one or two cache
 * lines. Waiters fire in registration order, exactly as the previous
 * node-based implementation did.
 *
 * Requests that find the file full do not poll: they park() once on
 * an intrusive FIFO wake-list, and complete() drains the list through
 * the owning domain's event queue (one drain event per completion
 * batch, scheduled at the current tick so it claims a deterministic
 * (tick, seq) slot). Parked requests are retried in arrival order,
 * but a drain only wakes as many waiters as the file has free
 * registers — each retry runs with a register in hand, so wake work
 * per completion is O(1) and nobody is woken just to re-park.
 * Leftover waiters keep their FIFO position, so no waiter starves
 * behind later arrivals.
 */

#ifndef CARVE_CACHE_MSHR_HH
#define CARVE_CACHE_MSHR_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/arena.hh"
#include "common/completion.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/probe.hh"

namespace carve {

/** Result of trying to track a miss in the MSHR file. */
enum class MshrOutcome : std::uint8_t {
    NewEntry,   ///< first miss to this line: caller must fetch
    Merged,     ///< outstanding fetch exists: callback queued behind it
    Full,       ///< no free registers: caller must stall and retry
};

/**
 * MSHR file keyed by line address. Callbacks registered against a line
 * all fire (in registration order) when the fill completes.
 */
class MshrFile
{
  public:
    using Callback = Completion;

    /** @param num_entries max distinct outstanding lines
     *  @param arena optional backing store for waiter records
     *  @param eq owning domain's event queue; required before park()
     *         or a probe is used (wake-ups drain through it, probes
     *         are timed on it) */
    explicit MshrFile(unsigned num_entries, Arena *arena = nullptr,
                      EventQueue *eq = nullptr);

    /**
     * Track a miss to @p line_addr.
     * @param cb fired on fill completion (not on MshrOutcome::Full)
     */
    MshrOutcome allocate(Addr line_addr, Callback cb);

    /**
     * Complete the fill of @p line_addr: fires and removes all queued
     * callbacks. Calling for an untracked line is a simulator bug.
     * @return number of callbacks fired
     */
    std::size_t complete(Addr line_addr);

    /**
     * Park @p retry on the FIFO wake-list after allocate() returned
     * Full. The next complete() schedules one drain event at the
     * current tick on the owning queue; the drain pops retries in
     * park order while a register is free, so each one runs with
     * room to make progress. Requires an event queue (ctor @p eq).
     */
    void park(Completion retry);

    /** Requests currently parked on the wake-list. */
    std::size_t parked() const { return parked_count_; }

    /** True when a fetch for @p line_addr is in flight. */
    bool
    outstanding(Addr line_addr) const
    {
        return findSlot(line_addr) != npos;
    }

    /** Distinct lines currently in flight. */
    std::size_t size() const { return live_; }
    /** True when no further distinct line can be tracked. */
    bool full() const { return live_ >= capacity_; }
    unsigned capacity() const { return capacity_; }

    /** Total misses merged behind an existing entry. */
    std::uint64_t merges() const { return merges_.value(); }
    /** Total allocations rejected because the file was full. */
    std::uint64_t rejections() const { return rejections_.value(); }
    /** Total park() calls (initial parks plus re-parks). */
    std::uint64_t parks() const { return parks_.value(); }

    /** Register this file's counters into @p g (owned by caller). */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("merges", &merges_);
        g.addScalar("rejections", &rejections_);
        g.addScalar("parks", &parks_);
    }

    /**
     * Wire this file's two probes (the owner's instrument() call):
     * @p lifetime sees each entry's allocate->fill interval with the
     * line address as payload, @p park each park()->wake wait. Both
     * are timed on the construction event queue, so samples are
     * simulated cycles: deterministic and identical across engines
     * and thread counts.
     */
    void
    instrument(const trace::Probe &lifetime, const trace::Probe &park)
    {
        lifetime_ = lifetime;
        park_ = park;
    }

    /** The allocate->fill and park->wake probes; the owner registers
     * each one's histogram, when wired, in its stat tree. */
    const trace::Probe &lifetimeProbe() const { return lifetime_; }
    const trace::Probe &parkProbe() const { return park_; }

  private:
    /** Sentinel for an empty table slot; line addresses are aligned
     * so all-ones can never be a tracked line. */
    static constexpr Addr kEmpty = ~Addr{0};
    static constexpr std::uint32_t npos = 0xffffffffu;

    struct Waiter
    {
        Completion fn;
        std::uint32_t next;
    };

    std::uint32_t
    homeSlot(Addr a) const
    {
        return static_cast<std::uint32_t>(
                   (a * 0x9e3779b97f4a7c15ULL) >> 32) &
            mask_;
    }

    /** Linear probe; inline because the miss path calls it tens of
     * millions of times per run. */
    std::uint32_t
    findSlot(Addr a) const
    {
        for (std::uint32_t i = homeSlot(a);; i = (i + 1) & mask_) {
            if (slot_addr_[i] == a)
                return i;
            if (slot_addr_[i] == kEmpty)
                return npos;
        }
    }

    std::uint32_t insertSlot(Addr a);
    void eraseSlot(std::uint32_t i);
    /** Fire parked retries in FIFO order while a register is free
     *  (event context). */
    void drainWaiters();
    /** Arm one drain event at the current tick if waiters are parked
     * and none is pending. */
    void maybeScheduleDrain();

    unsigned capacity_;
    std::uint32_t mask_;
    std::size_t live_ = 0;
    std::vector<Addr> slot_addr_;        ///< kEmpty == free
    std::vector<std::uint32_t> head_;    ///< first waiter, or npos
    std::vector<std::uint32_t> tail_;    ///< last waiter, or npos
    std::vector<Cycle> born_;            ///< allocate stamp (lifetime_)
    Pool<Waiter> waiters_;

    EventQueue *eq_;                     ///< drains wake-ups, times probes
    std::uint32_t wake_head_ = npos;     ///< first parked retry
    std::uint32_t wake_tail_ = npos;     ///< last parked retry
    std::size_t parked_count_ = 0;
    bool drain_scheduled_ = false;

    stats::Scalar merges_;
    stats::Scalar rejections_;
    stats::Scalar parks_;

    trace::Probe lifetime_;              ///< allocate->fill
    trace::Probe park_;                  ///< park->wake
    /** Park stamps, FIFO-parallel to the wake-list (park_ only). */
    std::deque<Cycle> park_stamps_;
};

} // namespace carve

#endif // CARVE_CACHE_MSHR_HH
