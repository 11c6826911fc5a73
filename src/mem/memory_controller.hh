/**
 * @file
 * Per-GPU memory controller: address decode, per-channel dispatch with
 * backpressure-tolerant staging, aggregate bandwidth statistics.
 */

#ifndef CARVE_MEM_MEMORY_CONTROLLER_HH
#define CARVE_MEM_MEMORY_CONTROLLER_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/arena.hh"
#include "common/audit.hh"
#include "common/completion.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_mapping.hh"
#include "mem/dram_channel.hh"

namespace carve {

/**
 * Front end of one GPU's local HBM. Accepts line-granularity accesses
 * addressed by local physical address, decodes them with the
 * minimalist mapping and forwards to the owning channel. Requests
 * rejected by a full channel queue wait in an unbounded staging FIFO
 * and are replayed when the channel frees space, so callers never have
 * to handle retries themselves.
 */
class MemoryController
{
  public:
    /** POD completion delegate (no allocation per hand-off). */
    using Callback = Completion;

    /**
     * @param eq shared event queue
     * @param cfg full system configuration (DRAM + line size)
     * @param arena backing store for audit-wrap pool (optional)
     */
    MemoryController(EventQueue &eq, const SystemConfig &cfg,
                     Arena *arena = nullptr);

    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    /**
     * Issue a line access to local DRAM.
     * @param addr local physical byte address
     * @param type read or write
     * @param done completion callback (reads: data returned; writes:
     *        posted). May be empty.
     */
    void access(Addr addr, AccessType type, Callback done);

    /** Total read accesses accepted. */
    std::uint64_t reads() const { return reads_.value(); }
    /** Total write accesses accepted. */
    std::uint64_t writes() const { return writes_.value(); }
    /** Bytes moved (reads + writes). */
    std::uint64_t
    bytesTransferred() const
    {
        return (reads_.value() + writes_.value()) * line_size_;
    }

    /** Aggregate row-buffer hit rate. */
    double rowHitRate() const;

    /** Number of channels (tests). */
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /** Per-channel accessor (tests). */
    const DramChannel &channel(unsigned i) const { return *channels_[i]; }

    /** Register controller counters plus one "ch<i>" child group per
     * channel into @p g (child groups are owned here). */
    void registerStats(stats::StatGroup &g);

    /** Wire every channel's probes under trace process @p pid (null
     * @p session == untraced): one "dram.ch<i>" row per channel (tids
     * 200+i, matching the exporter's row layout). With @p audit (null
     * unless audited) every accepted access carries a token until its
     * channel issues it. */
    void
    instrument(trace::Session *session, std::uint32_t pid,
               audit::InflightTracker *audit)
    {
        audit_ = audit;
        for (unsigned c = 0; c < numChannels(); ++c) {
            if (session)
                session->defineThread(pid, 200 + c,
                                      "dram.ch" + std::to_string(c));
            channels_[c]->instrument(session,
                                     trace::makeTrack(pid, 200 + c));
        }
    }

  private:
    void drainStaged(unsigned ch);
    /** Audit-mode completion shim: retire the DRAM token, then fire
     * the wrapped caller completion parked at @p handle. */
    void auditRetire(std::uint32_t handle);

    EventQueue &eq_;
    AddressMapping mapping_;
    std::uint64_t line_size_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    std::vector<std::deque<DramRequest>> staged_;
    std::vector<std::unique_ptr<stats::StatGroup>> channel_groups_;
    audit::InflightTracker *audit_ = nullptr;
    Pool<Completion> audit_done_;

    stats::Scalar reads_;
    stats::Scalar writes_;
};

} // namespace carve

#endif // CARVE_MEM_MEMORY_CONTROLLER_HH
