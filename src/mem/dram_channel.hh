/**
 * @file
 * One DRAM channel: bounded read/write queues, FR-FCFS scheduling with
 * read priority and batched write draining, open-page banks, and a
 * bandwidth-accurate burst occupancy model.
 */

#ifndef CARVE_MEM_DRAM_CHANNEL_HH
#define CARVE_MEM_DRAM_CHANNEL_HH

#include <deque>
#include <vector>

#include "common/completion.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/dram_bank.hh"
#include "trace/probe.hh"

namespace carve {

/** One queued channel request. Plain data: queue churn (staging,
 * FR-FCFS erasure) moves flat 56-byte records, never a heap box. */
struct DramRequest
{
    unsigned bank = 0;
    std::uint64_t row = 0;
    AccessType type = AccessType::Read;
    Cycle enqueued_at = 0;
    /** Completion callback; may be empty for posted writes. */
    Completion on_done;
};

/**
 * Event-driven DRAM channel.
 *
 * The channel serializes bursts: each access occupies the data bus for
 * line_size / channel_bw cycles, which is what enforces the configured
 * per-channel bandwidth. Access latency (row hit vs row miss) is paid
 * on top of queueing delay. Writes are posted: their callbacks (if any)
 * fire when the write is issued to the bank.
 */
class DramChannel
{
  public:
    /**
     * @param eq shared event queue
     * @param cfg DRAM parameters (latencies, queue depths, bandwidth)
     * @param line_size burst size in bytes
     * @param retry fired whenever queue space frees up after a
     *        rejected enqueue
     */
    DramChannel(EventQueue &eq, const DramConfig &cfg,
                std::uint64_t line_size, Completion retry);

    /**
     * Try to enqueue a request.
     * @return false when the corresponding queue is full; the caller
     *         must retry once the channel fires its retry completion.
     */
    bool enqueue(DramRequest req);

    /** Outstanding reads (queued, not yet issued). */
    std::size_t readQueueSize() const { return read_q_.size(); }
    /** Outstanding writes (queued, not yet issued). */
    std::size_t writeQueueSize() const { return write_q_.size(); }

    /** Total reads issued to banks. */
    std::uint64_t readsIssued() const { return reads_issued_.value(); }
    /** Total writes issued to banks. */
    std::uint64_t writesIssued() const { return writes_issued_.value(); }
    /** Cycles the data bus was occupied. */
    std::uint64_t busyCycles() const { return busy_cycles_.value(); }
    /** Row-buffer hit rate across all banks. */
    double rowHitRate() const;

    /** Per-bank accessor (tests). */
    const DramBank &bank(unsigned i) const { return banks_[i]; }

    /** Wire this channel's probes: every issued burst becomes a
     * data-bus busy span on trace row @p track of @p session (null ==
     * untraced). */
    void
    instrument(trace::Session *session, std::uint32_t track)
    {
        read_burst_ = trace::Probe(session, trace::Category::Dram, track,
                                   "read burst");
        write_burst_ = trace::Probe(session, trace::Category::Dram, track,
                                    "write burst");
    }

    /** Register this channel's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("reads_issued", &reads_issued_);
        g.addScalar("writes_issued", &writes_issued_);
        g.addScalar("busy_cycles", &busy_cycles_);
        g.addAverage("read_q_delay", &read_q_delay_);
    }

  private:
    void trySchedule();
    /** One scheduler beat: drain-mode hysteresis, FR-FCFS pick, issue.
     * Scheduled as a pre-bound event, so the channel's steady-state
     * drain loop allocates nothing. */
    void issueTick();
    void issue(std::deque<DramRequest> &q, std::size_t idx);
    /** Index of the best FR-FCFS candidate in @p q, or npos. */
    std::size_t pickFrFcfs(const std::deque<DramRequest> &q) const;

    EventQueue &eq_;
    const DramConfig &cfg_;
    std::uint64_t line_size_;
    Cycle burst_cycles_;

    std::vector<DramBank> banks_;
    std::deque<DramRequest> read_q_;
    std::deque<DramRequest> write_q_;
    bool draining_writes_ = false;
    bool issue_pending_ = false;
    Cycle bus_free_at_ = 0;
    bool reject_seen_ = false;
    Completion retry_;
    trace::Probe read_burst_;
    trace::Probe write_burst_;

    stats::Scalar reads_issued_;
    stats::Scalar writes_issued_;
    stats::Scalar busy_cycles_;    ///< cycles the data bus was occupied
    stats::Average read_q_delay_;  ///< cycles completed reads queued
};

} // namespace carve

#endif // CARVE_MEM_DRAM_CHANNEL_HH
