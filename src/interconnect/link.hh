/**
 * @file
 * Uni-directional point-to-point link with a serialization-accurate
 * bandwidth model (NVLink-style, Table III: 64 GB/s per direction
 * between GPUs, 32 GB/s to the CPU).
 */

#ifndef CARVE_INTERCONNECT_LINK_HH
#define CARVE_INTERCONNECT_LINK_HH

#include <cmath>
#include <string>

#include "common/audit.hh"
#include "common/domain_engine.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/probe.hh"

namespace carve {

/**
 * One direction of one link. Transfers serialize on the wire: a packet
 * occupies the link for size/bandwidth cycles and is delivered one hop
 * latency after its last byte leaves. This makes the link the precise
 * bandwidth bottleneck the paper's NUMA analysis revolves around.
 *
 * Each link is driven exclusively by its source domain (only code
 * executing there calls send()), so wire state and counters are
 * single-writer; delivery rides DomainEngine::post() into the
 * destination domain, which the lookahead window guarantees is always
 * at least one window boundary away.
 */
class Link
{
  public:
    /** Delivery continuations ride the engine's allocation-free
     * callable directly — no std::function round-trip per packet. */
    using Callback = EventFn;

    /**
     * @param engine domain engine delivering packets
     * @param dst_domain event domain of the receiving node
     * @param name stat-reporting name
     * @param bytes_per_cycle peak bandwidth
     * @param latency one-way hop latency in cycles
     */
    Link(DomainEngine &engine, unsigned dst_domain, std::string name,
         double bytes_per_cycle, Cycle latency);

    /**
     * Transmit @p bytes; @p delivered fires at the receiver.
     * @p delivered may be empty (posted control traffic).
     */
    void send(std::uint64_t bytes, Callback delivered);

    /** Total payload bytes accepted. */
    std::uint64_t bytesSent() const { return bytes_sent_.value(); }
    /** Total packets accepted. */
    std::uint64_t packets() const { return packets_.value(); }
    /** Cycles the wire was occupied. */
    std::uint64_t busyCycles() const { return busy_cycles_.value(); }
    /** Mean cycles a packet waited for the wire. */
    double meanQueueDelay() const { return queue_delay_.mean(); }

    /** Utilization over @p elapsed cycles (0..1). */
    double
    utilization(Cycle elapsed) const
    {
        return elapsed == 0
            ? 0.0
            : static_cast<double>(busyCycles()) /
                  static_cast<double>(elapsed);
    }

    const std::string &name() const { return name_; }
    double bandwidth() const { return bytes_per_cycle_; }

    /** Wire this link's probes: the queueing-delay distribution (not
     * just the mean) when @p telemetry is set, and a wire-occupancy
     * span per packet on trace row @p track of @p session (null ==
     * untraced), which a traced link defines along with a windowed
     * utilization counter. With @p audit (null unless audited) every
     * accepted packet carries a token until delivery. Call before
     * registerStats(). */
    void instrument(trace::Session *session, std::uint32_t track,
                    bool telemetry, audit::InflightTracker *audit);

    /** Register this link's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("bytes", &bytes_sent_);
        g.addScalar("packets", &packets_);
        g.addScalar("busy_cycles", &busy_cycles_);
        g.addAverage("queue_delay", &queue_delay_);
        if (queue_.histogram())
            g.addHistogram("queue_delay_cycles", &queue_delay_hist_);
    }

  private:
    DomainEngine &engine_;
    unsigned dst_domain_;
    std::string name_;
    double bytes_per_cycle_;
    Cycle latency_;
    Cycle wire_free_at_ = 0;
    audit::InflightTracker *audit_ = nullptr;
    trace::Probe queue_;  ///< packet arrival -> wire start
    trace::Probe wire_;   ///< wire occupancy

    stats::Scalar bytes_sent_;   ///< payload bytes accepted
    stats::Scalar packets_;
    stats::Scalar busy_cycles_;  ///< cycles the wire was occupied
    stats::Average queue_delay_; ///< cycles packets waited for the wire
    telemetry::Histogram queue_delay_hist_;
};

} // namespace carve

#endif // CARVE_INTERCONNECT_LINK_HH
