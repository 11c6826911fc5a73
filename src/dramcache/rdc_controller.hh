/**
 * @file
 * CARVE Remote Data Cache controller.
 *
 * Sits between the GPU LLC and the local memory controller. LLC misses
 * to *remote-homed* lines probe the RDC carve-out (one local DRAM
 * access, tags-with-data); hits are serviced at local bandwidth, misses
 * fetch from the home GPU over the NUMA link and install into the
 * carve-out. Local-homed lines never touch the RDC (no benefit,
 * Section IV-A of the paper).
 */

#ifndef CARVE_DRAMCACHE_RDC_CONTROLLER_HH
#define CARVE_DRAMCACHE_RDC_CONTROLLER_HH

#include <memory>
#include <vector>

#include "cache/mshr.hh"
#include "common/arena.hh"
#include "common/audit.hh"
#include "common/completion.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/dirty_map.hh"
#include "dramcache/epoch.hh"
#include "dramcache/hit_predictor.hh"
#include "gpu/fabric.hh"
#include "mem/memory_controller.hh"

namespace carve {

/**
 * Per-GPU CARVE controller: Alloy RDC + EPCTR + optional dirty map and
 * hit predictor, with all DRAM timing charged through the owning GPU's
 * MemoryController (RDC sets share the channels with ordinary memory
 * traffic, exactly like a carve-out of real HBM would).
 */
class RdcController
{
  public:
    /** POD completion delegate (no allocation per hand-off). */
    using Callback = Completion;

    /**
     * @param eq shared event queue
     * @param cfg full system configuration
     * @param self this GPU's node id
     * @param local_mem this GPU's memory controller
     * @param fabric remote fetches, write-throughs and boundary
     *        flushes, all sent on behalf of @p self
     * @param arena backing store for the miss pools (optional)
     */
    RdcController(EventQueue &eq, const SystemConfig &cfg, NodeId self,
                  MemoryController &local_mem, SystemFabric &fabric,
                  Arena *arena = nullptr);

    /**
     * Service an LLC read miss to a remote-homed line.
     * @param home the line's home node
     * @param line_addr global line address
     * @param done fires when the data is available at this GPU's LLC
     */
    void read(NodeId home, Addr line_addr, Callback done);

    /**
     * Service a write to a remote-homed line (posted).
     * Write-through: update-in-place if resident and forward home.
     * Write-back: write-allocate into the carve-out and mark dirty.
     */
    void write(NodeId home, Addr line_addr);

    /**
     * Kernel boundary under *software* coherence: bump the EPCTR
     * (instant invalidation) and, in write-back mode, flush dirty
     * regions to their homes.
     * @return stall cycles the kernel launch must absorb
     */
    Cycle kernelBoundarySwc();

    /** Inbound hardware write-invalidate for @p line_addr.
     * @return true when a valid copy was dropped */
    bool invalidateLine(Addr line_addr);

    /** True when a current-epoch copy of the line is resident. */
    bool contains(Addr line_addr);

    /** True in write-back mode: writes are absorbed locally instead of
     * being forwarded home immediately. */
    bool
    absorbsWrites() const
    {
        return cfg_.rdc.write_policy == RdcWritePolicy::WriteBack;
    }

    const AlloyCache &alloy() const { return alloy_; }
    const EpochCounter &epoch() const { return epoch_; }
    const DirtyMap &dirtyMap() const { return dirty_map_; }
    const HitPredictor &predictor() const { return predictor_; }
    const MshrFile &mshrs() const { return mshrs_; }
    MshrFile &mshrs() { return mshrs_; }

    /** Wire this controller's probes: miss lifetimes become spans on
     * trace row @p track of @p session (null == untraced), boundary
     * flushes and epoch rollovers instant markers; with @p telemetry,
     * the MSHR park-duration / miss-lifetime histograms; remote
     * fetches carry tokens of @p audit (null unless audited). Call
     * before registerStats() so the histograms join the stat tree. */
    void
    instrument(trace::Session *session, std::uint32_t track,
               bool telemetry, audit::InflightTracker *audit)
    {
        audit_ = audit;
        mshrs_.instrument(
            trace::Probe(session, trace::Category::Rdc, track, "rdc miss",
                         trace::histogramIf(telemetry, miss_life_)),
            trace::Probe(trace::histogramIf(telemetry, mshr_park_dur_)));
        flush_ = trace::Probe(session, trace::Category::Rdc, track,
                              "swc_flush");
        rollover_ = trace::Probe(session, trace::Category::Rdc, track,
                                 "epoch_rollover");
    }

    /** Cross-check alloy dirty bits against the dirty map; failures
     * are appended to @p out prefixed with @p prefix. */
    void auditDirtyState(const std::string &prefix,
                         std::vector<std::string> &out) const;

    /** Reads serviced from the carve-out (NUMA traffic avoided). */
    std::uint64_t readHits() const { return read_hits_.value(); }
    /** Reads forwarded to the home node. */
    std::uint64_t readMisses() const { return read_misses_.value(); }
    /** Misses that overlapped the probe with the remote fetch thanks
     * to the hit predictor. */
    std::uint64_t predictedBypasses() const { return bypasses_.value(); }

    /** Register controller counters plus alloy/epoch/predictor/
     * dirty_map/mshrs child groups into @p g (children owned here). */
    void registerStats(stats::StatGroup &g);

  private:
    /** A serialized miss in flight: probe, then fetch from home. */
    struct PendingMiss
    {
        Addr line_addr;
        Completion done;
        NodeId home;
    };

    void handleMiss(NodeId home, Addr line_addr, bool serialized,
                    Callback done);
    /** Wake-list retry of a miss parked on the full MSHR file;
     * re-parks while the file is still full. */
    void wakeMiss(std::uint32_t pending);
    /** Write a displaced dirty victim back to its home (its carve-out
     * copy was the only up-to-date one) and drop its dirty-map set. */
    void handleVictim(const std::optional<RdcVictim> &victim);
    /** Hit-path probe, scheduled as a pre-bound event after the
     * controller pipeline latency. */
    void probeHit(Addr line_addr, Callback done);
    /** Unparks a hit-probe payload staged in the pending pool. */
    void probeHitParked(std::uint32_t pending);
    /** Serialized-miss pipeline stages, keyed by pool handle. */
    void probeMiss(std::uint32_t pending);
    void probeMissDone(std::uint32_t pending);
    /** Remote fetch landed: install into the carve-out and complete. */
    void fetchArrived(Addr line_addr, NodeId home);
    Addr storageAddr(Addr line_addr) const;

    EventQueue &eq_;
    const SystemConfig &cfg_;
    NodeId self_;
    MemoryController &local_mem_;
    SystemFabric &fabric_;

    AlloyCache alloy_;
    EpochCounter epoch_;
    DirtyMap dirty_map_;
    HitPredictor predictor_;
    MshrFile mshrs_;
    Pool<PendingMiss> pending_misses_;

    /** Carve-out base inside local physical memory (top of DRAM). */
    Addr carve_base_;

    audit::InflightTracker *audit_ = nullptr;
    trace::Probe flush_;     ///< write-back boundary flush (payload: bytes)
    trace::Probe rollover_;  ///< EPCTR rollover cleared the carve-out

    telemetry::Histogram mshr_park_dur_;  ///< park->wake cycles
    telemetry::Histogram miss_life_;      ///< allocate->fill cycles

    stats::Scalar read_hits_;
    stats::Scalar read_misses_;
    stats::Scalar mshr_stalls_;     ///< stall episodes on a full MSHR file
    stats::Scalar write_updates_;   ///< writes to a resident line
    stats::Scalar write_throughs_;  ///< forwarded home (write-through)
    stats::Scalar bypasses_;        ///< misses overlapped with the probe
    stats::Scalar hw_invalidates_;  ///< inbound hardware write-invalidates
    stats::Scalar writeback_victims_;
    stats::Scalar flush_bytes_;     ///< kernel-boundary flush bytes sent
    stats::Scalar flush_regions_;   ///< dirty regions drained at boundaries
    std::vector<std::unique_ptr<stats::StatGroup>> stat_groups_;
};

} // namespace carve

#endif // CARVE_DRAMCACHE_RDC_CONTROLLER_HH
