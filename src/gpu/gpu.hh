/**
 * @file
 * One GPU node of the multi-GPU system: SMs + L1s, the shared L2/LLC
 * with MSHRs, the TLB hierarchy, the local memory controller, the
 * optional CARVE Remote Data Cache, and the post-LLC routing that
 * consults the NUMA runtime and classifies traffic as local / remote /
 * CPU — the counters behind Figure 8.
 */

#ifndef CARVE_GPU_GPU_HH
#define CARVE_GPU_GPU_HH

#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/arena.hh"
#include "common/audit.hh"
#include "common/completion.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "dramcache/rdc_controller.hh"
#include "gpu/cta_scheduler.hh"
#include "gpu/fabric.hh"
#include "gpu/sm.hh"
#include "mem/memory_controller.hh"
#include "numa/page_manager.hh"
#include "tlb/tlb.hh"

namespace carve {

/** Per-GPU post-LLC traffic counters (Figure 8's raw data). */
struct GpuTraffic
{
    stats::Scalar local_reads;
    stats::Scalar remote_reads;   ///< left this GPU (RDC misses too)
    stats::Scalar rdc_hit_reads;  ///< serviced by the carve-out
    stats::Scalar cpu_reads;
    stats::Scalar local_writes;
    stats::Scalar remote_writes;
    stats::Scalar rdc_hit_writes; ///< absorbed by a write-back RDC
    stats::Scalar cpu_writes;

    std::uint64_t
    total() const
    {
        return local_reads + remote_reads + rdc_hit_reads + cpu_reads +
            local_writes + remote_writes + rdc_hit_writes + cpu_writes;
    }

    /** Fraction of post-LLC accesses that crossed a NUMA link. */
    double fracRemote() const;

    /** Register the seven classifier counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("local_reads", &local_reads);
        g.addScalar("remote_reads", &remote_reads);
        g.addScalar("rdc_hit_reads", &rdc_hit_reads);
        g.addScalar("cpu_reads", &cpu_reads);
        g.addScalar("local_writes", &local_writes);
        g.addScalar("remote_writes", &remote_writes);
        g.addScalar("rdc_hit_writes", &rdc_hit_writes);
        g.addScalar("cpu_writes", &cpu_writes);
    }
};

/**
 * GPU node. Construction wires every SM to this node (its Sm::Port)
 * and the RDC to the fabric; the system drives kernels through
 * startKernel()/kernelBoundary() and hears of their end through
 * SystemFabric::kernelDone().
 */
class GpuNode : private Sm::Port
{
  public:
    /** POD completion delegate (no allocation per hand-off). */
    using Callback = Completion;

    /**
     * @param eq shared event queue
     * @param cfg system configuration
     * @param id this node's id
     * @param wl trace source (must outlive the node)
     * @param pages shared NUMA runtime
     * @param fabric off-chip services (remote memories, coherence,
     *        kernel completion)
     * @param arena backing store for this node's request pools; when
     *        null the pools fall back to the global heap
     */
    GpuNode(EventQueue &eq, const SystemConfig &cfg, NodeId id,
            const Workload &wl, PageManager &pages,
            SystemFabric &fabric, Arena *arena = nullptr);

    GpuNode(const GpuNode &) = delete;
    GpuNode &operator=(const GpuNode &) = delete;

    /**
     * Begin executing this GPU's batch of kernel @p k's CTAs, pulled
     * from @p sched. A GPU with an empty batch reports completion on
     * the next event.
     */
    void startKernel(KernelId k, CtaScheduler &sched);

    /**
     * Apply kernel-boundary software coherence: invalidate L1s,
     * drop LLC remote lines (unless hardware coherence maintains
     * them), and epoch-invalidate the RDC under CARVE-SWC.
     * @return stall cycles the next launch must absorb
     */
    Cycle kernelBoundary();

    /** Inbound read of @p line from this node's memory (home side). */
    void serviceRemoteRead(Addr line, Callback done);
    /** Inbound posted write of @p line to this node's memory. */
    void serviceRemoteWrite(Addr line);
    /** Inbound hardware write-invalidate. */
    void invalidateLine(Addr line);

    MemoryController &mem() { return mem_; }
    RdcController *rdc() { return rdc_.get(); }
    const RdcController *rdc() const { return rdc_.get(); }
    Cache &l2() { return l2_; }
    const Cache &l2() const { return l2_; }
    MshrFile &l2Mshrs() { return l2_mshrs_; }
    const MshrFile &l2Mshrs() const { return l2_mshrs_; }
    TlbHierarchy &tlb() { return tlb_; }
    Sm &sm(unsigned i) { return *sms_[i]; }
    const Sm &sm(unsigned i) const { return *sms_[i]; }
    unsigned numSms() const
    {
        return static_cast<unsigned>(sms_.size());
    }

    const GpuTraffic &traffic() const { return traffic_; }
    NodeId id() const { return id_; }

    /** True while warps are resident or CTAs remain unclaimed. */
    bool busy() const;

    /** Total warp instructions issued across this GPU's SMs. */
    std::uint64_t instsIssued() const;

    /** Register this node's whole subtree (traffic, l2 + mshrs, tlb,
     * mem, rdc when present, one group per SM) into @p g, the
     * system-owned "gpu<i>" group. */
    void registerStats(stats::StatGroup &g);

    /**
     * Wire this node's probes under trace process @p pid (null
     * @p session == untraced): the per-SM rows, the L2 MSHR / RDC /
     * coherence rows, the DRAM channel rows and this GPU's counter
     * tracks (MSHR + DRAM queue occupancy, RDC hit rate); with
     * @p telemetry, the MSHR latency histograms (L1 park durations
     * pooled across SMs, L2 park/lifetime, RDC when present); and the
     * in-flight token tracker @p audit (null unless audited) here and
     * in the memory controller, RDC and their hand-offs. Call before
     * registerStats() so the histograms join the stat tree.
     */
    void instrument(trace::Session *session, std::uint32_t pid,
                    bool telemetry, audit::InflightTracker *audit);

  private:
    /** A read in flight to the L2, or parked on the full L2 MSHR
     * file's wake-list awaiting a freed register. */
    struct ParkedMiss
    {
        Addr line;
        Completion done;
    };

    // ---- Sm::Port ---------------------------------------------------
    void accessFromSm(Addr line, AccessType type,
                      Callback done) override;
    void recordAccess(Addr line, AccessType type) override;
    Cycle translate(SmId sm, Addr addr) override;
    void onCtaRetired(SmId sm, CtaId cta) override;

    /** L2 arrival of a read, scheduled as a pre-bound event. */
    void arriveAtL2(Addr line, Callback done);
    /** Unparks an (addr, completion) record staged by accessFromSm. */
    void arriveAtL2Parked(std::uint32_t parked);
    void handleL2ReadMiss(Addr line, Callback done);
    /** Wake-list retry of a parked read; re-parks while the file is
     * still full, preserving its FIFO position. */
    void wakeL2Miss(std::uint32_t parked);
    void startFill(Addr line);
    /** Issue the fill at the routed @p service node. */
    void launchFill(Addr line, NodeId service);
    void finishFill(Addr line, bool remote);
    void handleWrite(Addr line);
    /** Deliver a post-LLC write at the routed @p service node. */
    void deliverWrite(Addr line, NodeId service);
    void maybeFinishKernel();

    EventQueue &eq_;
    const SystemConfig &cfg_;
    NodeId id_;
    const Workload &wl_;
    PageManager &pages_;
    SystemFabric &fabric_;

    std::vector<std::unique_ptr<Sm>> sms_;
    Cache l2_;
    MshrFile l2_mshrs_;
    Pool<ParkedMiss> parked_misses_;
    TlbHierarchy tlb_;
    MemoryController mem_;
    std::unique_ptr<RdcController> rdc_;

    CtaScheduler *sched_ = nullptr;
    KernelId cur_kernel_ = 0;
    std::uint64_t live_ctas_ = 0;

    audit::InflightTracker *audit_ = nullptr;
    trace::Probe boundary_inval_;  ///< kernel-boundary L1/LLC invalidation
    trace::Probe hw_inval_;        ///< inbound hardware write-invalidate
    trace::Probe l1_park_;         ///< every SM's L1 MSHR park->wake

    telemetry::Histogram l1_park_dur_;   ///< all SMs' L1 park->wake cycles
    telemetry::Histogram l2_park_dur_;   ///< L2 MSHR park->wake cycles
    telemetry::Histogram l2_miss_life_;  ///< L2 allocate->fill cycles

    GpuTraffic traffic_;
    stats::Scalar l2_mshr_stalls_;  ///< stall episodes on a full L2 MSHR file
    stats::Scalar hw_invalidations_in_;     ///< inbound write-invalidates
    stats::Scalar serviced_remote_reads_;   ///< inbound, serviced as home
    stats::Scalar serviced_remote_writes_;  ///< inbound, serviced as home
    std::vector<std::unique_ptr<stats::StatGroup>> stat_groups_;
};

} // namespace carve

#endif // CARVE_GPU_GPU_HH
