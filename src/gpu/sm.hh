/**
 * @file
 * Streaming Multiprocessor model: 64 warp slots, an LSU that issues
 * one warp memory instruction per cycle, a private write-through L1
 * with MSHRs, and per-warp latency hiding — the Pascal-like core of
 * Table III.
 */

#ifndef CARVE_GPU_SM_HH
#define CARVE_GPU_SM_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/arena.hh"
#include "common/completion.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "gpu/warp.hh"
#include "workloads/workload.hh"

namespace carve {

/**
 * One SM. All interaction with the rest of the GPU flows through its
 * Port, keeping the SM unit-testable in isolation.
 */
class Sm
{
  public:
    /** POD completion delegate: passing one across the port never
     * allocates. */
    using Callback = Completion;

    /** The SM's owner (GpuNode; a fake in unit tests). */
    class Port
    {
      public:
        virtual ~Port() = default;

        /** Forward an L1 miss / write-through to the L2 path.
         * @p done fires when read data returns (empty for writes). */
        virtual void accessFromSm(Addr line, AccessType type,
                                  Callback done) = 0;
        /** Pre-L1 profiling + first-touch (page manager). */
        virtual void recordAccess(Addr line, AccessType type) = 0;
        /** Translate @p addr for SM @p sm; returns added latency. */
        virtual Cycle translate(SmId sm, Addr addr) = 0;
        /** A CTA fully retired on SM @p sm. */
        virtual void onCtaRetired(SmId sm, CtaId cta) = 0;
    };

    /**
     * @param eq shared event queue
     * @param cfg system configuration
     * @param id SM index within the GPU
     * @param wl trace source (must outlive the SM)
     * @param port the owning GPU node
     * @param jitter_seed deterministic first-issue skew seed
     * @param arena backing store for the MSHR waiter pool (optional)
     */
    Sm(EventQueue &eq, const SystemConfig &cfg, SmId id,
       const Workload &wl, Port &port, std::uint64_t jitter_seed = 0,
       Arena *arena = nullptr);

    Sm(const Sm &) = delete;
    Sm &operator=(const Sm &) = delete;

    /**
     * Try to occupy warp slots with CTA @p cta of kernel @p k.
     * @return false when fewer than warpsPerCta() slots are free
     */
    bool tryStartCta(KernelId k, CtaId cta);

    /** Warp slots currently free. */
    unsigned
    freeWarpSlots() const
    {
        return static_cast<unsigned>(warps_.size()) - active_warps_;
    }

    /** True when no warp is resident. */
    bool idle() const { return active_warps_ == 0; }

    /** Drop every L1 line (kernel-boundary software coherence). */
    void invalidateL1() { l1_.invalidateAll(); }

    /** Drop one L1 line (hardware coherence). */
    bool invalidateL1Line(Addr line) { return l1_.invalidateLine(line); }

    Cache &l1() { return l1_; }
    const Cache &l1() const { return l1_; }
    const MshrFile &l1Mshrs() const { return l1_mshrs_; }

    std::uint64_t instsIssued() const { return insts_issued_.value(); }
    std::uint64_t readInsts() const { return read_insts_.value(); }
    std::uint64_t writeInsts() const { return write_insts_.value(); }
    std::uint64_t mshrStalls() const { return mshr_stalls_.value(); }

    SmId id() const { return id_; }

    /** Register SM counters plus an owned "l1" child group (with a
     * nested "mshrs" group) into @p g. */
    void registerStats(stats::StatGroup &g);

    /** Wire this SM's probes: warp read-latency spans and one
     * MSHR-stall instant per stall episode on trace row @p track of
     * @p session, and the L1 MSHR park durations into @p park (the
     * owning GPU pools one histogram across its SMs — all run in the
     * same event domain, so the writes are single-threaded). */
    void
    instrument(trace::Session *session, std::uint32_t track,
               const trace::Probe &park)
    {
        read_ = trace::Probe(session, trace::Category::Sm, track,
                             "read mem");
        stall_ = trace::Probe(session, trace::Category::Sm, track,
                              "mshr_stall");
        l1_mshrs_.instrument(trace::Probe(), park);
    }

  private:
    // The issue loop is driven by pre-bound member-function events
    // (bindEvent) rather than per-call lambdas, so scheduling a hop
    // copies only (this, slot) into the event's inline storage.
    void issueWarp(unsigned slot);
    void execute(unsigned slot);
    void issueStores(unsigned slot);
    void issueLoads(unsigned slot);
    void startRead(unsigned slot, Addr line);
    void allocateMiss(unsigned slot, Addr line);
    /** Wake-list retry of a Full L1 MSHR allocation; re-parks while
     * the file stays full, ends the stall episode on success. */
    void wakeL1Miss(std::uint32_t parked);
    /** @return false when the MSHR file is full. */
    bool tryAllocateMiss(unsigned slot, Addr line);
    void finishL1Fill(Addr line);
    void lineDone(unsigned slot);
    void finishWarp(unsigned slot);

    /** One L1 MSHR stall episode: a read parked on the wake-list. */
    struct ParkedRead
    {
        Addr line;
        Cycle since;        ///< episode start (trace duration)
        std::uint32_t slot;
    };

    EventQueue &eq_;
    const SystemConfig &cfg_;
    SmId id_;
    const Workload &wl_;
    Port &port_;
    std::uint64_t jitter_seed_;

    Cache l1_;
    MshrFile l1_mshrs_;
    Pool<ParkedRead> parked_reads_;
    std::vector<WarpContext> warps_;
    unsigned active_warps_ = 0;
    Cycle lsu_free_at_ = 0;
    trace::Probe read_;   ///< warp read latency (issue -> all lines back)
    trace::Probe stall_;  ///< one L1 MSHR stall episode ended

    stats::Scalar insts_issued_;  ///< warp memory instructions issued
    stats::Scalar read_insts_;
    stats::Scalar write_insts_;
    stats::Scalar lines_;         ///< post-coalescing line accesses
    stats::Scalar mshr_stalls_;   ///< stall episodes on a full L1 MSHR file
    std::vector<std::unique_ptr<stats::StatGroup>> stat_groups_;
};

} // namespace carve

#endif // CARVE_GPU_SM_HH
