/**
 * @file
 * MultiGpuSystem: the complete simulated machine. Owns the domain
 * engine (one event domain per GPU plus the system/CPU domain), the
 * NUMA runtime, the interconnect, the coherence engine and every GPU
 * node; implements SystemFabric to route off-chip traffic; and
 * sequences kernel launches with global barriers and software-
 * coherence actions at every boundary.
 *
 * Domain discipline: every component's mutable state belongs to
 * exactly one event domain (a GPU's caches/SMs/memory to that GPU's
 * domain, link state to the link's source domain, kernel sequencing
 * and CPU memory to the system domain). Cross-domain hand-offs go
 * through DomainEngine::post(), counters that increment from several
 * domains are ShardedScalars folded at window barriers, and the NUMA
 * runtime commits policy actions at barriers — which is what makes
 * the parallel engine byte-identical to the serial one.
 */

#ifndef CARVE_CORE_MULTI_GPU_SYSTEM_HH
#define CARVE_CORE_MULTI_GPU_SYSTEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "coherence/gpu_vi.hh"
#include "common/arena.hh"
#include "common/audit.hh"
#include "common/completion.hh"
#include "common/config.hh"
#include "common/domain_engine.hh"
#include "common/stats.hh"
#include "gpu/cta_scheduler.hh"
#include "gpu/fabric.hh"
#include "gpu/gpu.hh"
#include "interconnect/network.hh"
#include "numa/page_manager.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace carve {

/**
 * The paper's 4-GPU machine (any GPU count works). Construct with a
 * validated SystemConfig and a Workload, then call run(). The
 * SystemConfig's engine/sim_threads fields select serial or parallel
 * window execution; results are identical either way.
 */
class MultiGpuSystem : public SystemFabric
{
  public:
    /**
     * @param cfg system configuration (copied; validated here)
     * @param wl trace source (must outlive the system)
     * @param profile_lines line-granularity sharing profiling (costs
     *        memory proportional to touched lines; disable for pure
     *        timing runs)
     * @param audit enable the carve-audit conservation checker:
     *        in-flight tokens at every hand-off boundary plus
     *        cross-stat invariant passes at kernel boundaries and at
     *        end of simulation (panics on the first violation)
     * @param telemetry histogram/self-profiling switches; when
     *        disabled (default) no telemetry stat is registered and
     *        no sampling site runs, so the stat tree is byte-
     *        identical to a build without the subsystem
     * @param trace tracing session (must outlive the system; null ==
     *        untraced): system rows (kernel markers, log/audit
     *        instants), one process per GPU and the interconnect
     *        process. Counter tracks are sampled at window barriers,
     *        never from scheduled events, so a traced run executes
     *        the exact event sequence of an untraced one. Tracing
     *        requires the serial engine (Simulator::run() enforces
     *        this).
     */
    MultiGpuSystem(const SystemConfig &cfg, const Workload &wl,
                   bool profile_lines = true, bool audit = false,
                   telemetry::Options telemetry = {},
                   trace::Session *trace = nullptr);

    /**
     * Execute the whole trace.
     *
     * Stops early when a watchdog fires: after @p max_cycles of
     * simulated time (0 == unlimited; checked at window granularity)
     * or @p max_wall_seconds of host wall-clock time (0 == unlimited;
     * polled a few thousand events apart inside every worker, so
     * livelocked simulations are caught too). A tripped watchdog
     * leaves finished() false and watchdogTripped() true — callers
     * decide whether that is fatal (see Simulator::run()).
     *
     * @return total cycles from first launch to last kernel's end,
     *         or the abort time when a watchdog tripped
     */
    Cycle run(Cycle max_cycles = 0, double max_wall_seconds = 0.0);

    /** True once every kernel has completed. */
    bool finished() const { return finished_; }

    /** True when the last run() stopped on a watchdog. */
    bool watchdogTripped() const { return watchdog_tripped_; }

    /** End-to-end runtime (valid after run()). */
    Cycle finishTime() const { return finish_time_; }

    /** Current simulation time (the executing domain's clock). */
    Cycle now() const { return engine_.now(); }

    // ---- SystemFabric ----------------------------------------------
    void remoteRead(NodeId src, NodeId home, Addr line,
                    Callback done) override;
    void remoteWrite(NodeId src, NodeId home, Addr line) override;
    void cpuRead(NodeId src, Addr line, Callback done) override;
    void cpuWrite(NodeId src, Addr line) override;
    void bulkTransfer(NodeId src, NodeId dst,
                      std::uint64_t bytes) override;
    void rdcFlush(NodeId src, NodeId home,
                  std::uint64_t bytes) override;
    void coherenceLocalAccess(NodeId home, Addr line,
                              AccessType type) override;
    void sendCtrl(NodeId src, NodeId dst, unsigned bytes) override;
    void invalidateAt(NodeId node, Addr line) override;
    void kernelDone(NodeId gpu) override;

    // ---- introspection ---------------------------------------------
    const SystemConfig &config() const { return cfg_; }
    DomainEngine &engine() { return engine_; }
    const DomainEngine &engine() const { return engine_; }
    PageManager &pages() { return pages_; }
    const PageManager &pages() const { return pages_; }
    Network &network() { return net_; }
    const Network &network() const { return net_; }
    GpuNode &gpu(unsigned i) { return *gpus_[i]; }
    const GpuNode &gpu(unsigned i) const { return *gpus_[i]; }
    unsigned numGpus() const
    {
        return static_cast<unsigned>(gpus_.size());
    }
    const Workload &workload() const { return wl_; }

    /** True when the carve-audit checker is attached. */
    bool auditEnabled() const { return audit_.has_value(); }

    /** Total warp instructions issued so far. */
    std::uint64_t totalInstsIssued() const;

    /**
     * Root of the unified metrics registry. Every component counter
     * in the machine is registered here under a dotted name
     * ("gpu0.l2.hits", "link.0.3.bytes", "numa.migrations"); this
     * tree is the single source of truth reporting derives from.
     * Sharded counters are only coherent at window barriers — i.e.
     * after run() returns or inside barrier actions.
     */
    const stats::StatGroup &stats() const { return stat_root_; }

  private:
    /** A remote read crossing the fabric; pooled per source domain so
     * the three-hop request/service/data chain schedules only bound
     * events and every alloc/free happens in the source domain. */
    struct RemoteReadOp
    {
        Addr line;
        Completion done;
        NodeId src;
        NodeId home;
        Cycle issued;   ///< source-domain issue tick (telemetry)
    };

    /** A CPU (Unified Memory) read in flight. */
    struct CpuReadOp
    {
        Completion done;
        NodeId src;
    };

    void launchKernel(KernelId k);
    /** Window-delayed delivery of launchKernel() into GPU @p g. */
    void startGpuKernel(NodeId g, KernelId k);
    void onGpuKernelDone(NodeId gpu);
    /** Kernel-boundary work that must run while every domain is
     * stopped: coherence flushes, audit pass, next launch (or
     * finish). Runs as a window-barrier action. */
    void finishKernelBarrier();
    /** Remote-read pipeline stages, keyed by (source, pool handle). */
    void remoteReadAtHome(NodeId src, std::uint32_t op);
    void remoteReadServiced(NodeId src, std::uint32_t op);
    void deliverRemoteReadData(NodeId src, std::uint32_t op);
    /** Remote write landed at its home node. */
    void deliverRemoteWrite(NodeId src, NodeId home, Addr line);
    /** CPU-read pipeline stages, keyed by (source, pool handle). */
    void cpuReadAtCpu(NodeId src, std::uint32_t op);
    void cpuReadData(NodeId src, std::uint32_t op);
    void deliverCpuReadData(NodeId src, std::uint32_t op);
    /** Fold every sharded counter into its registered scalar; runs in
     * the on_barrier hook so barrier checks see totals. */
    void foldShardedStats();
    void registerStats();
    /** Run every applicable invariant; panics listing all failures.
     * @param final_pass the event queues have drained, so checks over
     *        posted traffic (writes, tokens, MSHR occupancy) apply */
    void auditCheck(bool final_pass);

    SystemConfig cfg_;
    DomainEngine engine_;
    const Workload &wl_;
    PageManager pages_;
    Network net_;
    std::optional<GpuVi> vi_;

    /**
     * Host placement: one arena backing the system-domain op pools
     * plus one arena per GPU node for its request pools (and its
     * fabric op pools), all bound to the constructing thread's NUMA
     * node when CARVE_NUMA is enabled. Declared before gpus_ so every
     * pool they back drains before the memory goes away.
     */
    Arena sys_arena_;
    std::vector<Arena> gpu_arenas_;
    /** Per-source-GPU in-flight op pools: allocated and freed only in
     * the source domain; the home/system side reads records that were
     * published a window barrier earlier. */
    std::vector<Pool<RemoteReadOp>> remote_read_ops_;
    std::vector<Pool<CpuReadOp>> cpu_read_ops_;

    std::vector<std::unique_ptr<GpuNode>> gpus_;
    CtaScheduler sched_;

    trace::Session *trace_ = nullptr;
    Cycle kernel_started_at_ = 0;
    Cycle trace_next_sample_ = 0;

    KernelId cur_kernel_ = 0;
    unsigned gpus_done_ = 0;
    bool finished_ = false;
    bool watchdog_tripped_ = false;
    Cycle finish_time_ = 0;
    stats::Scalar bulk_bytes_;  ///< page-copy bytes the NUMA runtime moved

    /**
     * Fabric-side conservation ledger: message and byte counts at the
     * point traffic enters the interconnect, which the audit balances
     * against the requester- and home-side counters. Always counted
     * (they are cheap and useful in reports); only audit mode checks
     * them. Sharded: fabric entry points execute in the caller's
     * domain.
     */
    ShardedScalar fabric_remote_read_msgs_;
    ShardedScalar fabric_remote_write_msgs_;
    ShardedScalar fabric_cpu_read_msgs_;
    ShardedScalar fabric_cpu_write_msgs_;
    ShardedScalar fabric_flush_bytes_;
    ShardedScalar fabric_coh_ctrl_bytes_;
    ShardedScalar fabric_bulk_gpu_bytes_;
    ShardedScalar fabric_bulk_cpu_bytes_;

    std::optional<audit::InflightTracker> audit_;

    telemetry::Options telem_;
    /** Engine self-profiling record, registered under "engine". */
    telemetry::EngineProfile engine_profile_;
    /** End-to-end remote-read latency (issue to data back at the
     * source). Sampled in each source GPU's domain, hence sharded. */
    telemetry::ShardedHistogram remote_read_latency_;

    stats::StatGroup stat_root_;
    std::vector<std::unique_ptr<stats::StatGroup>> stat_groups_;
};

} // namespace carve

#endif // CARVE_CORE_MULTI_GPU_SYSTEM_HH
