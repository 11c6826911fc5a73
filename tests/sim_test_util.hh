/** @file Shared helpers for simulator tests: a miniature (fast)
 * 4-GPU configuration, small workload builders, and the one fake of
 * the SystemFabric seam. */

#ifndef CARVE_TESTS_SIM_TEST_UTIL_HH
#define CARVE_TESTS_SIM_TEST_UTIL_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/units.hh"
#include "gpu/fabric.hh"
#include "workloads/synthetic.hh"

namespace carve {
namespace test {

/** A tiny 4-GPU system that runs full simulations in milliseconds. */
inline SystemConfig
miniConfig()
{
    SystemConfig cfg;
    cfg.num_gpus = 4;
    cfg.core.sms_per_gpu = 4;
    cfg.core.max_warps_per_sm = 16;
    cfg.core.kernel_launch_latency = 100;
    cfg.l1 = CacheConfig{8 * KiB, 4, 10, 16};
    cfg.l2 = CacheConfig{64 * KiB, 8, 40, 64};
    cfg.tlb.l1_entries = 8;
    cfg.tlb.l2_entries = 32;
    cfg.dram.capacity = 256 * MiB;
    cfg.dram.channels = 4;
    cfg.dram.channel_bw = 64.0;
    cfg.rdc.size = 16 * MiB;
    return cfg;
}

/** Small workload over one configurable region. */
inline WorkloadParams
miniWorkload(RegionKind kind, double write_frac = 0.0,
             unsigned kernels = 2, std::uint64_t region_bytes = 8 * MiB)
{
    WorkloadParams p;
    p.name = "mini";
    p.kernels = kernels;
    p.ctas = 32;
    p.warps_per_cta = 4;
    p.insts_per_warp = 24;
    p.compute_min = 2;
    p.compute_max = 8;
    p.iterative = true;
    p.regions = {{kind, region_bytes, 1.0, write_frac, 0.4, 1, 0.25}};
    return p;
}

/** One recorded SystemFabric call. Fields a call does not carry keep
 * their defaults. */
struct FabricCall
{
    NodeId src = invalid_node;
    NodeId dst = invalid_node;  ///< home, destination, or node acted on
    Addr line = invalid_addr;
    std::uint64_t bytes = 0;
    AccessType type = AccessType::Read;
};

/** Sum of the recorded calls' bytes. */
inline std::uint64_t
totalBytes(const std::vector<FabricCall> &calls)
{
    std::uint64_t total = 0;
    for (const FabricCall &c : calls)
        total += c.bytes;
    return total;
}

/**
 * The fake machine behind a GpuNode, RdcController, GpuVi or
 * PageManager under test: records every call, completes remote and
 * CPU reads after settable latencies, and posts nothing else.
 */
class RecordingFabric : public SystemFabric
{
  public:
    explicit RecordingFabric(EventQueue &eq) : eq_(eq) {}

    void
    remoteRead(NodeId src, NodeId home, Addr line, Callback done) override
    {
        remote_reads.push_back({src, home, line});
        eq_.scheduleAfter(remote_read_latency, done);
    }

    void
    remoteWrite(NodeId src, NodeId home, Addr line) override
    {
        remote_writes.push_back({src, home, line});
    }

    void
    cpuRead(NodeId src, Addr line, Callback done) override
    {
        cpu_reads.push_back({src, cpu_node, line});
        eq_.scheduleAfter(cpu_read_latency, done);
    }

    void
    cpuWrite(NodeId src, Addr line) override
    {
        cpu_writes.push_back({src, cpu_node, line});
    }

    void
    bulkTransfer(NodeId src, NodeId dst, std::uint64_t bytes) override
    {
        bulk.push_back({src, dst, invalid_addr, bytes});
    }

    void
    rdcFlush(NodeId src, NodeId home, std::uint64_t bytes) override
    {
        flushes.push_back({src, home, invalid_addr, bytes});
    }

    void
    coherenceLocalAccess(NodeId home, Addr line,
                         AccessType type) override
    {
        local_accesses.push_back({home, home, line, 0, type});
    }

    void
    sendCtrl(NodeId src, NodeId dst, unsigned bytes) override
    {
        ctrl.push_back({src, dst, invalid_addr, bytes});
    }

    void
    invalidateAt(NodeId node, Addr line) override
    {
        invalidates.push_back({invalid_node, node, line});
    }

    void
    kernelDone(NodeId gpu) override
    {
        kernels_done.push_back(gpu);
    }

    Cycle remote_read_latency = 400;
    Cycle cpu_read_latency = 700;

    std::vector<FabricCall> remote_reads, remote_writes, cpu_reads,
        cpu_writes, bulk, flushes, local_accesses, ctrl, invalidates;
    std::vector<NodeId> kernels_done;

  private:
    EventQueue &eq_;
};

} // namespace test
} // namespace carve

#endif // CARVE_TESTS_SIM_TEST_UTIL_HH
