/** @file Unit tests for GpuNode over the recording SystemFabric fake:
 * post-LLC routing, traffic classification, home-side servicing,
 * hardware invalidation fan-in and kernel-boundary coherence. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/completion.hh"
#include "core/system_preset.hh"
#include "gpu/gpu.hh"
#include "sim_test_util.hh"

namespace carve {
namespace {

/** Trivial workload: one read or write per instruction at scripted
 * addresses. */
class OneLineWorkload : public Workload
{
  public:
    std::string nm = "oneline";
    std::vector<Addr> addrs{0x1000};
    AccessType type = AccessType::Read;

    const std::string &name() const override { return nm; }
    unsigned numKernels() const override { return 1; }
    std::uint64_t numCtas(KernelId) const override { return 1; }
    unsigned warpsPerCta() const override { return 1; }
    std::uint64_t
    instsPerWarp(KernelId) const override
    {
        return addrs.size();
    }

    void
    instruction(KernelId, CtaId, WarpId, std::uint64_t idx,
                WarpInstruction &out) const override
    {
        out.type = type;
        out.compute_cycles = 1;
        out.num_lines = 1;
        out.lines[0] = addrs[idx % addrs.size()];
    }
};

struct GpuNodeFixture : public ::testing::Test
{
    GpuNodeFixture()
        : cfg(makePreset(Preset::CarveHwc, test::miniConfig()))
    {
    }

    /** Map @p addr's page at @p home and commit it, so the kernel
     * under test sees a committed (not tentative) remote home. */
    void
    premap(Addr addr, NodeId home)
    {
        pages->recordAccess(addr, home, AccessType::Read, 0);
        pages->commitWindow(0);
    }

    void
    build()
    {
        pages = std::make_unique<PageManager>(cfg);
        fabric = std::make_unique<test::RecordingFabric>(eq);
        node = std::make_unique<GpuNode>(eq, cfg, 0, wl, *pages,
                                         *fabric);
        sched = std::make_unique<CtaScheduler>(1);
    }

    void
    runKernel()
    {
        sched->launchKernel(wl.numCtas(0));
        node->startKernel(0, *sched);
        eq.run();
        EXPECT_FALSE(fabric->kernels_done.empty());
    }

    EventQueue eq;
    SystemConfig cfg;
    OneLineWorkload wl;
    std::unique_ptr<PageManager> pages;
    std::unique_ptr<test::RecordingFabric> fabric;
    std::unique_ptr<GpuNode> node;
    std::unique_ptr<CtaScheduler> sched;
};

TEST_F(GpuNodeFixture, LocalReadNeverLeavesTheNode)
{
    build();
    runKernel();  // first touch by node 0 => local
    EXPECT_TRUE(fabric->remote_reads.empty());
    EXPECT_EQ(node->traffic().local_reads, 1u);
    EXPECT_EQ(node->traffic().remote_reads, 0u);
}

TEST_F(GpuNodeFixture, RemoteReadGoesThroughRdcThenHits)
{
    build();
    // Pre-map the page at node 1 so node 0's access is remote.
    premap(0x1000, 1);
    wl.addrs = {0x1000, 0x1000, 0x1000};
    runKernel();
    // Exactly one RDC-miss fetch; the repeats hit the carve-out or
    // merge behind the fetch.
    EXPECT_EQ(fabric->remote_reads.size(), 1u);
    EXPECT_EQ(fabric->remote_reads[0].dst, 1u);
    ASSERT_NE(node->rdc(), nullptr);
    EXPECT_TRUE(node->rdc()->contains(
        alignDown(Addr{0x1000}, cfg.line_size)));
}

TEST_F(GpuNodeFixture, RemoteWriteIsWrittenThrough)
{
    build();
    premap(0x1000, 1);
    wl.type = AccessType::Write;
    runKernel();
    EXPECT_EQ(fabric->remote_writes.size(), 1u);
    EXPECT_EQ(node->traffic().remote_writes, 1u);
}

TEST_F(GpuNodeFixture, WritebackRdcAbsorbsRemoteWrites)
{
    cfg.rdc.write_policy = RdcWritePolicy::WriteBack;
    build();
    premap(0x1000, 1);
    wl.type = AccessType::Write;
    runKernel();
    // The write allocates into the carve-out; nothing crosses the
    // fabric and the traffic classification says so.
    EXPECT_TRUE(fabric->remote_writes.empty());
    EXPECT_EQ(node->traffic().remote_writes, 0u);
    EXPECT_EQ(node->traffic().rdc_hit_writes, 1u);
}

TEST_F(GpuNodeFixture, SwcBoundaryFlushesDirtyBytesOverFabric)
{
    cfg.rdc.coherence = RdcCoherence::Software;
    cfg.rdc.write_policy = RdcWritePolicy::WriteBack;
    build();
    premap(0x1000, 1);
    wl.type = AccessType::Write;
    runKernel();
    EXPECT_EQ(node->traffic().rdc_hit_writes, 1u);
    const Cycle stall = node->kernelBoundary();
    EXPECT_GT(stall, 0u);
    EXPECT_EQ(fabric->flushes.size(), 1u);
    EXPECT_EQ(fabric->flushes.back().dst, 1u);
    EXPECT_EQ(test::totalBytes(fabric->flushes),
              node->rdc()->dirtyMap().regionSize());
}

TEST_F(GpuNodeFixture, LocalWriteTriggersCoherenceHook)
{
    build();
    wl.type = AccessType::Write;
    runKernel();
    EXPECT_EQ(std::count_if(fabric->local_accesses.begin(),
                            fabric->local_accesses.end(),
                            [](const test::FabricCall &c) {
                                return isWrite(c.type);
                            }),
              1);
    EXPECT_EQ(node->traffic().local_writes, 1u);
}

TEST_F(GpuNodeFixture, HomeSideServicingTouchesLocalDram)
{
    build();
    const std::uint64_t reads_before = node->mem().reads();
    // Bindable flag: serviceRemoteRead takes a POD Completion.
    struct Served
    {
        bool hit = false;
        void mark() { hit = true; }
    } served;
    node->serviceRemoteRead(0x2000,
                            Completion::bind<&Served::mark>(&served));
    node->serviceRemoteWrite(0x3000);
    eq.run();
    EXPECT_TRUE(served.hit);
    EXPECT_EQ(node->mem().reads(), reads_before + 1);
    EXPECT_EQ(node->mem().writes(), 1u);
}

TEST_F(GpuNodeFixture, InvalidateLineSweepsAllStructures)
{
    build();
    premap(0x1000, 1);
    runKernel();  // line now in L1, L2 and RDC
    const Addr line = alignDown(Addr{0x1000}, cfg.line_size);
    EXPECT_TRUE(node->l2().contains(line));
    EXPECT_TRUE(node->rdc()->contains(line));
    node->invalidateLine(line);
    EXPECT_FALSE(node->l2().contains(line));
    EXPECT_FALSE(node->rdc()->contains(line));
    EXPECT_FALSE(node->sm(0).l1().contains(line));
}

TEST_F(GpuNodeFixture, BoundaryKeepsRemoteLinesUnderHwCoherence)
{
    build();
    premap(0x1000, 1);
    runKernel();
    const Addr line = alignDown(Addr{0x1000}, cfg.line_size);
    EXPECT_EQ(node->kernelBoundary(), 0u);
    EXPECT_TRUE(node->l2().contains(line));   // HWC retains the LLC
    EXPECT_TRUE(node->rdc()->contains(line)); // and the carve-out
    EXPECT_FALSE(node->sm(0).l1().contains(line));  // L1 always drops
}

TEST_F(GpuNodeFixture, BoundaryDropsEverythingUnderSwCoherence)
{
    cfg.rdc.coherence = RdcCoherence::Software;
    build();
    premap(0x1000, 1);
    runKernel();
    const Addr line = alignDown(Addr{0x1000}, cfg.line_size);
    node->kernelBoundary();
    EXPECT_FALSE(node->l2().contains(line));
    EXPECT_FALSE(node->rdc()->contains(line));  // stale epoch
}

TEST_F(GpuNodeFixture, CpuResidentPageUsesCpuPath)
{
    cfg.numa.spill_fraction = 0.999;
    cfg.numa.um_migration_threshold = 1u << 30;
    build();
    wl.addrs = {0x1000, 0x5000000};
    runKernel();
    EXPECT_EQ(fabric->cpu_reads.size(), 2u);
    EXPECT_EQ(node->traffic().cpu_reads, 2u);
    EXPECT_TRUE(fabric->remote_reads.empty());
}

TEST_F(GpuNodeFixture, NoRdcFallsBackToDirectRemoteReads)
{
    cfg = makePreset(Preset::NumaGpu, test::miniConfig());
    build();
    premap(0x1000, 1);
    runKernel();
    EXPECT_EQ(node->rdc(), nullptr);
    EXPECT_EQ(fabric->remote_reads.size(), 1u);
    // Remote line cached in the LLC (NUMA-GPU baseline behaviour).
    EXPECT_TRUE(node->l2().contains(
        alignDown(Addr{0x1000}, cfg.line_size)));
}

TEST_F(GpuNodeFixture, LlcRemoteCachingCanBeDisabled)
{
    cfg = makePreset(Preset::NumaGpu, test::miniConfig());
    cfg.numa.llc_caches_remote = false;
    build();
    premap(0x1000, 1);
    wl.addrs = {0x1000, 0x1000};
    runKernel();
    // Both accesses fetched remotely: no LLC allocation for remote
    // lines (L1 still captures the second in some interleavings, so
    // assert on the LLC only).
    EXPECT_FALSE(node->l2().contains(
        alignDown(Addr{0x1000}, cfg.line_size)));
}

TEST_F(GpuNodeFixture, InstsIssuedAggregatesAcrossSms)
{
    build();
    wl.addrs = {0x1000, 0x2000, 0x3000};
    runKernel();
    EXPECT_EQ(node->instsIssued(), 3u);
    EXPECT_FALSE(node->busy());
}

} // namespace
} // namespace carve
