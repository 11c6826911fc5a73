/** @file Unit tests for the CARVE RDC controller: hit/miss timing
 * paths, write policies, MSHR merging, software-coherence boundaries
 * and hardware invalidation, over the recording SystemFabric fake. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/completion.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "dramcache/rdc_controller.hh"
#include "mem/memory_controller.hh"
#include "sim_test_util.hh"

namespace carve {
namespace {

/** Test helper: bindable Completion targets for read callbacks. */
struct Probe
{
    EventQueue *eq = nullptr;
    Cycle when = 0;
    int count = 0;
    std::vector<Cycle> laps;

    void bump() { ++count; }
    void stamp()
    {
        when = eq->now();
        ++count;
    }
    void lap(std::uint64_t start)
    {
        laps.push_back(eq->now() - start);
    }
};

struct RdcFixture : public ::testing::Test
{
    RdcFixture()
    {
        cfg.num_gpus = 4;
        cfg.dram.channels = 2;
        cfg.dram.capacity = 64 * MiB;
        cfg.rdc.enabled = true;
        cfg.rdc.size = 4 * MiB;
        cfg.rdc.coherence = RdcCoherence::HardwareVI;
        fabric.remote_read_latency = remote_latency;
        mem = std::make_unique<MemoryController>(eq, cfg);
        rebuild();
    }

    /** (Re)create the controller; derived fixtures that change
     * construction-time config (MSHR sizing) call this again. */
    void
    rebuild()
    {
        rdc = std::make_unique<RdcController>(eq, cfg, 0, *mem,
                                              fabric);
    }

    EventQueue eq;
    SystemConfig cfg;
    /** Remote fetches complete after a fixed round trip. */
    test::RecordingFabric fabric{eq};
    std::unique_ptr<MemoryController> mem;
    std::unique_ptr<RdcController> rdc;

    static constexpr Cycle remote_latency = 500;
};

TEST_F(RdcFixture, ColdReadFetchesRemotelyAndInstalls)
{
    Probe p;
    rdc->read(1, 0x1000, Completion::bind<&Probe::bump>(&p));
    eq.run();
    EXPECT_EQ(p.count, 1);
    EXPECT_EQ(fabric.remote_reads.size(), 1u);
    EXPECT_EQ(fabric.remote_reads.back().dst, 1u);
    EXPECT_EQ(fabric.remote_reads.back().line, 0x1000u);
    EXPECT_TRUE(rdc->contains(0x1000));
    EXPECT_EQ(rdc->readMisses(), 1u);
}

TEST_F(RdcFixture, SecondReadHitsLocally)
{
    rdc->read(1, 0x1000, {});
    eq.run();
    Probe p;
    rdc->read(1, 0x1000, Completion::bind<&Probe::bump>(&p));
    eq.run();
    EXPECT_EQ(p.count, 1);
    EXPECT_EQ(fabric.remote_reads.size(), 1u);  // no second remote trip
    EXPECT_EQ(rdc->readHits(), 1u);
}

TEST_F(RdcFixture, HitIsFasterThanMiss)
{
    Probe miss;
    Probe hit;
    miss.eq = hit.eq = &eq;
    rdc->read(1, 0x1000, Completion::bind<&Probe::stamp>(&miss));
    eq.run();
    const Cycle hit_start = eq.now();
    rdc->read(1, 0x1000, Completion::bind<&Probe::stamp>(&hit));
    eq.run();
    EXPECT_GE(miss.when, remote_latency);
    EXPECT_LT(hit.when - hit_start, miss.when);
}

TEST_F(RdcFixture, ConcurrentMissesToSameLineMerge)
{
    Probe p;
    rdc->read(1, 0x2000, Completion::bind<&Probe::bump>(&p));
    rdc->read(1, 0x2000, Completion::bind<&Probe::bump>(&p));
    rdc->read(1, 0x2000, Completion::bind<&Probe::bump>(&p));
    eq.run();
    EXPECT_EQ(p.count, 3);
    EXPECT_EQ(fabric.remote_reads.size(), 1u);  // one remote fetch services all three
}

TEST_F(RdcFixture, WriteThroughForwardsEveryWrite)
{
    rdc->write(2, 0x3000);
    eq.run();
    EXPECT_EQ(fabric.remote_writes.size(), 1u);
    EXPECT_EQ(fabric.remote_writes.back().dst, 2u);
    // Write-through never allocates on a write miss.
    EXPECT_FALSE(rdc->contains(0x3000));
}

TEST_F(RdcFixture, WriteThroughUpdatesResidentCopy)
{
    rdc->read(1, 0x1000, {});
    eq.run();
    rdc->write(1, 0x1000);
    eq.run();
    EXPECT_EQ(fabric.remote_writes.size(), 1u);
    EXPECT_TRUE(rdc->contains(0x1000));  // still resident & current
}

TEST_F(RdcFixture, SwcBoundaryInstantlyInvalidatesViaEpoch)
{
    rdc->read(1, 0x1000, {});
    eq.run();
    ASSERT_TRUE(rdc->contains(0x1000));
    const Cycle stall = rdc->kernelBoundarySwc();
    EXPECT_EQ(stall, 0u);  // write-through: nothing to flush
    EXPECT_FALSE(rdc->contains(0x1000));  // stale epoch
    EXPECT_EQ(rdc->epoch().current(), 1u);
}

TEST_F(RdcFixture, HardwareInvalidateDropsLine)
{
    rdc->read(1, 0x1000, {});
    eq.run();
    EXPECT_TRUE(rdc->invalidateLine(0x1000));
    EXPECT_FALSE(rdc->contains(0x1000));
    EXPECT_FALSE(rdc->invalidateLine(0x1000));
}

struct RdcWritebackFixture : public RdcFixture
{
    RdcWritebackFixture()
    {
        cfg.rdc.write_policy = RdcWritePolicy::WriteBack;
    }
};

TEST_F(RdcWritebackFixture, WritesAllocateAndDeferPropagation)
{
    rdc->write(1, 0x5000);
    eq.run();
    EXPECT_EQ(fabric.remote_writes.size(), 0u);  // deferred
    EXPECT_TRUE(rdc->contains(0x5000));
    EXPECT_GT(rdc->dirtyMap().dirtyRegions(), 0u);
}

TEST_F(RdcWritebackFixture, BoundaryFlushCostsLinkTime)
{
    for (Addr a = 0; a < 64; ++a)
        rdc->write(1, 0x100000 + a * 4096 * 16);
    eq.run();
    const std::uint64_t dirty = rdc->dirtyMap().dirtyBytes();
    ASSERT_GT(dirty, 0u);
    const Cycle stall = rdc->kernelBoundarySwc();
    EXPECT_EQ(stall, static_cast<Cycle>(
        static_cast<double>(dirty) / cfg.link.gpu_gpu_bw));
    EXPECT_EQ(rdc->dirtyMap().dirtyRegions(), 0u);
    // The stall is not just accounting: the dirty bytes really leave
    // for their home over the flush path.
    EXPECT_GT(fabric.flushes.size(), 0u);
    EXPECT_EQ(test::totalBytes(fabric.flushes), dirty);
    EXPECT_EQ(fabric.flushes.back().dst, 1u);
    // A second boundary has nothing left to flush.
    EXPECT_EQ(rdc->kernelBoundarySwc(), 0u);
    EXPECT_EQ(test::totalBytes(fabric.flushes), dirty);
}

TEST_F(RdcWritebackFixture, DisplacedDirtyVictimIsWrittenHome)
{
    rdc->write(1, 0x5000);
    eq.run();
    ASSERT_EQ(fabric.remote_writes.size(), 0u);  // absorbed, not forwarded
    // 4 MiB direct-mapped carve-out: +4 MiB maps to the same set, so
    // the fill displaces the dirty line.
    rdc->read(2, 0x5000 + 4 * MiB, {});
    eq.run();
    EXPECT_EQ(fabric.remote_writes.size(), 1u);
    EXPECT_EQ(fabric.remote_writes.back().dst, 1u);
    EXPECT_EQ(fabric.remote_writes.back().line, 0x5000u);
    EXPECT_FALSE(rdc->contains(0x5000));
    EXPECT_TRUE(rdc->contains(0x5000 + 4 * MiB));
    // The displaced set no longer reads as dirty...
    EXPECT_EQ(rdc->dirtyMap().dirtyLines(), 0u);
    // ...so the next boundary flushes nothing.
    EXPECT_EQ(rdc->kernelBoundarySwc(), 0u);
    EXPECT_EQ(fabric.flushes.size(), 0u);
}

TEST_F(RdcWritebackFixture, WriteConflictWritesVictimBackFirst)
{
    rdc->write(1, 0x5000);
    rdc->write(2, 0x5000 + 4 * MiB);  // same set, different home
    eq.run();
    EXPECT_EQ(fabric.remote_writes.size(), 1u);
    EXPECT_EQ(fabric.remote_writes.back().dst, 1u);
    EXPECT_EQ(fabric.remote_writes.back().line, 0x5000u);
    // The set's dirty-map entry now belongs to the new line.
    ASSERT_EQ(rdc->dirtyMap().dirtyLines(), 1u);
    EXPECT_EQ(rdc->dirtyMap().dirtySets().begin()->second, 2u);
    EXPECT_TRUE(rdc->contains(0x5000 + 4 * MiB));
}

TEST_F(RdcWritebackFixture, InvalidateDropsDirtyTracking)
{
    rdc->write(1, 0x5000);
    eq.run();
    EXPECT_EQ(rdc->dirtyMap().dirtyLines(), 1u);
    // A hardware invalidate means the writer holds newer data; the
    // local dirty copy is discarded, never written back.
    EXPECT_TRUE(rdc->invalidateLine(0x5000));
    EXPECT_EQ(rdc->dirtyMap().dirtyLines(), 0u);
    EXPECT_EQ(rdc->kernelBoundarySwc(), 0u);
    EXPECT_EQ(fabric.flushes.size(), 0u);
    EXPECT_EQ(fabric.remote_writes.size(), 0u);
}

TEST_F(RdcWritebackFixture, DirtyStateAuditIsCleanThroughout)
{
    std::vector<std::string> fails;
    rdc->write(1, 0x5000);
    rdc->write(2, 0x5000 + 4 * MiB);  // displacement
    eq.run();
    rdc->auditDirtyState("rdc", fails);
    EXPECT_TRUE(fails.empty());
    rdc->kernelBoundarySwc();          // flush + cleanAll
    rdc->auditDirtyState("rdc", fails);
    EXPECT_TRUE(fails.empty());
}

struct RdcPredictorFixture : public RdcFixture
{
    RdcPredictorFixture() { cfg.rdc.hit_predictor = true; }
};

TEST_F(RdcPredictorFixture, PredictedMissOverlapsProbeWithFetch)
{
    // Train the predictor with a miss streak in one region.
    Probe p;
    p.eq = &eq;
    rdc->read(1, 0x10000, Completion::bind<&Probe::stamp>(&p));
    eq.run();

    // Far region shares the predictor entry only probabilistically;
    // force training on the same region with distinct lines.
    for (int i = 1; i <= 8; ++i) {
        const Cycle start = eq.now();
        rdc->read(1, 0x10000 + static_cast<Addr>(i) * 128,
                  Completion::bind<&Probe::lap>(&p, start));
        eq.run();
    }
    // Once the predictor flips to miss, latency drops to roughly the
    // bare remote trip (no serialized probe).
    EXPECT_GT(rdc->predictedBypasses(), 0u);
    EXPECT_LE(p.laps.back(), remote_latency + 10);
}

struct RdcTinyMshrFixture : public RdcFixture
{
    RdcTinyMshrFixture()
    {
        // The MSHR file is sized at construction: shrink and rebuild.
        cfg.rdc.mshr_entries = 1;
        rebuild();
    }
};

TEST_F(RdcTinyMshrFixture, OverflowParksInsteadOfPanicking)
{
    // Five distinct lines against a single MSHR register: the old
    // controller panicked ("MSHR overflow") under this legal config.
    // Now the excess parks on the wake-list and drains in FIFO order
    // as each fetch completes.
    Probe p;
    for (Addr i = 0; i < 5; ++i) {
        rdc->read(1, 0x1000 + i * 128,
                  Completion::bind<&Probe::bump>(&p));
    }
    eq.run();
    EXPECT_EQ(p.count, 5);
    EXPECT_EQ(fabric.remote_reads.size(), 5u);
    EXPECT_GT(rdc->mshrs().parks(), 0u);
    for (Addr i = 0; i < 5; ++i)
        EXPECT_TRUE(rdc->contains(0x1000 + i * 128));
}

TEST_F(RdcTinyMshrFixture, ParkedMissToOutstandingLineMerges)
{
    // A second miss to the line already being fetched must merge even
    // while the file is full, never park or double-fetch.
    Probe p;
    rdc->read(1, 0x1000, Completion::bind<&Probe::bump>(&p));
    rdc->read(1, 0x1000, Completion::bind<&Probe::bump>(&p));
    eq.run();
    EXPECT_EQ(p.count, 2);
    EXPECT_EQ(fabric.remote_reads.size(), 1u);
}

TEST_F(RdcFixture, DistinctSetsDoNotInterfere)
{
    // Fill many distinct lines; all must be resident afterwards
    // (4 MiB RDC == 32768 sets, these 100 lines cannot conflict).
    for (Addr i = 0; i < 100; ++i)
        rdc->read(1, 0x100000 + i * 128, {});
    eq.run();
    for (Addr i = 0; i < 100; ++i)
        EXPECT_TRUE(rdc->contains(0x100000 + i * 128));
}

} // namespace
} // namespace carve
