/** @file Unit tests for the IMST, GPU-VI engine and the software-
 * coherence (Table IV) cost model. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "coherence/gpu_vi.hh"
#include "coherence/imst.hh"
#include "coherence/software_coherence.hh"
#include "common/units.hh"
#include "sim_test_util.hh"

namespace carve {
namespace {

// ---- IMST -----------------------------------------------------------

TEST(Imst, UntouchedLinesAreUncached)
{
    Imst imst(0);
    EXPECT_EQ(imst.state(0x100), SharingState::Uncached);
    EXPECT_EQ(imst.owner(0x100), invalid_node);
}

TEST(Imst, FirstAccessBecomesPrivateToRequester)
{
    Imst imst(0);
    bool inval = false;
    imst.onAccess(0x100, 2, AccessType::Read, inval);
    EXPECT_EQ(imst.state(0x100), SharingState::Private);
    EXPECT_EQ(imst.owner(0x100), 2u);
    EXPECT_FALSE(inval);
}

TEST(Imst, OwnerWritesNeverBroadcast)
{
    Imst imst(0, 0.0);  // no demotion noise
    bool inval = false;
    imst.onAccess(0x100, 2, AccessType::Write, inval);
    for (int i = 0; i < 10; ++i) {
        imst.onAccess(0x100, 2, AccessType::Write, inval);
        EXPECT_FALSE(inval);
    }
    EXPECT_EQ(imst.filteredWrites(), 11u);
    EXPECT_EQ(imst.sharedWrites(), 0u);
}

TEST(Imst, SecondReaderMakesReadShared)
{
    Imst imst(0, 0.0);
    bool inval = false;
    imst.onAccess(0x100, 1, AccessType::Read, inval);
    imst.onAccess(0x100, 2, AccessType::Read, inval);
    EXPECT_EQ(imst.state(0x100), SharingState::ReadShared);
    EXPECT_FALSE(inval);
    EXPECT_EQ(imst.owner(0x100), invalid_node);
}

TEST(Imst, WriteToReadSharedBroadcastsAndEscalates)
{
    Imst imst(0, 0.0);
    bool inval = false;
    imst.onAccess(0x100, 1, AccessType::Read, inval);
    imst.onAccess(0x100, 2, AccessType::Read, inval);
    imst.onAccess(0x100, 1, AccessType::Write, inval);
    EXPECT_TRUE(inval);
    EXPECT_EQ(imst.state(0x100), SharingState::ReadWriteShared);
}

TEST(Imst, ForeignWriteToPrivateBroadcasts)
{
    Imst imst(0, 0.0);
    bool inval = false;
    imst.onAccess(0x100, 1, AccessType::Read, inval);
    imst.onAccess(0x100, 2, AccessType::Write, inval);
    EXPECT_TRUE(inval);  // node 1 may hold a stale copy
    EXPECT_EQ(imst.state(0x100), SharingState::ReadWriteShared);
}

TEST(Imst, ReadWriteSharedWritesKeepBroadcasting)
{
    Imst imst(0, 0.0);
    bool inval = false;
    imst.onAccess(0x100, 1, AccessType::Write, inval);
    imst.onAccess(0x100, 2, AccessType::Write, inval);
    for (int i = 0; i < 5; ++i) {
        imst.onAccess(0x100, 1, AccessType::Write, inval);
        EXPECT_TRUE(inval);
    }
    EXPECT_EQ(imst.sharedWrites(), 6u);
}

TEST(Imst, ProbabilisticDemotionRateIsRoughlyConfigured)
{
    Imst imst(0, 0.01, 42);
    bool inval = false;
    std::uint64_t demotions = 0;
    for (int i = 0; i < 40000; ++i) {
        // Re-establish the shared state whenever demotion fired.
        imst.onAccess(0x100, 1, AccessType::Read, inval);
        imst.onAccess(0x100, 2, AccessType::Read, inval);
        imst.onAccess(0x100, 1, AccessType::Write, inval);
    }
    demotions = imst.demotions();
    // ~1% of 40000 shared writes.
    EXPECT_GT(demotions, 250u);
    EXPECT_LT(demotions, 600u);
}

TEST(Imst, DemotionReturnsLineToWriter)
{
    Imst imst(0, 1.0);  // always demote
    bool inval = false;
    imst.onAccess(0x100, 1, AccessType::Read, inval);
    imst.onAccess(0x100, 2, AccessType::Read, inval);
    imst.onAccess(0x100, 3, AccessType::Write, inval);
    EXPECT_TRUE(inval);
    EXPECT_EQ(imst.state(0x100), SharingState::Private);
    EXPECT_EQ(imst.owner(0x100), 3u);
}

TEST(Imst, StateNames)
{
    EXPECT_STREQ(sharingStateName(SharingState::Uncached), "uncached");
    EXPECT_STREQ(sharingStateName(SharingState::Private), "private");
    EXPECT_STREQ(sharingStateName(SharingState::ReadShared),
                 "read-shared");
    EXPECT_STREQ(sharingStateName(SharingState::ReadWriteShared),
                 "read-write-shared");
}

// ---- GPU-VI ---------------------------------------------------------

struct GpuViFixture : public ::testing::Test
{
    GpuViFixture() { cfg.num_gpus = 4; }

    EventQueue eq;
    SystemConfig cfg;
    test::RecordingFabric fabric{eq};
};

TEST_F(GpuViFixture, PrivateWritesAreFiltered)
{
    GpuVi vi(cfg, 4, fabric);
    vi.onRead(0, 2, 0x100);
    EXPECT_EQ(vi.onWrite(0, 2, 0x100), 0u);
    EXPECT_TRUE(fabric.invalidates.empty());
    EXPECT_EQ(vi.writesFiltered(), 1u);
}

TEST_F(GpuViFixture, SharedWriteBroadcastsToAllButWriter)
{
    GpuVi vi(cfg, 4, fabric);
    vi.onRead(0, 1, 0x100);
    vi.onRead(0, 2, 0x100);
    const unsigned sent = vi.onWrite(0, 1, 0x100);
    EXPECT_EQ(sent, 3u);  // nodes 0, 2, 3
    EXPECT_EQ(fabric.invalidates.size(), 3u);
    for (const test::FabricCall &inv : fabric.invalidates) {
        EXPECT_NE(inv.dst, 1u);
        EXPECT_EQ(inv.line, 0x100u);
    }
    // The home (node 0) drops its copy without a network packet.
    EXPECT_EQ(fabric.ctrl.size(), 2u);
    EXPECT_EQ(test::totalBytes(fabric.ctrl),
              2u * cfg.link.ctrl_packet_size);
}

TEST_F(GpuViFixture, InvalidateCountAccumulates)
{
    GpuVi vi(cfg, 4, fabric);
    vi.onRead(1, 0, 0x200);
    vi.onRead(1, 2, 0x200);
    vi.onWrite(1, 0, 0x200);
    vi.onWrite(1, 2, 0x200);
    EXPECT_EQ(vi.invalidatesSent(), 6u);
    EXPECT_EQ(vi.imst(1).state(0x200), SharingState::ReadWriteShared);
}

// ---- software coherence cost model (Table IV) -----------------------

TEST(SwCoherence, TableIVAtPaperScale)
{
    SystemConfig cfg;  // Table III
    cfg.rdc.enabled = true;
    const SwCoherenceCost cost = computeSwCoherenceCost(cfg);

    // L2 invalidate: 8MB/128B lines over 16 banks ~= 4096 cycles
    // (4 us at 1 GHz -- Table IV "4us").
    EXPECT_EQ(cost.l2_invalidate, 4096u);

    // L2 flush: 8MB over 64 GB/s ~= 131072 cycles (~128 us).
    EXPECT_NEAR(static_cast<double>(cost.l2_flush), 131072.0, 1.0);

    // RDC invalidate: 2 x 2GB at 1 TB/s ~= 4.2M cycles (~4 ms; the
    // paper quotes 2 ms for a read-only pass -- same order).
    EXPECT_GT(cost.rdc_invalidate, 2'000'000u);
    EXPECT_LT(cost.rdc_invalidate, 8'000'000u);

    // RDC flush: 2GB over 64 GB/s ~= 33.5M cycles (~32 ms).
    EXPECT_NEAR(static_cast<double>(cost.rdc_flush), 33'554'432.0,
                1.0);

    // The paper's mechanisms make both RDC costs free.
    EXPECT_EQ(cost.rdc_invalidate_epoch, 0u);
    EXPECT_EQ(cost.rdc_flush_writethrough, 0u);
}

TEST(SwCoherence, RdcCostsScaleWithCarveSize)
{
    SystemConfig cfg;
    cfg.rdc.enabled = true;
    cfg.rdc.size = 1 * GiB;
    const SwCoherenceCost one = computeSwCoherenceCost(cfg);
    cfg.rdc.size = 4 * GiB;
    const SwCoherenceCost four = computeSwCoherenceCost(cfg);
    EXPECT_NEAR(static_cast<double>(four.rdc_flush),
                4.0 * static_cast<double>(one.rdc_flush), 4.0);
}

TEST(SwCoherence, MillisecondsVsMicroseconds)
{
    // The qualitative Table IV claim: LLC coherence costs live in the
    // microsecond range, naive RDC coherence in the millisecond range.
    SystemConfig cfg;
    cfg.rdc.enabled = true;
    const SwCoherenceCost cost = computeSwCoherenceCost(cfg);
    EXPECT_LT(cost.l2_invalidate, 1'000'000u);   // << 1 ms
    EXPECT_LT(cost.l2_flush, 1'000'000u);
    EXPECT_GT(cost.rdc_invalidate, 1'000'000u);  // >= 1 ms
    EXPECT_GT(cost.rdc_flush, 1'000'000u);
}

} // namespace
} // namespace carve
