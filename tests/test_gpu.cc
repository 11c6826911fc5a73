/** @file Unit tests for the GPU building blocks: coalescer, CTA
 * scheduler and the SM warp engine (with scripted hooks). */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "gpu/coalescer.hh"
#include "gpu/cta_scheduler.hh"
#include "gpu/sm.hh"

namespace carve {
namespace {

// ---- coalescer ------------------------------------------------------

TEST(Coalescer, UnitStrideWarpTouchesOneLine)
{
    std::array<Addr, 32> lanes;
    for (unsigned i = 0; i < 32; ++i)
        lanes[i] = 0x1000 + i * 4;  // 32 x 4B == one 128B line
    WarpInstruction inst;
    const CoalesceResult r = coalesce(lanes, 128, inst);
    EXPECT_EQ(r.num_lines, 1u);
    EXPECT_EQ(r.dropped, 0u);
    EXPECT_EQ(inst.lines[0], 0x1000u);
}

TEST(Coalescer, StridedAccessSpansLines)
{
    std::array<Addr, 4> lanes{0, 128, 256, 384};
    WarpInstruction inst;
    const CoalesceResult r = coalesce(lanes, 128, inst);
    EXPECT_EQ(r.num_lines, 4u);
}

TEST(Coalescer, FullyDivergentDropsOverflow)
{
    std::array<Addr, 32> lanes;
    for (unsigned i = 0; i < 32; ++i)
        lanes[i] = static_cast<Addr>(i) * 4096;
    WarpInstruction inst;
    const CoalesceResult r = coalesce(lanes, 128, inst);
    EXPECT_EQ(r.num_lines, max_lines_per_inst);
    EXPECT_EQ(r.dropped, 32 - max_lines_per_inst);
}

TEST(Coalescer, DuplicatesAreMerged)
{
    std::array<Addr, 6> lanes{0, 4, 8, 128, 132, 0};
    WarpInstruction inst;
    const CoalesceResult r = coalesce(lanes, 128, inst);
    EXPECT_EQ(r.num_lines, 2u);
}

// ---- cta scheduler --------------------------------------------------

TEST(CtaScheduler, ContiguousEvenBatches)
{
    CtaScheduler s(4);
    s.launchKernel(100);
    EXPECT_EQ(s.batchStart(0), 0u);
    EXPECT_EQ(s.batchEnd(0), 25u);
    EXPECT_EQ(s.batchStart(3), 75u);
    EXPECT_EQ(s.batchEnd(3), 100u);
    EXPECT_EQ(s.remaining(2), 25u);
}

TEST(CtaScheduler, RemainderGoesToLowGpus)
{
    CtaScheduler s(4);
    s.launchKernel(10);  // 3,3,2,2
    EXPECT_EQ(s.remaining(0), 3u);
    EXPECT_EQ(s.remaining(1), 3u);
    EXPECT_EQ(s.remaining(2), 2u);
    EXPECT_EQ(s.remaining(3), 2u);
    // Batches stay contiguous and complete.
    EXPECT_EQ(s.batchEnd(0), s.batchStart(1));
    EXPECT_EQ(s.batchEnd(3), 10u);
}

TEST(CtaScheduler, NextCtaWalksBatchInOrder)
{
    CtaScheduler s(2);
    s.launchKernel(4);
    EXPECT_EQ(s.nextCta(1).value(), 2u);
    EXPECT_EQ(s.nextCta(1).value(), 3u);
    EXPECT_FALSE(s.nextCta(1).has_value());
    EXPECT_EQ(s.nextCta(0).value(), 0u);
}

TEST(CtaScheduler, KernelDoneAfterAllRetire)
{
    CtaScheduler s(2);
    s.launchKernel(3);
    EXPECT_FALSE(s.kernelDone());
    s.retireCta(0);
    s.retireCta(0);
    s.retireCta(1);
    EXPECT_TRUE(s.kernelDone());
    EXPECT_EQ(s.retiredCtas(), 3u);
}

TEST(CtaScheduler, RelaunchResetsState)
{
    CtaScheduler s(2);
    s.launchKernel(2);
    s.nextCta(0);
    s.retireCta(0);
    s.launchKernel(6);
    EXPECT_EQ(s.remaining(0), 3u);
    EXPECT_EQ(s.retiredCtas(), 0u);
    EXPECT_FALSE(s.kernelDone());
}

TEST(CtaScheduler, SingleGpuOwnsEverything)
{
    CtaScheduler s(1);
    s.launchKernel(7);
    EXPECT_EQ(s.remaining(0), 7u);
}

TEST(CtaScheduler, ZeroCtasIsImmediatelyDone)
{
    CtaScheduler s(4);
    s.launchKernel(0);
    EXPECT_TRUE(s.kernelDone());
    EXPECT_FALSE(s.nextCta(0).has_value());
}

// ---- SM -------------------------------------------------------------

/** Scripted workload: each warp runs a fixed number of reads/writes
 * with configurable addresses. */
class ScriptedWorkload : public Workload
{
  public:
    std::string nm = "scripted";
    unsigned kernels = 1;
    std::uint64_t ctas = 4;
    unsigned wpc = 2;
    std::uint64_t ipw = 4;
    AccessType type = AccessType::Read;
    bool same_line = false;

    const std::string &name() const override { return nm; }
    unsigned numKernels() const override { return kernels; }
    std::uint64_t numCtas(KernelId) const override { return ctas; }
    unsigned warpsPerCta() const override { return wpc; }
    std::uint64_t instsPerWarp(KernelId) const override { return ipw; }

    void
    instruction(KernelId, CtaId cta, WarpId w, std::uint64_t idx,
                WarpInstruction &out) const override
    {
        out.type = type;
        out.compute_cycles = 2;
        out.num_lines = 1;
        out.lines[0] = same_line
            ? 0x1000
            : 0x100000 + (cta * 1024 + w * 64 + idx) * 128;
    }
};

/** The SM's owner, faked: a fixed-latency L2 and counters. */
struct SmFixture : public ::testing::Test, public Sm::Port
{
    SmFixture()
    {
        cfg.core.max_warps_per_sm = 8;
        cfg.l1.mshrs = 4;
    }

    void
    accessFromSm(Addr, AccessType t, Sm::Callback done) override
    {
        ++l2_accesses;
        if (isWrite(t)) {
            ++l2_writes;
            return;
        }
        // Fixed-latency backing store.
        eq.scheduleAfter(50, done);
    }

    void recordAccess(Addr, AccessType) override { ++recorded; }

    Cycle translate(SmId, Addr) override { return Cycle{5}; }

    void
    onCtaRetired(SmId, CtaId cta) override
    {
        retired.push_back(cta);
    }

    Sm &
    makeSm()
    {
        sm = std::make_unique<Sm>(eq, cfg, 0, wl, *this);
        return *sm;
    }

    EventQueue eq;
    SystemConfig cfg;
    ScriptedWorkload wl;
    std::unique_ptr<Sm> sm;
    unsigned l2_accesses = 0;
    unsigned l2_writes = 0;
    unsigned recorded = 0;
    std::vector<CtaId> retired;
};

TEST_F(SmFixture, RunsCtaToCompletion)
{
    Sm &s = makeSm();
    EXPECT_TRUE(s.tryStartCta(0, 7));
    eq.run();
    ASSERT_EQ(retired.size(), 1u);
    EXPECT_EQ(retired[0], 7u);
    EXPECT_EQ(s.instsIssued(), wl.wpc * wl.ipw);
    EXPECT_EQ(recorded, wl.wpc * wl.ipw);
    EXPECT_TRUE(s.idle());
}

TEST_F(SmFixture, RejectsCtaWhenSlotsExhausted)
{
    Sm &s = makeSm();
    EXPECT_TRUE(s.tryStartCta(0, 0));   // 2 warps
    EXPECT_TRUE(s.tryStartCta(0, 1));
    EXPECT_TRUE(s.tryStartCta(0, 2));
    EXPECT_TRUE(s.tryStartCta(0, 3));   // 8 of 8 slots
    EXPECT_FALSE(s.tryStartCta(0, 4));
    EXPECT_EQ(s.freeWarpSlots(), 0u);
    eq.run();
    EXPECT_EQ(retired.size(), 4u);
}

TEST_F(SmFixture, L1CapturesReuse)
{
    wl.same_line = true;  // everyone hammers one line
    Sm &s = makeSm();
    s.tryStartCta(0, 0);
    eq.run();
    // One fill from L2; everything else hits in L1 (or merges).
    EXPECT_EQ(l2_accesses, 1u);
    EXPECT_GT(s.l1().hits(), 0u);
}

TEST_F(SmFixture, WritesArePostedAndDoNotBlock)
{
    wl.type = AccessType::Write;
    Sm &s = makeSm();
    s.tryStartCta(0, 0);
    eq.run();
    EXPECT_EQ(l2_writes, wl.wpc * wl.ipw);
    EXPECT_EQ(s.writeInsts(), wl.wpc * wl.ipw);
    EXPECT_EQ(s.readInsts(), 0u);
    EXPECT_EQ(retired.size(), 1u);
}

TEST_F(SmFixture, DistinctLinesMissIndividually)
{
    Sm &s = makeSm();
    s.tryStartCta(0, 0);
    eq.run();
    EXPECT_EQ(l2_accesses, wl.wpc * wl.ipw);
    EXPECT_EQ(s.l1().hits(), 0u);
}

TEST_F(SmFixture, InvalidateL1DropsReuse)
{
    wl.same_line = true;
    Sm &s = makeSm();
    s.tryStartCta(0, 0);
    eq.run();
    s.invalidateL1();
    const unsigned l2_before = l2_accesses;
    s.tryStartCta(0, 1);
    eq.run();
    EXPECT_EQ(l2_accesses, l2_before + 1);  // refetched once
}

TEST_F(SmFixture, MshrPressureStallsButCompletes)
{
    cfg.l1.mshrs = 1;  // brutal
    Sm &s = makeSm();
    s.tryStartCta(0, 0);
    s.tryStartCta(0, 1);
    eq.run();
    EXPECT_EQ(retired.size(), 2u);
    EXPECT_GT(s.mshrStalls(), 0u);
}

TEST_F(SmFixture, ZeroInstructionCtaRetiresImmediately)
{
    wl.ipw = 0;
    Sm &s = makeSm();
    s.tryStartCta(0, 3);
    eq.run();
    ASSERT_EQ(retired.size(), 1u);
    EXPECT_EQ(s.instsIssued(), 0u);
}

} // namespace
} // namespace carve
