/** @file Unit tests for the CARVE building blocks: epoch counter,
 * Alloy RDC structure, dirty map and hit predictor. */

#include <gtest/gtest.h>

#include "dramcache/alloy_cache.hh"
#include "dramcache/dirty_map.hh"
#include "dramcache/epoch.hh"
#include "dramcache/hit_predictor.hh"

namespace carve {
namespace {

// ---- epoch ----------------------------------------------------------

TEST(Epoch, IncrementAdvances)
{
    EpochCounter e(20);
    EXPECT_EQ(e.current(), 0u);
    EXPECT_FALSE(e.increment());
    EXPECT_EQ(e.current(), 1u);
    EXPECT_EQ(e.increments(), 1u);
}

TEST(Epoch, RolloverWrapsAndReports)
{
    EpochCounter e(2);  // max value 3
    EXPECT_FALSE(e.increment());
    EXPECT_FALSE(e.increment());
    EXPECT_FALSE(e.increment());
    EXPECT_TRUE(e.increment());  // 3 -> 0
    EXPECT_EQ(e.current(), 0u);
    EXPECT_EQ(e.rollovers(), 1u);
}

TEST(EpochDeathTest, RejectsBadWidths)
{
    EXPECT_EXIT(EpochCounter(0), ::testing::ExitedWithCode(1),
                "width");
    EXPECT_EXIT(EpochCounter(32), ::testing::ExitedWithCode(1),
                "width");
}

// ---- alloy cache ----------------------------------------------------

TEST(Alloy, GeometryAndSetMapping)
{
    AlloyCache a(1024 * 128, 128);
    EXPECT_EQ(a.numSets(), 1024u);
    EXPECT_EQ(a.capacity(), 1024u * 128);
    // Direct-mapped: line N and line N + sets collide.
    EXPECT_EQ(a.setIndex(0), a.setIndex(1024ull * 128));
    EXPECT_NE(a.setIndex(0), a.setIndex(128));
}

TEST(Alloy, MissInsertHit)
{
    AlloyCache a(1024 * 128, 128);
    EXPECT_EQ(a.lookup(0x80, 0), RdcLookup::Miss);
    a.insert(0x80, 0);
    EXPECT_EQ(a.lookup(0x80, 0), RdcLookup::Hit);
    EXPECT_EQ(a.hits(), 1u);
    EXPECT_EQ(a.misses(), 1u);
}

TEST(Alloy, EpochMismatchIsStale)
{
    AlloyCache a(1024 * 128, 128);
    a.insert(0x80, 5);
    EXPECT_EQ(a.lookup(0x80, 6), RdcLookup::StaleEpoch);
    EXPECT_EQ(a.staleHits(), 1u);
    // hitRate counts stale probes as misses.
    EXPECT_DOUBLE_EQ(a.hitRate(), 0.0);
}

TEST(Alloy, DirectMappedConflictDisplaces)
{
    AlloyCache a(16 * 128, 128);
    const Addr low = 0;
    const Addr high = 16ull * 128;  // same set
    a.insert(low, 0);
    EXPECT_TRUE(a.insert(high, 0));  // displaced
    EXPECT_EQ(a.lookup(low, 0), RdcLookup::Miss);
    EXPECT_EQ(a.lookup(high, 0), RdcLookup::Hit);
    EXPECT_EQ(a.conflictEvictions(), 1u);
}

TEST(Alloy, ReinsertSameLineIsNotAConflict)
{
    AlloyCache a(16 * 128, 128);
    a.insert(0, 0);
    EXPECT_FALSE(a.insert(0, 1));
    EXPECT_EQ(a.conflictEvictions(), 0u);
    EXPECT_EQ(a.lookup(0, 1), RdcLookup::Hit);
}

TEST(Alloy, InvalidateLine)
{
    AlloyCache a(16 * 128, 128);
    a.insert(0x100, 0);
    EXPECT_TRUE(a.invalidateLine(0x100));
    EXPECT_FALSE(a.invalidateLine(0x100));
    EXPECT_EQ(a.lookup(0x100, 0), RdcLookup::Miss);
}

TEST(Alloy, InvalidateWrongLineInSetIsNoop)
{
    AlloyCache a(16 * 128, 128);
    a.insert(0, 0);
    EXPECT_FALSE(a.invalidateLine(16ull * 128));  // same set, diff tag
    EXPECT_EQ(a.lookup(0, 0), RdcLookup::Hit);
}

TEST(Alloy, MarkDirtyOnlyOnEpochCurrentLines)
{
    AlloyCache a(16 * 128, 128);
    a.insert(0x100, 3);
    EXPECT_TRUE(a.markDirty(0x100, 3));
    EXPECT_FALSE(a.markDirty(0x100, 4));
    EXPECT_FALSE(a.markDirty(0x200, 3));
}

TEST(Alloy, ResetAllClearsEverything)
{
    AlloyCache a(1024 * 128, 128);
    for (Addr i = 0; i < 100; ++i)
        a.insert(i * 128, 0);
    EXPECT_EQ(a.touchedSets(), 100u);
    a.clear();
    EXPECT_EQ(a.touchedSets(), 0u);
    EXPECT_EQ(a.lookup(0, 0), RdcLookup::Miss);
}

TEST(Alloy, PeekIsStatFree)
{
    AlloyCache a(16 * 128, 128);
    a.insert(0, 7);
    EXPECT_TRUE(a.peek(0, 7));
    EXPECT_FALSE(a.peek(0, 8));
    EXPECT_FALSE(a.peek(128, 7));
    EXPECT_EQ(a.hits(), 0u);
    EXPECT_EQ(a.misses(), 0u);
}

TEST(Alloy, DisplacedDirtyVictimIsReturned)
{
    AlloyCache a(16 * 128, 128);
    a.insert(0, 0, /* dirty */ true, /* home */ 3);
    const auto victim = a.insert(16ull * 128, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(victim->home, 3u);
    EXPECT_EQ(victim->tag, 0u);
    EXPECT_EQ(a.dirtyEvictions(), 1u);
    EXPECT_EQ(a.conflictEvictions(), 1u);
}

TEST(Alloy, CleanVictimOwesNoWriteback)
{
    AlloyCache a(16 * 128, 128);
    a.insert(0, 0, /* dirty */ false, /* home */ 3);
    const auto victim = a.insert(16ull * 128, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_FALSE(victim->dirty);
    EXPECT_EQ(a.dirtyEvictions(), 0u);
}

TEST(Alloy, CleanAllClearsDirtyBitsButKeepsLines)
{
    AlloyCache a(16 * 128, 128);
    a.insert(0x100, 0, /* dirty */ true, 1);
    EXPECT_TRUE(a.lineDirty(0x100));
    a.cleanAll();
    EXPECT_FALSE(a.lineDirty(0x100));
    EXPECT_EQ(a.lookup(0x100, 0), RdcLookup::Hit);
}

TEST(Alloy, ProbesConserveAcrossOutcomes)
{
    AlloyCache a(16 * 128, 128);
    a.lookup(0, 0);          // miss
    a.insert(0, 0);
    a.lookup(0, 0);          // hit
    a.lookup(0, 1);          // stale epoch
    EXPECT_EQ(a.probes(), 3u);
    EXPECT_EQ(a.hits() + a.misses() + a.staleHits(), a.probes());
}

TEST(Alloy, SetStorageOffsetWithinCapacity)
{
    AlloyCache a(1024 * 128, 128);
    for (Addr i = 0; i < 5000; ++i)
        EXPECT_LT(a.setStorageOffset(i * 128 + 64), a.capacity());
}

TEST(AlloyDeathTest, RejectsUnalignedSize)
{
    EXPECT_EXIT(AlloyCache(1000, 128), ::testing::ExitedWithCode(1),
                "multiple");
}

// ---- dirty map ------------------------------------------------------

TEST(DirtyMap, TracksRegions)
{
    DirtyMap d(4096);
    EXPECT_FALSE(d.isDirty(0));
    d.markDirty(100, 1);
    d.markDirty(4000, 1);   // same 4KB region
    d.markDirty(5000, 2);   // next region
    EXPECT_TRUE(d.isDirty(0));
    EXPECT_TRUE(d.isDirty(4096));
    EXPECT_EQ(d.dirtyLines(), 3u);
    EXPECT_EQ(d.dirtyRegions(), 2u);
    EXPECT_EQ(d.dirtyBytes(), 8192u);
    EXPECT_EQ(d.markings(), 3u);
}

TEST(DirtyMap, ClearAfterFlush)
{
    DirtyMap d(4096);
    d.markDirty(0, 1);
    d.clear();
    EXPECT_EQ(d.dirtyRegions(), 0u);
    EXPECT_FALSE(d.isDirty(0));
}

TEST(DirtyMap, ClearDirtyForgetsOnlyThatSet)
{
    DirtyMap d(4096);
    d.markDirty(100, 1);
    d.markDirty(4000, 1);   // same region, different set
    d.clearDirty(100);
    EXPECT_FALSE(d.isDirtyLine(100));
    EXPECT_TRUE(d.isDirtyLine(4000));
    // The region stays dirty through the surviving set.
    EXPECT_TRUE(d.isDirty(0));
    EXPECT_EQ(d.dirtyRegions(), 1u);
    d.clearDirty(4000);
    EXPECT_FALSE(d.isDirty(0));
    EXPECT_EQ(d.dirtyRegions(), 0u);
}

TEST(DirtyMap, FlushTargetsAttributeRegionsToHomes)
{
    DirtyMap d(4096);
    d.markDirty(0, 2);
    d.markDirty(128, 2);    // same region, same home
    d.markDirty(8192, 3);   // separate region, another home
    const auto targets = d.flushTargets();
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_EQ(targets[0].first, 2u);
    EXPECT_EQ(targets[0].second, 4096u);
    EXPECT_EQ(targets[1].first, 3u);
    EXPECT_EQ(targets[1].second, 4096u);
    EXPECT_EQ(targets[0].second + targets[1].second, d.dirtyBytes());
}

TEST(DirtyMapDeathTest, RegionMustBePowerOfTwo)
{
    EXPECT_EXIT(DirtyMap(3000), ::testing::ExitedWithCode(1),
                "power of two");
}

// ---- hit predictor --------------------------------------------------

TEST(HitPredictor, StartsPredictingHit)
{
    HitPredictor p(256, 12);
    EXPECT_TRUE(p.predictHit(0x1000));
}

TEST(HitPredictor, LearnsMissStreak)
{
    HitPredictor p(256, 12);
    for (int i = 0; i < 8; ++i)
        p.update(0x1000, false);
    EXPECT_FALSE(p.predictHit(0x1000));
    // And re-learns hits.
    for (int i = 0; i < 8; ++i)
        p.update(0x1000, true);
    EXPECT_TRUE(p.predictHit(0x1000));
}

TEST(HitPredictor, RegionsLearnIndependently)
{
    HitPredictor p(1024, 12);
    for (int i = 0; i < 8; ++i)
        p.update(0x0, false);
    EXPECT_FALSE(p.predictHit(0x0));
    EXPECT_TRUE(p.predictHit(0x4000000));  // far-away region
}

TEST(HitPredictor, AccuracyTracking)
{
    HitPredictor p(256, 12);
    for (int i = 0; i < 100; ++i)
        p.update(0x2000, true);  // always-hit stream: all correct
    EXPECT_GT(p.accuracy(), 0.99);
    EXPECT_EQ(p.predictions(), 100u);
}

} // namespace
} // namespace carve
