/** @file Tests for the unified metrics registry: dotted-name lookup,
 * deterministic walk/dump ordering, flat rendering, sample guards,
 * wildcard matching, and per-kernel epoch snapshots on a live
 * system. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/stats.hh"
#include "core/multi_gpu_system.hh"
#include "core/report.hh"
#include "core/system_preset.hh"
#include "sim_test_util.hh"
#include "workloads/synthetic.hh"

namespace carve {
namespace {

using test::miniConfig;
using test::miniWorkload;

// ---- lookup --------------------------------------------------------

TEST(StatsRegistry, DottedNameLookupFindsNestedStats)
{
    stats::Scalar hits, misses;
    stats::Average delay;

    stats::StatGroup root("");
    stats::StatGroup gpu0("gpu0", &root);
    stats::StatGroup l2("l2", &gpu0);
    l2.addScalar("hits", &hits);
    l2.addScalar("misses", &misses);
    l2.addAverage("delay", &delay);

    hits += 7;
    misses += 3;

    ASSERT_NE(root.findScalar("gpu0.l2.hits"), nullptr);
    EXPECT_EQ(root.findScalar("gpu0.l2.hits")->value(), 7u);
    EXPECT_EQ(root.findScalar("gpu0.l2.misses")->value(), 3u);
    EXPECT_NE(root.findAverage("gpu0.l2.delay"), nullptr);
    EXPECT_NE(root.findGroup("gpu0.l2"), nullptr);
    EXPECT_EQ(root.findGroup("gpu0.l2")->fullName(), "gpu0.l2");

    // Lookup is relative to the receiving group.
    EXPECT_EQ(gpu0.findScalar("l2.hits")->value(), 7u);

    EXPECT_EQ(root.findScalar("gpu0.l2.nothing"), nullptr);
    EXPECT_EQ(root.findScalar("gpu1.l2.hits"), nullptr);
    EXPECT_EQ(root.findGroup("gpu0.l3"), nullptr);
}

TEST(StatsRegistry, FindValueCoversScalarsAndDerived)
{
    stats::Scalar n;
    stats::StatGroup root("");
    root.addScalar("n", &n);
    root.addDerived("ratio", [&] { return 0.25; });
    root.addDerivedInt("twice", [&] { return n.value() * 2; });

    n += 10;
    ASSERT_TRUE(root.findValue("n").has_value());
    EXPECT_DOUBLE_EQ(*root.findValue("n"), 10.0);
    EXPECT_DOUBLE_EQ(*root.findValue("ratio"), 0.25);
    EXPECT_DOUBLE_EQ(*root.findValue("twice"), 20.0);
    EXPECT_FALSE(root.findValue("absent").has_value());
}

// ---- deterministic ordering ----------------------------------------

TEST(StatsRegistry, DumpIsIndependentOfRegistrationOrder)
{
    stats::Scalar a, b, c;

    // Same names, opposite registration orders.
    stats::StatGroup r1("");
    stats::StatGroup g1z("zeta", &r1);
    stats::StatGroup g1a("alpha", &r1);
    g1z.addScalar("beta", &b);
    g1z.addScalar("alpha", &a);
    g1a.addScalar("gamma", &c);

    stats::StatGroup r2("");
    stats::StatGroup g2a("alpha", &r2);
    stats::StatGroup g2z("zeta", &r2);
    g2a.addScalar("gamma", &c);
    g2z.addScalar("alpha", &a);
    g2z.addScalar("beta", &b);

    std::ostringstream o1, o2;
    r1.dump(o1);
    r2.dump(o2);
    EXPECT_EQ(o1.str(), o2.str());

    // Sorted: alpha.gamma before zeta.alpha before zeta.beta.
    const std::string text = o1.str();
    EXPECT_LT(text.find("alpha.gamma"), text.find("zeta.alpha"));
    EXPECT_LT(text.find("zeta.alpha"), text.find("zeta.beta"));
}

TEST(StatsRegistry, FlattenExpandsAverages)
{
    stats::Scalar s;
    stats::Average avg;

    stats::StatGroup root("");
    stats::StatGroup g("g", &root);
    g.addScalar("events", &s);
    g.addAverage("delay", &avg);

    s += 5;
    avg.sample(2.0);
    avg.sample(4.0);

    const auto flat = stats::flattenStats(root);
    ASSERT_FALSE(flat.empty());
    for (std::size_t i = 1; i < flat.size(); ++i)
        EXPECT_LT(flat[i - 1].name, flat[i].name) << "sorted by name";

    const auto find = [&](const std::string &n) -> const stats::FlatStat * {
        for (const auto &f : flat)
            if (f.name == n)
                return &f;
        return nullptr;
    };
    ASSERT_NE(find("g.events"), nullptr);
    EXPECT_TRUE(find("g.events")->integral);
    EXPECT_EQ(find("g.events")->u64, 5u);
    ASSERT_NE(find("g.delay.count"), nullptr);
    EXPECT_EQ(find("g.delay.count")->u64, 2u);
    ASSERT_NE(find("g.delay.sum"), nullptr);
    EXPECT_DOUBLE_EQ(find("g.delay.sum")->asDouble(), 6.0);
}

// ---- sample guards -------------------------------------------------

TEST(StatsRegistry, AverageDropsNanAndNegativeSamples)
{
    stats::Average a;
    a.sample(3.0);
    a.sample(std::nan(""));
    a.sample(-1.0);
    a.sample(std::numeric_limits<double>::infinity());
    a.sample(5.0);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.sum(), 8.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(StatsRegistry, ScalarActsLikeCounter)
{
    stats::Scalar s;
    ++s;
    s += 9;
    EXPECT_EQ(s.value(), 10u);
    const std::uint64_t doubled = s + s;  // implicit conversion
    EXPECT_EQ(doubled, 20u);
    s = 3;
    EXPECT_EQ(s.value(), 3u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

// ---- wildcard matching ---------------------------------------------

TEST(StatsRegistry, NameMatchingSegmentsAndPrefixes)
{
    using stats::nameMatches;
    EXPECT_TRUE(nameMatches("gpu0.l2.hits", "gpu0.l2.hits"));
    EXPECT_TRUE(nameMatches("*.l2.hits", "gpu0.l2.hits"));
    EXPECT_TRUE(nameMatches("gpu*.l2.hits", "gpu0.l2.hits"));
    EXPECT_TRUE(nameMatches("gpu*.l2.hits", "gpu12.l2.hits"));
    EXPECT_TRUE(nameMatches("link.*.*.bytes", "link.0.3.bytes"));
    EXPECT_TRUE(nameMatches("link.*.*.bytes", "link.cpu.2.bytes"));

    // '*' never spans dots, and segment counts must agree.
    EXPECT_FALSE(nameMatches("gpu*.l2.hits", "gpu0.l2.mshrs.hits"));
    EXPECT_FALSE(nameMatches("*.hits", "gpu0.l2.hits"));
    EXPECT_FALSE(nameMatches("gpu*.l2.hits", "cpu0.l2.hits"));
    EXPECT_FALSE(nameMatches("gpu0.l2", "gpu0.l2.hits"));
    EXPECT_FALSE(nameMatches("gpu0.l2.hits", "gpu0.l2"));
}

// ---- snapshots -----------------------------------------------------

TEST(StatsRegistry, SnapshotDeltaReportsIncrease)
{
    stats::Scalar a, b;
    stats::StatGroup root("");
    root.addScalar("a", &a);
    root.addScalar("b", &b);

    a += 10;
    const stats::ScalarSnapshot before = stats::snapshotScalars(root);
    a += 5;
    b += 2;
    const stats::ScalarSnapshot after = stats::snapshotScalars(root);

    const stats::ScalarSnapshot delta =
        stats::snapshotDelta(before, after);
    ASSERT_EQ(delta.size(), 2u);
    EXPECT_EQ(delta[0].first, "a");
    EXPECT_EQ(delta[0].second, 5u);
    EXPECT_EQ(delta[1].first, "b");
    EXPECT_EQ(delta[1].second, 2u);
}

// ---- live system ---------------------------------------------------

TEST(StatsRegistry, SystemRegistryMatchesSummaryFields)
{
    const WorkloadParams p =
        miniWorkload(RegionKind::InterleavedStream, 0.2);
    SyntheticWorkload wl(p, 128, 1);
    const SystemConfig cfg =
        makePreset(Preset::CarveHwc, miniConfig());
    MultiGpuSystem sys(cfg, wl);
    sys.run();
    ASSERT_TRUE(sys.finished());

    const SimResult r = collectResult(sys, "mini", "CARVE-HWC");
    const stats::StatGroup &root = sys.stats();

    // The summary fields are derived from the registry; spot-check
    // that direct lookups agree (the registry really is the single
    // source of truth, not a parallel bookkeeping path).
    EXPECT_DOUBLE_EQ(*root.findValue("sim.cycles"),
                     static_cast<double>(r.cycles));
    std::uint64_t remote_reads = 0, migrations = 0;
    for (const auto &f : r.stat_tree) {
        if (stats::nameMatches("gpu*.traffic.remote_reads", f.name))
            remote_reads += f.u64;
        if (f.name == "numa.migrations")
            migrations = f.u64;
    }
    EXPECT_EQ(remote_reads, r.traffic.remote_reads.value());
    EXPECT_EQ(migrations, r.migrations);
    EXPECT_GT(r.stat_tree.size(), 100u)
        << "every component must contribute stats";
}

TEST(StatsRegistry, KernelPhasesPartitionTheRun)
{
    const WorkloadParams p =
        miniWorkload(RegionKind::InterleavedStream, 0.2, 3);
    SyntheticWorkload wl(p, 128, 1);
    const SystemConfig cfg =
        makePreset(Preset::NumaGpu, miniConfig());
    MultiGpuSystem sys(cfg, wl);
    sys.run();
    ASSERT_TRUE(sys.finished());

    const auto &phases = sys.kernelPhases();
    ASSERT_EQ(phases.size(), 3u) << "one phase per kernel";

    // Phases tile the run: contiguous, increasing cycle ranges.
    for (std::size_t i = 0; i < phases.size(); ++i) {
        EXPECT_EQ(phases[i].index, i);
        EXPECT_LT(phases[i].start_cycle, phases[i].end_cycle);
        if (i > 0) {
            EXPECT_EQ(phases[i].start_cycle,
                      phases[i - 1].end_cycle);
        }
    }

    // Epoch deltas must sum to the final counter values: snapshots
    // are pure differences, never resets of live counters.
    const stats::ScalarSnapshot final_snap =
        stats::snapshotScalars(sys.stats());
    std::uint64_t insts_total = 0;
    for (const auto &ph : phases) {
        for (const auto &[name, value] : ph.deltas) {
            if (name == "gpu0.sm0.insts_issued")
                insts_total += value;
        }
    }
    std::uint64_t insts_final = 0;
    for (const auto &[name, value] : final_snap) {
        if (name == "gpu0.sm0.insts_issued")
            insts_final = value;
    }
    EXPECT_GT(insts_final, 0u);
    EXPECT_EQ(insts_total, insts_final);
}

} // namespace
} // namespace carve
